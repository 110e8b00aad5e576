import math

import numpy as np
import pytest

from conftest import CASE_I, random_stable_params
from fluidtail.errors import FluidTailError, UnstableModelError
from fluidtail.model import (BoundaryVector, ModelParams, checked_boundary, is_stable,
                             phase_stationary)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(c=0, lam=1.0, mu=1.0, r=1.0)
    with pytest.raises(ValueError):
        ModelParams(c=1, lam=-1.0, mu=1.0, r=1.0)
    with pytest.raises(ValueError):
        ModelParams(c=1, lam=1.0, mu=1.0, r=0.0)


def test_net_rates():
    p = ModelParams(c=3, lam=1.0, mu=1.0, r=2.5)
    assert p.net_rate(0) == -3.0
    assert p.net_rate(2) == -1.0
    assert p.net_rate(3) == 2.5
    assert np.array_equal(p.net_rates(6), [-3.0, -2.0, -1.0, 2.5, 2.5, 2.5])


def test_stationary_c1_closed_form():
    # xi_0 = 2/3, xi_i = (2/3) 3^-i
    xi = phase_stationary(CASE_I)
    assert xi.prob(0) == pytest.approx(2.0 / 3.0, abs=1e-14)
    for i in range(1, 8):
        assert xi.prob(i) == pytest.approx((2.0 / 3.0) / 3.0 ** i, rel=1e-13)


def test_stationary_c2_closed_form():
    # xi_0 = xi_1 = 1/3, then a ratio-1/2 geometric tail
    p = ModelParams(c=2, lam=1.0, mu=1.0, r=1.0)
    xi = phase_stationary(p)
    assert xi.prob(0) == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert xi.prob(1) == pytest.approx(1.0 / 3.0, abs=1e-14)
    for i in range(2, 9):
        assert xi.prob(i) == pytest.approx((1.0 / 3.0) * 0.5 ** (i - 1), rel=1e-13)


def test_stationary_matches_balance_equations():
    # truncated birth-death balance as an independent oracle
    p = ModelParams(c=2, lam=1.0, mu=1.0, r=1.0)
    n = 200
    w = np.ones(n + 1)
    for i in range(1, n + 1):
        w[i] = w[i - 1] * p.lam / (min(i, p.c) * p.mu)
    w /= w.sum()
    probs = phase_stationary(p).probs(n + 1)
    assert np.allclose(probs, w, rtol=1e-12, atol=1e-300)


def test_unstable_background_chain_raises():
    with pytest.raises(UnstableModelError):
        phase_stationary(ModelParams(c=1, lam=1.0, mu=1.0, r=1.0))


def test_normalization_and_geometric_tail(rng):
    for _ in range(100):
        p = random_stable_params(rng, c_choices=(1, 2, 3, 5, 8, 25))
        xi = phase_stationary(p)
        head = xi.probs(p.c).sum()
        assert head + xi.tail_mass(p.c) == pytest.approx(1.0, abs=1e-12)
        ratio = p.lam / (p.c * p.mu)
        for i in range(p.c, p.c + 4):
            assert xi.prob(i + 1) / xi.prob(i) == pytest.approx(ratio, rel=1e-14)


@pytest.mark.parametrize("c", [1, 8, 100, 500])
@pytest.mark.parametrize("load", [0.01, 0.5, 0.99])
def test_phase_law_matches_mpmath(c, load):
    # the closed form at 50 digits: xi_i = xi_0 rho^i / i! up to phase c, then
    # geometric with ratio rho / c, and xi_0 normalizes the head plus that tail
    mpmath = pytest.importorskip("mpmath")
    p = ModelParams(c=c, lam=load * c, mu=1.0, r=1.0)
    xi = phase_stationary(p)
    # the head is built from the modal phase by at most c ratios, each carrying
    # up to three roundings, and the geometric tail's 1 - q amplifies the rounding
    # of q; a phase c + k beyond adds that of q^k.  No point gets a wider
    # tolerance than the log-space law's 4 eps (1 + max_i(i |log rho| + log i!)).
    eps, q = np.finfo(float).eps, p.lam / (c * p.mu)
    bound = eps * (5.0 + 3.0 * c + 2.0 * q / (1.0 - q))
    log_rho = math.log(p.lam / p.mu)
    log_space = 4.0 * eps * (1.0 + max(abs(i * log_rho) + math.lgamma(i + 1)
                                       for i in range(c + 3)))
    with mpmath.workdps(50):
        rho = mpmath.mpf(p.lam) / mpmath.mpf(p.mu)
        head = [rho ** i / mpmath.factorial(i) for i in range(c + 1)]
        xi0 = 1 / (mpmath.fsum(head[:c]) + head[c] / (1 - rho / c))
        ref = [xi0 * h for h in head] + [xi0 * head[c] * (rho / c) ** k for k in (1, 2)]
        for i, want in enumerate(ref):
            got = xi.prob(i)
            if want < np.finfo(float).tiny:   # below the normal range; light load, c = 500
                assert got < np.finfo(float).tiny
            else:
                tol = bound + (i - c + 2) * eps if i > c else bound
                tol = min(tol, log_space)
                assert abs(got - want) <= tol * want, (i, got, float(want))
        tail = xi0 * head[c] / (1 - rho / c)
        if tail >= np.finfo(float).tiny:
            assert abs(xi.tail_mass(c) - tail) <= min(log_space, bound) * tail
    head_mass = math.fsum(xi.prob(i) for i in range(c))
    assert head_mass + xi.tail_mass(c) == pytest.approx(1.0, abs=1e-12)
    # beyond phase c, numpy's power and Python's may round apart by an ulp
    np.testing.assert_allclose(xi.probs(c + 3), [xi.prob(i) for i in range(c + 3)],
                               rtol=4 * np.finfo(float).eps, atol=0.0)


def test_phase_law_where_lam_over_mu_rounds_to_c():
    # lam < c mu in doubles, but lam / mu rounds to c: the tail is summed with
    # q = lam / (c mu) < 1, not with c - rho = 0, and the tuple is refused as unstable
    p = ModelParams(c=9, lam=46.72436447155311, mu=5.19159605239479, r=1.0)
    assert p.lam < p.c * p.mu and p.lam / p.mu == p.c
    xi = phase_stationary(p)
    head = xi.probs(p.c)
    assert np.all(np.isfinite(head))
    assert math.fsum(head) + xi.tail_mass(p.c) == pytest.approx(1.0, abs=1e-12)
    assert not is_stable(p).stable


@pytest.mark.parametrize("masses", [(), np.empty(0), np.ones((2, 2)), [[0.1, 0.2]],
                                    (0.4, -1e-9), np.array([0.4, -1e-9])])
def test_boundary_vector_refuses_bad_masses(masses):
    with pytest.raises(ValueError):
        BoundaryVector(masses=masses)


def test_boundary_vector_clamps_roundoff_to_python_floats():
    b = BoundaryVector(masses=np.array([0.4, -1e-12, 0.1]))
    assert b.masses == (0.4, 0.0, 0.1)
    assert all(type(m) is float for m in b.masses)
    assert BoundaryVector(masses=[2.0]).masses == (2.0,)


def test_checked_boundary_refusals():
    p = ModelParams(c=2, lam=1.0, mu=2.0, r=1.0)
    with pytest.raises(FluidTailError, match="negative boundary mass"):
        checked_boundary(p, [0.3, -1e-9], "solve")
    # level-zero balance lam p0 - mu p1 >= -1e-9 max(1, p0)
    with pytest.raises(FluidTailError, match="level-zero balance"):
        checked_boundary(p, [0.3, 0.15 + 2e-9], "solve")
    with pytest.raises(FluidTailError, match="level-zero balance"):
        checked_boundary(p, [3.0, 1.5 + 2e-9], "solve")
    checked_boundary(p, [0.3, 0.15 + 2e-10], "solve")
    checked_boundary(p, [3.0, 1.5 + 1e-9], "solve")
    # only the c draining phases are kept, clamped and as Python floats
    b = checked_boundary(p, np.array([0.3, -1e-12, 5.0]), "solve")
    assert b.masses == (0.3, 0.0) and b.source == "solve"
    assert all(type(m) is float for m in b.masses)


def test_stability_closed_form_vs_mean_drift(rng):
    # the inequality verdict must match the sign of the mean drift
    checked = 0
    while checked < 120:
        c = int(rng.choice((1, 2, 3, 4)))
        lam = 10.0 ** rng.uniform(-1, 1)
        mu = 10.0 ** rng.uniform(-1, 1)
        r = 10.0 ** rng.uniform(-1, 1)
        if lam >= c * mu:
            continue
        rep = is_stable(ModelParams(c=c, lam=lam, mu=mu, r=r))
        assert rep.stable == (rep.mean_drift < 0) or abs(rep.mean_drift) < 1e-12
        checked += 1


def test_stability_examples():
    assert is_stable(CASE_I).stable
    rep = is_stable(CASE_I)
    assert (rep.lhs, rep.rhs) == (2.0, 3.0)
    # boundary case (r+1)*lam == mu is classified unstable
    boundary = is_stable(ModelParams(c=1, lam=1.0, mu=3.0, r=2.0))
    assert not boundary.stable
    assert boundary.mean_drift == pytest.approx(0.0, abs=1e-14)


def test_stability_at_many_servers_and_light_load():
    # the closed-form sum is about 1e368 here, past the double range
    rep = is_stable(ModelParams(c=100, lam=0.01, mu=1.0, r=1.0))
    assert rep.stable and rep.rhs == math.inf
    assert rep.mean_drift < 0


def test_log_factorials_match_gammaln():
    from scipy.special import gammaln

    from fluidtail.model import _log_factorials

    i = np.arange(201)
    ours = _log_factorials(201)
    ref = gammaln(i + 1.0)
    assert ours[0] == ours[1] == 0.0
    np.testing.assert_allclose(ours[2:], ref[2:], rtol=1e-14, atol=0.0)
    np.testing.assert_allclose([math.lgamma(k + 1) for k in range(2, 201)], ref[2:],
                               rtol=1e-14, atol=0.0)
