import math

import numpy as np
import pytest

from conftest import CASE_I, random_stable_params
from fluidtail.errors import UnstableModelError
from fluidtail.model import ModelParams, is_stable, phase_stationary


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
