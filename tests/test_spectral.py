import json
import math

import numpy as np
import pytest

from conftest import CASE_I, CASE_I_C2, CASE_II, CASE_III, random_stable_params
from fluidtail.errors import FluidTailError
from fluidtail.model import ModelParams, phase_stationary
from fluidtail.spectral import (
    _generator,
    curves_csv,
    solve_truncated,
    summary_json,
)

# the benchmark's reference tuples: the three cases, a c=2 pole and c=8
REFERENCE = [CASE_I, CASE_II, CASE_III, CASE_I_C2, ModelParams(c=8, lam=6.0, mu=1.0, r=1.0)]


def test_truncation_too_small():
    with pytest.raises(ValueError):
        solve_truncated(CASE_I, 5)


def test_unstable_params_rejected():
    from fluidtail.errors import UnstableModelError

    with pytest.raises(UnstableModelError):
        solve_truncated(ModelParams(c=1, lam=1.0, mu=1.5, r=2.0), 100)


def test_boundary_structure(sol_case1):
    # only the draining phases carry mass at level zero
    p0 = sol_case1.boundary_masses
    assert p0[0] > 0.0
    assert np.all(np.abs(p0[1:]) < 1e-10)
    assert p0[0] == pytest.approx(1.0 / 3.0, abs=1e-9)  # xi_0 - r(1 - xi_0)
    b = sol_case1.boundary_vector()
    assert b.source == "spectral-oracle"
    assert sum(b.masses) < 1.0


def test_boundary_rate_conservation(rng):
    # sum_{i<c} (c-i) Pi_i(0) equals the negated mean drift exactly, and the
    # mass at zero never exceeds the phase's total stationary mass
    for _ in range(8):
        p = random_stable_params(rng, c_choices=(1, 2, 3))
        sol = solve_truncated(p, 200)
        drained = sum((p.c - i) * sol.boundary_masses[i] for i in range(p.c))
        assert drained == pytest.approx(-phase_stationary(p).mean_drift(), rel=1e-8)
        xi = phase_stationary(p)
        for i in range(p.c):
            assert sol.boundary_masses[i] <= xi.prob(i) + 1e-12


def test_boundary_balance_c2(sol_case1_c2):
    # lam*Pi_0(0) - mu*Pi_1(0) = c*pi_0(0) >= 0
    p = sol_case1_c2.params
    b = sol_case1_c2.boundary_vector()
    slack = p.lam * b[0] - p.mu * b[1]
    assert slack >= 0.0
    assert slack == pytest.approx(p.c * sol_case1_c2.density(0.0)[0], rel=1e-7)


def _schur_boundary_masses(p, n_phases):
    """Dense reference: boundary masses from the stable Schur subspace.

    Pi(0) = xi + V1 a over an orthonormal basis V1 of the stable invariant
    subspace of (Q R^{-1})^T, with a pinned by Pi_i(0) = 0 for i >= c.
    """
    from scipy.linalg import schur

    q = _generator(p, n_phases)
    rates = p.net_rates(n_phases + 1)
    xi = solve_truncated(p, n_phases).xi
    a_t = (q @ np.diag(1.0 / rates)).T
    _, v, sdim = schur(a_t, sort=lambda x: x.real < -1e-9, output="real")
    assert sdim == n_phases + 1 - p.c
    v1 = v[:, :sdim]
    coeffs = np.linalg.lstsq(v1[p.c:, :], -xi[p.c:], rcond=None)[0]
    return (xi + v1 @ coeffs)[: p.c]


def test_boundary_masses_match_schur_reference(rng):
    tuples = REFERENCE + [random_stable_params(rng) for _ in range(8)]
    for p in tuples:
        ref = _schur_boundary_masses(p, 200)
        got = solve_truncated(p, 200).boundary_masses[: p.c]
        assert got == pytest.approx(ref, rel=1e-10, abs=0.0), p


def test_mode_sum_reproduces_boundary_masses(rng):
    # the weights are inner products, not a solve pinning Pi_i(0) = 0 for
    # i >= c, so the mode sum at x = 0 must still vanish in the filling
    # phases and give the masses of the c x c solve in the draining ones
    tuples = REFERENCE + [random_stable_params(rng, c_choices=tuple(range(1, 9)))
                          for _ in range(8)]
    for p in tuples:
        sol = solve_truncated(p, 200)
        at_zero = sol.xi + sol.mode_shapes.sum(axis=1)
        assert np.abs(at_zero[p.c:]).max() <= 1e-12 * sol.xi.max(), p
        assert at_zero[: p.c] == pytest.approx(sol.boundary_masses[: p.c], rel=1e-10, abs=0.0), p


def test_low_load_c8_is_finite():
    # xi underflows to zero in the high phases here; nothing may divide by it
    sol = solve_truncated(ModelParams(c=8, lam=0.2116, mu=9.077, r=0.5198), 400)
    assert sol.xi[-1] == 0.0
    assert np.all(np.isfinite(sol.boundary_masses))
    assert np.all(np.isfinite(sol.mode_shapes))
    assert np.all(sol.boundary_masses[:8] > 0.0)


def test_truncated_law_balance():
    # lam xi_i = min(i + 1, c) mu xi_{i+1}: the birth-death product form
    for p in REFERENCE:
        xi = solve_truncated(p, 200).xi
        service = np.minimum(np.arange(1, 201), p.c) * p.mu
        assert xi.sum() == pytest.approx(1.0, rel=1e-14)
        keep = xi[1:] > 1e-250
        assert p.lam * xi[:-1][keep] == pytest.approx((service * xi[1:])[keep], rel=1e-11)


def test_truncated_law_matches_extended_precision():
    # the truncated law, against the product form in 50 digits, wherever it
    # is above 1e-300; the largest error on these tuples reads 1.4e-14
    mp = pytest.importorskip("mpmath")
    for p in (ModelParams(c=2, lam=1.5, mu=1.0, r=0.5), ModelParams(c=5, lam=3.7, mu=1.1, r=0.8),
              ModelParams(c=8, lam=6.0, mu=1.0, r=1.0), ModelParams(c=60, lam=50.0, mu=1.0, r=0.3)):
        with mp.workdps(50):
            w = [mp.mpf(1)]
            for i in range(1, 401):
                w.append(w[-1] * mp.mpf(p.lam) / (min(i, p.c) * mp.mpf(p.mu)))
            total = mp.fsum(w)
            ref = np.array([float(v / total) for v in w])
        keep = ref > 1e-300
        xi = solve_truncated(p, 400).xi
        assert xi[keep] == pytest.approx(ref[keep], rel=1e-13, abs=0.0), p


def test_mode_residual(sol_case1_c2):
    # each retained mode satisfies s phi R = phi Q, i.e. A^T v = s v for
    # A = Q R^{-1} and the unit column v = phi^T
    p = sol_case1_c2.params
    q = _generator(p, sol_case1_c2.n_phases)
    rates = p.net_rates(sol_case1_c2.n_phases + 1)
    a_t = (q @ np.diag(1.0 / rates)).T
    v = sol_case1_c2.mode_shapes / np.linalg.norm(sol_case1_c2.mode_shapes, axis=0)
    resid = a_t @ v - v * sol_case1_c2.eigenvalues
    scale = np.abs(a_t).max()
    assert np.abs(resid).max() < 1e-10 * scale


def test_transform_matches_quadrature(sol_case1_c2):
    # integral of e^{alpha x} pi_i(x) over x > 0 by Gauss-Legendre panels,
    # graded near zero where the fast modes live, out to e^{-40} of the tail
    alpha = 0.03
    decay = -sol_case1_c2.eigenvalues[0] - alpha
    edges = np.concatenate([[0.0], np.geomspace(1e-4, 40.0 / decay, 400)])
    nodes, weights = np.polynomial.legendre.leggauss(20)
    half = 0.5 * np.diff(edges)
    xs = (edges[:-1, None] + half[:, None] * (nodes + 1.0)).ravel()
    ws = (half[:, None] * weights).ravel()
    phases = list(range(sol_case1_c2.params.c + 3))
    ref = (ws * np.exp(alpha * xs)) @ sol_case1_c2.density_grid(xs)[:, phases]
    got = sol_case1_c2.transform(alpha)[phases]
    assert got == pytest.approx(ref, rel=1e-8, abs=0.0)


def test_pencil_eigenpair_residual():
    # top eigenpairs of the symmetric pencil satisfy s*v*R = v*Q
    p = CASE_I
    n = 150
    sol = solve_truncated(p, n)
    q = _generator(p, n)
    rates = p.net_rates(n + 1)
    a = q @ np.diag(1.0 / rates)
    scale = np.abs(a).max()
    for s in sol.eigenvalues[:3]:
        sigma_min = np.linalg.svd(a.T - s * np.eye(n + 1), compute_uv=False)[-1]
        assert sigma_min < 1e-8 * scale


def test_ode_residual(sol_case1):
    # d/dx Pi(x) R = Pi(x) Q at 50 interior levels
    p = sol_case1.params
    q = _generator(p, sol_case1.n_phases)
    rates = p.net_rates(sol_case1.n_phases + 1)
    xs = np.linspace(0.5, 25.0, 50)
    pis = sol_case1.distribution_grid(xs)
    dens = sol_case1.density_grid(xs)
    resid = dens * rates[None, :] - pis @ q
    assert np.abs(resid[:, :-10]).max() < 1e-8


def test_distribution_limits(sol_case1):
    # Pi(x) -> xi and total mass -> 1 far in the tail
    x_far = 50.0 / 0.5
    pi = sol_case1.distribution(x_far)
    assert pi.sum() == pytest.approx(1.0, abs=1e-8)
    assert np.allclose(pi, sol_case1.xi, atol=1e-8)
    dens = sol_case1.density_grid(np.linspace(0.1, 30.0, 40))
    assert dens[:, : 10].min() > -1e-12


def test_truncation_convergence():
    s_small = solve_truncated(CASE_I, 200).eigenvalues[0].real
    s_large = solve_truncated(CASE_I, 400).eigenvalues[0].real
    assert abs(s_small - s_large) < 1e-6


def test_dominant_eigenvalue_matches_rates(sol_case1, sol_case2, sol_case3):
    assert -sol_case1.eigenvalues[0].real == pytest.approx(0.5, abs=1e-9)
    assert -sol_case2.eigenvalues[0].real == pytest.approx(1.0, rel=1e-3)
    assert -sol_case3.eigenvalues[0].real == pytest.approx(2.5147186257614296, rel=2e-2)


def test_deep_tail_density_case1(sol_case1):
    # pi_0(x) = e^{-x/2}/12 in Case I; at x = 70 that is 5e-17, below the
    # absolute roundoff of any evaluator that propagates the whole stable
    # block, so agreement across truncations pins relative accuracy
    scaled = {n: sol.density(70.0)[0] * math.exp(35.0) * 12.0
              for n, sol in ((200, solve_truncated(CASE_I, 200)), (400, sol_case1))}
    assert scaled[200] == pytest.approx(scaled[400], rel=1e-6)
    assert scaled[400] == pytest.approx(1.0, rel=1e-2)


def _mp_mode_density(p, n_phases, xs, phases):
    """Density of the truncated system as a mode sum in mpmath arithmetic.

    Built from the generator alone: -D Q D^{-1} = L L^T with
    D = diag(sqrt(xi)), the decaying modes from the symmetric
    K = -L^T R^{-1} L by mpmath's eigensolver, each checked against
    s phi R = phi Q, and the weights pinned by Pi_i(0) = 0 in the filling
    phases.
    """
    import mpmath as mp

    n = n_phases + 1
    lam, mu = mp.mpf(p.lam), mp.mpf(p.mu)
    up = [lam if i < n_phases else mp.mpf(0) for i in range(n)]
    down = [min(i, p.c) * mu for i in range(n)]
    rate = [mp.mpf(i - p.c) if i < p.c else mp.mpf(p.r) for i in range(n)]
    q = mp.zeros(n, n)
    for i in range(n):
        q[i, i] = -(up[i] + down[i])
        if i < n_phases:
            q[i, i + 1], q[i + 1, i] = up[i], down[i + 1]
    w = [mp.mpf(1)]
    for i in range(1, n):
        w.append(w[-1] * up[i - 1] / down[i])
    xi = [v / mp.fsum(w) for v in w]
    ell = mp.zeros(n, n - 1)
    for j in range(n - 1):
        ell[j, j], ell[j + 1, j] = mp.sqrt(up[j]), -mp.sqrt(down[j + 1])
    scaled = mp.matrix([[ell[i, j] / rate[i] for j in range(n - 1)] for i in range(n)])
    s, y = mp.eigsy(-(ell.T * scaled))
    stable = [k for k in range(n - 1) if s[k] < 0]
    assert len(stable) == n - p.c
    phi = mp.zeros(n, len(stable))
    for col, k in enumerate(stable):
        ly = ell * y[:, k]
        row = mp.matrix([[-mp.sqrt(xi[i]) * ly[i] / (rate[i] * s[k]) for i in range(n)]])
        resid = mp.matrix([[s[k] * row[i] * rate[i] for i in range(n)]]) - row * q
        assert mp.mnorm(resid, 1) < mp.eps * 1e6 * mp.mnorm(row, 1) * mp.mnorm(q, 1)
        for i in range(n):
            phi[i, col] = row[i]
    b = mp.lu_solve(phi[p.c:, :], mp.matrix([-xi[i] for i in range(p.c, n)]))
    return np.array([[float(mp.fsum(s[k] * b[col] * phi[i, col] * mp.exp(s[k] * mp.mpf(x))
                                    for col, k in enumerate(stable)))
                      for i in phases] for x in xs])


@pytest.mark.parametrize("params, x_max", [(CASE_I, 130.0), (CASE_III, 26.0)])
def test_density_matches_extended_precision(params, x_max):
    # float64 densities keep their relative accuracy down to 1e-30 (phases
    # 0..c, whose densities do not vanish at x = 0)
    mp = pytest.importorskip("mpmath")
    xs = np.linspace(0.0, x_max, 6)
    phases = range(params.c + 1)
    with mp.workdps(30):
        ref = _mp_mode_density(params, 40, xs, phases)
    assert ref.min() < 1e-29
    got = solve_truncated(params, 40).density_grid(xs)[:, list(phases)]
    assert np.abs(got / ref - 1.0).max() < 1e-8


def test_survival_refuses_underflow(sol_case1):
    # P(level > x) ~ e^{-x/2}/3 keeps its relative accuracy deep in the tail
    # and is refused once it turns subnormal, near x = 1415
    surv = sol_case1.survival_grid([100.0, 1400.0]) * np.exp([50.0, 700.0])
    assert surv == pytest.approx([1.0 / 3.0] * 2, rel=1e-3, abs=0.0)
    with pytest.raises(FluidTailError):
        sol_case1.survival_grid([100.0, 1450.0])


def test_summary_json_and_csv(sol_case1):
    payload = json.loads(summary_json(sol_case1))
    assert payload["schema"] == 1
    assert payload["dominant_eigenvalue"][0] == pytest.approx(-0.5, abs=1e-9)
    assert payload["boundary_masses"][0] == pytest.approx(1.0 / 3.0, abs=1e-8)
    csv_text = curves_csv(sol_case1, np.linspace(0.0, 5.0, 6))
    lines = csv_text.strip().splitlines()
    assert lines[0] == "x,phase,Pi,pi"
    assert len(lines) == 1 + 6 * (sol_case1.params.c + 8)
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and int(first[1]) == 0
    assert float(first[2]) == pytest.approx(1.0 / 3.0, abs=1e-8)


def test_package_exports_the_oracle_on_first_use():
    import fluidtail
    from fluidtail import spectral

    assert all(getattr(fluidtail, name) is not None for name in fluidtail.__all__)
    assert fluidtail.solve_truncated is spectral.solve_truncated
    assert fluidtail.SpectralSolution is spectral.SpectralSolution
    with pytest.raises(AttributeError):
        fluidtail.no_such_name
