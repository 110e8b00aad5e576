import math

import numpy as np
import pytest

from conftest import (
    CASE_I,
    CASE_I_C2,
    CASE_I_NEAR_BRANCH,
    CASE_II,
    CASE_III,
    ladder_generator,
    random_stable_params,
)
from fluidtail import asymptotics
from fluidtail.asymptotics import (
    TailCase,
    _derivative,
    analyze,
    boundary_mass_tail,
    classify,
    constant_branch_only,
    constant_pole_at_branch,
    constant_simple_pole,
    density_prefactor,
    joint_tail,
    kernel_boundary,
    lower_phase_tail,
    marginal_tail,
    transform_continuation,
)
from _forcing_oracle import alpha_of_z, kernel, numerator_terms
from fluidtail.errors import AssumptionViolatedError
from fluidtail.kernel import branch_points, branch_small_real
from fluidtail.model import BoundaryVector, ModelParams, phase_stationary
from fluidtail.roots import find_coeff_zero


@pytest.fixture(scope="module")
def report_case1():
    return analyze(CASE_I)


@pytest.fixture(scope="module")
def report_case1_c2():
    return analyze(CASE_I_C2)


def test_classification_of_reference_tuples():
    assert classify(CASE_I, find_coeff_zero(CASE_I)) == (TailCase.POLE, pytest.approx(0.5, rel=1e-12))
    case, alpha = classify(CASE_II, find_coeff_zero(CASE_II))
    assert case is TailCase.POLE_AT_BRANCH and alpha == pytest.approx(1.0, rel=1e-9)
    case, alpha = classify(CASE_III, find_coeff_zero(CASE_III))
    assert case is TailCase.BRANCH_ONLY
    assert alpha == pytest.approx(2.5147186257614296, rel=1e-12)


def test_case_partition_and_z_bounds(rng):
    for _ in range(60):
        p = random_stable_params(rng)
        case, alpha_star = classify(p, find_coeff_zero(p))
        bp = branch_points(p)
        assert 0.0 < alpha_star <= bp.alpha1 * (1 + 1e-12)
        z_star = branch_small_real(p, min(alpha_star, bp.alpha1))
        assert 1.0 < z_star <= math.sqrt(p.c * p.mu / p.lam) * (1 + 1e-12)
        if case is TailCase.POLE:
            assert alpha_star < bp.alpha1
        else:
            assert alpha_star == pytest.approx(bp.alpha1, rel=1e-12)


def test_kernel_consistency_identity(rng):
    # -(lam/cmu) z* + (lam+cmu)/cmu - r alpha*/cmu == 1/z*
    for _ in range(60):
        p = random_stable_params(rng)
        _, alpha_star = classify(p, find_coeff_zero(p))
        z_star = branch_small_real(p, alpha_star)
        cmu = p.c * p.mu
        lhs = -(p.lam / cmu) * z_star + (p.lam + cmu) / cmu - p.r * alpha_star / cmu
        assert lhs == pytest.approx(1.0 / z_star, rel=1e-10)
        assert abs(kernel(p, alpha_star, z_star)) < 1e-10 * cmu * max(1.0, z_star) ** 2


def test_pole_constant_case1(report_case1):
    # closed-form for the c=1 tuple: c1 = P0(0)/4 with P0(0) = 1/3
    assert report_case1.boundary[0] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert report_case1.c_const == pytest.approx(report_case1.boundary[0] / 4.0, rel=1e-7)
    assert report_case1.prefactor == pytest.approx(report_case1.c_const, rel=1e-12)  # Gamma(1)=1
    assert report_case1.power == 0.0


def test_pole_constant_extrapolation(report_case1):
    # (a*-a) * transform -> c1 as a -> a*; Richardson in the linear error term
    boundary = report_case1.boundary
    a_star = report_case1.alpha_star

    def probe(eps):
        return eps * transform_continuation(CASE_I, boundary, a_star - eps).real

    extrapolated = 2.0 * probe(5e-5) - probe(1e-4)
    assert extrapolated == pytest.approx(report_case1.c_const, rel=1e-4)


def test_pole_constant_zero_boundary():
    zero = find_coeff_zero(CASE_I)
    value, _, _ = constant_simple_pole(CASE_I, BoundaryVector(masses=(0.0,)), zero)
    assert value == 0.0


def test_alpha_star_error_bar_case1(report_case1):
    # CASE_I's decay rate is 1/2 exactly; its bar is absolute, positive and covers the rounding
    err = report_case1.alpha_star_err
    assert err > 0.0
    assert abs(report_case1.alpha_star - 0.5) <= err
    assert err < 1e-12


def test_complex_step_derivative():
    # one complex step recovers f' to rounding, with no step-size trade-off
    for x0 in (0.4, 3e-9, 250.0):
        assert _derivative(lambda x: np.sin(2.0 * x), x0) == pytest.approx(
            2.0 * math.cos(2.0 * x0), rel=1e-14)


def test_pole_constant_refuses_a_falling_zero(monkeypatch):
    # the bracket crosses d from negative to positive; a slope that is not
    # positive means the zero is not the simple one the constant assumes
    real = asymptotics._deflated
    monkeypatch.setattr(asymptotics, "_deflated", lambda p, a: tuple(-v for v in real(p, a)))
    with pytest.raises(AssumptionViolatedError, match="slope"):
        analyze(CASE_I)


def test_zero_within_rounding_of_alpha1_is_the_branch_point():
    # mu/(r+1) - lam lies one ulp below alpha1; the sign change of d that the
    # bracket finds, 1.7e-13 below it, is the edge of the clamped double root
    p = ModelParams(c=1, lam=0.8627200784746581, mu=1.6998946588215318, r=0.40370567424729287)
    zero = find_coeff_zero(p)
    assert zero.at_branch_point and zero.alpha == branch_points(p).alpha1
    report = analyze(p)
    assert report.case is TailCase.POLE_AT_BRANCH
    assert math.isfinite(report.prefactor) and report.prefactor > 0.0
    assert report.c_const_err < asymptotics._MAX_RTOL * abs(report.c_const)


def _mp_pole_constant(p, masses, alpha_guess):
    """N(alpha*) / f'(alpha*) in 50-digit arithmetic, Case I.

    f is the folded coefficient on the small branch, differentiated by hand,
    and N the transform numerator, both written out from their definitions
    (the chain recursion, _forcing_oracle) for the float parameters and the given
    float masses.
    """
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    with mpmath.workdps(50):
        c = p.c
        lam, mu, r = mp.mpf(p.lam), mp.mpf(p.mu), mp.mpf(p.r)
        m = [mp.mpf(float(x)) for x in masses]

        def small_branch(a):
            b = lam + c * mu - a * r
            root = mp.sqrt(max(b * b - 4 * c * lam * mu, 0))
            return 2 * c * mu / (b + root), root

        def chain(a):
            links, slopes = [mp.mpf(0)], [mp.mpf(0)]
            for i in range(c - 1):
                den = (c - i) * a + lam + i * mu - lam * links[-1]
                slope = (c - i) - lam * slopes[-1]
                links.append((i + 1) * mu / den)
                slopes.append(-(i + 1) * mu * slope / den ** 2)
            return links[1:], slopes[-1]

        def folded(a):
            z, links = small_branch(a)[0], chain(a)[0]
            head = lam * (links[-1] if links else 0) + mu - a * (r + 1)
            return head * z ** c - c * mu * z ** (c - 1)

        def folded_slope(a):
            (z, root), (links, slope) = small_branch(a), chain(a)
            dz = r * z / root    # dK = 0: (b - 2 lam z) dz = r z da
            head = lam * (links[-1] if links else 0) + mu - a * (r + 1)
            return ((lam * slope - (r + 1)) * z ** c
                    + (head * c * z - c * (c - 1) * mu) * z ** (c - 2) * dz)

        def numerator(a):
            z, top = small_branch(a)[0], m[c - 1]
            n = (lam * z * z - (lam + c * mu) * z + c * mu) * top * z ** (c - 1)
            n += (mu * z ** c - c * mu * z ** (c - 1)) * top
            if c > 1:
                k = [mu * m[1] - lam * m[0]] + [
                    lam * m[i - 1] - (lam + i * mu) * m[i] + (i + 1) * mu * m[i + 1]
                    for i in range(1, c - 1)]
                links = chain(a)[0]
                offset = mp.mpf(0)
                for j in range(c - 1):
                    prod = mp.mpf(1)
                    for i in range(j, c - 1):
                        prod *= links[i] / ((i + 1) * mu)
                    offset += k[j] * lam ** (c - 2 - j) * prod
                n += lam * z ** c * (m[c - 2] + offset)
            return n

        # the zero within 1e-6 of the guess: f changes sign there, and the
        # bracket stays on the real branch, at or below alpha1
        alpha1 = (mp.sqrt(c * mu) - mp.sqrt(lam)) ** 2 / r
        guess = mp.mpf(alpha_guess)
        bracket = (guess * (1 - mp.mpf(1e-6)), min(guess * (1 + mp.mpf(1e-6)), alpha1))
        alpha = mp.findroot(folded, bracket, solver="anderson")
        return numerator(alpha) / folded_slope(alpha)


def test_pole_constant_near_critical_c1():
    # alpha* = mu/(r+1) - lam = eps; rounding mu moves alpha*, and with it C,
    # by about 1e-16/eps relative
    mpmath = pytest.importorskip("mpmath")
    for eps in (1e-2, 1e-4, 1e-6, 1e-8):
        p = ModelParams(c=1, lam=1.0, mu=2.0 * (1.0 + eps), r=1.0)
        rep = analyze(p)
        assert rep.case is TailCase.POLE
        with mpmath.workdps(50):
            lam, mu, r = mpmath.mpf(p.lam), mpmath.mpf(p.mu), mpmath.mpf(p.r)
            a = mu / (r + 1) - lam
            b = -a * r + lam + mu
            z = (b - mpmath.sqrt(b * b - 4 * lam * mu)) / (2 * lam)
            rho = lam / mu
            p0 = (1 - rho) - rho * r   # minus the mean drift
            ref = p0 * lam * z * (z - 1) / (mu * r / (b - 2 * lam * z) - (r + 1) * z)
            gap = abs(rep.c_const - ref)
            assert gap <= 1e-14 / eps * abs(ref), eps
            assert gap <= rep.c_const_err, eps


def test_pole_constant_error_bar_covers_reference(rng):
    # the reference takes the same float masses and its own zero alpha*; the
    # large-r tuple lost digits to the source constants' cancellation when N
    # was built from the forcing
    tuples = [CASE_I, CASE_I_C2,
              ModelParams(c=6, lam=0.13509208428490757, mu=2.855512929091143, r=3.976e11)]
    while len(tuples) < 63:
        p = random_stable_params(rng, c_choices=range(1, 9))
        zero = find_coeff_zero(p)
        if zero.alpha is not None and not zero.at_branch_point:
            tuples.append(p)
    for p in tuples:
        rep = analyze(p)
        ref = _mp_pole_constant(p, rep.boundary.masses, rep.alpha_star)
        assert abs(rep.c_const - ref) <= rep.c_const_err, p


def test_branch_pole_constant_case2(sol_case2):
    # hand value: N = 1, dF/dz = 2, sqrt(alpha2 - alpha*) = sqrt(8)
    boundary = sol_case2.boundary_vector()
    assert boundary[0] == pytest.approx(0.5, abs=1e-9)
    c2 = constant_pole_at_branch(CASE_II, boundary)
    assert c2 == pytest.approx(1.0 / math.sqrt(8.0), rel=1e-9)
    # extrapolation of sqrt(a*-a) * transform, Richardson in sqrt(eps)
    def probe(eps):
        return math.sqrt(eps) * transform_continuation(CASE_II, boundary, 1.0 - eps).real

    extrapolated = 2.0 * probe(2.5e-7) - probe(1e-6)
    assert extrapolated == pytest.approx(c2, rel=1e-3)


def test_branch_only_constant_case3(sol_case3):
    boundary = sol_case3.boundary_vector()
    c3 = constant_branch_only(CASE_III, boundary)
    assert c3 > 0.0
    a_star = branch_points(CASE_III).alpha1

    def dprobe(eps):
        h = eps * 1e-4
        f = lambda a: transform_continuation(CASE_III, boundary, a).real
        return math.sqrt(eps) * (f(a_star - eps + h) - f(a_star - eps - h)) / (2 * h)

    extrapolated = 2.0 * dprobe(2.5e-7) - dprobe(1e-6)
    assert extrapolated == pytest.approx(c3, rel=1e-3)


def test_density_prefactor_mapping():
    assert density_prefactor(TailCase.POLE, 0.4) == (pytest.approx(0.4), 0.0)
    c2 = density_prefactor(TailCase.POLE_AT_BRANCH, 1.0)
    assert c2 == (pytest.approx(1.0 / math.sqrt(math.pi)), -0.5)
    c3 = density_prefactor(TailCase.BRANCH_ONLY, 1.0)
    assert c3 == (pytest.approx(1.0 / math.sqrt(math.pi)), -1.5)


def test_joint_tail_anchor_and_ratio(report_case1):
    # phase c-1 carries the density prefactor itself; consecutive phases damp
    # by exactly 1/Z_large in the pole case
    base = joint_tail(CASE_I, report_case1, 0)
    assert base.prefactor == pytest.approx(report_case1.prefactor, rel=1e-12)
    assert base.distribution_gap == pytest.approx(-base.prefactor / 0.5, rel=1e-12)
    for i in (1, 2, 5):
        tail = joint_tail(CASE_I, report_case1, i)
        assert tail.prefactor == pytest.approx(report_case1.prefactor * 0.5 ** i, rel=1e-12)
    assert report_case1.phase_ratio == pytest.approx(0.5, rel=1e-12)


def test_joint_tail_matches_oracle_phases(report_case1, sol_case1):
    # the oracle's density at depth agrees with the extraction
    xs = np.linspace(36.0, 44.0, 17)
    dens = sol_case1.density_grid(xs)
    for i in (0, 1, 2):
        fitted = float(np.mean(dens[:, i] * np.exp(0.5 * xs)))
        predicted = joint_tail(CASE_I, report_case1, i).prefactor
        assert fitted == pytest.approx(predicted, rel=0.02)
    # every per-phase prefactor, and the marginal's, against the coefficient
    # s_0 b_0 phi_0 of the oracle's leading mode; these read at most 6.1e-15
    # on the first two tuples at N = 400, while near the branch point the
    # oracle's continuum converges slowly: 6.5e-10 at N = 400, 1.4e-13 at 800
    from fluidtail.spectral import solve_truncated

    for p, n_phases, tol in ((CASE_I, 400, 5e-14), (CASE_I_C2, 400, 5e-14),
                             (CASE_I_NEAR_BRANCH, 800, 1e-12)):
        sol = solve_truncated(p, n_phases)
        report = analyze(p)
        leading = sol.eigenvalues[0] * sol.mode_shapes[:, 0]
        c = p.c
        got = [lower_phase_tail(p, report, i).prefactor for i in range(c - 1)]
        got += [joint_tail(p, report, i).prefactor for i in range(c - 1, c + 6)]
        got.append(marginal_tail(p, report).prefactor)
        want = np.append(leading[:c + 6], leading.sum())
        assert got == pytest.approx(want, rel=tol, abs=0.0), p


def test_marginal_tail_c1_bracket(report_case1):
    # for c=1 the bracket is (r+1)/r
    marg = marginal_tail(CASE_I, report_case1)
    assert marg.prefactor == pytest.approx(2.0 * report_case1.prefactor, rel=1e-12)
    assert report_case1.marginal_prefactor == pytest.approx(marg.prefactor, rel=1e-12)


@pytest.mark.parametrize("p", [CASE_I, CASE_II, CASE_III, CASE_I_C2, CASE_I_NEAR_BRANCH])
def test_report_marginal_and_residue_match_their_functions(p):
    # analyze fills both fields in one pass; they are the public functions' values exactly
    rep = analyze(p)
    assert rep.marginal_prefactor == marginal_tail(p, rep).prefactor
    assert rep.d_ztilde == boundary_mass_tail(p, rep.boundary).d_ztilde


def test_marginal_equals_phase_sum(report_case1_c2):
    # coherence: the marginal prefactor is the exact sum of all per-phase ones
    report = report_case1_c2
    total = sum(
        joint_tail(CASE_I_C2, report, i).prefactor for i in range(1, 400)
    )
    total += lower_phase_tail(CASE_I_C2, report, 0).prefactor
    assert total == pytest.approx(report.marginal_prefactor, rel=1e-10)


def test_lower_phase_tail_multiplier(report_case1_c2):
    report = report_case1_c2
    link_value = CASE_I_C2.mu / (2 * report.alpha_star + CASE_I_C2.lam)
    low = lower_phase_tail(CASE_I_C2, report, 0)
    assert low.prefactor == pytest.approx(report.prefactor * link_value, rel=1e-12)
    assert low.rate == report.alpha_star and low.power == report.power


def test_marginal_regular_at_one(rng):
    # K(alpha*, 1) = -alpha* r never vanishes for stable tuples
    for _ in range(30):
        p = random_stable_params(rng)
        _, alpha_star = classify(p, find_coeff_zero(p))
        assert abs(kernel(p, alpha_star, 1.0)) == pytest.approx(alpha_star * p.r, rel=1e-12)


def test_boundary_mass_tail_properties(rng):
    # alpha(z_tilde) = 0 exactly and the residue matches xi_{c-1} z_tilde^c > 0
    from fluidtail.spectral import solve_truncated

    for p in (CASE_I, CASE_II, CASE_I_C2, CASE_III):
        sol = solve_truncated(p, 200)
        bt = boundary_mass_tail(p, sol.boundary_vector())
        zt = p.c * p.mu / p.lam
        assert bt.z_tilde == zt
        assert alpha_of_z(p, zt) == pytest.approx(0.0, abs=1e-12)
        xi = phase_stationary(p)
        assert bt.d_ztilde == pytest.approx(xi.prob(p.c - 1) * zt ** p.c, rel=1e-7)
        assert bt.d_ztilde > 0.0


def test_boundary_mass_tail_positive_on_grid(rng):
    from fluidtail.spectral import solve_truncated

    for _ in range(12):
        p = random_stable_params(rng, c_choices=(1, 2, 3))
        sol = solve_truncated(p, 160)
        bt = boundary_mass_tail(p, sol.boundary_vector())
        xi = phase_stationary(p)
        assert bt.d_ztilde > 0.0
        assert bt.d_ztilde == pytest.approx(
            xi.prob(p.c - 1) * (p.c * p.mu / p.lam) ** p.c, rel=1e-6
        )


@pytest.mark.parametrize("p", [
    ModelParams(c=8, lam=8 * 0.003358656478424456, mu=1.0, r=1.0),
    ModelParams(c=12, lam=0.020069636140999738, mu=0.3205618220188776, r=2.3242678339308673),
], ids=["c8", "c12"])
def test_boundary_residue_low_load_c8(p):
    # the residue constant is xi_{c-1} z_tilde^c.  At c = 8 and load 0.0034
    # the forcing route missed it by 7e-5 relative, beyond validate's 1e-5;
    # at c = 12 and load 0.0052 the chain's direct recursion, whose pivots
    # cancel at alpha = 0, missed it by 3.6e-3
    zt = p.c * p.mu / p.lam
    expected = phase_stationary(p).prob(p.c - 1) * zt ** p.c
    assert analyze(p).d_ztilde == pytest.approx(expected, rel=1e-5)


def test_analyze_error_bars(report_case1):
    assert report_case1.c_const_err < 1e-4 * abs(report_case1.c_const) + 1e-12


def test_analyze_full_reports_cases_2_3():
    rep2 = analyze(CASE_II)
    assert rep2.case is TailCase.POLE_AT_BRANCH
    assert rep2.alpha_star == 1.0 and rep2.power == -0.5
    assert rep2.z_star == pytest.approx(2.0, rel=1e-12)
    assert rep2.prefactor == pytest.approx(1.0 / math.sqrt(8.0 * math.pi), rel=1e-6)
    assert rep2.phase_ratio == pytest.approx(0.5, rel=1e-9)  # 1/z* at the branch point
    assert rep2.marginal_prefactor > rep2.prefactor > 0.0

    rep3 = analyze(CASE_III)
    assert rep3.case is TailCase.BRANCH_ONLY
    assert rep3.power == -1.5 and rep3.prefactor > 0.0
    assert rep3.z_star == pytest.approx(math.sqrt(4.5), rel=1e-9)
    # double-root extraction carries a linear-in-phase factor; prefactors stay
    # positive and their ratios approach 1/z* from above
    prefs = [joint_tail(CASE_III, rep3, i).prefactor for i in range(2, 12)]
    assert all(p > 0.0 for p in prefs)
    ratios = np.diff(np.log(prefs))
    assert np.all(np.exp(ratios) > 1.0 / rep3.z_star)
    assert np.exp(ratios[-1]) == pytest.approx(1.0 / rep3.z_star, rel=0.1)


def test_analyze_low_load_c8_has_no_false_pole():
    # the chain has no pole at alpha = 0; its polynomial form, with a wide
    # coefficient range at c = 8, used to report one from boundary_mass_tail
    from fluidtail.model import ModelParams
    from fluidtail.spectral import solve_truncated

    p = ModelParams(c=8, lam=0.2116, mu=9.077, r=0.5198)
    sol = solve_truncated(p, 400)
    rep = analyze(p)
    assert rep.case is TailCase.BRANCH_ONLY
    assert rep.alpha_star == pytest.approx(-sol.eigenvalues[0], rel=2e-2)


# -- boundary masses from the kernel method ------------------------------------

KERNEL_MASS_TUPLES = [CASE_I, CASE_II, CASE_III, CASE_I_C2,
                      ModelParams(c=8, lam=6.0, mu=1.0, r=1.0),
                      ModelParams(c=8, lam=0.2116, mu=9.077, r=0.5198),
                      ModelParams(c=20, lam=1.0, mu=1.0, r=2.0),
                      ModelParams(c=30, lam=15.0, mu=1.0, r=0.5)]


def test_kernel_masses_match_oracle(rng):
    from fluidtail.spectral import solve_truncated

    tuples = KERNEL_MASS_TUPLES + [random_stable_params(rng, c_choices=range(1, 9))
                                   for _ in range(40)]
    compared = 0
    for p in tuples:
        boundary, err = kernel_boundary(p)
        assert boundary.source == "kernel" and len(boundary) == p.c
        assert err < 1e-10
        if (p.lam / (p.c * p.mu)) ** 400 >= 1e-12:
            continue   # the oracle's own truncation error would show
        oracle = solve_truncated(p, 400).boundary_masses[: p.c]
        np.testing.assert_allclose(boundary.masses, oracle, rtol=1e-10, atol=0.0)
        compared += 1
    assert compared >= len(KERNEL_MASS_TUPLES)


def _dense_ladder_row(p):
    """_ladder_row with its blocks built by dense numpy array calls, the reference for its stores."""
    c, lam, mu, r = p.c, p.lam, p.mu, p.r
    i, k = np.arange(c), np.arange(1, c)
    basis = np.append(np.cumprod(np.minimum(1.0, k * mu / lam)[::-1])[::-1], 1.0)
    m = np.diag(lam + c * mu + r * (lam + i * mu) / (c - i))
    m[k - 1, k] = -r * np.minimum(lam, k * mu) / (c - k + 1)
    m[k, k - 1] = -r * np.maximum(lam, k * mu) / (c - k)
    up, eye = np.append(np.full(c - 1, lam), lam * (1.0 + r)), np.eye(c)
    rhs, row, t = np.concatenate((np.diag(up), c * mu * eye), 1), np.zeros(c), eye[-1]
    for _ in range(asymptotics._MAX_STEPS):
        x = np.linalg.solve(m, rhs)
        x[x < asymptotics._NEGLIGIBLE] = 0.0
        tx = t @ x
        row, t = row + tx[c:], tx[:c]
        if t @ basis < asymptotics._EPS:
            return row, basis, abs(1.0 - float(row @ basis))
        prod = np.concatenate((x[:, :c], x[:, c:])) @ x
        m = eye - prod[:c, c:] - prod[c:, :c]
        rhs = np.concatenate((prod[:c, :c], prod[c:, c:]), 1)
    raise AssertionError("dense ladder reduction not converged")


@pytest.mark.parametrize("c", [2, 3, 8, 60, 200])
@pytest.mark.parametrize("load", [0.1, 0.5, 0.9])
def test_ladder_row_matches_dense_blocks_bit_for_bit(c, load):
    p = ModelParams(c=c, lam=load * c, mu=1.0, r=0.2)
    row, basis, residual = asymptotics._ladder_row(p)
    want_row, want_basis, want_residual = _dense_ladder_row(p)
    assert np.array_equal(row, want_row)
    assert np.array_equal(basis, want_basis)
    assert residual == want_residual


# the kernel formulation's masses at 160 digits, rounded to doubles: the c-1 growing zeros by
# Sturm bisection, then the c x c system, from tests/kernel_mass_reference.py (about four
# minutes; at 200 digits no mass moves by more than 1e-145)
KERNEL_MASS_REFERENCE = {
    (80, 4.0, 1.0, 2.0): [
        0.01831563888873418, 0.07326255555493671, 0.14652511110987343,
        0.1953668148131646, 0.1953668148131646, 0.15629345185053167,
        0.10419563456702112, 0.05954036260972635, 0.029770181304863176,
        0.0132311916910503, 0.00529247667642012, 0.00192453697324368,
        0.00064151232441456, 0.0001973884075121723, 5.639668786062066e-05,
        1.5039116762832175e-05, 3.759779190708044e-06, 8.846539272254222e-07,
        1.9658976160564936e-07, 4.138731823276829e-08, 8.277463646553658e-09,
        1.5766597422006965e-09, 2.8666540767285393e-10, 4.985485350832242e-11,
        8.309142251387071e-12, 1.3294627602219313e-12, 2.0453273234183557e-13,
        3.030114553212379e-14, 4.3287350760176845e-15, 5.97066907036922e-16,
        7.960892093825626e-17, 1.0272118830742743e-17, 1.2840148538428429e-18,
        1.5563816410216277e-19, 1.8310372247313267e-20, 2.0926139711215163e-21,
        2.3251266345794627e-22, 2.5136504157615812e-23, 2.6459478060648223e-24,
        2.713792621604946e-25, 2.713792621604946e-26, 2.647602557663362e-27,
        2.5215262453936782e-28, 2.3456058096685376e-29, 2.1323689178804887e-30,
        1.8954390381159902e-31, 1.6482078592312958e-32, 1.4027300929628049e-33,
        1.1689417441356707e-34, 9.542381584780985e-36, 7.633905267824789e-37,
        5.987376680646893e-38, 4.605674369728379e-39, 3.4759806563987767e-40,
        2.574800486221316e-41, 1.8725821717973208e-42, 1.3375586941409435e-43,
        9.386376800989076e-45, 6.473363311026949e-46, 4.38872088883183e-47,
        2.925813925887887e-48, 1.918566508778942e-49, 1.237784844373511e-50,
        7.858951392847689e-52, 4.911844620529805e-53, 3.022673612633727e-54,
        1.831923401596198e-55, 1.0936856128932526e-56, 6.433444781725014e-58,
        3.72953320679711e-59, 2.1311618324554915e-60, 1.2006545534960513e-61,
        6.670303074977975e-63, 3.654960589025121e-64, 1.975654372288474e-65,
        1.0536823261517334e-66, 5.545694594833761e-68, 2.880827763105002e-69,
        1.4760883284864716e-70, 7.228840204551908e-72,
    ],
    (100, 50.0, 1.0, 0.5): [
        1.9287498479522346e-22, 9.643749239761173e-21, 2.410937309940293e-19,
        4.018228849900489e-18, 5.022786062375611e-17, 5.022786062375611e-16,
        4.185655051979676e-15, 2.989753608556911e-14, 1.8685960053480697e-13,
        1.0381088918600386e-12, 5.190544459300193e-12, 2.359338390590997e-11,
        9.830576627462487e-11, 3.780991010562495e-10, 1.3503539323437484e-09,
        4.501179774479161e-09, 1.4066186795247378e-08, 4.1371137633080526e-08,
        1.1491982675855701e-07, 3.024205967330448e-07, 7.56051491832612e-07,
        1.800122599601457e-06, 4.091187726366948e-06, 8.893886361667278e-06,
        1.8528929920140162e-05, 3.7057859840280324e-05, 7.126511507746216e-05,
        0.00013197243532863363, 0.00023566506308684575, 0.0004063190742876651,
        0.0006771984571461085, 0.0010922555760421106, 0.0017066493375657976,
        0.002585832329645148, 0.003802694602419335, 0.005432420860599051,
        0.007545028973054237, 0.010195985098721942, 0.013415769866739397,
        0.0171997049573582, 0.02149963119669775, 0.02621906243499726,
        0.031213169565472924, 0.03629438321566619, 0.04124361729052976,
        0.04582624143392196, 0.04981113199339343, 0.052990565950418546,
        0.055198506198352655, 0.056325006324849644, 0.056325006324849644,
        0.055220594436127104, 0.05309672541935299, 0.05009125039561602,
        0.04638078740334817, 0.042164352184861975, 0.03764674302219819,
        0.03302345879140192, 0.028468498958105104, 0.024125846574665342,
        0.020104872145554453, 0.016479403397995453, 0.013289841449996332,
        0.010547493214282803, 0.00824022907365844, 0.006338637748968031,
        0.004801998294672751, 0.0035835808169199634, 0.0026349858947940907,
        0.00190941006869137, 0.00136386433477955, 0.0009604678413940493,
        0.0006669915565236453, 0.0004568435318655105, 0.00030867806207129087,
        0.00020578537471419391, 0.00013538511494354865, 8.791241230100561e-05,
        5.635411044936257e-05, 3.566715851225479e-05, 2.2291974070159243e-05,
        1.3760477821085952e-05, 8.390535256759723e-06, 5.05453931130101e-06,
        3.008654351964736e-06, 1.769796677625522e-06, 1.0289515567550503e-06,
        5.913514693804771e-07, 3.359951529708142e-07, 1.887613215206633e-07,
        1.0486739931208487e-07, 5.7619444193050214e-08, 3.1314893200031015e-08,
        1.683588645351549e-08, 8.95500030452138e-09, 4.712340492233287e-09,
        2.4518764238878103e-09, 1.2566878227091767e-09, 6.208996948332678e-10,
        2.581319940849741e-10,
    ],
}


def test_kernel_masses_match_the_160_digit_reference():
    # light load at c = 80, where the masses span 70 decades, and half load at c = 100
    for (c, lam, mu, r), want in KERNEL_MASS_REFERENCE.items():
        boundary, err = kernel_boundary(ModelParams(c=c, lam=lam, mu=mu, r=r))
        assert err < 1e-10
        want = np.array(want)
        np.testing.assert_array_less(np.abs(np.array(boundary.masses) - want), err * want)


def test_kernel_mass_estimate_covers_the_drift_rounding():
    # the masses scale with the mean drift, a sum of terms of both signs; here its condition
    # is 24 and the double drift is 7.6e-15 relative off the 50-digit one, ten times the
    # system's own share of the estimate
    mpmath = pytest.importorskip("mpmath")
    p = ModelParams(c=3, lam=0.3980915942385817, mu=0.2623205066542573, r=5.613685968335638)
    _, err = kernel_boundary(p)
    drift = phase_stationary(p).mean_drift()
    with mpmath.workdps(50):
        rho = mpmath.mpf(p.lam) / mpmath.mpf(p.mu)
        head = [rho ** i / mpmath.factorial(i) for i in range(p.c + 1)]
        tail = head[p.c] / (1 - rho / p.c)
        want = ((mpmath.fsum((i - p.c) * head[i] for i in range(p.c)) + p.r * tail)
                / (mpmath.fsum(head[:p.c]) + tail))
        assert abs(drift - want) <= err * abs(want)


def test_kernel_masses_c1_closed_form(rng):
    # the zero-mode row alone: Pi_0(0) = -mean drift
    for _ in range(10):
        p = random_stable_params(rng, c_choices=(1,))
        boundary, _ = kernel_boundary(p)
        assert boundary[0] == pytest.approx(-phase_stationary(p).mean_drift(), rel=1e-14)


def test_numerator_vanishes_at_growing_zeros(rng):
    # the kernel masses against the written forcing forms at the growing zeros, which are the
    # ladder generator's nonzero eigenvalues
    tuples = [CASE_III, CASE_I_C2, ModelParams(c=8, lam=6.0, mu=1.0, r=1.0)]
    tuples += [random_stable_params(rng, c_choices=range(2, 6)) for _ in range(10)]
    for p in tuples:
        boundary, _ = kernel_boundary(p)
        for a in np.sort(np.linalg.eigvals(ladder_generator(p)).real)[:-1]:
            z = branch_small_real(p, a)
            terms = numerator_terms(p, boundary, a, z)
            scale = max(abs(complex(t)) for t in terms)
            assert abs(complex(sum(terms))) < 1e-9 * scale


@pytest.mark.parametrize("c", [100, 200])
@pytest.mark.parametrize("load", [0.1, 0.5, 0.9])
def test_analyze_answers_at_many_servers(c, load):
    # every number finite, and the masses on the zero mode's row within rounding
    p = ModelParams(c=c, lam=load * c, mu=1.0, r=0.5)
    rep = analyze(p)
    values = [rep.alpha_star, rep.alpha_star_err, rep.c_const, rep.c_const_err, rep.prefactor,
              rep.marginal_prefactor, rep.d_ztilde, rep.boundary_err, *rep.boundary.masses]
    assert all(math.isfinite(v) for v in values)
    assert rep.boundary_err < 1e-10
    drain = math.fsum((c - i) * m for i, m in enumerate(rep.boundary.masses))
    assert drain == pytest.approx(-phase_stationary(p).mean_drift(), rel=1e-13)
