import math

import numpy as np
import pytest

from conftest import CASE_I, CASE_I_C2, CASE_II, CASE_III, random_stable_params
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
from fluidtail.errors import AssumptionViolatedError, FluidTailError
from fluidtail.kernel import branch_points, branch_small_real
from fluidtail.model import BoundaryVector, ModelParams, phase_stationary
from fluidtail.roots import find_coeff_zero, growing_zeros


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
    # fitted per-phase prefactors from the oracle agree with the extraction
    xs = np.linspace(36.0, 44.0, 17)
    dens = sol_case1.density_grid(xs)
    for i in (0, 1, 2):
        fitted = float(np.mean(dens[:, i] * np.exp(0.5 * xs)))
        predicted = joint_tail(CASE_I, report_case1, i).prefactor
        assert fitted == pytest.approx(predicted, rel=0.02)


def test_marginal_tail_c1_bracket(report_case1):
    # for c=1 the bracket is (r+1)/r
    marg = marginal_tail(CASE_I, report_case1)
    assert marg.prefactor == pytest.approx(2.0 * report_case1.prefactor, rel=1e-12)
    assert report_case1.marginal_prefactor == pytest.approx(marg.prefactor, rel=1e-12)


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


def test_kernel_boundary_refuses_inaccurate_masses():
    # the recurrence for the null vectors loses all digits at c = 80, low load
    with pytest.raises(FluidTailError, match="too inaccurate"):
        kernel_boundary(ModelParams(c=80, lam=4.0, mu=1.0, r=2.0))


def test_kernel_masses_c1_closed_form(rng):
    # the zero-mode row alone: Pi_0(0) = -mean drift
    for _ in range(10):
        p = random_stable_params(rng, c_choices=(1,))
        boundary, _ = kernel_boundary(p)
        assert boundary[0] == pytest.approx(-phase_stationary(p).mean_drift(), rel=1e-14)


def test_numerator_vanishes_at_growing_zeros(rng):
    # the R-orthogonality rows of kernel_boundary against the written forcing forms
    tuples = [CASE_III, CASE_I_C2, ModelParams(c=8, lam=6.0, mu=1.0, r=1.0)]
    tuples += [random_stable_params(rng, c_choices=range(2, 6)) for _ in range(10)]
    for p in tuples:
        boundary, _ = kernel_boundary(p)
        for a in growing_zeros(p):
            z = branch_small_real(p, a)
            terms = numerator_terms(p, boundary, a, z)
            scale = max(abs(complex(t)) for t in terms)
            assert abs(complex(sum(terms))) < 1e-9 * scale
