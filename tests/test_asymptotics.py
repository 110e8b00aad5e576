import math

import numpy as np
import pytest

from conftest import CASE_I, CASE_I_C2, CASE_II, CASE_III, random_stable_params
from fluidtail.asymptotics import (
    TailCase,
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
from fluidtail.cfrac import BoundaryVector, boundary_gf, forcing_reduced
from fluidtail.errors import FluidTailError
from fluidtail.kernel import boundary_coeff, branch_points, branch_small, kernel
from fluidtail.model import ModelParams, phase_stationary
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
        z_star = complex(branch_small(p, min(alpha_star, bp.alpha1))).real
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
        z_star = complex(branch_small(p, alpha_star)).real
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
    value, _ = constant_simple_pole(CASE_I, BoundaryVector(masses=(0.0,)), zero)
    assert value == 0.0


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
    assert density_prefactor(TailCase.POLE, 0.4, k=1) == (pytest.approx(0.4), 0.0)
    assert density_prefactor(TailCase.POLE, 0.4, k=3) == (pytest.approx(0.2), 2.0)
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
    from fluidtail.kernel import alpha_of_z
    from fluidtail.spectral import solve_truncated

    for p in (CASE_I, CASE_II, CASE_I_C2, CASE_III):
        sol = solve_truncated(p, 200)
        bt = boundary_mass_tail(p, sol.boundary_vector())
        zt = p.c * p.mu / p.lam
        assert bt.z_tilde == zt and bt.alpha_at_pole == 0.0
        assert alpha_of_z(p, zt) == pytest.approx(0.0, abs=1e-12)
        xi = phase_stationary(p)
        assert bt.d_ztilde == pytest.approx(xi.prob(p.c - 1) * zt ** p.c, rel=1e-7)
        assert bt.d_ztilde > 0.0
        assert bt.ratio == pytest.approx(p.lam / (p.c * p.mu), rel=1e-14)


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
    # the R-orthogonality rows of kernel_boundary against the forcing code itself
    tuples = [CASE_III, CASE_I_C2, ModelParams(c=8, lam=6.0, mu=1.0, r=1.0)]
    tuples += [random_stable_params(rng, c_choices=range(2, 6)) for _ in range(10)]
    for p in tuples:
        boundary, _ = kernel_boundary(p)
        for a in growing_zeros(p):
            z = branch_small(p, a).real
            terms = [boundary_coeff(p, z) * boundary_gf(p, boundary, z),
                     forcing_reduced(p, boundary, a, z)]
            scale = max(abs(complex(t)) for t in terms)
            assert abs(complex(sum(terms))) < 1e-9 * scale
