import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from _forcing_oracle import rationalized_zero_poly
from conftest import (CASE_I, CASE_I_C2, CASE_II, CASE_III, ladder_generator, random_stable_c1,
                      random_stable_params)
from fluidtail import roots
from fluidtail.asymptotics import TailCase, analyze, numerator_value
from fluidtail.errors import AssumptionViolatedError, FluidTailError
from fluidtail.kernel import branch_points, branch_small_real
from fluidtail.model import ModelParams
from fluidtail.roots import find_coeff_zero, folded_coeff


def _large_root(p, alpha):
    """The large kernel root at real alpha: c mu / (lam z) with z the small one."""
    return p.c * p.mu / (p.lam * branch_small_real(p, alpha))


def corrected_cubic_c2(p):
    """Closed-form cubic obtained by eliminating phase 0 by hand for c=2.

    Derived independently from the weighted linear system (A_0 = mu/(2a+lam))
    and the kernel product/sum identities; ascending coefficients.
    """
    lam, mu, r = p.lam, p.mu, p.r
    return np.array([
        lam * (lam ** 2 * (r + 1) - 4 * mu ** 2),
        5 * lam ** 2 * (r + 1) + 2 * lam * mu * r - 4 * mu ** 2,
        4 * (2 * lam * (r + 1) + mu * r),
        4 * (r + 1),
    ])


def printed_cubic_c2(p):
    """The published closed-form cubic for c=2 (ascending coefficients)."""
    lam, mu, r = p.lam, p.mu, p.r
    return np.array([
        lam ** 3 * (r + 1) - lam ** 2 * mu - 2 * lam * mu ** 2,
        3 * lam ** 2 * (r + 1) + mu * lam * r - lam * mu - mu ** 2,
        3 * lam * (r + 1) + mu * r,
        r + 1,
    ])


def test_zero_poly_c1_factored_form():
    # for c=1 the polynomial is proportional to alpha*((r+1)alpha - mu + lam(r+1))
    p = CASE_I
    g = rationalized_zero_poly(p)
    roots = np.sort_complex(npoly.polyroots(g))
    assert roots[0] == pytest.approx(0.0, abs=1e-12)
    assert roots[1].real == pytest.approx(p.mu / (p.r + 1) - p.lam, rel=1e-12)
    assert abs(roots[1].imag) < 1e-12


def test_zero_poly_c2_matches_corrected_cubic(rng):
    # deflating the root at zero leaves exactly the hand-derived cubic
    for _ in range(100):
        p = random_stable_params(rng, c_choices=(2,))
        g = rationalized_zero_poly(p)
        assert abs(g[0]) < 1e-9 * np.max(np.abs(g))
        deflated = g[1:]
        cubic = corrected_cubic_c2(p)
        ratio = deflated[-1] / cubic[-1]
        assert np.allclose(deflated, ratio * cubic, rtol=1e-9)


@pytest.mark.xfail(reason="published c=2 cubic stems from the unweighted recursion; "
                          "the spectral oracle contradicts its roots (demonstrated in "
                          "test_printed_cubic_root_rejected_by_oracle)",
                   strict=True)
def test_zero_poly_c2_matches_printed_cubic(rng):
    p = random_stable_params(rng, c_choices=(2,))
    deflated = rationalized_zero_poly(p)[1:]
    cubic = printed_cubic_c2(p)
    ratio = deflated[-1] / cubic[-1]
    assert np.allclose(deflated, ratio * cubic, rtol=1e-9)


def test_printed_cubic_root_rejected_by_oracle():
    # the printed cubic predicts a zero at 0.16170 inside (0, alpha1) for
    # c=2, lam=mu=r=1, but the truncated system's dominant eigenvalue is the
    # branch point instead; the corrected pipeline must find no zero at all
    from fluidtail.spectral import solve_truncated

    p = ModelParams(c=2, lam=1.0, mu=1.0, r=1.0)
    printed_root = np.sort_complex(npoly.polyroots(printed_cubic_c2(p)))
    inside = [z.real for z in printed_root
              if abs(z.imag) < 1e-9 and 0 < z.real <= branch_points(p).alpha1]
    assert inside and inside[0] == pytest.approx(0.161702138, rel=1e-6)
    zero = find_coeff_zero(p)
    assert zero.alpha is None
    s1 = solve_truncated(p, 300).eigenvalues[0].real
    assert -s1 == pytest.approx(branch_points(p).alpha1, rel=1e-3)
    assert abs(-s1 - inside[0]) / inside[0] > 0.05


def test_zero_search_case1_tuples():
    zero = find_coeff_zero(CASE_I)
    assert zero.alpha == pytest.approx(0.5, rel=1e-12)
    assert not zero.at_branch_point

    zero2 = find_coeff_zero(CASE_II)
    assert zero2.alpha == pytest.approx(1.0, rel=1e-9)
    assert zero2.at_branch_point


def test_zero_search_closed_form_grid(rng):
    # the general pipeline reproduces mu/(r+1) - lam for c=1, with the zero
    # present exactly when mu <= lam*(1+r)^2 (beyond that locus the candidate
    # moves to the large-branch factor and the small branch has no zero)
    seen_zero, seen_none = 0, 0
    for _ in range(200):
        p = random_stable_c1(rng)
        expected = p.mu / (p.r + 1.0) - p.lam
        in_small_branch = p.mu <= p.lam * (1.0 + p.r) ** 2 * (1.0 + 1e-12)
        zero = find_coeff_zero(p)
        if in_small_branch:
            seen_zero += 1
            assert zero.alpha is not None
            assert zero.alpha == pytest.approx(expected, rel=1e-10, abs=1e-12)
        else:
            seen_none += 1
            assert zero.alpha is None
    assert seen_zero > 20 and seen_none > 20


def test_case3_exists_for_c1():
    # mu > lam*(1+r)^2: the candidate lies inside (0, alpha1] but belongs to
    # the large-branch factor, and the true decay rate is the branch point
    from fluidtail.spectral import solve_truncated

    p = ModelParams(c=1, lam=1.0, mu=10.0, r=1.0)
    cand = p.mu / (p.r + 1.0) - p.lam
    bp = branch_points(p)
    assert 0.0 < cand < bp.alpha1
    assert abs(folded_coeff(p, cand, _large_root(p, cand))) < 1e-10
    assert abs(folded_coeff(p, cand, branch_small_real(p, cand))) > 1.0
    assert find_coeff_zero(p).alpha is None
    s1 = solve_truncated(p, 400).eigenvalues[0].real
    assert -s1 == pytest.approx(bp.alpha1, rel=1e-3)
    assert abs(-s1 - cand) / cand > 0.15


@pytest.mark.xfail(reason="the published claim that the c=1 candidate is always the "
                          "small-branch zero fails for mu > lam*(1+r)^2 (demonstrated "
                          "in test_case3_exists_for_c1)",
                   strict=True)
def test_zero_search_closed_form_literal(rng):
    for _ in range(200):
        p = random_stable_c1(rng)
        expected = p.mu / (p.r + 1.0) - p.lam
        zero = find_coeff_zero(p)
        if 0.0 < expected <= branch_points(p).alpha1:
            assert zero.alpha is not None
            assert zero.alpha == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_zero_search_c2_interior_zero(sol_case1_c2):
    zero = find_coeff_zero(CASE_I_C2)
    assert zero.alpha is not None and not zero.at_branch_point
    # the zero is the dominant decay rate of the truncated system
    assert -sol_case1_c2.eigenvalues[0].real == pytest.approx(zero.alpha, rel=1e-9)


def test_zero_search_case3_filters_large_branch_root():
    # the rationalized polynomial has a root at 2.4833 inside (0, alpha1],
    # but it belongs to the large-branch factor and must be filtered out
    zero = find_coeff_zero(CASE_III)
    assert zero.alpha is None
    bp = branch_points(CASE_III)
    assert bp.alpha1 == pytest.approx(2.5147186257614296, rel=1e-12)
    inside = [w.real for w in npoly.polyroots(rationalized_zero_poly(CASE_III))
              if abs(w.imag) < 1e-8 and 1e-9 < w.real <= bp.alpha1]
    assert len(inside) == 1
    assert inside[0] == pytest.approx(2.483285, rel=1e-5)
    large = _large_root(CASE_III, inside[0])
    scale = np.abs(roots._coeff_grid(CASE_III, bp.alpha1)).max()
    assert abs(folded_coeff(CASE_III, inside[0], large)) < 1e-6 * scale


def test_zero_search_large_c_has_no_false_zero():
    # the rationalized polynomial overflows at c=80 and has a spurious root
    # near 1e-35 at c=40 and 60; the bracket on d needs neither
    for t in [(80, 40.0, 1.0, 1.0), (80, 72.0, 1.0, 1.0), (80, 40.0, 1.0, 2.0),
              (40, 2.0, 1.0, 2.0), (60, 3.0, 1.0, 2.0)]:
        zero = find_coeff_zero(ModelParams(*t))
        assert zero.alpha is None and len(zero.all_roots) == 0, t
    for t in [(80, 40.0, 1.0, 1.0), (40, 2.0, 1.0, 2.0)]:
        p = ModelParams(*t)
        rep = analyze(p)
        assert rep.case is TailCase.BRANCH_ONLY
        assert rep.alpha_star == branch_points(p).alpha1


def test_zero_search_where_the_chain_weights_overflow_at_zero():
    # at alpha = 0 the chain's weights grow like products of i mu / lam and pass the
    # double range on this tuple; the pivots there stay lam, so d(0) is -inf, not nan.
    # Case III: the truncated pencil's rate, 467.58 at 800 phases and 467.55 at 1200,
    # falls toward alpha1 = 467.544.
    p = ModelParams(c=500, lam=50.0, mu=1.0, r=0.5)
    zero = find_coeff_zero(p)
    assert zero.alpha is None
    with pytest.raises(FluidTailError) as refusal:
        analyze(p)
    assert "nan" not in str(refusal.value)
    assert roots.chain_pivots(p, 0.0)[0] == [p.lam] * (p.c - 1)


def test_zero_search_light_load_large_r_stays_on_the_real_branch():
    # at the rounded alpha1 the discriminant comes out negative, by more than the
    # double-root tolerance of its scale (-3.5e-18 against b^2 = 2.4e-5 for c=2): the
    # rounding of alpha1 moves b by about c mu eps.  In 50 digits d(alpha1) is -0.14
    # and -0.30 of its term scale, so neither tuple has a zero in (0, alpha1].
    for t in [(2, 4.448989365699341e-06, 0.6632641136921876, 298162.7650983089),
              (7, 0.000386885797678768, 4.263359821424906, 77136.58070138237)]:
        p = ModelParams(*t)
        alpha1 = branch_points(p).alpha1
        assert isinstance(branch_small_real(p, alpha1), float), t
        zero = find_coeff_zero(p)
        assert zero.alpha is None and len(zero.all_roots) == 0, t
        rep = analyze(p)
        assert rep.case is TailCase.BRANCH_ONLY, t
        assert rep.alpha_star == alpha1
        assert math.isfinite(rep.c_const) and rep.c_const > 0.0, t


def test_zero_search_near_critical_c1():
    # alpha* = mu/(r+1) - lam = eps: rounding mu alone moves it by about
    # 1e-16/eps relative, and the bound allows 100 times that
    for eps in (1e-2, 1e-4, 1e-6, 1e-8):
        p = ModelParams(c=1, lam=1.0, mu=2.0 * (1.0 + eps), r=1.0)
        expected = p.mu / (p.r + 1.0) - p.lam
        zero = find_coeff_zero(p)
        assert zero.alpha == pytest.approx(expected, rel=1e-14 / eps, abs=0.0), eps
        assert not zero.at_branch_point


def test_zero_search_matches_polynomial_roots(rng):
    # the companion roots of the rationalized polynomial are an independent
    # route to every interior zero
    n_interior = 0
    for _ in range(1000):
        p = random_stable_params(rng, c_choices=range(1, 9))
        zero = find_coeff_zero(p)
        if zero.alpha is None or zero.at_branch_point:
            continue
        n_interior += 1
        poly_roots = npoly.polyroots(rationalized_zero_poly(p))
        assert np.min(np.abs(poly_roots - zero.alpha)) < 1e-9 * zero.alpha, p
    assert n_interior > 50


def test_zero_search_refuses_two_zeros(monkeypatch):
    # a grid with two sign changes, or one after a positive start, shows two zeros
    for signs in ([-1.0] * 30 + [1.0] * 30 + [-1.0] * 41, [1.0] * 50 + [-1.0] * 51):
        monkeypatch.setattr(roots, "_coeff_grid", lambda p, a1: np.array(signs))
        with pytest.raises(AssumptionViolatedError, match="2 zeros"):
            find_coeff_zero(CASE_III)


@pytest.mark.xfail(reason="published root list {4, -67, -15+/-5i} is not reproducible "
                          "from the model; the recomputed polynomial has roots "
                          "{0, 2.4833, -3.564, -20.83, -30.79, -87.91}",
                   strict=True)
def test_zero_poly_case3_printed_roots():
    g = rationalized_zero_poly(CASE_III)
    roots = npoly.polyroots(g)
    for target in (4.0, -67.0, -15.0 + 5.0j, -15.0 - 5.0j):
        assert min(abs(roots - target)) < 1e-6 * abs(target)


def test_filtering_soundness(rng):
    # every reported zero vanishes on the small branch and not on the large one
    for _ in range(50):
        p = random_stable_c1(rng)
        zero = find_coeff_zero(p)
        if zero.alpha is None or zero.at_branch_point:
            continue
        scale = np.abs(roots._coeff_grid(p, branch_points(p).alpha1)).max()
        small = abs(folded_coeff(p, zero.alpha, branch_small_real(p, zero.alpha)))
        large = abs(folded_coeff(p, zero.alpha, _large_root(p, zero.alpha)))
        assert small < 1e-8 * scale
        assert large > 1e-4 * scale


def test_numerator_c1_closed_form(sol_case1):
    # N = -lam Z0 H2(Z0) P0 / (mu - lam Z0), strictly positive
    p = CASE_I
    zero = find_coeff_zero(p)
    boundary = sol_case1.boundary_vector()
    z0 = branch_small_real(p, zero.alpha)
    value = numerator_value(p, boundary, zero.alpha, z0) * z0 ** p.c
    h2 = p.lam * z0 ** 2 - (p.lam + p.mu) * z0 + p.mu
    expected = -p.lam * z0 * h2 * boundary[0] / (p.mu - p.lam * z0)
    assert value == pytest.approx(expected, rel=1e-10)
    assert value > 0.0


def test_numerator_c2_closed_form(sol_case1_c2):
    # corrected analogue of the published c=2 form:
    # N = Z0^2 [lam (Z0-1) P1 + 2a (lam P0 - mu P1)/(2a+lam)]
    p = CASE_I_C2
    zero = find_coeff_zero(p)
    boundary = sol_case1_c2.boundary_vector()
    a = zero.alpha
    z0 = branch_small_real(p, a)
    value = numerator_value(p, boundary, a, z0) * z0 ** p.c
    expected = z0 ** 2 * (
        p.lam * (z0 - 1.0) * boundary[1]
        + 2 * a * (p.lam * boundary[0] - p.mu * boundary[1]) / (2 * a + p.lam)
    )
    assert value == pytest.approx(expected, rel=1e-10)
    assert value > 0.0


def test_gtilde_convexity(rng):
    # the deflated c=2 polynomial is convex on (0, inf)
    for _ in range(50):
        p = random_stable_params(rng, c_choices=(2,))
        cubic = corrected_cubic_c2(p)
        second = npoly.polyder(cubic, 2)
        for a in np.linspace(0.0, 5.0, 11):
            assert npoly.polyval(a, second) > 0.0


# -- the growing zeros on the negative axis -----------------------------------

LOW_LOAD_C8 = ModelParams(c=8, lam=0.2116, mu=9.077, r=0.5198)
NEGATIVE_AXIS_TUPLES = [CASE_I, CASE_II, CASE_III, CASE_I_C2,
                        ModelParams(c=8, lam=6.0, mu=1.0, r=1.0), LOW_LOAD_C8,
                        # low load and c >= 12: zeros closer to chain poles than rounding
                        ModelParams(c=20, lam=1.0, mu=1.0, r=2.0),
                        ModelParams(c=12, lam=0.3, mu=2.0, r=1.0)]


def _pencil_growing_eigenvalues(p, n_phases=400):
    from scipy.linalg import eigh_tridiagonal

    from fluidtail.spectral import _reduced_pencil

    pencil = _reduced_pencil(p, n_phases)
    return eigh_tridiagonal(pencil.diag, pencil.off, eigvals_only=True,
                            select="v", select_range=(0.0, math.inf))


def test_ladder_generator_eigenvalues_are_pencil_eigenvalues(rng):
    # the zeros of g on the negative axis, where the kernel masses are pinned, are the
    # ladder generator's nonzero eigenvalues: an independent check of that axis
    tuples = NEGATIVE_AXIS_TUPLES + [random_stable_params(rng, c_choices=range(1, 9))
                                     for _ in range(30)]
    for p in tuples:
        eig = np.linalg.eigvals(ladder_generator(p))
        assert np.abs(eig.imag).max() <= 1e-10 * np.abs(eig).max(), p
        eig = np.sort(eig.real)
        assert abs(eig[-1]) < 1e-12 * (p.lam + p.c * p.mu), p   # the zero mode
        s_up = np.sort(_pencil_growing_eigenvalues(p))[::-1]
        np.testing.assert_allclose(eig[:-1], -s_up, rtol=1e-10)


def test_coeff_scale_matches_scalar_loop(rng):
    tuples = NEGATIVE_AXIS_TUPLES + [random_stable_params(rng, c_choices=range(1, 9))
                                     for _ in range(40)]
    for p in tuples:
        alpha1 = branch_points(p).alpha1
        grid = np.linspace(1e-3 * alpha1, alpha1 * (1.0 - 1e-12), 101)
        loop = max(abs(folded_coeff(p, a, branch_small_real(p, a))) for a in grid)
        assert np.max(np.abs(roots._coeff_grid(p, alpha1))) == pytest.approx(loop, rel=1e-12)
