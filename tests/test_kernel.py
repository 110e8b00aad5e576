import math

import numpy as np
import pytest

from _forcing_oracle import alpha_of_z, boundary_coeff, kernel, mass_coeff, ratio_chain
from conftest import CASE_I, random_stable_c1, random_stable_params
from fluidtail.kernel import branch_points, branch_small_real, kernel_discriminant
from fluidtail.model import ModelParams
from fluidtail.roots import folded_coeff


def test_alpha1_rounding_bound_holds(rng):
    # random tuples and near-critical ones, where sqrt(c mu) - sqrt(lam) cancels
    mpmath = pytest.importorskip("mpmath")
    tuples = [random_stable_params(rng) for _ in range(200)]
    tuples += [ModelParams(c=c, lam=c * mu * (1.0 - eps), mu=mu, r=r)
               for c, mu, r in [(1, 3.0, 0.7), (3, 1.3, 2.0), (8, 0.37, 5.0)]
               for eps in (1e-3, 1e-7, 1e-12)]
    with mpmath.workdps(50):
        for p in tuples:
            bp = branch_points(p)
            exact = (mpmath.sqrt(mpmath.mpf(p.c) * p.mu) - mpmath.sqrt(p.lam)) ** 2 / p.r
            assert abs(bp.alpha1 - exact) <= bp.alpha1_err


def test_kernel_values():
    # the small root zeroes K: exactly at alpha = 0, to rounding at the CASE_I zero
    assert kernel(CASE_I, 0.0, branch_small_real(CASE_I, 0.0)) == 0.0
    assert kernel(CASE_I, 0.5, branch_small_real(CASE_I, 0.5)) == pytest.approx(0.0, abs=1e-15)
    assert kernel(CASE_I, 0.5, 2.0) == pytest.approx(-4.0 + 3.5 * 2.0 - 3.0)


def test_discriminant_values():
    bp = branch_points(CASE_I)
    assert kernel_discriminant(CASE_I, bp.alpha1) == pytest.approx(0.0, abs=1e-12)
    assert kernel_discriminant(CASE_I, 0.0) == pytest.approx((3.0 - 1.0) ** 2)
    assert kernel_discriminant(CASE_I, 1.0) == pytest.approx(-3.0)


def test_branch_points_closed_forms():
    bp = branch_points(CASE_I)
    assert bp.alpha1 == pytest.approx(4.0 - 2.0 * math.sqrt(3.0), rel=1e-15)
    assert bp.alpha2 == pytest.approx(4.0 + 2.0 * math.sqrt(3.0), rel=1e-15)
    bp4 = branch_points(ModelParams(c=1, lam=1.0, mu=4.0, r=1.0))
    assert (bp4.alpha1, bp4.alpha2) == (pytest.approx(1.0), pytest.approx(9.0))


def test_discriminant_sign_pattern(rng):
    for _ in range(50):
        p = random_stable_params(rng)
        bp = branch_points(p)
        mid = 0.5 * (bp.alpha1 + bp.alpha2)
        assert kernel_discriminant(p, mid).real < 0.0
        assert kernel_discriminant(p, bp.alpha1 * 0.5).real > 0.0
        assert kernel_discriminant(p, bp.alpha2 * 1.5).real > 0.0


def test_branch_values_at_special_points():
    # at alpha = 0 the roots are exactly 1 and c*mu/lam; at alpha1 both are sqrt(c mu / lam)
    for p in (CASE_I, ModelParams(c=3, lam=2.0, mu=1.0, r=0.7)):
        assert branch_small_real(p, 0.0) == pytest.approx(1.0, abs=1e-13)
        assert kernel(p, 0.0, p.c * p.mu / p.lam) == pytest.approx(0.0, abs=1e-13)
        bp = branch_points(p)
        double = math.sqrt(p.c * p.mu / p.lam)
        assert branch_small_real(p, bp.alpha1) == pytest.approx(double, rel=1e-9)
        assert alpha_of_z(p, double) == pytest.approx(bp.alpha1, rel=1e-13)


def test_branch_example_case1():
    # roots at alpha = 0.5 are {1.5, 2.0}; the small root is 1.5, the large c mu / (lam 1.5)
    assert branch_small_real(CASE_I, 0.5) == pytest.approx(1.5, rel=1e-14)
    assert kernel(CASE_I, 0.5, 2.0) == pytest.approx(0.0, abs=1e-14)


def test_root_residual_and_vieta(rng):
    # 1000 random real alpha <= alpha1, the negative axis included: the small
    # root and the large root c mu / (lam z) both zero K, and their sum is b / lam
    for _ in range(1000):
        p = random_stable_params(rng)
        alpha = rng.uniform(-3.0, 1.0) * branch_points(p).alpha1
        z0 = branch_small_real(p, alpha)
        z1 = p.c * p.mu / (p.lam * z0)
        tol = 1e-10 * max(1.0, abs(alpha) ** 2) * max(p.lam, p.c * p.mu)
        assert abs(kernel(p, alpha, z0)) < tol
        assert abs(kernel(p, alpha, z1)) < tol
        assert z0 <= z1 * (1.0 + 1e-12)
        b = -alpha * p.r + p.lam + p.c * p.mu
        assert z0 + z1 == pytest.approx(b / p.lam, rel=1e-10)


def test_small_branch_monotone_and_bounded(rng):
    for _ in range(30):
        p = random_stable_params(rng)
        bp = branch_points(p)
        grid = np.linspace(1e-4, 1.0 - 1e-4, 100) * bp.alpha1
        vals = branch_small_real(p, grid)
        assert np.all(np.diff(vals) > 0.0)
        assert vals[0] > 1.0
        assert vals[-1] < math.sqrt(p.c * p.mu / p.lam)
        assert np.array_equal(vals, [branch_small_real(p, float(a)) for a in grid])


def test_alpha_of_z_inverts_small_branch(rng):
    for _ in range(100):
        p = random_stable_params(rng)
        alpha = rng.uniform(0.05, 0.95) * branch_points(p).alpha1
        assert alpha_of_z(p, branch_small_real(p, alpha)) == pytest.approx(alpha, rel=1e-9)


def _written_coeff(p, alpha, z):
    """The paper's coefficient lam z^c A_{c-2} + (mu - alpha r - alpha) z^c - c mu z^(c-1)."""
    chain = p.lam * ratio_chain(p)[-1](alpha) if p.c > 1 else 0.0
    return (chain + p.mu - alpha * p.r - alpha) * z ** p.c - p.c * p.mu * z ** (p.c - 1)


def test_coefficient_polynomials(rng):
    p = ModelParams(c=3, lam=1.2, mu=0.8, r=2.0)
    assert boundary_coeff(p, 1.0) == pytest.approx(0.0, abs=1e-14)
    assert boundary_coeff(p, p.c * p.mu / p.lam) == pytest.approx(0.0, abs=1e-12)
    assert mass_coeff(p, float(p.c)) == pytest.approx(0.0, abs=1e-12)
    # the folded coefficient g is the written one over z^(c-1), at real points
    # and at complex steps, on the small root and off the kernel curve
    for c in (1, 2, 3, 8):
        p = ModelParams(c=c, lam=1.2 * c, mu=0.8 * (1.0 + 0.5 * c), r=2.0)
        for alpha in rng.uniform(0.05, 1.0, 4) * branch_points(p).alpha1:
            for z in (branch_small_real(p, alpha), 0.7, 1.9):
                for step in (0.0, 1e-30j * max(alpha, 1.0)):
                    expected = _written_coeff(p, alpha + step, z)
                    got = folded_coeff(p, alpha + step, z) * z ** (c - 1)
                    assert got.real == pytest.approx(expected.real, rel=1e-12, abs=1e-12 * c * p.mu)
                    if step:
                        assert got.imag == pytest.approx(expected.imag, rel=1e-10)


def test_min_rule_matches_small_branch(rng):
    # for c=1 the zero's small-branch value is min(1+r, mu/(lam(1+r)))
    for _ in range(200):
        p = random_stable_c1(rng)
        alpha = p.mu / (1.0 + p.r) - p.lam
        if not 0.0 < alpha <= branch_points(p).alpha1:
            continue
        z0 = branch_small_real(p, min(alpha, branch_points(p).alpha1))
        expected = min(1.0 + p.r, p.mu / (p.lam * (1.0 + p.r)))
        assert z0 == pytest.approx(expected, rel=1e-9)
