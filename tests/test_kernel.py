import math

import numpy as np
import pytest

from _forcing_oracle import boundary_coeff, mass_coeff
from conftest import CASE_I, random_stable_c1, random_stable_params
from fluidtail.errors import BranchCutError, PoleError
from fluidtail.kernel import (
    alpha_of_z,
    branch_large,
    branch_points,
    branch_small,
    density_coeff,
    kernel,
    kernel_discriminant,
)
from fluidtail.model import ModelParams


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
    assert kernel(CASE_I, 0.0, 1.0) == 0.0
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
    # at alpha = 0 the roots are exactly 1 and c*mu/lam
    for p in (CASE_I, ModelParams(c=3, lam=2.0, mu=1.0, r=0.7)):
        assert complex(branch_small(p, 0.0)) == pytest.approx(1.0, abs=1e-13)
        assert complex(branch_large(p, 0.0)) == pytest.approx(p.c * p.mu / p.lam, rel=1e-13)
        bp = branch_points(p)
        double = math.sqrt(p.c * p.mu / p.lam)
        assert complex(branch_small(p, bp.alpha1)) == pytest.approx(double, rel=1e-9)
        assert complex(branch_large(p, bp.alpha1)) == pytest.approx(double, rel=1e-9)


def test_branch_example_case1():
    # roots at alpha = 0.5 are {1.5, 2.0}; the small branch picks 1.5
    assert complex(branch_small(CASE_I, 0.5)) == pytest.approx(1.5, rel=1e-14)
    assert complex(branch_large(CASE_I, 0.5)) == pytest.approx(2.0, rel=1e-14)


def test_cut_rejection():
    bp = branch_points(CASE_I)
    with pytest.raises(BranchCutError):
        branch_small(CASE_I, 0.5 * (bp.alpha1 + bp.alpha2))
    # just off the cut is fine
    branch_small(CASE_I, 0.5 * (bp.alpha1 + bp.alpha2) + 1e-6j)


def test_root_residual_and_vieta(rng):
    # 1000 random off-cut points: both branches are kernel roots and satisfy
    # the product/sum identities
    for _ in range(1000):
        p = random_stable_params(rng)
        alpha = complex(rng.uniform(-3, 6), rng.uniform(-4, 4))
        bp = branch_points(p)
        if abs(alpha.imag) < 1e-3 and bp.alpha1 - 0.1 < alpha.real < bp.alpha2 + 0.1:
            continue
        z0, z1 = branch_small(p, alpha), branch_large(p, alpha)
        tol = 1e-10 * max(1.0, abs(alpha) ** 2) * max(p.lam, p.c * p.mu)
        assert abs(kernel(p, alpha, z0)) < tol
        assert abs(kernel(p, alpha, z1)) < tol
        assert abs(z0) <= abs(z1) * (1.0 + 1e-12)
        assert z0 * z1 == pytest.approx(p.c * p.mu / p.lam, rel=1e-10)
        b = -alpha * p.r + p.lam + p.c * p.mu
        assert z0 + z1 == pytest.approx(b / p.lam, rel=1e-10)


def test_small_branch_monotone_and_bounded(rng):
    for _ in range(30):
        p = random_stable_params(rng)
        bp = branch_points(p)
        grid = np.linspace(1e-4, 1.0 - 1e-4, 100) * bp.alpha1
        vals = np.array([complex(branch_small(p, a)).real for a in grid])
        assert np.all(np.diff(vals) > 0.0)
        assert vals[0] > 1.0
        assert vals[-1] < math.sqrt(p.c * p.mu / p.lam)


def test_alpha_of_z_inverts_small_branch(rng):
    for _ in range(100):
        p = random_stable_params(rng)
        alpha = rng.uniform(0.05, 0.95) * branch_points(p).alpha1
        z = branch_small(p, alpha)
        assert complex(alpha_of_z(p, z)).real == pytest.approx(alpha, rel=1e-9)


def test_alpha_of_z_zeros_and_pole():
    assert alpha_of_z(CASE_I, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert alpha_of_z(CASE_I, 3.0) == pytest.approx(0.0, abs=1e-15)
    zt = math.sqrt(3.0)
    assert alpha_of_z(CASE_I, zt) == pytest.approx(branch_points(CASE_I).alpha1, rel=1e-13)
    with pytest.raises(PoleError):
        alpha_of_z(CASE_I, 0.0)


def test_coefficient_polynomials():
    p = ModelParams(c=3, lam=1.2, mu=0.8, r=2.0)
    assert boundary_coeff(p, 1.0) == pytest.approx(0.0, abs=1e-14)
    assert boundary_coeff(p, p.c * p.mu / p.lam) == pytest.approx(0.0, abs=1e-12)
    assert mass_coeff(p, float(p.c)) == pytest.approx(0.0, abs=1e-12)
    # density_coeff is the z^(c-1)-scaled linear form
    z = 1.7
    expected = (p.mu - 0.3 * p.r - 0.3) * z ** 3 - 3 * p.mu * z ** 2
    assert density_coeff(p, 0.3, z) == pytest.approx(expected, rel=1e-14)


def test_branch_continuity_across_swap_line(rng):
    # the +/- assignment swaps across Re(alpha) = (lam + c*mu)/r; the branch
    # itself must stay continuous there
    for _ in range(20):
        p = random_stable_params(rng)
        line = (p.lam + p.c * p.mu) / p.r
        for im in (0.5, -1.3, 3.0):
            eps = 1e-7 * max(1.0, line)
            left = branch_small(p, complex(line - eps, im))
            right = branch_small(p, complex(line + eps, im))
            assert abs(left - right) < 1e-5 * abs(left)


def test_min_rule_matches_small_branch(rng):
    # for c=1 the zero's small-branch value is min(1+r, mu/(lam(1+r)))
    for _ in range(200):
        p = random_stable_c1(rng)
        alpha = p.mu / (1.0 + p.r) - p.lam
        if not 0.0 < alpha <= branch_points(p).alpha1:
            continue
        z0 = complex(branch_small(p, min(alpha, branch_points(p).alpha1)))
        expected = min(1.0 + p.r, p.mu / (p.lam * (1.0 + p.r)))
        assert z0.real == pytest.approx(expected, rel=1e-9)
