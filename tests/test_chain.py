import numpy as np
import pytest

from _forcing_oracle import (
    PoleError,
    boundary_gf,
    chain_offset,
    forcing,
    numerator_terms,
    ratio_chain,
    source_constants,
)
from conftest import CASE_I_C2, CASE_III, random_stable_params
from fluidtail.asymptotics import (_derivative, boundary_mass_tail, kernel_boundary,
                                   numerator_value)
from fluidtail.errors import FluidTailError
from fluidtail.kernel import branch_points, branch_small_real
from fluidtail.model import BoundaryVector, ModelParams
from fluidtail.roots import chain_links, find_coeff_zero, folded_coeff


def test_chain_first_link_c2():
    p = ModelParams(c=2, lam=1.0, mu=3.0, r=1.0)
    (a0,) = ratio_chain(p)
    # A_0 = mu / (c*alpha + lam): the level drains at rate c in phase 0
    for alpha in (0.0, 0.3, 2.0):
        assert a0(alpha) == pytest.approx(p.mu / (p.c * alpha + p.lam), rel=1e-14)


def test_chain_second_link_c3_hand_step():
    # one hand-step of the recursion for c=3, lam=20, mu=30:
    # A_1 = 60(3a+20) / ((2a+50)(3a+20) - 600)
    rng = np.random.default_rng(7)
    a0, a1 = ratio_chain(CASE_III)
    for alpha in rng.uniform(0.01, 5.0, 5):
        expected = 60.0 * (3 * alpha + 20.0) / ((2 * alpha + 50.0) * (3 * alpha + 20.0) - 600.0)
        assert a1(alpha) == pytest.approx(expected, rel=1e-12)


def test_chain_degrees_and_reduction(rng):
    for c in (2, 3, 5, 8):
        p = random_stable_params(rng, c_choices=(c,))
        chain = ratio_chain(p)
        assert len(chain) == c - 1
        for i, link in enumerate(chain):
            assert link.num_degree == i
            assert link.den_degree == i + 1
        # no common roots between numerator and denominator
        last = chain[-1]
        for root in last.den_roots():
            num_val = np.polynomial.polynomial.polyval(root, np.asarray(last.num))
            assert abs(num_val) > 1e-10 * max(np.abs(last.num))


def test_chain_poles_stay_left_of_zero(rng):
    # denominator roots never intrude on (0, alpha1]; asserted, not assumed
    for _ in range(40):
        p = random_stable_params(rng, c_choices=(2, 3, 4, 5))
        for link in ratio_chain(p):
            assert np.all(np.real(link.den_roots()) < 1e-12)


def test_chain_value_matches_polynomials(rng):
    # reduced rational evaluation vs the pivot form at 1000 points
    params = [random_stable_params(rng, c_choices=(2, 3, 4, 6)) for _ in range(20)]
    for p in params:
        chain = ratio_chain(p)
        for alpha in rng.uniform(0.0, 10.0, 50):
            assert chain[-1](alpha) == pytest.approx(
                chain_links(p, alpha)[-1], rel=1e-9
            )
    # and on the negative axis down to -2 (lam + c mu), off the poles of every link
    for p in params:
        chain = ratio_chain(p)
        poles = np.concatenate([link.den_roots() for link in chain])
        for alpha in rng.uniform(-2.0 * (p.lam + p.c * p.mu), 0.0, 50):
            if np.any(np.abs(alpha - poles) < 1e-6 * np.abs(poles)):
                continue
            assert chain[-1](alpha) == pytest.approx(
                chain_links(p, alpha)[-1], rel=1e-9
            )


def test_chain_links_exact_at_zero():
    # A_i(0) = (i+1) mu / lam; the direct recursion's pivots cancel at
    # alpha = 0 and read 0.489 for A_10 on this tuple, against 175.7
    p = ModelParams(c=12, lam=0.020069636140999738, mu=0.3205618220188776,
                    r=2.3242678339308673)
    links = chain_links(p, 0.0)
    assert len(links) == p.c - 1
    for i, link in enumerate(links):
        assert link == pytest.approx((i + 1) * p.mu / p.lam, rel=1e-14)


def test_chain_bounds_and_monotonicity(rng):
    for _ in range(25):
        p = random_stable_params(rng, c_choices=(2, 3, 5))
        chain = ratio_chain(p)
        grid = np.logspace(-3, 2, 40)
        for i, link in enumerate(chain):
            vals = np.array([link(a) for a in grid])
            assert np.all(vals > 0.0)
            assert np.all(vals < (i + 1) * p.mu / p.lam)
            assert link(0.0) == pytest.approx((i + 1) * p.mu / p.lam, rel=1e-12)
            h = 1e-6
            for a in np.linspace(0.05, 5.0, 10):
                slope = (link(a + h) - link(a - h)) / (2 * h)
                assert slope < 0.0


def test_source_constants():
    p = ModelParams(c=3, lam=1.0, mu=2.0, r=1.0)
    zero = BoundaryVector(masses=(0.0, 0.0, 0.0))
    assert np.all(source_constants(p, zero) == 0.0)
    b = BoundaryVector(masses=(0.5, 0.2, 0.1))
    k = source_constants(p, b)
    assert k[0] == pytest.approx(2.0 * 0.2 - 1.0 * 0.5)
    assert k[1] == pytest.approx(1.0 * 0.5 - (1.0 + 2.0) * 0.2 + 2 * 2.0 * 0.1)


def test_source_constants_with_oracle_boundary(sol_case3):
    # k_i must equal -(c-i) * density_i(0) straight from the balance equations
    p = CASE_III
    boundary = sol_case3.boundary_vector()
    k = source_constants(p, boundary)
    dens0 = sol_case3.density(0.0)
    for i in range(p.c - 1):
        assert k[i] == pytest.approx(-(p.c - i) * dens0[i], rel=5e-6, abs=1e-9)


def test_boundary_vector_validation():
    with pytest.raises(ValueError):
        BoundaryVector(masses=(0.4, -0.2))
    b = BoundaryVector(masses=(0.4, 1e-14))
    assert len(b) == 2 and b[0] == 0.4


def test_reduced_coeff_c1_closed_form():
    p = ModelParams(c=1, lam=1.0, mu=3.0, r=1.0)
    for alpha, z in ((0.1, 1.4), (0.5, 1.5), (0.52, 2.2)):
        assert folded_coeff(p, alpha, z) == pytest.approx((3 - 2 * alpha) * z - 3)


def test_reduced_coeff_vanishes_at_origin():
    # g = f / z^(c-1) is -c mu at z = 0, so the written f = z^(c-1) g vanishes there
    for c in (2, 3, 4):
        p = ModelParams(c=c, lam=1.0, mu=2.0, r=1.0)
        assert folded_coeff(p, 0.7, 0.0) == pytest.approx(-c * p.mu, rel=1e-15)


def test_reduced_coeff_dz_matches_numeric(rng):
    for _ in range(20):
        p = random_stable_params(rng, c_choices=(1, 2, 3, 4))
        alpha, z, h = rng.uniform(0.05, 1.0), rng.uniform(1.1, 2.5), 1e-6
        num = (folded_coeff(p, alpha, z + h) - folded_coeff(p, alpha, z - h)) / (2 * h)
        step = _derivative(lambda w: folded_coeff(p, alpha, w), z)
        assert step == pytest.approx(num, rel=1e-7)


def test_forcing_c1_and_linearity():
    p = ModelParams(c=1, lam=1.0, mu=3.0, r=1.0)
    b = BoundaryVector(masses=(0.25,))
    for z in (1.3, 2.0):
        assert forcing(p, b, 0.4, z) == pytest.approx(3.0 * (z - 1.0) * 0.25)
    zero = BoundaryVector(masses=(0.0,))
    assert forcing(p, zero, 0.4, 1.7) == 0.0


def test_forcing_c2_closed_form():
    # c=2 expansion: H0*P1 + lam z^2 P0 + lam z^2 (mu P1 - lam P0)/(2a+lam)
    p = ModelParams(c=2, lam=1.0, mu=3.0, r=1.0)
    b = BoundaryVector(masses=(0.5, 0.1))
    for alpha, z in ((0.2, 1.3), (1.0, 2.4)):
        expected = (
            (p.mu * z ** 2 - 2 * p.mu * z) * b[1]
            + p.lam * z ** 2 * b[0]
            + p.lam * z ** 2 * (p.mu * b[1] - p.lam * b[0]) / (2 * alpha + p.lam)
        )
        assert forcing(p, b, alpha, z) == pytest.approx(expected, rel=1e-13)


def test_pole_error_at_chain_pole():
    p = ModelParams(c=2, lam=1.0, mu=3.0, r=1.0)
    (a0,) = ratio_chain(p)
    pole = -p.lam / p.c
    with pytest.raises(PoleError):
        a0(pole)


def test_lower_phase_chain_unroll_c2():
    # one step of the downward chain: phi_0 = offset_0 + A_0 phi_1
    p = ModelParams(c=2, lam=1.0, mu=3.0, r=1.0)
    b = BoundaryVector(masses=(0.5, 0.1))
    (link,) = ratio_chain(p)
    k0 = p.mu * b[1] - p.lam * b[0]
    for alpha in (0.1, 0.7):
        a0 = p.mu / (2 * alpha + p.lam)
        assert link(alpha) == pytest.approx(a0, rel=1e-13)
        assert chain_offset(p, b, alpha, 0) == pytest.approx(k0 * a0 / p.mu, rel=1e-13)


def test_lower_phase_chain_zero_boundary(rng):
    p = random_stable_params(rng, c_choices=(3,))
    zero = BoundaryVector(masses=(0.0,) * 3)
    for phase in range(p.c - 1):
        assert chain_offset(p, zero, 0.5, phase) == 0.0


def test_transform_identity_against_oracle(sol_case1_c2):
    # the downward chain must reproduce the oracle's own transforms:
    # phi_i(alpha) = offset_i(alpha) + A_i(alpha) phi_{i+1}(alpha)
    p = CASE_I_C2
    boundary = sol_case1_c2.boundary_vector()
    for alpha in (0.01, 0.03, 0.05):
        phi = sol_case1_c2.transform(alpha)
        for phase, link in enumerate(ratio_chain(p)):
            rhs = chain_offset(p, boundary, alpha, phase) + link(alpha) * phi[phase + 1]
            assert phi[phase] == pytest.approx(rhs, rel=5e-7)


def test_boundary_gf_is_monomial():
    p = ModelParams(c=3, lam=1.0, mu=1.0, r=1.0)
    b = BoundaryVector(masses=(0.3, 0.2, 0.1))
    assert boundary_gf(p, b, 2.0) == pytest.approx(0.1 * 4.0)


def test_numerator_matches_written_forcing(rng):
    # the null-vector numerator n = N / z^c against boundary term + forcing, on
    # the small root and off the kernel curve, at fractions of the decay rate
    tuples = [CASE_I_C2, CASE_III, ModelParams(c=1, lam=1.0, mu=3.0, r=1.0),
              ModelParams(c=2, lam=1.0, mu=3.0, r=1.0), ModelParams(c=3, lam=1.0, mu=2.0, r=1.0)]
    tuples += [random_stable_params(rng, c_choices=(2, 3, 4, 6)) for _ in range(20)]
    for p in tuples:
        boundary, _ = kernel_boundary(p)
        zero = find_coeff_zero(p)
        alpha_star = branch_points(p).alpha1 if zero.alpha is None else zero.alpha
        for alpha in np.array([0.1, 0.5, 0.9, 1.0]) * alpha_star:
            z = branch_small_real(p, alpha)
            for w in (z, 1.37 * z, 0.6):
                terms = numerator_terms(p, boundary, alpha, w)
                scale = max(abs(t) for t in terms)
                n_times_zc = numerator_value(p, boundary, alpha, w) * w ** p.c
                assert abs(n_times_zc - sum(terms)) <= 1e-13 * scale


@pytest.mark.parametrize("z", [10.0, complex(10.0, 1e-30)])
def test_numerator_past_the_double_range_refuses(z):
    # z_tilde = c mu / lam = 10 and 10^500 is past the double range: n leaves the
    # z^c out and stays finite, and only the residue, which carries z_tilde^c, refuses
    p = ModelParams(c=500, lam=50.0, mu=1.0, r=0.5)
    boundary = BoundaryVector(masses=tuple(np.full(p.c, 1e-3)))
    assert np.isfinite(numerator_value(p, boundary, 0.0, z))
    with pytest.raises(FluidTailError, match="double range"):
        boundary_mass_tail(p, boundary)
