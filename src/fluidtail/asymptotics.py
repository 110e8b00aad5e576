"""Tail classification and the asymptotic constants of the stationary law.

Three regimes exist, keyed to the dominant singularity alpha* of the
phase-(c-1) density transform:

* POLE            - the folded coefficient has a zero strictly inside
                    (0, alpha1): density ~ C * exp(-alpha* x) * x^(k-1);
* POLE_AT_BRANCH  - the zero sits exactly at the branch point:
                    density ~ C * exp(-alpha* x) / sqrt(x);
* BRANCH_ONLY     - no zero in (0, alpha1]: alpha* = alpha1 and
                    density ~ C * exp(-alpha* x) * x^(-3/2).

All prefactors are computed from the folded identity.  The boundary masses
enter it linearly; kernel_boundary finds them from the same identity, as
the masses that make the transform numerator vanish at the c-1 zeros of
the folded coefficient on the negative axis, plus the stationary mean
drift.  No truncation is involved.  Per-phase
prefactors come from exact coefficient extraction of the folded-coefficient/
kernel ratio, whose value at z = 0 is exactly 1, anchoring phase c-1.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .cfrac import (
    BoundaryVector,
    boundary_gf,
    boundary_gf_dz,
    checked_boundary,
    density_coeff_reduced,
    density_coeff_reduced_dz,
    forcing_reduced,
    forcing_reduced_dz,
    ratio_chain_value,
    ratio_chain_values,
)
from .errors import FluidTailError
from .kernel import (
    boundary_coeff,
    boundary_coeff_dz,
    branch_large,
    branch_points,
    branch_small,
)
from .model import ModelParams, phase_stationary, require_stable
from .roots import CoeffZero, _derivatives_fd, composed_coeff, find_coeff_zero, growing_zeros


# kernel boundary masses with a larger relative error estimate are refused;
# their share of a prefactor's error would near validate's 2% tolerance
_MASS_RTOL = 1e-3


class TailCase(enum.Enum):
    POLE = "I"
    POLE_AT_BRANCH = "II"
    BRANCH_ONLY = "III"

    @property
    def label(self) -> str:
        return self.value


def classify(params: ModelParams, zero: CoeffZero) -> tuple:
    """Case tag and decay rate from the zero-search outcome."""
    bp = branch_points(params)
    if zero.alpha is None:
        return TailCase.BRANCH_ONLY, bp.alpha1
    if zero.at_branch_point:
        return TailCase.POLE_AT_BRANCH, bp.alpha1
    if not 0.0 < zero.alpha < bp.alpha1:
        raise FluidTailError(f"zero {zero.alpha} escaped (0, alpha1={bp.alpha1})")
    return TailCase.POLE, zero.alpha


def numerator_value(params: ModelParams, boundary: BoundaryVector, alpha, z):
    """boundary_coeff(z)*gf(z) + forcing(alpha, z): the transform numerator."""
    return (
        boundary_coeff(params, z) * boundary_gf(params, boundary, z)
        + forcing_reduced(params, boundary, alpha, z)
    )


def transform_continuation(params: ModelParams, boundary: BoundaryVector, alpha):
    """Analytic continuation of the phase-(c-1) density transform.

    Valid off the cut wherever the folded coefficient is nonzero; this is
    what the asymptotic constants are limits of.
    """
    z = branch_small(params, alpha)
    return -numerator_value(params, boundary, alpha, z) / density_coeff_reduced(
        params, alpha, z
    )


def constant_simple_pole(
    params: ModelParams, boundary: BoundaryVector, zero: CoeffZero
) -> tuple:
    """POLE-case constant: lim (alpha*-alpha)^k * transform, with error bar.

    The k-th derivative of the composed coefficient is taken by Richardson
    central differences inside (0, alpha1); the limit carries the exact
    k! (-1)^(k+1) factor (irrelevant at k = 1).
    """
    if zero.alpha is None or zero.at_branch_point:
        raise ValueError("constant_simple_pole needs an interior zero")
    a, k = zero.alpha, zero.multiplicity
    alpha1 = branch_points(params).alpha1
    z = branch_small(params, a)
    n_val = complex(numerator_value(params, boundary, a, z)).real
    f = lambda x: complex(composed_coeff(params, x)).real
    h = 0.02 * min(a, alpha1 - a)
    d_k = _derivatives_fd(f, a, h, n_max=k)[k - 1]
    d_k2 = _derivatives_fd(f, a, h / 2.0, n_max=k)[k - 1]
    if abs(d_k) < 1e-12 * zero.scale / max(a, 1.0) ** k:
        raise FluidTailError("k-th derivative vanishes; multiplicity misdetected")
    value = n_val * math.factorial(k) * (-1.0) ** (k + 1) / d_k
    err = abs(value) * abs(d_k - d_k2) / abs(d_k)
    return value, err


def constant_pole_at_branch(params: ModelParams, boundary: BoundaryVector) -> float:
    """POLE_AT_BRANCH constant: lim sqrt(alpha*-alpha) * transform.

    Equals 2*lam*N / (r * dF/dz * sqrt(alpha2-alpha1)) with N the numerator
    and dF/dz the exact z-derivative of the folded coefficient, both at the
    branch point; the r factor comes from the discriminant's leading
    coefficient r^2.
    """
    bp = branch_points(params)
    a = bp.alpha1
    z = branch_small(params, a)
    n_val = complex(numerator_value(params, boundary, a, z)).real
    dfdz = complex(density_coeff_reduced_dz(params, a, z)).real
    return (
        2.0 * params.lam * n_val
        / (params.r * dfdz * math.sqrt(bp.alpha2 - bp.alpha1))
    )


def constant_branch_only(params: ModelParams, boundary: BoundaryVector) -> float:
    """BRANCH_ONLY constant: lim sqrt(alpha*-alpha) * d/dalpha transform.

    Equals dL/dz * r * sqrt(alpha2-alpha1) / (4*lam), where L is the
    continuation ratio and its z-derivative combines the exact polynomial
    derivatives of all three coefficient functions.
    """
    bp = branch_points(params)
    a = bp.alpha1
    z = complex(branch_small(params, a))
    num = (
        boundary_coeff(params, z) * boundary_gf(params, boundary, z)
        + forcing_reduced(params, boundary, a, z)
    )
    num_dz = (
        boundary_coeff_dz(params, z) * boundary_gf(params, boundary, z)
        + boundary_coeff(params, z) * boundary_gf_dz(params, boundary, z)
        + forcing_reduced_dz(params, boundary, a, z)
    )
    den = density_coeff_reduced(params, a, z)
    den_dz = density_coeff_reduced_dz(params, a, z)
    if abs(den) < 1e-12 * max(abs(num), 1.0):
        raise FluidTailError("folded coefficient vanishes at the branch point; not BRANCH_ONLY")
    dl_dz = complex(-(num_dz * den - num * den_dz) / (den * den)).real
    return dl_dz * params.r * math.sqrt(bp.alpha2 - bp.alpha1) / (4.0 * params.lam)


def density_prefactor(case: TailCase, c_const: float, k: int = 1) -> tuple:
    """(prefactor, power of x) in  density ~ prefactor * e^(-a* x) * x^power."""
    if case is TailCase.POLE:
        return c_const / math.gamma(k), float(k - 1)
    if case is TailCase.POLE_AT_BRANCH:
        return c_const / math.sqrt(math.pi), -0.5
    return c_const / math.sqrt(math.pi), -1.5


@dataclass(frozen=True)
class PhaseTail:
    """Leading tail behaviour of one phase of the joint stationary law.

    density ~ prefactor * exp(-rate*x) * x^power, and the distribution's
    deficit from its total mass is the same expression divided by -rate.
    """

    phase: int
    rate: float
    power: float
    prefactor: float
    distribution_gap: float   # coefficient of the (negative) deficit term


@dataclass(frozen=True)
class TailReport:
    """Full output of the analytic pipeline for one parameter tuple."""

    params: ModelParams
    case: TailCase
    alpha_star: float
    multiplicity: int
    z_star: float               # small kernel root at alpha*
    z_large: float              # large kernel root at alpha*; phase damping is 1/z_large
    z_tilde: float              # c*mu/lam, the boundary generating function's pole scale
    c_const: float              # transform-limit constant of the active case
    c_const_err: float
    prefactor: float            # density prefactor at phase c-1
    power: float                # power of x in the density asymptotics
    phase_ratio: float          # limiting ratio of consecutive phase prefactors
    marginal_prefactor: float
    d_ztilde: float             # residue constant of the boundary generating function
    boundary: BoundaryVector
    boundary_err: float         # relative error estimate of the boundary masses
    zero: CoeffZero = field(repr=False)


def _phase_extraction_coeffs(params: ModelParams, alpha_star: float, case: TailCase,
                             n_phases: int) -> np.ndarray:
    """Exact coefficients R_j of the folded-coefficient/kernel ratio.

    R_j is the z^j coefficient of (P z - c mu) / K(alpha*, z) with
    P = lam*A_{c-2} + mu - alpha*(r+1); phase c-1+j of the joint tail scales
    by R_j, and R_0 = 1 exactly.  In the POLE case the small-root pole
    cancels (its residue is the defining zero), leaving a pure geometric
    sequence in 1/z_large; at the branch point the double root contributes a
    linear-in-j factor in the BRANCH_ONLY case.
    """
    c, lam, mu, r = params.c, params.lam, params.mu, params.r
    p_val = lam * ratio_chain_value(params, alpha_star) + mu - alpha_star * (r + 1.0)
    z0 = complex(branch_small(params, alpha_star))
    z1 = complex(branch_large(params, alpha_star))
    j = np.arange(n_phases)
    if case is TailCase.POLE:
        b_res = (p_val * z1 - c * mu) / (z1 - z0)
        out = (b_res / lam) * z1 ** (-(j + 1.0))
    elif abs(z0 - z1) < 1e-9 * abs(z1):
        zs = 0.5 * (z0 + z1)
        out = (p_val / lam) * zs ** (-(j + 1.0)) \
            - ((p_val * zs - c * mu) / lam) * (j + 1.0) * zs ** (-(j + 2.0))
    else:
        a_res = (p_val * z0 - c * mu) / (z0 - z1)
        b_res = (p_val * z1 - c * mu) / (z1 - z0)
        out = (a_res * z0 ** (-(j + 1.0)) + b_res * z1 ** (-(j + 1.0))) / lam
    return np.real(out)


def joint_tail(params: ModelParams, report: TailReport, phase: int) -> PhaseTail:
    """Tail descriptor of a single joint probability, any phase >= c-1."""
    if phase < params.c - 1:
        raise ValueError("use lower_phase_tail below phase c-1")
    j = phase - (params.c - 1)
    coeffs = _phase_extraction_coeffs(params, report.alpha_star, report.case, j + 1)
    pref = report.prefactor * float(coeffs[j])
    return PhaseTail(
        phase=phase,
        rate=report.alpha_star,
        power=report.power,
        prefactor=pref,
        distribution_gap=-pref / report.alpha_star,
    )


def lower_phase_tail(params: ModelParams, report: TailReport, phase: int) -> PhaseTail:
    """Tail descriptor of a draining phase below c-1.

    Each downward chain step multiplies the phase-(c-1) prefactor by the
    chain ratio at alpha*; the chain offsets are analytic there and do not
    touch the leading term.
    """
    if not 0 <= phase <= params.c - 2:
        raise ValueError(f"phase {phase} is not below c-1")
    mult = math.prod(ratio_chain_values(params, report.alpha_star)[phase:])
    pref = report.prefactor * mult
    return PhaseTail(
        phase=phase,
        rate=report.alpha_star,
        power=report.power,
        prefactor=pref,
        distribution_gap=-pref / report.alpha_star,
    )


def marginal_tail(params: ModelParams, report: TailReport) -> PhaseTail:
    """Tail descriptor of the level marginal (all phases summed).

    The prefactor is [F(alpha*, 1)/K(alpha*, 1) + chain-sums] times the
    phase-(c-1) prefactor; K(alpha*, 1) = -alpha* r is never zero, and the
    bracket equals the exact sum of the per-phase prefactors.
    """
    a = report.alpha_star
    f_at_1 = complex(density_coeff_reduced(params, a, 1.0)).real
    bracket = f_at_1 / (-a * params.r)
    a_vals = ratio_chain_values(params, a)
    for start in range(len(a_vals)):
        bracket += math.prod(a_vals[start:])
    pref = report.prefactor * bracket
    return PhaseTail(
        phase=-1, rate=a, power=report.power, prefactor=pref,
        distribution_gap=-pref / a,
    )


@dataclass(frozen=True)
class BoundaryMassTail:
    """Residue constant and ratio of the boundary generating function.

    Formal content: the generating function of the boundary masses continues
    to a simple pole at z_tilde = c*mu/lam with residue constant d_ztilde;
    the actual mass sequence terminates at phase c-1, so only the constant
    itself (positive, equal to xi_{c-1} * z_tilde^c) is observable.
    """

    d_ztilde: float
    z_tilde: float
    ratio: float          # 1/z_tilde, the formal geometric damping
    alpha_at_pole: float  # alpha(z_tilde); identically zero


def boundary_mass_tail(params: ModelParams, boundary: BoundaryVector) -> BoundaryMassTail:
    """Evaluate the boundary residue constant from the folded identity.

    At z = z_tilde the level variable drops out (alpha(z_tilde) = 0) and the
    phase-(c-1) transform at zero is xi_{c-1} minus the boundary mass, known
    in closed form.
    """
    c, lam, mu = params.c, params.lam, params.mu
    zt = c * mu / lam
    xi = phase_stationary(params)
    phi0 = xi.prob(c - 1) - boundary.masses[c - 1]
    num = (
        complex(density_coeff_reduced(params, 0.0, zt)).real * phi0
        + complex(forcing_reduced(params, boundary, 0.0, zt)).real
    )
    d = num / (lam * (zt - 1.0))
    return BoundaryMassTail(d_ztilde=d, z_tilde=zt, ratio=1.0 / zt, alpha_at_pole=0.0)


def kernel_boundary(params: ModelParams) -> tuple:
    """Boundary masses Pi_i(0), i < c, from the kernel identity alone.

    Returns (BoundaryVector with source "kernel", relative error estimate).
    The transform numerator is linear in the masses p_i = Pi_i(0) and must
    vanish at each of the c-1 growing zeros a < 0 of the folded coefficient
    (roots.growing_zeros).  Let Q_z be the generator's block on the draining
    phases 0..c-1 with the rate lam from phase c-1 to phase c put back on
    the diagonal as lam z, z = branch_small(a), and R = diag(i - c).  The
    first c-1 entries of Q_z^T p are the source constants
    (cfrac.source_constants), and the numerator times
    D_{c-2} / (lam^(c-1) z^c), D the chain denominators, is u . Q_z^T p for
    the vector u_0 = 1,

        lam u_{i+1} = ((c-i) a + lam + i mu) u_i - i mu u_{i-1},

    that is u_i = D_{i-1} / lam^i.  Rows 0..c-2 of (Q_z + a R) u = 0 hold
    by construction and row c-1 holds exactly where f vanishes, so there
    u . Q_z^T p = -a sum_i (i-c) u_i p_i.  Each growing zero thus gives the
    R-orthogonality row sum_i (i-c) u_i p_i = 0, and the zero mode (a = 0,
    u = 1) gives sum_i (i-c) p_i = mean drift; for c = 1 that alone reads
    Pi_0(0) = -mean drift.  As in spectral.solve_truncated the c x c system
    is solved for t_i = Pi_i(0) / xi_i, after scaling each row to unit
    max-norm.  The error estimate is the system's 1-norm condition number
    times its componentwise backward error (at least machine epsilon).  The
    recurrence for u loses digits as c grows, fastest at low load; an
    estimate above _MASS_RTOL raises FluidTailError.
    """
    c, lam, mu = params.c, params.lam, params.mu
    i = np.arange(c)
    u = np.ones((c, c))
    if c > 1:
        a = growing_zeros(params)
        u[1:, 1] = (c * a + lam) / lam
        for n in range(1, c - 1):
            u[1:, n + 1] = (((c - n) * a + lam + n * mu) * u[1:, n] - n * mu * u[1:, n - 1]) / lam
    xi = phase_stationary(params).probs(c)
    system = u * ((i - c) * xi)
    rhs = np.zeros(c)
    rhs[0] = require_stable(params).mean_drift
    scale = np.abs(system).max(axis=1)
    system /= scale[:, None]
    rhs /= scale
    t = np.linalg.solve(system, rhs)
    backward = np.abs(system @ t - rhs) / (np.abs(system) @ np.abs(t) + np.abs(rhs))
    err = float(np.linalg.cond(system, 1) * max(np.finfo(float).eps, float(backward.max())))
    if not err < _MASS_RTOL:
        raise FluidTailError(
            f"kernel boundary masses too inaccurate: error estimate {err:.2g} "
            f"is not below {_MASS_RTOL:g} (c={c})"
        )
    return checked_boundary(params, t * xi, "kernel"), err


def analyze(params: ModelParams) -> TailReport:
    """Run the full analytic pipeline and assemble a TailReport.

    The boundary masses, which every prefactor needs, come from
    kernel_boundary.  The error bar of the transform constant combines the
    finite-difference spread (pole case) with the masses' relative error
    estimate.
    """
    require_stable(params)
    zero = find_coeff_zero(params)
    case, alpha_star = classify(params, zero)
    boundary, boundary_err = kernel_boundary(params)
    if case is TailCase.POLE:
        c_const, fd_err = constant_simple_pole(params, boundary, zero)
    elif case is TailCase.POLE_AT_BRANCH:
        c_const, fd_err = constant_pole_at_branch(params, boundary), 0.0
    else:
        c_const, fd_err = constant_branch_only(params, boundary), 0.0
    c_err = fd_err + boundary_err * abs(c_const)

    k = zero.multiplicity if case is TailCase.POLE else 1
    pref, power = density_prefactor(case, c_const, k)
    z0 = complex(branch_small(params, alpha_star)).real
    z1 = complex(branch_large(params, alpha_star)).real
    report = TailReport(
        params=params,
        case=case,
        alpha_star=alpha_star,
        multiplicity=k,
        z_star=z0,
        z_large=z1,
        z_tilde=params.c * params.mu / params.lam,
        c_const=c_const,
        c_const_err=c_err,
        prefactor=pref,
        power=power,
        phase_ratio=1.0 / z1,
        marginal_prefactor=0.0,
        d_ztilde=0.0,
        boundary=boundary,
        boundary_err=boundary_err,
        zero=zero,
    )
    marg = marginal_tail(params, report)
    bt = boundary_mass_tail(params, boundary)
    return dataclasses.replace(
        report, marginal_prefactor=marg.prefactor, d_ztilde=bt.d_ztilde
    )
