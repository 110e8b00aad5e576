"""Tail classification and the asymptotic constants of the stationary law.

Three regimes exist, keyed to the dominant singularity alpha* of the
phase-(c-1) density transform:

* POLE            - the folded coefficient has a zero strictly inside
                    (0, alpha1): density ~ C * exp(-alpha* x);
* POLE_AT_BRANCH  - the zero sits exactly at the branch point:
                    density ~ C * exp(-alpha* x) / sqrt(x);
* BRANCH_ONLY     - no zero in (0, alpha1]: alpha* = alpha1 and
                    density ~ C * exp(-alpha* x) * x^(-3/2).

All prefactors are computed from the folded identity: the phase-(c-1)
transform is -z n / g on the small kernel root z, with g the folded
coefficient (roots.folded_coeff) and n a numerator linear in the boundary
masses, which numerator_value takes from the null vector of the
draining-phase chain in O(c) steps.  The paper's form -N / f carries z^c
in N and z^(c-1) in f; g and n leave that common factor out, so no z^c
is taken on the way to a constant.  kernel_boundary finds the masses
that make n vanish at the c-1 zeros of g on the negative axis, as the
stationary law of the ladder generator whose eigenvalues they are, with
no zero search and no truncation.  Each case's constant is a derivative
at alpha* of an evaluator the zero search or the identity already has:
of the deflated coefficient in alpha (POLE), of g in z (POLE_AT_BRANCH)
and of the continuation ratio in z (BRANCH_ONLY), each by one complex
step (_derivative).  Per-phase prefactors come from exact
coefficient extraction of the folded-coefficient/kernel ratio, whose value
at z = 0 is exactly 1, anchoring phase c-1.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionViolatedError, FluidTailError
from .kernel import branch_points, branch_small_real, kernel_discriminant
from .model import BoundaryVector, ModelParams, checked_boundary, phase_stationary, require_stable
from .roots import (
    CoeffZero,
    _deflated,
    chain_links,
    chain_pivots,
    find_coeff_zero,
    folded_coeff,
    null_vector,
)


# kernel boundary masses, a transform numerator or a pole constant with a
# larger relative error estimate are refused; their share of a prefactor's
# error would near validate's 2% tolerance
_MAX_RTOL = 1e-3
_EPS, _TINY = float(np.finfo(float).eps), float(np.finfo(float).tiny)
# _ladder_row drops block entries below _NEGLIGIBLE; each of its steps doubles the levels spanned
_NEGLIGIBLE, _MAX_STEPS = 1e-100, 64


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


def _numerator_terms(params: ModelParams, boundary: BoundaryVector, alpha, z) -> tuple:
    """The four terms whose sum is the transform numerator n = N(alpha, z) / z^c, alpha >= 0.

    Let Q_z be the generator's block on the draining phases 0..c-1 with the
    rate lam from phase c-1 to phase c put back on the diagonal as lam z,
    R = diag(i - c) and p the boundary masses.  The chain's null vector u of
    roots.null_vector zeroes rows 0..c-2 of (Q_z + alpha R) u, and folding
    the transform identity down the chain gives N u_{c-1} / z^c = u . Q_z^T p.
    With rho = row c-1 of (Q_z + alpha R) u,

        N = z^c [p_{c-1} rho - alpha sum_i (i-c) u_i p_i] / u_{c-1}

    for every z, on the kernel curve or off it.  Over u_{c-1}, the u_i are
    products of factors lam / den_i in (0, 1], and with the pivots den_i
    and last weight e_{c-2} of roots.chain_pivots,
    rho / u_{c-1} = lam z - lam - alpha (1 + (c-1) mu e_{c-2} / den_{c-2}).
    The terms returned are p_{c-1} times the three terms of that, and the
    sum, whose terms all have one sign.
    """
    c, lam, mu = params.c, params.lam, params.mu
    p = boundary.masses
    dens, e = chain_pivots(params, alpha)
    u = null_vector(lam, dens)
    # alpha = 0 drops the drain term, also where e_{c-2} is past the double range
    drain = 1.0 + (c - 1) * mu * e / dens[-1] if dens and alpha else 1.0
    top = p[c - 1]
    s = sum((c - i) * u[i] * p[i] for i in range(c))
    return top * lam * z, -top * lam, -top * alpha * drain, alpha * s


def numerator_value(params: ModelParams, boundary: BoundaryVector, alpha, z):
    """The transform numerator n = N(alpha, z) / z^c at alpha >= 0, from the chain's null vector.

    The phase-(c-1) density transform is -z n / g on the small root
    (transform_continuation); _numerator_terms gives the formula.  n is
    linear in the boundary masses, and a complex z or alpha is carried
    through, for complex-step derivatives.
    """
    return sum(_numerator_terms(params, boundary, alpha, z))


def _numerator_rounding(params: ModelParams, boundary: BoundaryVector, alpha: float) -> float:
    """Relative rounding error estimate of n on the small root at alpha.

    10 eps times the condition of the sum, the terms' absolute values over
    |n|.  An estimate of _MAX_RTOL or more raises FluidTailError: n is then
    lost to cancellation.
    """
    z = branch_small_real(params, alpha)
    terms = _numerator_terms(params, boundary, alpha, z)
    rel_err = 10.0 * _EPS * sum(abs(t) for t in terms) / abs(sum(terms))
    if not rel_err < _MAX_RTOL:
        raise FluidTailError(
            f"transform numerator lost to rounding: relative error estimate "
            f"{rel_err:.2g} at alpha={alpha} is not below {_MAX_RTOL:g}"
        )
    return rel_err


def transform_continuation(params: ModelParams, boundary: BoundaryVector, alpha):
    """Analytic continuation of the phase-(c-1) density transform.

    -z n / g on the small root, valid at 0 <= alpha <= alpha1
    (numerator_value) wherever g is nonzero; this is what the asymptotic
    constants are limits of.
    """
    z = branch_small_real(params, alpha)
    return -z * numerator_value(params, boundary, alpha, z) / folded_coeff(params, alpha, z)


def _derivative(f, x: float) -> float:
    """f'(x) of a function real on the real axis, by one complex step.

    f(x + ih) = f(x) + ih f'(x) + O(h^2), so Im f(x + ih) / h is f'(x)
    without the cancellation of a difference quotient, and a step far below
    rounding leaves f' accurate to rounding (Squire & Trapp, "Using complex
    variables to estimate derivatives of real functions", SIAM Review 40,
    1998).  f must be analytic at x and built from arithmetic that carries
    a complex argument through (no abs, comparisons or real parts).
    """
    h = 1e-30 * max(abs(x), 1.0)
    return float(complex(f(complex(x, h))).imag / h)


def constant_simple_pole(
    params: ModelParams, boundary: BoundaryVector, zero: CoeffZero
) -> tuple:
    """POLE-case constant lim (alpha*-alpha) * transform, with error bars.

    Returns (constant, its error bar, alpha*'s error bar), both bars
    absolute.  The transform is -z n/g with n the numerator and g = alpha d
    the folded coefficient, so the constant is z n / g'(alpha*), and
    g'(alpha*) = alpha* d'(alpha*) because d(alpha*) = 0.  d' is a complex
    step of roots._deflated, which has neither a pole nor a cancellation.
    The zero search brackets d from negative to positive, so d' > 0 at a
    simple zero; anything else raises AssumptionViolatedError.  The error
    bars are rounding, times 10.  The small root z carries a relative error
    of about eps b/sqrt|disc| (b the kernel's linear coefficient), which
    d's drift term cmu r/(cmu - lam z) amplifies by lam z/|cmu - lam z|.
    With d's term scale this makes the rounding of d, and over d' the error
    of alpha*; near criticality n and g' lose as many digits to the same
    z.  Next to alpha1, g' loses eps b^2/|disc| through the root's slope.
    A relative bar of _MAX_RTOL or more raises FluidTailError: the zero is
    then within rounding of 0 or of alpha1, where the clamped double root
    can make a sign change of d that is no zero at all.
    """
    if zero.alpha is None or zero.at_branch_point:
        raise ValueError("constant_simple_pole needs an interior zero")
    a = zero.alpha
    c, lam, mu, r = params.c, params.lam, params.mu, params.r
    z = branch_small_real(params, a)
    n_val = numerator_value(params, boundary, a, z)
    d_prime = _derivative(lambda x: _deflated(params, x)[0], a)
    if not d_prime > 0.0:
        raise AssumptionViolatedError(
            f"deflated coefficient has slope {d_prime} at its zero alpha={a}; "
            f"a bracketed simple zero has a positive slope"
        )
    value = z * n_val / (a * d_prime)
    b = lam + c * mu - a * r
    disc = max(abs(kernel_discriminant(params, a)), 1e-300)
    z_err = b / math.sqrt(disc)   # relative rounding of z, in units of eps
    z_slope = c * mu * r * lam * z * z / (c * mu - lam * z) ** 2   # z dd/dz at the zero
    d_err = _deflated(params, a)[1] + z_slope * z_err
    rel_err = 10.0 * _EPS * (d_err / (a * d_prime) + b * b / disc)
    if not rel_err < _MAX_RTOL:
        raise FluidTailError(
            f"pole constant lost to rounding: relative error estimate {rel_err:.2g} "
            f"at alpha*={a} is not below {_MAX_RTOL:g}"
        )
    return float(value), float(rel_err * abs(value)), float(10.0 * _EPS * d_err / d_prime)


def constant_pole_at_branch(params: ModelParams, boundary: BoundaryVector) -> float:
    """POLE_AT_BRANCH constant: lim sqrt(alpha*-alpha) * transform.

    Equals 2*lam*z*n / (r * dg/dz * sqrt(alpha2-alpha1)) with n the
    numerator and dg/dz the z-derivative of the folded coefficient, both
    at the branch point (a complex step in z), where g vanishes; the r
    factor comes from the discriminant's leading coefficient r^2.
    """
    bp = branch_points(params)
    a = bp.alpha1
    z = branch_small_real(params, a)
    n_val = numerator_value(params, boundary, a, z)
    dgdz = _derivative(lambda w: folded_coeff(params, a, w), z)
    return float(
        2.0 * params.lam * z * n_val
        / (params.r * dgdz * math.sqrt(bp.alpha2 - bp.alpha1))
    )


def constant_branch_only(params: ModelParams, boundary: BoundaryVector) -> float:
    """BRANCH_ONLY constant: lim sqrt(alpha*-alpha) * d/dalpha transform.

    Equals dL/dz * r * sqrt(alpha2-alpha1) / (4*lam), where
    L(w) = -w n(alpha1, w) / g(alpha1, w) is the continuation ratio at the
    branch point, differentiated by a complex step in w at the small root
    z.  g counts as vanishing below 1e-12 max(z |n|, z^(1-c)): the test
    |f| < 1e-12 max(|N|, 1) on the paper's f and N, divided by z^(c-1).
    """
    bp = branch_points(params)
    a = bp.alpha1
    z = branch_small_real(params, a)
    num = numerator_value(params, boundary, a, z)
    if abs(folded_coeff(params, a, z)) < 1e-12 * max(z * abs(num), z ** (1 - params.c)):
        raise FluidTailError("folded coefficient vanishes at the branch point; not BRANCH_ONLY")
    dl_dz = _derivative(
        lambda w: -w * numerator_value(params, boundary, a, w) / folded_coeff(params, a, w), z
    )
    return float(dl_dz * params.r * math.sqrt(bp.alpha2 - bp.alpha1) / (4.0 * params.lam))


def density_prefactor(case: TailCase, c_const: float) -> tuple:
    """(prefactor, power of x) in  density ~ prefactor * e^(-a* x) * x^power."""
    if case is TailCase.POLE:
        return c_const, 0.0
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
    alpha_star_err: float       # absolute error bar of alpha*
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


def _phase_extraction_coeffs(params: ModelParams, report: TailReport, n_phases: int) -> np.ndarray:
    """Exact coefficients R_j of the folded-coefficient/kernel ratio.

    R_j is the z^j coefficient of g(alpha*, z) / K(alpha*, z), with g the
    folded coefficient (roots.folded_coeff), linear in z; phase c-1+j of the
    joint tail scales by R_j, and R_0 = 1 exactly.  In the POLE case the
    small-root pole cancels (its residue is the defining zero), leaving a
    pure geometric sequence in 1/z_large; at the branch point the double
    root contributes a linear-in-j factor in the BRANCH_ONLY case, through
    the slope dg/dz, whose complex step is exact on a line.  The two roots
    are the report's z_star and z_large; outside the POLE case alpha* is
    alpha1, where they are the double root and agree to rounding.
    """
    lam = params.lam
    alpha_star, z0, z1 = report.alpha_star, report.z_star, report.z_large
    dens = chain_pivots(params, alpha_star)[0]
    g = lambda w: folded_coeff(params, alpha_star, w, dens)
    j = np.arange(n_phases)
    if report.case is TailCase.POLE:
        b_res = g(z1) / (z1 - z0)
        out = (b_res / lam) * z1 ** (-(j + 1.0))
    else:
        zs = 0.5 * (z0 + z1)
        out = (_derivative(g, zs) / lam) * zs ** (-(j + 1.0)) \
            - (g(zs) / lam) * (j + 1.0) * zs ** (-(j + 2.0))
    return np.real(out)


def joint_tail(params: ModelParams, report: TailReport, phase: int) -> PhaseTail:
    """Tail descriptor of a single joint probability, any phase >= c-1."""
    if phase < params.c - 1:
        raise ValueError("use lower_phase_tail below phase c-1")
    j = phase - (params.c - 1)
    coeffs = _phase_extraction_coeffs(params, report, j + 1)
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
    mult = math.prod(chain_links(params, report.alpha_star)[phase:])
    pref = report.prefactor * mult
    return PhaseTail(
        phase=phase,
        rate=report.alpha_star,
        power=report.power,
        prefactor=pref,
        distribution_gap=-pref / report.alpha_star,
    )


def _marginal_bracket(params: ModelParams, alpha_star: float) -> float:
    """The level marginal's prefactor over phase c-1's: g(alpha*, 1)/K(alpha*, 1) + chain-sums."""
    bracket = folded_coeff(params, alpha_star, 1.0) / (-alpha_star * params.r)
    a_vals = chain_links(params, alpha_star)
    for start in range(len(a_vals)):
        bracket += math.prod(a_vals[start:])
    return bracket


def marginal_tail(params: ModelParams, report: TailReport) -> PhaseTail:
    """Tail descriptor of the level marginal (all phases summed).

    The prefactor is [g(alpha*, 1)/K(alpha*, 1) + chain-sums] times the
    phase-(c-1) prefactor; K(alpha*, 1) = -alpha* r is never zero, and the
    bracket equals the exact sum of the per-phase prefactors.
    """
    a = report.alpha_star
    pref = report.prefactor * _marginal_bracket(params, a)
    return PhaseTail(
        phase=-1, rate=a, power=report.power, prefactor=pref,
        distribution_gap=-pref / a,
    )


@dataclass(frozen=True)
class BoundaryMassTail:
    """Residue constant and pole of the boundary generating function.

    Formal content: the generating function of the boundary masses continues
    to a simple pole at z_tilde = c*mu/lam with residue constant d_ztilde;
    the actual mass sequence terminates at phase c-1, so only the constant
    itself (positive, equal to xi_{c-1} * z_tilde^c) is observable.
    """

    d_ztilde: float
    z_tilde: float


def boundary_mass_tail(params: ModelParams, boundary: BoundaryVector) -> BoundaryMassTail:
    """Evaluate the boundary residue constant from the folded identity.

    At z = z_tilde the level variable drops out (alpha(z_tilde) = 0) and the
    phase-(c-1) transform at zero is xi_{c-1} minus the boundary mass, known
    in closed form; the numerator is numerator_value at (0, z_tilde).  The
    residue is z_tilde^c (g phi0 / z_tilde + n), with z_tilde^c a real
    factor of it; past the double range it raises FluidTailError.
    """
    c, lam, mu = params.c, params.lam, params.mu
    zt = c * mu / lam
    try:
        ztc = zt ** c
    except OverflowError:   # a Python float raises it; a numpy float gives inf
        ztc = math.inf
    if ztc == math.inf:
        raise FluidTailError(f"z^c past the double range at z={zt}, c={c}")
    xi = phase_stationary(params)
    phi0 = xi.prob(c - 1) - boundary.masses[c - 1]
    n_val = numerator_value(params, boundary, 0.0, zt)
    num = ztc * (folded_coeff(params, 0.0, zt) * phi0 / zt + n_val)
    return BoundaryMassTail(d_ztilde=num / (lam * (zt - 1.0)), z_tilde=zt)


def _ladder_row(params: ModelParams) -> tuple:
    """(row, basis s, residual): row c-1 of the ladder matrix G, for c >= 2.

    Watched only in the draining phases, with the level as the clock, the
    net input reaches each new minimum in a phase that is a Markov chain
    with generator Lam = D^-1 Q_cut + lam e_{c-1} g^T (Asmussen, "Ladder
    heights and the Markov-modulated M/G/1 queue", Stoch. Proc. Appl. 37,
    1991): D = diag(c-i), Q_cut the chain on phases 0..c-1 with the rate lam
    out of phase c-1 kept on the diagonal, g^T row c-1 of G = E[exp(r Lam B)],
    B an M/M/1 busy period (rates lam, c mu).  So G is the minimal solution,
    stochastic for a stable tuple, of the quasi-birth-death equation
    lam (I + r e_{c-1} e_{c-1}^T) G^2 - ((lam + c mu) I - r D^-1 Q_cut) G + c mu I = 0.
    Logarithmic reduction (Latouche & Ramaswami, J. Appl. Probab. 30, 1993)
    finds it with quadratic convergence, carrying row c-1 of G and of T, the
    product of the up-blocks, until the paths not yet counted, T 1, weigh
    less than eps; the residual is |1 - g 1|.  The blocks are taken under
    the similarity by s (s_{c-1} = 1, s_i / s_{i+1} = min(1, (i+1) mu / lam)),
    so row_j = g_j / s_j: an absolute error there moves kernel_boundary's t by
    at most as much, and each solve drops entries below _NEGLIGIBLE (rounding's
    negatives too), which would send BLAS through subnormal products.
    """
    c, lam, mu, r = params.c, params.lam, params.mu, params.r
    s = [1.0]
    for k in range(c - 1, 0, -1):
        s.append(s[-1] * min(1.0, k * mu / lam))
    basis = np.array(s[::-1])
    # the blocks are tridiagonal and diagonal; each diagonal is one strided store
    m = np.zeros((c, c))   # the local block, negated
    m.flat[::c + 1] = [lam + c * mu + r * (lam + i * mu) / (c - i) for i in range(c)]
    m.flat[1::c + 1] = [-r * min(lam, k * mu) / (c - k + 1) for k in range(1, c)]
    m.flat[c::c + 1] = [-r * max(lam, k * mu) / (c - k) for k in range(1, c)]
    rhs, hl = np.zeros((c, 2 * c)), np.empty((2 * c, c))   # [up, down]; [H; L]
    rhs.flat[::2 * c + 1], rhs.flat[c::2 * c + 1] = lam, c * mu
    rhs[-1, c - 1] = lam * (1.0 + r)
    eye = np.eye(c)
    row, t = np.zeros(c), eye[-1]
    for _ in range(_MAX_STEPS):
        x = np.linalg.solve(m, rhs)   # [H, L]
        x[x < _NEGLIGIBLE] = 0.0
        tx = t @ x
        row += tx[c:]
        t = tx[:c]
        if t @ basis < _EPS:
            return row, basis, abs(1.0 - float(row @ basis))
        hl[:c], hl[c:] = x[:, :c], x[:, c:]
        prod = hl @ x   # [H; L] [H, L]
        m = eye - prod[:c, c:]
        m -= prod[c:, :c]
        rhs[:, :c], rhs[:, c:] = prod[:c, :c], prod[c:, c:]
    raise FluidTailError(f"ladder reduction not converged in {_MAX_STEPS} steps (c={c})")


def kernel_boundary(params: ModelParams) -> tuple:
    """Boundary masses Pi_i(0), i < c, from the ladder generator.

    Returns (BoundaryVector with source "kernel", relative error estimate).
    The masses p_i make the transform numerator vanish at the c-1 zeros of
    the folded coefficient on the negative axis, and sum_i (c-i) p_i is
    -mean drift (all there is for c = 1).  The zeros are the nonzero
    eigenvalues of the ladder generator Lam of _ladder_row, with the chain's
    null vectors as eigenvectors, so p D is Lam's left null vector: p is
    stationary for Q_cut + lam e_{c-1} g^T, birth-death plus one row, where
    GTH elimination (Grassmann, Taksar & Heyman, Oper. Res. 33, 1985) is the
    cut equations lam p_k = (k+1) mu p_{k+1} + lam p_{c-1} sum_{j<=k} g_j.
    For t = p / xi (xi the phase law, t_{c-1} = 1) they read t_k = t_{k+1} +
    a_k v_k, v_k = v_{k-1} min(1, k mu / lam) + row_k, a_k = prod_{i>k} min(1, lam / (i mu)).

    The estimate adds the reduction's residual (at least eps) times
    2 sum_k a_k, as a change in the row moves each t_k by at most its
    1-norm times that sum (v weighs row_j by s_j / s_k <= 1); 11 c eps for
    the roundings of positive terms behind a mass, the entrywise bound of
    subtraction-free elimination (O'Cinneide, Numer. Math. 65, 1993); the
    phase law's bound eps (5 + 3c + 2q/(1-q)) per xi_i (PhaseDistribution,
    q = lam / (c mu)), in a mass, in the scaling and times the drift's
    condition (its terms' sizes over its size); and 10 eps times that
    condition for the drift's own rounding.  An estimate of _MAX_RTOL or
    more raises FluidTailError, and so does a mass below the normal range,
    which has no relative accuracy.
    """
    c, lam, mu = params.c, params.lam, params.mu
    law = phase_stationary(params)
    drift = require_stable(params).mean_drift
    # drift = r T - S, T the mass of phases >= c, S = sum_i (c-i) xi_i: terms' sizes 2 r T - drift
    drift_cond = 1.0 - 2.0 * params.r * law.tail_mass(c) / drift
    t, residual, a_sum = [1.0], 0.0, 0.0
    if c > 1:
        row, _, residual = _ladder_row(params)
        v = []
        for k, g in enumerate(row[:-1].tolist()):
            v.append(v[-1] * min(1.0, k * mu / lam) + g if k else g)
        a = 1.0
        for k in range(c - 2, -1, -1):
            a *= min(1.0, lam / ((k + 1) * mu))
            a_sum += a
            t.append(t[-1] + a * v[k])
        t.reverse()
    p = [ti * law.prob(i) for i, ti in enumerate(t)]
    scale = -drift / math.fsum((c - i) * pi for i, pi in enumerate(p))
    p = [pi * scale for pi in p]
    err = (2.0 * a_sum * max(residual, _EPS) + 11 * c * _EPS
           + law.rel_err * (2.0 + drift_cond) + 10.0 * _EPS * drift_cond)
    if not (err < _MAX_RTOL and min(p) >= _TINY):
        raise FluidTailError(
            f"kernel boundary masses too inaccurate (c={c}): error estimate {err:.2g} (limit "
            f"{_MAX_RTOL:g}), smallest mass {min(p):.2g} (limit {_TINY:.2g})")
    return checked_boundary(params, p, "kernel"), err


def analyze(params: ModelParams) -> TailReport:
    """Run the full analytic pipeline and assemble a TailReport.

    The boundary masses, which every prefactor needs, come from
    kernel_boundary.  The error bar of the transform constant adds the
    masses' relative error estimate and the numerator's rounding
    (_numerator_rounding) to the rounding bar of the pole case.  alpha*'s
    error bar is absolute: the zero's rounding bar from constant_simple_pole
    in the POLE case, and alpha1's (branch_points) where alpha* is alpha1.
    """
    require_stable(params)
    zero = find_coeff_zero(params)
    case, alpha_star = classify(params, zero)
    boundary, boundary_err = kernel_boundary(params)
    if case is TailCase.POLE:
        c_const, rounding_err, alpha_err = constant_simple_pole(params, boundary, zero)
    else:
        rounding_err, alpha_err = 0.0, branch_points(params).alpha1_err
        if case is TailCase.POLE_AT_BRANCH:
            c_const = constant_pole_at_branch(params, boundary)
        else:
            c_const = constant_branch_only(params, boundary)
    n_err = _numerator_rounding(params, boundary, alpha_star)
    c_err = rounding_err + (n_err + boundary_err) * abs(c_const)

    pref, power = density_prefactor(case, c_const)
    z0 = branch_small_real(params, alpha_star)
    z1 = params.c * params.mu / (params.lam * z0)
    return TailReport(
        params=params,
        case=case,
        alpha_star=alpha_star,
        alpha_star_err=alpha_err,
        z_star=z0,
        z_large=z1,
        z_tilde=params.c * params.mu / params.lam,
        c_const=c_const,
        c_const_err=c_err,
        prefactor=pref,
        power=power,
        phase_ratio=1.0 / z1,
        marginal_prefactor=pref * _marginal_bracket(params, alpha_star),
        d_ztilde=boundary_mass_tail(params, boundary).d_ztilde,
        boundary=boundary,
        boundary_err=boundary_err,
        zero=zero,
    )
