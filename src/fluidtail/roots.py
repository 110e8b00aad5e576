"""The low phases' continued-fraction chain and the real zeros of the folded coefficient.

Phases 0..c-2 of the transformed balance system are eliminated through a
chain of rational functions A_i = (i+1)*mu / den_i, i = 0..c-2, with pivots

    den_i = (c-i)*alpha + lam + i*mu - lam*A_{i-1}(alpha),   A_{-1} = 0.

Note the net-rate weight (c-i) on alpha: each low phase drains the level at
its own speed, and the weight is what the transform of its balance equation
actually produces.  The fold turns the kernel identity into one with a
single free density transform (phase c-1), whose coefficient is the folded
coefficient density_coeff_reduced, and a numerator linear in the boundary
masses (asymptotics.numerator_value).  Only chain_pivots computes pivots, as
den_i = lam + alpha e_i with e_0 = c and e_i = (c-i) + i mu e_{i-1} / den_{i-1}:
valid on the whole real axis and under complex steps, and without
cancellation on alpha >= 0, where every e_i is positive.  The links, the
last link in f and in d, the null vector (null_vector) and the Sturm count
are all read from them.

The folded coefficient is f(alpha) = density_coeff_reduced(alpha,
branch_small_real(alpha)).  The candidate decay rate is its unique zero
inside (0, alpha1].  There f = alpha z^(c-1) d(alpha) with z the small
branch and d a deflated coefficient that has neither a pole nor a
cancellation at 0; d(0) < 0, so the sign of d at alpha1 tells whether the
zero is inside, at alpha1 or absent, and Brent's method finds an inside
zero.

On the negative axis f has c-1 more zeros, the negated growing eigenvalues
of the stationary system, where the boundary masses are pinned down
(asymptotics.kernel_boundary).  A Sturm count of the pivots isolates each
of them, and Brent's method finds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import AssumptionViolatedError, FluidTailError
from .kernel import at_double_root, branch_points, branch_small_real, density_coeff
from .model import ModelParams, require_stable

# |d| below this (times its term scale) counts as a zero
_ZERO_TOL = 1e-8
_EPS = float(np.finfo(float).eps)
_MAX_BISECTIONS = 200   # enough to shrink any double interval to a few ulps


@dataclass(frozen=True)
class CoeffZero:
    """Outcome of the zero search on (0, alpha1]."""

    alpha: float | None         # the zero, if one exists; always simple
    at_branch_point: bool       # whether the zero sits at alpha1
    # the zeros found on (0, alpha1], 0 or 1 of them; the name is kept
    # because benchmark traces count its entries
    all_roots: np.ndarray
    residual: float             # |d(alpha)| at the zero, relative to its term scale


def _coeff_grid(params: ModelParams, alpha1: float) -> np.ndarray:
    """f on a 101-point grid on (0, alpha1), whose sign changes count the zeros.

    f takes z^c, which passes the double range at many servers and light
    load; a value that is not finite raises FluidTailError.
    """
    grid = np.linspace(1e-3 * alpha1, alpha1 * (1.0 - 1e-12), 101)
    with np.errstate(over="ignore", invalid="ignore"):
        f = density_coeff_reduced(params, grid, branch_small_real(params, grid))
    if not np.isfinite(f).all():
        raise FluidTailError(
            f"folded coefficient past the double range on (0, alpha1 = {alpha1}) at "
            f"c = {params.c}: z^c overflows")
    return f


def chain_pivots(params: ModelParams, alpha) -> tuple:
    """(den_0..den_{c-2}, e_{c-2}): the chain's pivots and its last weight at alpha.

    A complex alpha, or an array of them, is carried through.  For a real
    alpha two rules hold.  At alpha = 0 every pivot is lam, also where the
    weights, products of about i mu / lam there, pass the double range.  A
    pivot that is exactly 0 is taken as -eps lam, within its rounding: it
    counts as negative and keeps the next weight finite.
    """
    c, lam, mu = params.c, params.lam, params.mu
    real = isinstance(alpha, float)
    at_zero = real and alpha == 0.0
    dens, e, den = [], float(c), 1.0
    for i in range(c - 1):
        if i:
            e = (c - i) + i * mu * e / den
        den = lam if at_zero else lam + alpha * e
        if real and den == 0.0:
            den = -_EPS * lam
        dens.append(den)
    return dens, e


def chain_links(params: ModelParams, alpha) -> list:
    """The links A_0..A_{c-2}, A_i = (i+1) mu / den_i (empty for c = 1)."""
    mu = params.mu
    return [(i + 1) * mu / den for i, den in enumerate(chain_pivots(params, alpha)[0])]


def null_vector(lam: float, dens: list) -> list:
    """The chain's null vector over its last entry: u_i / u_{c-1} = prod_{j >= i} lam / den_j."""
    return list(accumulate(reversed(dens), lambda u, den: u * lam / den, initial=1.0))[::-1]


def density_coeff_reduced(params: ModelParams, alpha, z):
    """Folded coefficient of the phase-(c-1) density transform.

    Equals lam*z^c*A_{c-2}(alpha) + density_coeff(alpha, z), with only the
    last link taken from its pivot; for c = 1 the fold is empty and this is
    density_coeff itself.
    """
    c, lam, mu = params.c, params.lam, params.mu
    base = density_coeff(params, alpha, z)
    if c == 1:
        return base
    return lam * z ** c * ((c - 1) * mu / chain_pivots(params, alpha)[0][-1]) + base


def _deflated(params: ModelParams, alpha: float) -> tuple:
    """(d, term scale of d) at alpha in [0, alpha1], with f = alpha z^(c-1) d.

    With the last pivot den_{c-2} = lam + alpha e_{c-2} of chain_pivots and
    the kernel's z - 1 = alpha r z / (c mu - lam z), dividing alpha out of f
    leaves

        d = z [c mu r / (c mu - lam z) - (r+1) - (c-1) mu e_{c-2} / den_{c-2}]

    (no last term for c = 1).  The sum of the three terms' absolute values
    is the yardstick for "d is zero here".  Every step also takes a complex
    alpha, so d can be differentiated by a complex step.
    """
    c, lam, mu, r = params.c, params.lam, params.mu, params.r
    z = branch_small_real(params, alpha)
    drift = c * mu * r / (c * mu - lam * z)
    dens, e = chain_pivots(params, alpha)
    chain = (c - 1) * mu * e / dens[-1] if dens else 0.0
    return z * (drift - (r + 1.0) - chain), z * (drift + (r + 1.0) + chain)


def _brent(f, a: float, b: float, fa: float, fb: float) -> float:
    """Zero of f between a and b, given fa and fb of opposite signs.

    Brent's method (Brent, "Algorithms for Minimization without
    Derivatives", 1973, ch. 4): inverse quadratic or secant steps, with a
    bisection whenever they would not shrink the bracket fast enough.  Stops
    at a bracket a few ulps wide.
    """
    c, fc = a, fa
    d = e = b - a
    for _ in range(200):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 4.0 * _EPS * abs(b)
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            break
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
    return b


def _folded_count(params: ModelParams, alpha: float) -> tuple:
    """(Sturm count, pole-free value) of the folded coefficient at alpha < 0.

    With D_i the denominator polynomial of the chain's A_i (D_{-1} = 1),
    the pivots of chain_pivots are den_i = D_i / D_{i-1}, and
    g = f / z^(c-1) closes them at phase c-1.  The count is the number of
    negative den_i plus one if g > 0.  Across a chain pole one pivot and the
    next change sign together, so the count only changes where g has a
    zero: it is c at alpha = -2 (lam + c mu) and falls by one at each
    growing zero, to 1 just below alpha = 0.  As in a Sturm sequence, the
    computed pivots are the exact ones of slightly perturbed rates, so the
    count stays right however close a zero lies to a pole.

    The value is D_{c-2} g, the pole-free product f D_{c-2} / z^(c-1),
    divided by a positive factor that keeps it finite for large c.  It is
    continuous in alpha, vanishes exactly at the zeros, and its sign is
    (-1)^(count-1).
    """
    c, lam, mu, r = params.c, params.lam, params.mu, params.r
    scale = abs(alpha) + lam + c * mu
    count, value, den = 0, 1.0, 1.0
    for i, den in enumerate(chain_pivots(params, alpha)[0]):
        count += den < 0.0
        value *= den / ((c - i) * scale)
    z = branch_small_real(params, alpha)
    g = z * (mu - alpha * (r + 1.0) + (c - 1) * lam * mu / den) - c * mu
    return count + (g > 0.0), value * g


def growing_zeros(params: ModelParams) -> np.ndarray:
    """The c-1 zeros of f on the negative axis, ascending (empty for c = 1).

    They are the negated growing eigenvalues of the infinite stationary
    system, and all lie above -B with B = 2 (lam + c mu), the Gershgorin
    bound on those eigenvalues.  Bisection on the Sturm count of
    _folded_count isolates each zero in an interval where the count falls by
    exactly one; there the pole-free value changes sign, and Brent's method
    finds the zero on it.  On lightly loaded tuples a zero can lie closer to
    a chain pole than rounding resolves, which the count does not mind.
    Raises FluidTailError when the count at -B is not c.
    """
    c = params.c
    lo = -2.0 * (params.lam + c * params.mu)
    n_lo, h_lo = _folded_count(params, lo)
    if n_lo != c:
        raise FluidTailError(
            f"Sturm count {n_lo} at alpha={lo}; expected c = {c}, one more than "
            f"the number of growing zeros"
        )
    zeros = np.empty(c - 1)
    h = lambda a: _folded_count(params, a)[1]
    for k in range(c - 1):
        target = c - 1 - k   # the count just right of zero k
        # just below 0 the count is 1 (<= target); 0 itself is a zero of f
        hi, n_hi, h_hi = 0.0, 1, 0.0
        for _ in range(_MAX_BISECTIONS):
            if n_lo == target + 1 and n_hi == target and h_hi != 0.0:
                break
            mid = 0.5 * (lo + hi)
            n_mid, h_mid = _folded_count(params, mid)
            if n_mid > target:
                lo, n_lo, h_lo = mid, n_mid, h_mid
            else:
                hi, n_hi, h_hi = mid, n_mid, h_mid
        else:
            raise FluidTailError(f"growing zero {k} of c-1 = {c - 1} not isolated")
        zeros[k] = _brent(h, lo, hi, h_lo, h_hi)
        lo, n_lo, h_lo = hi, n_hi, h_hi
    return zeros


def find_coeff_zero(params: ModelParams) -> CoeffZero:
    """Locate the zero of the folded coefficient inside (0, alpha1].

    The deflated coefficient d of _deflated is negative at 0.  The zero
    sits at alpha1 when |d(alpha1)| is below _ZERO_TOL of its term scale,
    there is none when d(alpha1) < 0, and otherwise Brent's method finds it
    between 0 and alpha1.  A zero it finds where branch_small_real clamps the
    small branch to the double root sits at alpha1 too: the sign change there
    is the clamp's jump.  On (0, alpha1) f has the sign of d, so the grid
    of _coeff_grid counts the zeros: one per sign change, plus one if its
    first value is already positive; more than one raises
    AssumptionViolatedError.  The zero is simple: the bracket only finds
    zeros of odd order, and alpha* is an isolated eigenvalue of a symmetric
    operator (spectral.py), whose resolvent has only simple poles.
    """
    require_stable(params)
    alpha1 = branch_points(params).alpha1
    f = _coeff_grid(params, alpha1)
    positive = f > 0.0
    n_zeros = int(positive[0]) + int(np.count_nonzero(positive[1:] != positive[:-1]))
    if n_zeros > 1:
        raise AssumptionViolatedError(f"{n_zeros} zeros of f in (0, alpha1 = {alpha1})")
    d0, _ = _deflated(params, 0.0)
    if not d0 < 0.0:
        raise FluidTailError(f"deflated coefficient {d0} at alpha=0; a stable tuple has d(0) < 0")
    d1, size1 = _deflated(params, alpha1)
    if abs(d1) < _ZERO_TOL * size1:
        alpha, at_branch = alpha1, True
    elif d1 < 0.0:
        return CoeffZero(
            alpha=None, at_branch_point=False,
            all_roots=np.empty(0), residual=math.inf,
        )
    else:
        alpha = _brent(lambda a: _deflated(params, a)[0], 0.0, alpha1, d0, d1)
        # a sign change where the small branch is clamped to the double root is the jump
        # of that clamp, no zero of d: the zero is within rounding of alpha1
        at_branch = at_double_root(params, alpha)
        if at_branch:
            alpha = alpha1
    d, size = _deflated(params, alpha)
    return CoeffZero(
        alpha=alpha, at_branch_point=at_branch,
        all_roots=np.array([alpha]), residual=abs(d) / size,
    )
