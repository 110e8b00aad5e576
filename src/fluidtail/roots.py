"""Real zeros of the folded coefficient.

The folded coefficient is f(alpha) = density_coeff_reduced(alpha,
branch_small(alpha)).  The candidate decay rate is its unique zero inside
(0, alpha1].  There f = alpha z^(c-1) d(alpha) with z the small branch and
d a deflated coefficient that has neither a pole nor a cancellation at 0;
d(0) < 0, so the sign of d at alpha1 tells whether the zero is inside, at
alpha1 or absent, and Brent's method finds an inside zero.  Rationalizing f
against its large-branch twin gives a real polynomial whose roots contain
every zero of either factor; it is kept for the published-root checks.

On the negative axis f has c-1 more zeros, the negated growing eigenvalues
of the stationary system, where the boundary masses are pinned down
(asymptotics.kernel_boundary).  A Sturm count of the chain's pivots
isolates each of them, and Brent's method finds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .cfrac import (
    BoundaryVector,
    boundary_gf,
    forcing_reduced,
    ratio_chain,
    ratio_chain_value,
)
from .errors import AssumptionViolatedError, FluidTailError
from .kernel import boundary_coeff, branch_large, branch_points, branch_small, branch_small_real
from .model import ModelParams, require_stable

# |d| below this (times its term scale) counts as a zero
_ZERO_TOL = 1e-8
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_MAX_BISECTIONS = 200   # enough to shrink any double interval to a few ulps


@dataclass(frozen=True)
class CoeffZero:
    """Outcome of the zero search on (0, alpha1]."""

    alpha: float | None         # the zero, if one exists
    multiplicity: int           # order of the zero (1 unless degenerate)
    at_branch_point: bool       # whether the zero sits at alpha1
    # the zeros found on (0, alpha1], 0 or 1 of them; the name is kept
    # because benchmark traces count its entries
    all_roots: np.ndarray
    residual: float             # |d(alpha)| at the zero, relative to its term scale
    scale: float                # max |f| over (0, alpha1), for reporting


def rationalized_zero_poly(params: ModelParams) -> np.ndarray:
    """Real polynomial (ascending coefficients) divisible by both branch factors.

    Writing the folded coefficient as z^(c-1) * (P(alpha) z - c mu) with
    P = lam*A_{c-2} + mu - alpha*(r+1), the product of the two branch factors
    is proportional to P^2 - P*b + c*lam*mu (b the kernel's linear-in-z
    coefficient); clearing the chain denominator D gives the polynomial

        G = (P D)^2 - (P D) * D * b + c*lam*mu * D^2.

    alpha = 0 is always a root (the small branch passes through z = 1).
    """
    c, lam, mu, r = params.c, params.lam, params.mu, params.r
    if c == 1:
        num, den = np.array([0.0]), np.array([1.0])
    else:
        last = ratio_chain(params)[-1]
        num, den = np.asarray(last.num), np.asarray(last.den)
    b = np.array([lam + c * mu, -r])
    pd = npoly.polyadd(lam * num, npoly.polymul(np.array([mu, -(r + 1.0)]), den))
    g = npoly.polysub(npoly.polymul(pd, pd), npoly.polymul(npoly.polymul(pd, den), b))
    return npoly.polyadd(g, c * lam * mu * npoly.polymul(den, den))


def composed_coeff(params: ModelParams, alpha, large_branch: bool = False):
    """f(alpha): the folded coefficient evaluated on a kernel branch."""
    c, lam, mu, r = params.c, params.lam, params.mu, params.r
    z = branch_large(params, alpha) if large_branch else branch_small(params, alpha)
    a_last = ratio_chain_value(params, alpha)
    return (lam * a_last + mu - alpha * r - alpha) * z ** c - c * mu * z ** (c - 1)


def _coeff_grid(params: ModelParams, alpha1: float) -> np.ndarray:
    """f on a 101-point grid on (0, alpha1): the reporting scale and zero count.

    The grid is evaluated as one array: the chain recursion of
    ratio_chain_values (it has no pole for alpha > 0) and composed_coeff's
    formula on the real small branch.
    """
    c, lam, mu, r = params.c, params.lam, params.mu, params.r
    grid = np.linspace(1e-3 * alpha1, alpha1 * (1.0 - 1e-12), 101)
    a_last = 0.0
    for i in range(c - 1):
        a_last = (i + 1) * mu / ((c - i) * grid + lam + i * mu - lam * a_last)
    z = branch_small_real(params, grid)
    return (lam * a_last + mu - grid * r - grid) * z ** c - c * mu * z ** (c - 1)


def _deflated(params: ModelParams, alpha: float) -> tuple:
    """(d, term scale of d) at alpha in [0, alpha1], with f = alpha z^(c-1) d.

    The chain pivots are den_i = lam + alpha e_i with e_0 = c and
    e_i = (c-i) + i mu e_{i-1} / den_{i-1}, all positive for alpha >= 0, and
    the kernel gives z - 1 = alpha r z / (c mu - lam z).  Dividing alpha out
    of f leaves

        d = z [c mu r / (c mu - lam z) - (r+1) - (c-1) mu e_{c-2} / den_{c-2}]

    (no last term for c = 1).  The sum of the three terms' absolute values
    is the yardstick for "d is zero here".
    """
    c, lam, mu, r = params.c, params.lam, params.mu, params.r
    z = branch_small_real(params, alpha)
    drift = c * mu * r / (c * mu - lam * z)
    chain = 0.0
    if c > 1:
        e = float(c)
        for i in range(1, c - 1):
            e = (c - i) + i * mu * e / (lam + alpha * e)
        chain = (c - 1) * mu * e / (lam + alpha * e)
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

    With D_i the denominator polynomial of ratio_chain's A_i (D_{-1} = 1),
    the recursion denominators of ratio_chain_values are the pivots
    den_i = D_i / D_{i-1}, and g = f / z^(c-1) closes them at phase c-1.
    The count is the number of negative den_i plus one if g > 0.  Across a
    chain pole one pivot and the next change sign together, so the count
    only changes where g has a zero: it is c at alpha = -2 (lam + c mu) and
    falls by one at each growing zero, to 1 just below alpha = 0.  As in a
    Sturm sequence, the computed pivots are the exact ones of slightly
    perturbed rates, so the count stays right however close a zero lies to
    a pole.

    The value is D_{c-2} g, the pole-free product f D_{c-2} / z^(c-1),
    divided by a positive factor that keeps it finite for large c.  It is
    continuous in alpha, vanishes exactly at the zeros, and its sign is
    (-1)^(count-1).
    """
    c, lam, mu, r = params.c, params.lam, params.mu, params.r
    scale = abs(alpha) + lam + c * mu
    count, value, den = 0, 1.0, 1.0
    for i in range(c - 1):
        den = (c - i) * alpha + lam + i * mu - (lam * i * mu / den if i else 0.0)
        if den == 0.0:
            den = -_TINY   # a pivot that is exactly zero counts as negative
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


def _derivatives_fd(f, x: float, h: float, n_max: int = 4) -> list:
    """Richardson-extrapolated central-difference derivatives f', .., f^(n_max)."""
    out = []
    stencil = {
        1: ([-1, 1], [-0.5, 0.5]),
        2: ([-1, 0, 1], [1.0, -2.0, 1.0]),
        3: ([-2, -1, 1, 2], [-0.5, 1.0, -1.0, 0.5]),
        4: ([-2, -1, 0, 1, 2], [1.0, -4.0, 6.0, -4.0, 1.0]),
    }
    for n in range(1, n_max + 1):
        offs, wts = stencil[n]

        def d(step):
            return sum(w * f(x + k * step) for k, w in zip(offs, wts)) / step ** n

        a1, a2 = d(h), d(h / 2.0)
        out.append((4.0 * a2 - a1) / 3.0)  # kills the O(h^2) error term
    return out


def find_coeff_zero(params: ModelParams) -> CoeffZero:
    """Locate the zero of the folded coefficient inside (0, alpha1].

    The deflated coefficient d of _deflated is negative at 0.  The zero
    sits at alpha1 when |d(alpha1)| is below _ZERO_TOL of its term scale,
    there is none when d(alpha1) < 0, and otherwise Brent's method finds it
    between 0 and alpha1.  On (0, alpha1) f has the sign of d, so the grid
    of _coeff_grid counts the zeros: one per sign change, plus one if its
    first value is already positive; more than one raises
    AssumptionViolatedError.  The multiplicity is read off Richardson finite
    differences (a zero at alpha1 itself is always simple and is handled
    without differencing across the branch point).
    """
    require_stable(params)
    alpha1 = branch_points(params).alpha1
    f = _coeff_grid(params, alpha1)
    scale = float(np.max(np.abs(f)))
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
            alpha=None, multiplicity=0, at_branch_point=False,
            all_roots=np.empty(0), residual=math.inf, scale=scale,
        )
    else:
        alpha, at_branch = _brent(lambda a: _deflated(params, a)[0], 0.0, alpha1, d0, d1), False
    d, size = _deflated(params, alpha)
    k = 1 if at_branch else _multiplicity(params, alpha, alpha1, scale)
    return CoeffZero(
        alpha=alpha, multiplicity=k, at_branch_point=at_branch,
        all_roots=np.array([alpha]), residual=abs(d) / size, scale=scale,
    )


def _multiplicity(params: ModelParams, alpha: float, alpha1: float, scale: float) -> int:
    f = lambda a: complex(composed_coeff(params, a)).real
    h = 0.02 * min(alpha, alpha1 - alpha)
    if h <= 5e-9 * alpha1:
        # differencing below the noise floor cannot resolve the order; a
        # higher-order zero this close to the interval ends is a measure-zero
        # coincidence, so report the generic simple zero
        return 1
    derivs = _derivatives_fd(f, alpha, h, n_max=4)
    sizes = [abs(d) * h ** (n + 1) / math.factorial(n + 1) for n, d in enumerate(derivs)]
    top = max(sizes + [scale * 1e-300])
    for n, s in enumerate(sizes):
        if s > 1e-6 * top:
            return n + 1
    raise AssumptionViolatedError(
        f"zero at alpha={alpha} appears to have multiplicity > 4"
    )


@dataclass(frozen=True)
class AssumptionReport:
    """Numerator check at the candidate zero: nonzero means a genuine pole."""

    value: float     # boundary_coeff*gf + forcing, evaluated at the zero
    scale: float
    degenerate: bool  # |value| below tolerance: the pole cancels


def assumption_report(
    params: ModelParams, zero: CoeffZero, boundary: BoundaryVector
) -> AssumptionReport:
    """Evaluate the transform numerator at the candidate zero.

    The candidate is a true singularity of the phase-(c-1) transform only if
    this combination is nonzero there; a vanishing value is flagged (it means
    the boundary masses conspire to cancel the pole).
    """
    if zero.alpha is None:
        raise ValueError("no zero to check; run find_coeff_zero first")
    a = zero.alpha
    z = branch_small(params, a)
    n1 = boundary_coeff(params, z) * boundary_gf(params, boundary, z)
    n2 = forcing_reduced(params, boundary, a, z)
    val = complex(n1 + n2).real
    scale = max(abs(complex(n1)), abs(complex(n2)), 1e-300)
    return AssumptionReport(value=val, scale=scale, degenerate=abs(val) < _ZERO_TOL * scale)
