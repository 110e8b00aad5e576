"""The low phases' continued-fraction chain and the decay-rate zero of the folded coefficient.

Phases 0..c-2 of the transformed balance system are eliminated through a
chain of rational functions A_i = (i+1)*mu / den_i, i = 0..c-2, with pivots

    den_i = (c-i)*alpha + lam + i*mu - lam*A_{i-1}(alpha),   A_{-1} = 0.

Note the net-rate weight (c-i) on alpha: each low phase drains the level at
its own speed, and the weight is what the transform of its balance equation
actually produces.  The fold turns the kernel identity into one with a
single free density transform (phase c-1), whose coefficient is the folded
coefficient, and a numerator linear in the boundary masses
(asymptotics.numerator_value).  As the paper writes them, the coefficient
carries a factor z^(c-1) and the numerator z^c, which cancel in every
ratio reported; both are computed without them.  folded_coeff is the one
evaluator of the coefficient, g = f / z^(c-1) with f the written form.

Only chain_pivots computes pivots, as den_i = lam + alpha e_i with e_0 = c
and e_i = (c-i) + i mu e_{i-1} / den_{i-1}: valid under complex steps, and
without cancellation on alpha >= 0, where every e_i is positive.  The
links, the last link in g and in d, and the null vector (null_vector) are
all read from them.

On the small root z = branch_small_real(alpha), which is positive, g has
the sign of f.  The candidate decay rate is the unique zero of g(alpha, z)
inside (0, alpha1].  There g = alpha d(alpha) with d a deflated
coefficient that has neither a pole nor a cancellation at 0; d(0) < 0, so
the sign of d at alpha1 tells whether the zero is inside, at alpha1 or
absent, and Brent's method finds an inside zero.  The c-1 zeros of g on
the negative axis, where the boundary masses are pinned, are not searched
for (asymptotics.kernel_boundary).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import AssumptionViolatedError, FluidTailError
from .kernel import at_double_root, branch_points, branch_small_real
from .model import ModelParams, require_stable

# |d| below this (times its term scale) counts as a zero
_ZERO_TOL = 1e-8
_EPS = float(np.finfo(float).eps)
# _coeff_grid's points over alpha1
_UNIT_GRID = np.linspace(1e-3, 1.0 - 1e-12, 101)


@dataclass(frozen=True)
class CoeffZero:
    """Outcome of the zero search on (0, alpha1]."""

    alpha: float | None         # the zero, if one exists; always simple
    at_branch_point: bool       # whether the zero sits at alpha1
    # the zeros found on (0, alpha1], 0 or 1 of them; the name is kept
    # because benchmark traces count its entries
    all_roots: np.ndarray


def _coeff_grid(params: ModelParams, alpha1: float) -> np.ndarray:
    """g on a 101-point grid on (0, alpha1), whose sign changes count the zeros.

    A value that is not finite, where the chain's weights or pivots pass
    the double range, raises FluidTailError.
    """
    grid = alpha1 * _UNIT_GRID
    with np.errstate(over="ignore", invalid="ignore"):
        g = folded_coeff(params, grid, branch_small_real(params, grid))
    if not np.isfinite(g).all():
        raise FluidTailError(
            f"folded coefficient not finite on (0, alpha1 = {alpha1}) at c = {params.c}: "
            f"the chain's weights or pivots pass the double range")
    return g


def chain_pivots(params: ModelParams, alpha) -> tuple:
    """(den_0..den_{c-2}, e_{c-2}): the chain's pivots and its last weight at alpha.

    A complex alpha, or an array of them, is carried through.  At a real
    alpha = 0 every pivot is lam, also where the weights, products of about
    i mu / lam there, pass the double range.
    """
    c, lam, mu = params.c, params.lam, params.mu
    at_zero = isinstance(alpha, float) and alpha == 0.0
    dens, e = [], float(c)
    for i in range(c - 1):
        if i:
            e = (c - i) + i * mu * e / dens[-1]
        dens.append(lam if at_zero else lam + alpha * e)
    return dens, e


def chain_links(params: ModelParams, alpha) -> list:
    """The links A_0..A_{c-2}, A_i = (i+1) mu / den_i (empty for c = 1)."""
    mu = params.mu
    return [(i + 1) * mu / den for i, den in enumerate(chain_pivots(params, alpha)[0])]


def null_vector(lam: float, dens: list) -> list:
    """The chain's null vector over its last entry: u_i / u_{c-1} = prod_{j >= i} lam / den_j."""
    return list(accumulate(reversed(dens), lambda u, den: u * lam / den, initial=1.0))[::-1]


def folded_coeff(params: ModelParams, alpha, z, dens=None):
    """Folded coefficient g of the phase-(c-1) density transform.

    The paper writes the coefficient as
    f = lam z^c A_{c-2}(alpha) + (mu - alpha r - alpha) z^c - c mu z^(c-1);
    g = f / z^(c-1) = z (mu - alpha (r+1) + (c-1) lam mu / den_{c-2}) - c mu,
    with the last pivot den_{c-2} of chain_pivots (dens, if the caller has
    them; no chain term for c = 1).  alpha and z may be complex or arrays.
    """
    c, lam, mu, r = params.c, params.lam, params.mu, params.r
    if dens is None:
        dens = chain_pivots(params, alpha)[0]
    chain = (c - 1) * lam * mu / dens[-1] if dens else 0.0
    return z * (mu - alpha * (r + 1.0) + chain) - c * mu


def _deflated(params: ModelParams, alpha: float) -> tuple:
    """(d, term scale of d) at alpha in [0, alpha1], with g = alpha d.

    d is the zero search's form of folded_coeff: g with alpha divided out
    exactly, so that it has no cancellation near alpha = 0.  With the last
    pivot den_{c-2} = lam + alpha e_{c-2} of chain_pivots and the kernel's
    z - 1 = alpha r z / (c mu - lam z), dividing alpha out of g leaves

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


def find_coeff_zero(params: ModelParams) -> CoeffZero:
    """Locate the zero of the folded coefficient inside (0, alpha1].

    The deflated coefficient d of _deflated is negative at 0.  The zero
    sits at alpha1 when |d(alpha1)| is below _ZERO_TOL of its term scale,
    there is none when d(alpha1) < 0, and otherwise Brent's method finds it
    between 0 and alpha1.  A zero it finds where branch_small_real clamps the
    small branch to the double root sits at alpha1 too: the sign change there
    is the clamp's jump.  On (0, alpha1) g has the sign of d, so the grid
    of _coeff_grid counts the zeros: one per sign change, plus one if its
    first value is already positive; more than one raises
    AssumptionViolatedError.  The zero is simple: the bracket only finds
    zeros of odd order, and alpha* is an isolated eigenvalue of a symmetric
    operator (spectral.py), whose resolvent has only simple poles.
    """
    require_stable(params)
    alpha1 = branch_points(params).alpha1
    positive = _coeff_grid(params, alpha1) > 0.0
    n_zeros = int(positive[0]) + int(np.count_nonzero(positive[1:] != positive[:-1]))
    if n_zeros > 1:
        raise AssumptionViolatedError(f"{n_zeros} zeros of g in (0, alpha1 = {alpha1})")
    d0, _ = _deflated(params, 0.0)
    if not d0 < 0.0:
        raise FluidTailError(f"deflated coefficient {d0} at alpha=0; a stable tuple has d(0) < 0")
    d1, size1 = _deflated(params, alpha1)
    if abs(d1) < _ZERO_TOL * size1:
        alpha, at_branch = alpha1, True
    elif d1 < 0.0:
        return CoeffZero(alpha=None, at_branch_point=False, all_roots=np.empty(0))
    else:
        alpha = _brent(lambda a: _deflated(params, a)[0], 0.0, alpha1, d0, d1)
        # a sign change where the small branch is clamped to the double root is the jump
        # of that clamp, no zero of d: the zero is within rounding of alpha1
        at_branch = at_double_root(params, alpha)
        if at_branch:
            alpha = alpha1
    return CoeffZero(alpha=alpha, at_branch_point=at_branch, all_roots=np.array([alpha]))
