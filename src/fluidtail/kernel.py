"""Kernel of the transform identity: quadratic in z, its branches and companions.

The stationary transforms are coupled through the bivariate quadratic

    K(alpha, z) = -lam*z**2 + (-alpha*r + lam + c*mu)*z - c*mu,

together with the coefficient of the lowest free density transform
(density_coeff).  For each alpha off the discriminant cut, K(alpha, .) has
a small root (modulus) and a large root; only the small root enters the
analytic continuation of the transforms.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from .errors import BranchCutError, PoleError
from .model import ModelParams

# relative thresholds for branch handling
_CUT_IM_TOL = 1e-12       # how close to the real axis counts as "on the axis"
_DOUBLE_ROOT_TOL = 1e-14  # |disc| below this (relative) collapses to the double root


@dataclass(frozen=True)
class BranchPoints:
    """The two positive zeros of the kernel discriminant."""

    alpha1: float
    alpha2: float
    alpha1_err: float   # bound on the rounding error of alpha1


def kernel(params: ModelParams, alpha: complex, z: complex) -> complex:
    """Evaluate K(alpha, z) = -lam z^2 + (-alpha r + lam + c mu) z - c mu."""
    c, lam, mu, r = params.c, params.lam, params.mu, params.r
    return -lam * z * z + (-alpha * r + lam + c * mu) * z - c * mu


def kernel_discriminant(params: ModelParams, alpha: complex) -> complex:
    """Discriminant of K(alpha, .) as a quadratic in z."""
    c, lam, mu, r = params.c, params.lam, params.mu, params.r
    b = -alpha * r + lam + c * mu
    return b * b - 4.0 * c * lam * mu


def branch_points(params: ModelParams) -> BranchPoints:
    """Zeros alpha1 < alpha2 of the discriminant; both are positive.

    alpha1 = (a - b)^2 / r with a = sqrt(c mu) and b = sqrt(lam).  With u
    the unit roundoff, a carries a relative error of 1.5 u and b one of u,
    so a - b carries 1.5 u a + u b + u (a - b); squaring doubles that
    relative to a - b, and the square and the division add u each.  The
    bound alpha1_err takes eps (2 (a + b) / (a - b) + 2) alpha1, above that
    sum.
    """
    c, lam, mu, r = params.c, params.lam, params.mu, params.r
    a, b = math.sqrt(c * mu), math.sqrt(lam)
    alpha1 = (a - b) ** 2 / r
    return BranchPoints(
        alpha1=alpha1,
        alpha2=(a + b) ** 2 / r,
        alpha1_err=sys.float_info.epsilon * (2.0 * (a + b) / (a - b) + 2.0) * alpha1,
    )


def _branch_pair(params: ModelParams, alpha: complex):
    """(small, large) kernel roots at alpha, rejecting the open cut."""
    c, lam, mu, r = params.c, params.lam, params.mu, params.r
    b = -alpha * r + lam + c * mu
    disc = b * b - 4.0 * c * lam * mu
    scale = abs(b) ** 2 + 4.0 * c * lam * mu
    if abs(disc) < _DOUBLE_ROOT_TOL * scale:
        # double root: -b/(2a) with a = -lam
        zz = b / (2.0 * lam)
        return zz, zz
    bp = branch_points(params)
    a_scale = max(1.0, abs(alpha))
    if abs(complex(alpha).imag) <= _CUT_IM_TOL * a_scale:
        x = complex(alpha).real
        if bp.alpha1 < x < bp.alpha2:
            raise BranchCutError(
                f"alpha={alpha} lies on the discriminant cut [{bp.alpha1}, {bp.alpha2}]"
            )
    root = cmath.sqrt(disc)
    # continuity across Re(alpha) = (lam + c*mu)/r requires swapping the sign
    # of the principal square root on the far side
    if complex(alpha).real > (lam + c * mu) / r:
        z_small = (b + root) / (2.0 * lam)
        z_large = (b - root) / (2.0 * lam)
    else:
        z_small = (b - root) / (2.0 * lam)
        z_large = (b + root) / (2.0 * lam)
    return z_small, z_large


def branch_small(params: ModelParams, alpha: complex) -> complex:
    """Small-modulus root of K(alpha, .) = 0, analytic off the cut.

    Real alpha in (0, alpha1) give real values increasing from 1 at alpha=0
    to sqrt(c*mu/lam) at the branch point.
    """
    return _branch_pair(params, alpha)[0]


def branch_small_real(params: ModelParams, alpha):
    """branch_small for real alpha <= alpha1, as floats or a numpy array.

    Uses the cancellation-free form 2 c mu / (b + sqrt(disc)) of the small
    root (the product of the roots is c mu / lam).  As in branch_small, a
    discriminant within _DOUBLE_ROOT_TOL of zero gives the double root, and
    so does a negative one (_clamped_disc), so the value is always real.
    Negative alpha give values in (0, 1).  A complex alpha a tiny step off
    the real axis is accepted too, for complex-step derivatives.
    """
    b, disc = _clamped_disc(params, alpha)
    return 2.0 * params.c * params.mu / (b + disc ** 0.5)


def at_double_root(params: ModelParams, alpha: float) -> bool:
    """Whether branch_small_real takes the double root at alpha (next to alpha1 or alpha2)."""
    return _clamped_disc(params, alpha)[1] == 0.0


def _clamped_disc(params: ModelParams, alpha):
    """(b, disc) of K(alpha, .) for branch_small_real, disc clamped to 0.

    disc below _DOUBLE_ROOT_TOL of its scale is 0, negative values included:
    for alpha <= alpha1 the discriminant is not negative, and only the
    rounding of alpha itself (about c mu eps in b) takes it below zero, by
    more than the tolerance when b is small.
    """
    c, lam, mu, r = params.c, params.lam, params.mu, params.r
    b = -alpha * r + lam + c * mu   # rounded as in branch_small; disc cancels near alpha1
    disc = b * b - 4.0 * c * lam * mu
    return b, disc * (disc.real >= _DOUBLE_ROOT_TOL * abs(b * b + 4.0 * c * lam * mu))


def branch_large(params: ModelParams, alpha: complex) -> complex:
    """Large-modulus root of K(alpha, .) = 0."""
    return _branch_pair(params, alpha)[1]


def alpha_of_z(params: ModelParams, z: complex) -> complex:
    """The unique alpha with K(alpha, z) = 0; pole at z = 0."""
    c, lam, mu, r = params.c, params.lam, params.mu, params.r
    if abs(z) < 1e-300:
        raise PoleError("alpha_of_z has a pole at z = 0")
    return (-lam * z * z + (lam + c * mu) * z - c * mu) / (z * r)


def density_coeff(params: ModelParams, alpha: complex, z: complex) -> complex:
    """Coefficient of the lowest free density transform:
    (mu - alpha*r - alpha)*z^c - c*mu*z^(c-1)."""
    c, mu, r = params.c, params.mu, params.r
    return (mu - alpha * r - alpha) * z ** c - c * mu * z ** (c - 1)

