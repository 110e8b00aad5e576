"""Kernel of the transform identity: a quadratic in z, its branch points and its small root.

The stationary transforms are coupled through the bivariate quadratic

    K(alpha, z) = -lam*z**2 + (-alpha*r + lam + c*mu)*z - c*mu.

For real alpha <= alpha1, the lower zero of its discriminant, K(alpha, .)
has two real roots whose product is c mu / lam; only the small one
(branch_small_real) enters the analytic continuation of the transforms.
The large root is c mu / (lam z) with z the small one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .model import ModelParams

# |disc| below this (relative) collapses to the double root
_DOUBLE_ROOT_TOL = 1e-14


@dataclass(frozen=True)
class BranchPoints:
    """The two positive zeros of the kernel discriminant."""

    alpha1: float
    alpha2: float
    alpha1_err: float   # bound on the rounding error of alpha1


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


def branch_small_real(params: ModelParams, alpha):
    """Small root of K(alpha, .) = 0 for real alpha <= alpha1, as floats or a numpy array.

    Real alpha in (0, alpha1) give values increasing from 1 at alpha = 0 to
    sqrt(c mu / lam) at the branch point.  Uses the cancellation-free form
    2 c mu / (b + sqrt(disc)) of the small root (the product of the roots
    is c mu / lam).  A discriminant within _DOUBLE_ROOT_TOL of zero gives
    the double root, and so does a negative one (_clamped_disc), so the
    value is always real.
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
    b = -alpha * r + lam + c * mu   # rounded as in kernel_discriminant; disc cancels near alpha1
    disc = b * b - 4.0 * c * lam * mu
    return b, disc * (disc.real >= _DOUBLE_ROOT_TOL * abs(b * b + 4.0 * c * lam * mu))
