"""Continued-fraction fold of the low-phase balance equations.

Phases 0..c-2 of the transformed balance system are eliminated through a
chain of rational functions A_0..A_{c-2},

    A_i(alpha) = (i+1)*mu / ((c-i)*alpha + lam + i*mu - lam*A_{i-1}(alpha)),

with A_{-1} = 0.  Note the net-rate weight (c-i) on alpha: each low phase
drains the level at its own speed, and the weight is what the transform of
its balance equation actually produces.  The fold turns the kernel identity
into one with a single free density transform (phase c-1), whose
coefficient is density_coeff_reduced, and a numerator linear in the
boundary masses (asymptotics.numerator_value).  The package evaluates the
chain only by this recursion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FluidTailError, PoleError
from .kernel import density_coeff
from .model import ModelParams


def ratio_chain_values(params: ModelParams, alpha) -> list:
    """Evaluate every link A_0..A_{c-2} at one point by direct recursion.

    Numerically self-correcting (no polynomial coefficients involved).
    Empty for c = 1.
    """
    c, lam, mu = params.c, params.lam, params.mu
    a = 0.0
    values = []
    for i in range(c - 1):
        den = (c - i) * alpha + lam + i * mu - lam * a
        if abs(den) < 1e-300:
            raise PoleError(f"chain recursion hit a pole at alpha={alpha}")
        a = (i + 1) * mu / den
        values.append(a)
    return values


def ratio_chain_value(params: ModelParams, alpha):
    """A_{c-2}(alpha) by the recursion of ratio_chain_values, or 0 for c = 1."""
    values = ratio_chain_values(params, alpha)
    return values[-1] if values else 0.0


@dataclass(frozen=True)
class BoundaryVector:
    """Stationary masses at level zero for the draining phases 0..c-1.

    Phases with positive net rate carry no mass at zero, so this vector plus
    the phase distribution determines every boundary quantity.
    """

    masses: tuple
    source: str = "user-supplied"

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=float)
        if m.ndim != 1 or m.size < 1:
            raise ValueError("masses must be a nonempty 1-d sequence")
        if np.any(m < -1e-10):
            raise ValueError(f"negative boundary mass: {m.min()}")
        object.__setattr__(self, "masses", tuple(np.maximum(m, 0.0)))

    def __getitem__(self, i: int) -> float:
        return self.masses[i]

    def __len__(self) -> int:
        return len(self.masses)


def checked_boundary(params: ModelParams, masses, source: str) -> BoundaryVector:
    """BoundaryVector of the draining-phase masses of a solve, validated.

    Refuses a negative mass beyond roundoff and masses that break the
    level-zero balance lam Pi_0(0) >= mu Pi_1(0).
    """
    p = np.asarray(masses[: params.c], dtype=float)
    if np.any(p < -1e-10):
        raise FluidTailError(f"negative boundary mass from the solve: {p.min()}")
    if params.c >= 2:
        slack = params.lam * p[0] - params.mu * p[1]
        if slack < -1e-9 * max(1.0, abs(p[0])):
            raise FluidTailError(f"boundary masses violate the level-zero balance: {slack}")
    return BoundaryVector(masses=tuple(np.maximum(p, 0.0)), source=source)


def density_coeff_reduced(params: ModelParams, alpha, z):
    """Folded coefficient of the phase-(c-1) density transform.

    Equals lam*z^c*A_{c-2}(alpha) + density_coeff(alpha, z); for c = 1 the
    fold is empty and this is density_coeff itself.
    """
    c, lam = params.c, params.lam
    base = density_coeff(params, alpha, z)
    if c == 1:
        return base
    return lam * z ** c * ratio_chain_value(params, alpha) + base
