"""Continued-fraction fold of the low-phase balance equations.

Phases 0..c-2 of the transformed balance system are eliminated through a
chain of rational functions A_0..A_{c-2},

    A_i(alpha) = (i+1)*mu / ((c-i)*alpha + lam + i*mu - lam*A_{i-1}(alpha)),

with A_{-1} = 0.  Note the net-rate weight (c-i) on alpha: each low phase
drains the level at its own speed, and the weight is what the transform of
its balance equation actually produces.  The fold turns the kernel identity
into one with a single free density transform (phase c-1) and a known
forcing term built from the boundary masses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import FluidTailError, PoleError
from .kernel import density_coeff, mass_coeff
from .model import ModelParams


@dataclass(frozen=True)
class RationalFn:
    """Ratio of two real-coefficient polynomials (ascending coefficients)."""

    num: tuple
    den: tuple

    def __call__(self, x):
        n = npoly.polyval(x, np.asarray(self.num))
        d = npoly.polyval(x, np.asarray(self.den))
        scale = np.max(np.abs(self.den)) * max(1.0, abs(x)) ** self.den_degree
        if np.min(np.abs(d)) < 1e-14 * scale:
            raise PoleError(f"rational function evaluated at a pole: x={x}")
        return n / d

    @property
    def num_degree(self) -> int:
        return len(self.num) - 1

    @property
    def den_degree(self) -> int:
        return len(self.den) - 1

    def den_roots(self) -> np.ndarray:
        return npoly.polyroots(np.asarray(self.den))


@lru_cache(maxsize=128)
def ratio_chain(params: ModelParams) -> tuple:
    """The chain A_0..A_{c-2} as reduced rational functions (empty for c=1).

    Built by clearing denominators step by step; numerator degree i and
    denominator degree i+1 hold by construction and are asserted.
    """
    c, lam, mu = params.c, params.lam, params.mu
    num, den = np.array([0.0]), np.array([1.0])
    chain = []
    for i in range(c - 1):
        lead = np.array([lam + i * mu, float(c - i)])
        num, den = (i + 1) * mu * den, npoly.polysub(npoly.polymul(lead, den), lam * num)
        assert len(num) - 1 == i and len(den) - 1 == i + 1
        chain.append(RationalFn(num=tuple(num), den=tuple(den)))
    return tuple(chain)


def ratio_chain_values(params: ModelParams, alpha) -> list:
    """Evaluate every link A_0..A_{c-2} at one point by direct recursion.

    Numerically self-correcting (no polynomial coefficients involved), so it
    is the form in which the package evaluates the chain; the polynomial
    form of ratio_chain serves the rationalized zero polynomial.  Empty for
    c = 1.
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


def source_constants(params: ModelParams, boundary: BoundaryVector) -> np.ndarray:
    """Inhomogeneous constants k_0..k_{c-2} of the folded system (c >= 2)."""
    c, lam, mu = params.c, params.lam, params.mu
    p = boundary.masses
    k = np.empty(c - 1)
    k[0] = mu * p[1] - lam * p[0]
    for i in range(1, c - 1):
        k[i] = lam * p[i - 1] - (lam + i * mu) * p[i] + (i + 1) * mu * p[i + 1]
    return k


def chain_offset(params: ModelParams, boundary: BoundaryVector, alpha, phase: int):
    """Boundary offset of the downward chain at a phase 0 <= phase <= c-2.

    sum_{n <= phase} k_n lam^(phase-n) prod_{m=n}^{phase} A_m(alpha) / ((m+1) mu),
    with k the source constants; at phase c-2 it is the chain part of the
    folded forcing.
    """
    lam, mu = params.lam, params.mu
    k = source_constants(params, boundary)
    a_vals = ratio_chain_values(params, alpha)
    acc = 0.0
    for n in range(phase + 1):
        prod = 1.0
        for m in range(n, phase + 1):
            prod *= a_vals[m] / ((m + 1) * mu)
        acc += k[n] * lam ** (phase - n) * prod
    return acc


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


def forcing_reduced(params: ModelParams, boundary: BoundaryVector, alpha, z):
    """Known forcing term of the folded identity (linear in the boundary masses)."""
    c, lam = params.c, params.lam
    p = boundary.masses
    if c == 1:
        return mass_coeff(params, z) * p[0]
    acc = chain_offset(params, boundary, alpha, c - 2)
    return mass_coeff(params, z) * p[c - 1] + lam * z ** c * (p[c - 2] + acc)


def boundary_gf(params: ModelParams, boundary: BoundaryVector, z):
    """Generating function of the boundary masses over phases >= c-1.

    Only phase c-1 contributes (higher phases have no mass at level zero),
    so this is the monomial masses[c-1] * z^(c-1).
    """
    c = params.c
    return boundary.masses[c - 1] * z ** (c - 1)


@dataclass(frozen=True)
class PhaseChainLink:
    """One step of the downward chain phi_i = offset_i + A_i * phi_{i+1}."""

    phase: int
    ratio: RationalFn
    offset: Callable = field(compare=False)


def lower_phase_chain(params: ModelParams, boundary: BoundaryVector) -> list:
    """Links expressing each low-phase transform through the next one up.

    For 0 <= i <= c-2 the transform of phase i equals
    offset_i(alpha) + A_i(alpha) * (transform of phase i+1), where offset_i
    is chain_offset at phase i.  Empty for c = 1.
    """
    return [PhaseChainLink(phase=i, ratio=a,
                           offset=partial(chain_offset, params, boundary, phase=i))
            for i, a in enumerate(ratio_chain(params))]
