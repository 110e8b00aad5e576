"""The paper's written forms of the folded identity, kept as test oracles.

The package computes the transform numerator N from the null vector of the
draining-phase chain (asymptotics.numerator_value) and evaluates the
continued fraction only from its pivots (roots.chain_pivots).  This module
keeps the forms the derivation writes down, the chain's direct recursion
among them, and shares no code with the package's chain, so the tests can
hold the package to them:

* the chain A_0..A_{c-2} as reduced rational functions (RationalFn,
  ratio_chain) and the rationalized zero polynomial built from them, for
  the published-root checks;
* the source constants k_i, the chain offsets and the forcing term, whose
  sum with the boundary term is N:

      N(alpha, z) = boundary_coeff(z) * boundary_gf(z) + forcing(alpha, z).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as npoly

from fluidtail.errors import PoleError


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
def ratio_chain(params) -> tuple:
    """The chain A_0..A_{c-2} as reduced rational functions (empty for c=1).

    A_i(alpha) = (i+1) mu / ((c-i) alpha + lam + i mu - lam A_{i-1}(alpha)),
    A_{-1} = 0, built by clearing denominators step by step; numerator
    degree i and denominator degree i+1 hold by construction and are
    asserted.
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


def rationalized_zero_poly(params) -> np.ndarray:
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


def mass_coeff(params, z):
    """Coefficient of the lowest boundary mass: mu*z^c - c*mu*z^(c-1)."""
    c, mu = params.c, params.mu
    return mu * z ** c - c * mu * z ** (c - 1)


def boundary_coeff(params, z):
    """Coefficient of the boundary generating function:
    lam*z^2 - (lam + c*mu)*z + c*mu."""
    c, lam, mu = params.c, params.lam, params.mu
    return lam * z * z - (lam + c * mu) * z + c * mu


def boundary_gf(params, boundary, z):
    """Generating function of the boundary masses over phases >= c-1.

    Only phase c-1 contributes (higher phases have no mass at level zero),
    so this is the monomial masses[c-1] * z^(c-1).
    """
    c = params.c
    return boundary.masses[c - 1] * z ** (c - 1)


def source_constants(params, boundary) -> np.ndarray:
    """Inhomogeneous constants k_0..k_{c-2} of the folded system (c >= 2)."""
    c, lam, mu = params.c, params.lam, params.mu
    p = boundary.masses
    k = np.empty(c - 1)
    k[0] = mu * p[1] - lam * p[0]
    for i in range(1, c - 1):
        k[i] = lam * p[i - 1] - (lam + i * mu) * p[i] + (i + 1) * mu * p[i + 1]
    return k


def chain_offset(params, boundary, alpha, phase: int):
    """Boundary offset of the downward chain at a phase 0 <= phase <= c-2.

    sum_{n <= phase} k_n lam^(phase-n) prod_{m=n}^{phase} A_m(alpha) / ((m+1) mu),
    with k the source constants.  The transform of phase i is
    chain_offset(i) + A_i * (transform of phase i+1); at phase c-2 the
    offset is the chain part of the forcing.
    """
    lam, mu = params.lam, params.mu
    k = source_constants(params, boundary)
    a_vals = [link(alpha) for link in ratio_chain(params)]
    acc = 0.0
    for n in range(phase + 1):
        prod = 1.0
        for m in range(n, phase + 1):
            prod *= a_vals[m] / ((m + 1) * mu)
        acc += k[n] * lam ** (phase - n) * prod
    return acc


def forcing(params, boundary, alpha, z):
    """Known forcing term of the folded identity (linear in the boundary masses)."""
    c, lam = params.c, params.lam
    p = boundary.masses
    if c == 1:
        return mass_coeff(params, z) * p[0]
    acc = chain_offset(params, boundary, alpha, c - 2)
    return mass_coeff(params, z) * p[c - 1] + lam * z ** c * (p[c - 2] + acc)


def numerator_terms(params, boundary, alpha, z) -> tuple:
    """The two terms of the transform numerator: boundary term and forcing."""
    return (boundary_coeff(params, z) * boundary_gf(params, boundary, z),
            forcing(params, boundary, alpha, z))
