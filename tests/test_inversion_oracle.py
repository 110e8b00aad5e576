"""Independent validation of the tail constants by numerical inversion.

The analytic constants are limits of the continuation formula at its
singularity; here the transform is re-implemented in arbitrary precision and
inverted numerically (Talbot contour) deep in the tail, where the density is
far below anything float64 evaluators can reach.  The inverted density must
approach prefactor * exp(-a* x) * x^power with the analytic prefactor.
"""

import mpmath as mp
import numpy as np
import pytest

from conftest import CASE_II, CASE_III
from fluidtail.asymptotics import analyze
from fluidtail.spectral import solve_truncated


def mp_transform(params, masses):
    """Phase-(c-1) transform via the continuation formula, in mp arithmetic."""
    c = params.c
    lam, mu, r = mp.mpf(params.lam), mp.mpf(params.mu), mp.mpf(params.r)
    masses = [mp.mpf(m) for m in masses]

    def phi(alpha):
        b = -alpha * r + lam + c * mu
        z = (b - mp.sqrt(b * b - 4 * c * lam * mu)) / (2 * lam)
        chain = []
        a = mp.mpf(0)
        for i in range(c - 1):
            a = (i + 1) * mu / ((c - i) * alpha + lam + i * mu - lam * a)
            chain.append(a)
        h2 = lam * z * z - (lam + c * mu) * z + c * mu
        h0 = mu * z ** c - c * mu * z ** (c - 1)
        if c == 1:
            forcing = h0 * masses[0]
            den = (mu - alpha * (r + 1)) * z - mu
        else:
            k = [mu * masses[1] - lam * masses[0]]
            for i in range(1, c - 1):
                k.append(lam * masses[i - 1] - (lam + i * mu) * masses[i]
                         + (i + 1) * mu * masses[i + 1])
            acc = mp.mpf(0)
            for n in range(c - 1):
                prod = mp.mpf(1)
                for m in range(n, c - 1):
                    prod *= chain[m] / ((m + 1) * mu)
                acc += k[n] * lam ** (c - 2 - n) * prod
            forcing = h0 * masses[c - 1] + lam * z ** c * (masses[c - 2] + acc)
            den = (lam * chain[-1] + mu - alpha * (r + 1)) * z ** c - c * mu * z ** (c - 1)
        num = h2 * (masses[c - 1] * z ** (c - 1)) + forcing
        return -num / den

    return phi


def invert(phi, x, dps, degree):
    mp.mp.dps = dps
    try:
        return mp.invertlaplace(lambda s: phi(-s), x, method="talbot", degree=degree)
    finally:
        mp.mp.dps = 15


def test_pole_at_branch_prefactor_by_inversion():
    # density ~ C2 exp(-x)/sqrt(x); the relative deficit decays like 1/x
    rep = analyze(CASE_II)
    phi = mp_transform(CASE_II, rep.boundary.masses)
    ratios = {}
    for x in (20, 40):
        val = invert(phi, x, dps=50, degree=60)
        asym = mp.mpf(rep.prefactor) * mp.exp(-rep.alpha_star * x) / mp.sqrt(x)
        ratios[x] = float(val / asym)
    assert ratios[20] == pytest.approx(1.0, abs=5e-3)
    assert ratios[40] == pytest.approx(1.0, abs=2e-3)
    assert abs(1.0 - ratios[40]) < abs(1.0 - ratios[20])


def test_branch_only_prefactor_by_inversion():
    # density ~ C3 exp(-a1 x) x^{-3/2}; a second-sheet zero sits only 0.031
    # below the branch point, so the regime opens around x ~ 30 and the
    # deficit then decays like 1/x: extrapolate two deep octaves to the limit
    rep = analyze(CASE_III)
    phi = mp_transform(CASE_III, rep.boundary.masses)
    ratios = {}
    for x, dps, degree in ((120, 350, 340), (240, 650, 640)):
        val = invert(phi, x, dps=dps, degree=degree)
        asym = (mp.mpf(rep.prefactor) * mp.exp(-mp.mpf(rep.alpha_star) * x)
                * mp.mpf(x) ** mp.mpf("-1.5"))
        ratios[x] = float(val / asym)
    assert 0.70 < ratios[120] < ratios[240] < 1.0
    extrapolated = (240 * ratios[240] - 120 * ratios[120]) / 120.0
    # the analytic constant is the only candidate compatible with limit 1;
    # the alternative normalisations sit at 10x, 0.2x or negative
    assert extrapolated == pytest.approx(1.0, abs=0.08)
