"""High-precision boundary masses from the kernel formulation, the reference of test_asymptotics.

The masses p_i = Pi_i(0), i < c, make the transform numerator vanish at the
c-1 zeros of the folded coefficient g on the negative axis; with the chain's
null vector u at each zero that is the row sum_i (i-c) u_i p_i = 0, and the
zero mode adds sum_i (i-c) p_i = mean drift.  This script finds the zeros by
bisection on the Sturm count of the chain's pivots (the number of negative
pivots plus one if g > 0, which falls by one across each zero) and solves
the c x c system, all in mpmath at a set number of digits.  The system is
Vandermonde-like, so the digits must far exceed those wanted: at c = 80 and
light load 60 digits are not enough.  asymptotics.kernel_boundary takes
the masses from the ladder generator instead, so the two share no code.

Run as ``python tests/kernel_mass_reference.py [digits]`` (default 160):
it prints each tuple's masses, rounded to doubles, as the literals pinned
in tests/test_asymptotics.py, and the largest relative change of a mass
when the digits grow by 40.  It takes about four minutes; tier-1 does not run it.
"""

from __future__ import annotations

import sys

import mpmath

TUPLES = [(80, 4.0, 1.0, 2.0), (100, 50.0, 1.0, 0.5)]


def _pivots(c, lam, mu, alpha):
    dens, e = [], mpmath.mpf(c)
    for i in range(c - 1):
        if i:
            e = (c - i) + i * mu * e / dens[-1]
        dens.append(lam + alpha * e)
    return dens


def _sturm_count(c, lam, mu, r, alpha):
    """Negative pivots plus one if g > 0 at alpha < 0: c at -2 (lam + c mu), 1 just below 0."""
    dens = _pivots(c, lam, mu, alpha)
    b = -alpha * r + lam + c * mu
    z = 2 * c * mu / (b + mpmath.sqrt(b * b - 4 * c * lam * mu))
    chain = (c - 1) * lam * mu / dens[-1] if dens else 0
    g = z * (mu - alpha * (r + 1) + chain) - c * mu
    return sum(1 for d in dens if d < 0) + (1 if g > 0 else 0)


def growing_zeros(c, lam, mu, r):
    """The c-1 zeros of g on the negative axis, each bisected to the working precision."""
    count = lambda a: _sturm_count(c, lam, mu, r, a)
    lo = -2 * (lam + c * mu)
    assert count(lo) == c
    stack, zeros = [(lo, c, mpmath.mpf(0), 1)], []
    tol = mpmath.mpf(2) ** (8 - mpmath.mp.prec)
    while stack:
        a, na, b, nb = stack.pop()
        if na <= nb:
            continue
        if na - nb == 1 and b - a <= tol * abs(a):
            zeros.append((a + b) / 2)
            continue
        mid = (a + b) / 2
        nm = count(mid)
        stack += [(a, na, mid, nm), (mid, nm, b, nb)]
    return sorted(zeros)


def kernel_masses(c, lam, mu, r):
    lam, mu, r = mpmath.mpf(lam), mpmath.mpf(mu), mpmath.mpf(r)
    rho = lam / mu
    head = [rho ** i / mpmath.factorial(i) for i in range(c + 1)]
    tail = head[c] / (1 - rho / c)
    drift = (mpmath.fsum((i - c) * head[i] for i in range(c)) + r * tail) \
        / (mpmath.fsum(head[:c]) + tail)
    rows = [[mpmath.mpf(i - c) for i in range(c)]]
    for a in growing_zeros(c, lam, mu, r):
        dens = _pivots(c, lam, mu, a)
        u = [mpmath.mpf(1)] * c
        for i in range(c - 2, -1, -1):
            u[i] = u[i + 1] * lam / dens[i]
        rows.append([(i - c) * u[i] for i in range(c)])
    rhs = mpmath.matrix([drift] + [0] * (c - 1))
    return list(mpmath.lu_solve(mpmath.matrix(rows), rhs))


def main(digits: int) -> None:
    for params in TUPLES:
        with mpmath.workdps(digits):
            masses = kernel_masses(*params)
        with mpmath.workdps(digits + 40):
            finer = kernel_masses(*params)
            change = max(abs(m - f) / f for m, f in zip(masses, finer))
        print(f"# {params}: largest relative change at {digits + 40} digits "
              f"{mpmath.nstr(change, 3)}")
        print(f"{params}: [")
        values = [repr(float(m)) for m in masses]
        for k in range(0, len(values), 3):
            print("    " + ", ".join(values[k:k + 3]) + ",")
        print("],")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 160)
