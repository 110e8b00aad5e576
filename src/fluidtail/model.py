"""Model parameters, background stationary law, stability, boundary vector.

The background process is the queue-length chain of an M/M/c queue (arrivals
at rate ``lam``, per-server rate ``mu``).  The fluid level drains at rate
``i - c`` while ``i < c`` servers are busy and fills at rate ``r`` otherwise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import FluidTailError, InvalidInputError, UnstableModelError


@dataclass(frozen=True)
class ModelParams:
    """Immutable parameter tuple (c, lam, mu, r)."""

    c: int
    lam: float
    mu: float
    r: float

    def __post_init__(self):
        if int(self.c) != self.c or self.c < 1:
            raise InvalidInputError(f"c must be a positive integer, got {self.c!r}")
        object.__setattr__(self, "c", int(self.c))
        for name in ("lam", "mu", "r"):
            v = float(getattr(self, name))
            if not math.isfinite(v) or v <= 0.0:
                raise InvalidInputError(f"{name} must be positive and finite, got {v!r}")
            object.__setattr__(self, name, v)

    @property
    def ergodic(self) -> bool:
        """Whether the background chain has a stationary distribution."""
        return self.lam < self.c * self.mu

    def net_rate(self, i: int) -> float:
        """Net input rate of the fluid level while the chain sits in phase i."""
        return float(i - self.c) if i < self.c else self.r

    def net_rates(self, n: int) -> np.ndarray:
        """Net input rates for phases 0..n-1."""
        i = np.arange(n)
        return np.where(i < self.c, (i - self.c).astype(float), self.r)


class PhaseDistribution:
    """Stationary distribution of the M/M/c queue-length chain.

    Phases 0..c follow xi_i = xi_0 rho^i / i!, rho = lam / mu, and beyond
    phase ``c`` the distribution is exactly geometric with ratio
    q = lam / (c*mu).  The head is built outward from the modal phase
    m = min(floor(rho), c) as products of ratios at most 1,
    w_i = w_{i+1} (i+1) / rho below m and w_i = w_{i-1} rho / i above it
    (w_m = 1), so nothing overflows and a term leaves the normal range only
    when its probability does.  The terms are normalized by ``math.fsum``
    of the head plus the geometric tail w_c q / (1 - q): q < 1 holds in
    doubles whenever lam < c*mu does, while lam / mu may round to c.

    ``rel_err`` bounds the relative error of ``prob(i)``, i <= c, and of
    ``tail_mass(c)``, to first order in u = eps/2.  Each step outward from
    m rounds twice and carries rho's rounding, so w_i is within 3|i-m| u;
    the tail term adds 5 u, and 2q/(1-q) u as 1 - q amplifies q's two
    roundings; the sum and the division round once each.  So xi_i is within
    (6c + 7 + 2q/(1-q)) u, and tail_mass(c), which divides by the same
    1 - q, within (2 + 2q/(1-q)) u more: rel_err = eps (5 + 3c + 2q/(1-q)).
    """

    def __init__(self, params: ModelParams):
        if not params.ergodic:
            raise UnstableModelError(
                f"background chain not ergodic: lam={params.lam} >= c*mu={params.c * params.mu}"
            )
        self.params = params
        c, rho = params.c, params.lam / params.mu
        self.tail_ratio = q = params.lam / (c * params.mu)
        m = min(int(rho), c)
        w = [1.0] * (c + 1)
        for i in range(m - 1, -1, -1):
            w[i] = w[i + 1] * (i + 1) / rho
        for i in range(m + 1, c + 1):
            w[i] = w[i - 1] * rho / i
        total = math.fsum(w + [w[c] * q / (1.0 - q)])
        self._head = [wi / total for wi in w]
        self.rel_err = _EPS * (5.0 + 3.0 * c + 2.0 * q / (1.0 - q))

    def prob(self, i: int) -> float:
        """Stationary probability of phase i."""
        c = self.params.c
        if i < 0:
            return 0.0
        if i <= c:
            return self._head[i]
        return self._head[c] * self.tail_ratio ** (i - c)

    def probs(self, n: int) -> np.ndarray:
        """Vector of stationary probabilities for phases 0..n-1."""
        c = self.params.c
        out = np.empty(n)
        out[:c + 1] = self._head[:n]
        if n > c + 1:
            out[c + 1:] = self._head[c] * self.tail_ratio ** np.arange(1, n - c)
        return out

    def tail_mass(self, i0: int) -> float:
        """Closed-form mass of phases >= i0 (requires i0 >= c)."""
        if i0 < self.params.c:
            raise ValueError("tail_mass needs i0 >= c; sum the head explicitly")
        return self.prob(i0) / (1.0 - self.tail_ratio)

    def mean_drift(self) -> float:
        """Stationary mean net input rate; negative iff the level is stable."""
        c, r = self.params.c, self.params.r
        head = self.probs(c)
        drift = float(np.dot(head, np.arange(c) - c))
        return drift + r * self.tail_mass(c)


def phase_stationary(params: ModelParams) -> PhaseDistribution:
    """Stationary law of the background chain; raises if lam >= c*mu."""
    return PhaseDistribution(params)


@dataclass(frozen=True)
class StabilityReport:
    """Verdict on stationarity of the fluid level, with both forms of the condition."""

    stable: bool
    lhs: float          # (r+1)*lam
    rhs: float          # closed-form bound (may be inf for large c)
    mean_drift: float   # sum_i xi_i * r_i

    def __bool__(self) -> bool:
        return self.stable


@functools.lru_cache(maxsize=128)
def is_stable(params: ModelParams) -> StabilityReport:
    """Check the stationarity condition for the fluid level.

    Returns both sides of the closed-form inequality
    (r+1)lam < c*mu + (c*mu - lam) * sum_{i<c-1} (c-i) lam^{i+1-c} (c-1)! / (mu^{i+1-c} i!)
    together with the equivalent mean-drift value.  Equality is classified
    as unstable (the mean drift must be strictly negative).
    """
    if not params.ergodic:
        raise UnstableModelError(
            f"background chain not ergodic: lam={params.lam} >= c*mu={params.c * params.mu}"
        )
    c, lam, mu, r = params.c, params.lam, params.mu, params.r
    lhs = (r + 1.0) * lam
    if c == 1:
        rhs = c * mu
    else:
        i = np.arange(c - 1)
        log_terms = (
            np.log(c - i.astype(float))
            + (i + 1.0 - c) * (math.log(lam) - math.log(mu))
            + math.lgamma(c)
            - _log_factorials(c - 1)
        )
        # at many servers and light load the sum passes the double range: rhs is then inf
        log_s = _logsumexp(log_terms)
        s = math.exp(log_s) if log_s < _LOG_MAX else math.inf
        rhs = c * mu + (c * mu - lam) * s
    drift = phase_stationary(params).mean_drift()
    return StabilityReport(stable=bool(lhs < rhs), lhs=lhs, rhs=rhs, mean_drift=drift)


def require_stable(params: ModelParams) -> StabilityReport:
    """is_stable, raising UnstableModelError on a negative verdict."""
    rep = is_stable(params)
    if not rep.stable:
        raise UnstableModelError(
            f"unstable fluid level: (r+1)*lam = {rep.lhs} >= {rep.rhs} (mean drift {rep.mean_drift:+g})"
        )
    return rep


@dataclass(frozen=True)
class BoundaryVector:
    """Stationary masses at level zero for the draining phases 0..c-1.

    Phases with positive net rate carry no mass at zero, so this vector plus
    the phase distribution determines every boundary quantity.
    """

    masses: tuple
    source: str = "user-supplied"

    def __post_init__(self):
        m = []
        if getattr(self.masses, "ndim", 1) == 1:
            try:
                m = [float(x) for x in self.masses]
            except TypeError:   # a scalar, or an entry that is itself a sequence
                pass
        if not m:
            raise ValueError("masses must be a nonempty 1-d sequence")
        if any(x < -1e-10 for x in m):
            raise ValueError(f"negative boundary mass: {min(m)}")
        object.__setattr__(self, "masses", tuple(0.0 if x <= 0.0 else x for x in m))

    def __getitem__(self, i: int) -> float:
        return self.masses[i]

    def __len__(self) -> int:
        return len(self.masses)


def checked_boundary(params: ModelParams, masses, source: str) -> BoundaryVector:
    """BoundaryVector of the draining-phase masses of a solve, validated.

    Refuses (FluidTailError) a negative mass beyond roundoff and masses that
    break the level-zero balance lam Pi_0(0) >= mu Pi_1(0).  Both checks run
    on Python floats, which BoundaryVector takes as they are; it owns the
    shape check and the clamp of roundoff negatives to 0.
    """
    p = [float(x) for x in masses[: params.c]]
    if any(x < -1e-10 for x in p):
        raise FluidTailError(f"negative boundary mass from the solve: {min(p)}")
    if params.c >= 2:
        slack = params.lam * p[0] - params.mu * p[1]
        if slack < -1e-9 * max(1.0, abs(p[0])):
            raise FluidTailError(f"boundary masses violate the level-zero balance: {slack}")
    return BoundaryVector(masses=p, source=source)


_EPS = float(np.finfo(float).eps)
_LOG_MAX = math.log(np.finfo(float).max)


def _log_factorials(n: int) -> np.ndarray:
    """log(i!) for i = 0..n-1, as a running sum of logs."""
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, n)))))[:n]


def _logsumexp(a: np.ndarray) -> float:
    m = float(np.max(a))
    return m + math.log(float(np.sum(np.exp(a - m))))
