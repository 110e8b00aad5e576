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

    Probabilities are evaluated from the closed form, in log space so that
    large ``c`` does not overflow the factorials.  Beyond phase ``c`` the
    distribution is exactly geometric with ratio ``lam / (c*mu)``.
    """

    def __init__(self, params: ModelParams):
        if not params.ergodic:
            raise UnstableModelError(
                f"background chain not ergodic: lam={params.lam} >= c*mu={params.c * params.mu}"
            )
        self.params = params
        self.rho = params.lam / params.mu
        self.tail_ratio = params.lam / (params.c * params.mu)
        c, log_rho = params.c, math.log(self.rho)
        log_terms = np.arange(c) * log_rho - _log_factorials(c)
        log_last = c * log_rho - math.lgamma(c) - math.log(c - self.rho)
        self._log_xi0 = -_logsumexp(np.append(log_terms, log_last))

    def prob(self, i: int) -> float:
        """Stationary probability of phase i."""
        c, log_rho = self.params.c, math.log(self.rho)
        if i < 0:
            return 0.0
        if i <= c:
            return math.exp(self._log_xi0 + i * log_rho - math.lgamma(i + 1))
        return self.prob(c) * self.tail_ratio ** (i - c)

    def probs(self, n: int) -> np.ndarray:
        """Vector of stationary probabilities for phases 0..n-1."""
        c, log_rho = self.params.c, math.log(self.rho)
        m = min(n, c + 1)
        out = np.empty(n)
        out[:m] = np.exp(self._log_xi0 + np.arange(m) * log_rho - _log_factorials(m))
        if n > c + 1:
            j = np.arange(c + 1, n)
            out[c + 1:] = self.prob(c) * self.tail_ratio ** (j - c)
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


_LOG_MAX = math.log(np.finfo(float).max)


def _log_factorials(n: int) -> np.ndarray:
    """log(i!) for i = 0..n-1, as a running sum of logs."""
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, n)))))[:n]


def _logsumexp(a: np.ndarray) -> float:
    m = float(np.max(a))
    return m + math.log(float(np.sum(np.exp(a - m))))
