"""Desk-scale ground truth: truncated-phase solution of the stationary system.

The stationary law of (level, phase) on phases 0..N satisfies the linear ODE
system  dPi/dx * R = Pi * Q  with Q the truncated background generator and
R the diagonal of net rates.  Everything here comes from one build of the
decaying modes of the reversibility-symmetrized pencil (S, R),
S = D Q D^{-1} with D = diag(sqrt(xi)).  S is negative semidefinite,
S = -L L^T with L bidiagonal, so the nonzero eigenvalues of the pencil are
those of the symmetric tridiagonal K = -L^T R^{-1} L: real, and computed to
an absolute accuracy of about 1e-16 * ||K||.  The solution is a finite sum
of the decaying modes (van Doorn & Scheinhardt, ITC-15, 1997),

    Pi(x) = xi + sum_k b_k phi_k e^{s_k x},   pi(x) = sum_k s_k b_k phi_k e^{s_k x},

with the b_k pinned by Pi_i(0) = 0 in the filling phases (one LU solve).
The boundary masses are Pi(0) = xi + sum_k b_k phi_k, the eigenvalues are
the s_k, and the density transforms are sum_k b_k phi_k s_k / (-(alpha + s_k)).
Each curve term is formed in float64 without cancellation against the
others, so deep in the tail, where one mode or one cluster of modes
dominates, the density keeps its relative accuracy until e^{s_k x}
underflows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal, lapack, lu_factor, lu_solve

from .cfrac import BoundaryVector
from .errors import FluidTailError
from .model import ModelParams, require_stable


def _generator(params: ModelParams, n_phases: int) -> np.ndarray:
    """Truncated background generator (reflecting at the top phase)."""
    n = n_phases + 1
    q = np.zeros((n, n))
    for i in range(n):
        service = min(i, params.c) * params.mu
        if i < n_phases:
            q[i, i + 1] = params.lam
        if i > 0:
            q[i, i - 1] = service
        q[i, i] = -(params.lam * (i < n_phases) + service)
    return q


def _truncated_stationary(params: ModelParams, n_phases: int) -> np.ndarray:
    """Stationary law of the truncated chain via the birth-death product form."""
    n = n_phases + 1
    logw = np.zeros(n)
    for i in range(1, n):
        logw[i] = logw[i - 1] + math.log(params.lam) - math.log(min(i, params.c) * params.mu)
    logw -= logw.max()
    w = np.exp(logw)
    return w / w.sum()


class SpectralSolution:
    """Assembled stationary solution on a truncated phase space.

    Every quantity is read off the decaying modes of the symmetrized pencil,
    built once by ``solve_truncated``: the boundary masses, the eigenvalues,
    the density transforms and the curve evaluators (``distribution``,
    ``density`` and their grid versions, ``survival_grid``), each point of
    which costs O(N * modes).  Curve values keep their relative accuracy
    down to float64 underflow wherever one mode or one cluster of modes
    dominates, as in every tail; where the true value is near zero through
    cancellation (the high phases at small x) the error is absolute, about
    1e-16 times the largest mode term.

    Attributes
    ----------
    params, n_phases : the model and the largest retained phase
    xi : stationary phase law of the truncated chain
    eigenvalues : decay rates s_k of the modes, real, negative and sorted
                  closest to zero first; eigenvalues[0] approximates the
                  negated level decay rate
    mode_shapes : weighted mode shapes b_k phi_k, one column per eigenvalue;
                  each column, read as a row vector phi, satisfies
                  s phi R = phi Q
    boundary_masses : Pi_i(0) for all phases (exactly zero beyond phase c-1
                      up to the solve residual)
    condition : 1-norm condition estimate of the boundary solve for the b_k
    """

    def __init__(self, params: ModelParams, n_phases: int,
                 xi, eigenvalues, mode_shapes, condition):
        self.params = params
        self.n_phases = n_phases
        self.xi = xi
        self.eigenvalues = eigenvalues
        self.mode_shapes = mode_shapes
        self.condition = condition
        self.boundary_masses = xi + mode_shapes.sum(axis=1)

    # -- evaluators ---------------------------------------------------------

    def _exp_terms(self, xs) -> np.ndarray:
        """e^{s_k x} for each x (rows) and mode (columns)."""
        return np.exp(np.outer(np.asarray(xs, dtype=float), self.eigenvalues))

    def distribution(self, x: float) -> np.ndarray:
        """Pi_i(x) = P(phase = i, level <= x) for all retained phases."""
        return self.distribution_grid([x])[0]

    def density(self, x: float) -> np.ndarray:
        """Level density by phase, pi_i(x) = d/dx Pi_i(x)."""
        return self.density_grid([x])[0]

    def distribution_grid(self, xs) -> np.ndarray:
        """Pi at each x, shape (len(xs), phases)."""
        return self.xi + self._exp_terms(xs) @ self.mode_shapes.T

    def density_grid(self, xs) -> np.ndarray:
        """pi at each x, shape (len(xs), phases)."""
        return (self._exp_terms(xs) * self.eigenvalues) @ self.mode_shapes.T

    def survival_grid(self, xs) -> np.ndarray:
        """P(level > x) at each x.

        Raises FluidTailError where a value is not a positive normal float,
        that is where the survival has underflowed.
        """
        surv = -(self._exp_terms(xs) @ self.mode_shapes.sum(axis=0))
        _require_normal(surv, "survival")
        return surv

    def transform(self, alpha: float) -> np.ndarray:
        """Exponential-moment transforms of the phase densities.

        Integral of e^{alpha x} pi_i(x) over x > 0, exact for the truncated
        system while alpha is below its decay rate -eigenvalues[0]; the
        value grows without bound as alpha approaches it.
        """
        s = self.eigenvalues
        return -self.mode_shapes @ (s / (alpha + s))

    def boundary_vector(self) -> BoundaryVector:
        """Boundary masses of the draining phases, validated."""
        p = self.boundary_masses[: self.params.c]
        if np.any(p < -1e-10):
            raise FluidTailError(f"negative boundary mass from the solve: {p.min()}")
        if self.params.c >= 2:
            slack = self.params.lam * p[0] - self.params.mu * p[1]
            if slack < -1e-9 * max(1.0, abs(p[0])):
                raise FluidTailError(f"boundary masses violate the level-zero balance: {slack}")
        return BoundaryVector(masses=tuple(np.maximum(p, 0.0)), source="spectral-oracle")


def solve_truncated(params: ModelParams, n_phases: int = 400) -> SpectralSolution:
    """Solve the truncated stationary system.

    One tridiagonal eigensolve of K gives the decaying modes: a unit
    eigenvector y of K with eigenvalue s gives the pencil eigenvector
    psi = -R^{-1} L y / s, and phi = sqrt(xi) * psi in phase space.  One LU
    solve of psi[c:] w = -sqrt(xi)[c:] then pins the weights, so that
    b_k phi_k = sqrt(xi) * psi_k * w_k.

    Parameters
    ----------
    params : model parameters (must be stable)
    n_phases : largest retained phase; must be at least c + 10

    Returns
    -------
    SpectralSolution with boundary masses, eigenvalues and evaluators.
    """
    require_stable(params)
    if n_phases < params.c + 10:
        raise ValueError(f"n_phases={n_phases} too small; need at least c+10")
    c = params.c
    xi = _truncated_stationary(params, n_phases)
    diag, off, l_diag, l_sub, r_inv = _reduced_pencil(params, n_phases)
    s, y = eigh_tridiagonal(diag, off)
    stable = s < 0.0
    s, y = s[stable][::-1], y[:, stable][:, ::-1]
    if s.size != n_phases + 1 - c:
        raise FluidTailError(f"pencil has {s.size} decaying modes, expected "
                             f"{n_phases + 1 - c}")
    ly = np.zeros((n_phases + 1, s.size))
    ly[:-1] = l_diag[:, None] * y
    ly[1:] += l_sub[:, None] * y
    psi = -(r_inv[:, None] * ly) / s
    root_xi = np.sqrt(xi)
    pinned = psi[c:]
    lu = lu_factor(pinned, check_finite=False)
    weights = lu_solve(lu, -root_xi[c:], check_finite=False)
    rcond, _ = lapack.dgecon(lu[0], np.linalg.norm(pinned, 1))
    condition = 1.0 / rcond if rcond > 0.0 else math.inf
    return SpectralSolution(params, n_phases, xi, s,
                            root_xi[:, None] * psi * weights, condition)


def _reduced_pencil(params: ModelParams, n_phases: int):
    """The symmetrized pencil (S, R) as the symmetric tridiagonal K.

    The generator is similar to the symmetric tridiagonal S with
    off-diagonals sqrt(lam * service), and S = -L L^T for the lower
    bidiagonal L with L[i, i] = sqrt(lam) and L[i+1, i] = -sqrt(service(i+1)).
    The nonzero eigenvalues of S psi = s R psi are then the eigenvalues of
    K = -L^T R^{-1} L, of order N.

    Returns the diagonal and off-diagonal of K, the diagonal and
    subdiagonal of L, and 1/R.
    """
    service = np.minimum(np.arange(1, n_phases + 1), params.c) * params.mu
    l_diag = np.full(n_phases, math.sqrt(params.lam))
    l_sub = -np.sqrt(service)
    r_inv = 1.0 / params.net_rates(n_phases + 1)
    diag = -(l_diag ** 2 * r_inv[:-1] + l_sub ** 2 * r_inv[1:])
    off = -(l_sub[:-1] * l_diag[1:] * r_inv[1:-1])
    return diag, off, l_diag, l_sub, r_inv


@dataclass(frozen=True)
class DecayFit:
    """Regression summary of log density against x (and optionally log x)."""

    rate: float
    power: float
    prefactor: float
    rate_stderr: float
    prefactor_stderr: float


def fit_decay(
    solution: SpectralSolution,
    phase: int,
    window: tuple,
    n_points: int = 60,
    fit_power: bool = False,
    fixed_rate: float | None = None,
) -> DecayFit:
    """Fit log pi_phase(x) ~ log C - rate*x + power*log x over a window.

    With fixed_rate given, only the prefactor (and optionally the power) is
    estimated, which is the stable way to read off a prefactor when the rate
    is known analytically.
    """
    xs = np.linspace(window[0], window[1], n_points)
    dens = solution.density_grid(xs)[:, phase]
    _require_normal(dens, "density")
    y = np.log(dens)
    cols = [np.ones_like(xs)]
    if fixed_rate is None:
        cols.append(-xs)
    else:
        y = y + fixed_rate * xs
    if fit_power:
        cols.append(np.log(xs))
    design = np.vstack(cols).T
    coef, res, _, _ = np.linalg.lstsq(design, y, rcond=None)
    dof = max(1, len(xs) - design.shape[1])
    sigma2 = float(res[0]) / dof if len(res) else 0.0
    cov = sigma2 * np.linalg.inv(design.T @ design)
    rate = coef[1] if fixed_rate is None else fixed_rate
    rate_err = math.sqrt(abs(cov[1, 1])) if fixed_rate is None else 0.0
    power = coef[-1] if fit_power else 0.0
    return DecayFit(
        rate=float(rate),
        power=float(power),
        prefactor=float(math.exp(coef[0])),
        rate_stderr=float(rate_err),
        prefactor_stderr=float(math.exp(coef[0]) * math.sqrt(abs(cov[0, 0]))),
    )


def summary_json(solution: SpectralSolution, top: int = 8) -> str:
    """JSON summary of a solve: eigenvalues, boundary masses, diagnostics."""
    payload = {
        "schema": 1,
        "params": {
            "c": solution.params.c,
            "lam": solution.params.lam,
            "mu": solution.params.mu,
            "r": solution.params.r,
        },
        "n_phases": solution.n_phases,
        "dominant_eigenvalue": _c2pair(solution.eigenvalues[0]),
        "eigenvalues": [_c2pair(w) for w in solution.eigenvalues[:top]],
        "boundary_masses": list(solution.boundary_masses[: solution.params.c]),
        "condition": solution.condition,
    }
    return json.dumps(payload, indent=2)


def curves_csv(solution: SpectralSolution, xs) -> str:
    """CSV of the distribution and density curves: x, phase, Pi, pi."""
    pi_rows = solution.distribution_grid(xs)
    dens_rows = solution.density_grid(xs)
    lines = ["x,phase,Pi,pi"]
    for k, x in enumerate(xs):
        for i in range(solution.params.c + 8):
            lines.append(f"{x:.12g},{i},{pi_rows[k, i]:.12g},{dens_rows[k, i]:.12g}")
    return "\n".join(lines) + "\n"


def _require_normal(values: np.ndarray, what: str) -> None:
    """Refuse values whose logarithm would be meaningless.

    Zero, negative, infinite or subnormal values mean the window lies past
    float64 underflow (or the curve is wrong); fitting their logarithm would
    return noise.
    """
    if not np.all(np.isfinite(values) & (values >= np.finfo(float).tiny)):
        raise FluidTailError(
            f"{what} is not a positive normal float over the window "
            f"(min {np.min(values):.3g}); move the window"
        )


def _c2pair(w: complex) -> list:
    return [float(np.real(w)), float(np.imag(w))]
