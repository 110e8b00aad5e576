"""Desk-scale ground truth: truncated-phase solution of the stationary system.

The stationary law of (level, phase) on phases 0..N satisfies the linear ODE
system  dPi/dx * R = Pi * Q  with Q the truncated background generator and
R the diagonal of net rates.  The truncated chain's stationary law xi is
model.PhaseDistribution's phases 0..N divided by their sum: a reflecting
birth-death chain's truncated law is its untruncated law renormalized.
Everything here comes from the reversibility-symmetrized pencil (S, R),
S = D Q D^{-1} with D = diag(sqrt(xi)).  S is negative semidefinite,
S = -L L^T with L bidiagonal, so the nonzero eigenvalues of the pencil are
those of the symmetric tridiagonal K = -L^T R^{-1} L: real, and computed
to an absolute accuracy of about 1e-16 * ||K||.  A unit eigenvector y_k of K with
eigenvalue s_k gives the pencil vector psi_k = -R^{-1} L y_k / s_k, and
these are R-orthogonal, psi_j^T R psi_k = -delta_jk / s_k; the zero mode
sqrt(xi) (L^T sqrt(xi) = 0) is R-orthogonal to all of them.  The solution
is a finite sum of the decaying modes (van Doorn & Scheinhardt, ITC-15,
1997),

    Pi(x) = xi + sum_k b_k phi_k e^{s_k x},   pi(x) = sum_k s_k b_k phi_k e^{s_k x},

with phi_k = sqrt(xi) psi_k.  In these coordinates the boundary vector is
v = (Pi(0) - xi) / sqrt(xi): -sqrt(xi_i) in the filling phases i >= c,
unknown in the c draining phases.  v lies in the span of the decaying modes
exactly when it is R-orthogonal to the zero mode and to the c - 1 growing
modes (s_k > 0), which is c equations for the c boundary masses.  The
weights are then inner products, b_k = -s_k psi_k^T R v = y_k^T L^T v.

The masses are solved eagerly: they need only the growing eigenpairs of K,
O(N c).  The decaying eigenvalues and mode shapes, which every curve needs,
are built on first use from the same pencil.  Each curve term is formed in
float64 without cancellation against the others, so deep in the tail, where
one mode or one cluster of modes dominates, the density keeps its relative
accuracy until e^{s_k x} underflows.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal, lapack, lu_factor, lu_solve

from .errors import FluidTailError, InvalidInputError
from .model import BoundaryVector, ModelParams, checked_boundary, phase_stationary, require_stable


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


class SpectralSolution:
    """Assembled stationary solution on a truncated phase space.

    ``solve_truncated`` fills in the boundary masses and their condition
    estimate.  The eigenvalues and mode shapes are cached properties, built
    from the same pencil on first use (one tridiagonal eigensolve with
    eigenvectors, O(N^2)); the density transforms and the curve evaluators
    (``distribution``, ``density`` and their grid versions,
    ``survival_grid``) read them, each point costing O(N * modes).  Curve
    values keep their relative accuracy down to float64 underflow wherever
    one mode or one cluster of modes dominates, as in every tail; where the
    true value is near zero through cancellation (the high phases at small
    x) the error is absolute, about 1e-16 times the largest mode term.

    Attributes
    ----------
    params, n_phases : the model and the largest retained phase
    xi : stationary phase law of the truncated chain
    boundary_masses : Pi_i(0) for all phases; exactly zero beyond phase c-1
    condition : 1-norm condition estimate of the c x c boundary system,
                rows scaled to unit max-norm, in the unknowns Pi_i(0) / xi_i
    eigenvalues : decay rates s_k of the modes, real, negative and sorted
                  closest to zero first; eigenvalues[0] approximates the
                  negated level decay rate
    mode_shapes : weighted mode shapes b_k phi_k, one column per eigenvalue;
                  each column, read as a row vector phi, satisfies
                  s phi R = phi Q, and xi + mode_shapes.sum(axis=1)
                  reproduces the boundary masses up to roundoff
    """

    def __init__(self, params: ModelParams, n_phases: int, xi, boundary_masses,
                 condition, pencil: _Pencil, lt_v):
        self.params = params
        self.n_phases = n_phases
        self.xi = xi
        self.boundary_masses = boundary_masses
        self.condition = condition
        self._pencil = pencil
        self._lt_v = lt_v

    @functools.cached_property
    def _modes(self):
        """(eigenvalues, mode_shapes) of the decaying modes."""
        pencil, c = self._pencil, self.params.c
        s, y = eigh_tridiagonal(pencil.diag, pencil.off, check_finite=False)
        # ascending, so the decaying modes come first: all but the c - 1 growing ones
        keep = self.n_phases + 1 - c
        s, y = s[:keep][::-1], y[:, :keep][:, ::-1]
        psi = -pencil.l_times(y) / (pencil.rates[:, None] * s)
        weights = self._lt_v @ y[:c]
        return s, np.sqrt(self.xi)[:, None] * psi * weights

    @functools.cached_property
    def eigenvalues(self) -> np.ndarray:
        return self._modes[0]

    @functools.cached_property
    def mode_shapes(self) -> np.ndarray:
        return self._modes[1]

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
        return checked_boundary(self.params, self.boundary_masses, "spectral-oracle")


def solve_truncated(params: ModelParams, n_phases: int = 400) -> SpectralSolution:
    """Solve the truncated stationary system for its boundary masses.

    The c - 1 growing modes are the positive eigenpairs of K, found by
    bisection and inverse iteration.  In the unknowns t_i = Pi_i(0) / xi_i,
    v + sqrt(xi) is t sqrt(xi) on the draining phases and zero above, so
    the c conditions read

        sum_{i<c} r_i xi_i t_i = xi . r                 (zero mode)
        sum_{i<c} (L y_j)_i sqrt(xi_i) t_i = 0          (growing mode j)

    using psi_j^T R sqrt(xi) = 0.  No division by sqrt(xi) occurs, which
    underflows to zero in the high phases of lightly loaded models.  The
    same identity L^T sqrt(xi) = 0 makes L^T v vanish beyond phase c-1,
    so each mode weight is a c-term inner product.

    Parameters
    ----------
    params : model parameters (must be stable)
    n_phases : largest retained phase; must be at least c + 10

    Returns
    -------
    SpectralSolution with boundary masses; eigenvalues and evaluators on use.
    """
    require_stable(params)
    if n_phases < params.c + 10:
        raise InvalidInputError(f"n_phases={n_phases} too small; need at least c+10")
    c = params.c
    xi = phase_stationary(params).probs(n_phases + 1)
    xi /= xi.sum()
    pencil = _reduced_pencil(params, n_phases)
    s_up, y_up = eigh_tridiagonal(pencil.diag, pencil.off, select="v",
                                  select_range=(0.0, math.inf), check_finite=False)
    if s_up.size != c - 1:
        raise FluidTailError(f"pencil has {s_up.size} growing modes, expected {c - 1}")
    root_xi = np.sqrt(xi[:c])
    system = np.vstack([pencil.rates[:c] * xi[:c],
                        pencil.l_times(y_up)[:c].T * root_xi])
    rhs = np.zeros(c)
    rhs[0] = xi @ pencil.rates
    scale = np.abs(system).max(axis=1)
    system /= scale[:, None]
    rhs /= scale
    lu = lu_factor(system, check_finite=False)
    t = lu_solve(lu, rhs, check_finite=False)
    rcond, _ = lapack.dgecon(lu[0], np.linalg.norm(system, 1))
    condition = 1.0 / rcond if rcond > 0.0 else math.inf
    masses = np.zeros(n_phases + 1)
    masses[:c] = t * xi[:c]
    # L^T v = L^T (t sqrt(xi)) on the draining phases, zero beyond phase c-1
    u = t * root_xi
    lt_v = pencil.l_diag[:c] * u
    lt_v[:-1] += pencil.l_sub[:c - 1] * u[1:]
    return SpectralSolution(params, n_phases, xi, masses, condition, pencil, lt_v)


@dataclass(frozen=True)
class _Pencil:
    """The symmetrized pencil (S, R) as the symmetric tridiagonal K.

    The generator is similar to the symmetric tridiagonal S with
    off-diagonals sqrt(lam * service), and S = -L L^T for the lower
    bidiagonal L with L[i, i] = sqrt(lam) and L[i+1, i] = -sqrt(service(i+1)).
    The nonzero eigenvalues of S psi = s R psi are then the eigenvalues of
    K = -L^T R^{-1} L, of order N.
    """

    diag: np.ndarray     # diagonal of K
    off: np.ndarray      # off-diagonal of K
    l_diag: np.ndarray   # diagonal of L
    l_sub: np.ndarray    # subdiagonal of L
    rates: np.ndarray    # diagonal of R

    def l_times(self, y: np.ndarray) -> np.ndarray:
        """L @ y for y of shape (N, m)."""
        ly = np.zeros((y.shape[0] + 1, y.shape[1]))
        ly[:-1] = self.l_diag[:, None] * y
        ly[1:] += self.l_sub[:, None] * y
        return ly


def _reduced_pencil(params: ModelParams, n_phases: int) -> _Pencil:
    """K, L and R of the symmetrized pencil for phases 0..n_phases."""
    service = np.minimum(np.arange(1, n_phases + 1), params.c) * params.mu
    l_diag = np.full(n_phases, math.sqrt(params.lam))
    l_sub = -np.sqrt(service)
    rates = params.net_rates(n_phases + 1)
    r_inv = 1.0 / rates
    diag = -(l_diag ** 2 * r_inv[:-1] + l_sub ** 2 * r_inv[1:])
    off = -(l_sub[:-1] * l_diag[1:] * r_inv[1:-1])
    return _Pencil(diag, off, l_diag, l_sub, rates)


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
    float64 underflow (or the curve is wrong); their logarithm would be
    noise.
    """
    if not np.all(np.isfinite(values) & (values >= np.finfo(float).tiny)):
        raise FluidTailError(
            f"{what} is not a positive normal float over the window "
            f"(min {np.min(values):.3g}); move the window"
        )


def _c2pair(w: complex) -> list:
    return [float(np.real(w)), float(np.imag(w))]
