"""Tail asymptotics of a fluid queue driven by an M/M/c background chain.

Analytic pipeline (kernel root, continued-fraction fold, zero hunting,
tail constants) plus two independent desk-scale oracles: a truncated-phase
spectral solver and an event-driven Monte Carlo simulator.
"""

from .asymptotics import (
    TailCase,
    TailReport,
    analyze,
    boundary_mass_tail,
    classify,
    joint_tail,
    lower_phase_tail,
    marginal_tail,
)
from .errors import (
    AssumptionViolatedError,
    FluidTailError,
    InsufficientSamplesError,
    UnstableModelError,
)
from .kernel import BranchPoints, branch_points
from .model import (
    BoundaryVector,
    ModelParams,
    PhaseDistribution,
    StabilityReport,
    is_stable,
    phase_stationary,
)
from .roots import CoeffZero, find_coeff_zero
from .simulate import SimConfig, SurvivalEstimate, fit_tail, simulate

__version__ = "0.1.0"

# the spectral oracle loads scipy.linalg; it is imported on first use only
_SPECTRAL = ("SpectralSolution", "fit_decay", "solve_truncated")


def __getattr__(name):
    if name in _SPECTRAL:
        from . import spectral

        return getattr(spectral, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AssumptionViolatedError",
    "BoundaryVector",
    "BranchPoints",
    "CoeffZero",
    "FluidTailError",
    "InsufficientSamplesError",
    "ModelParams",
    "PhaseDistribution",
    "SimConfig",
    "SpectralSolution",
    "StabilityReport",
    "SurvivalEstimate",
    "TailCase",
    "TailReport",
    "UnstableModelError",
    "analyze",
    "boundary_mass_tail",
    "branch_points",
    "classify",
    "find_coeff_zero",
    "fit_decay",
    "fit_tail",
    "is_stable",
    "joint_tail",
    "lower_phase_tail",
    "marginal_tail",
    "phase_stationary",
    "simulate",
    "solve_truncated",
]
