"""Exception types shared across the package."""


class FluidTailError(Exception):
    """Base class for all package errors."""


class UnstableModelError(FluidTailError):
    """The fluid level has no stationary distribution for these parameters."""


class BranchCutError(FluidTailError):
    """Branch evaluation requested on the discriminant cut."""


class PoleError(FluidTailError):
    """Evaluation at (or too close to) a pole of a rational function."""


class AssumptionViolatedError(FluidTailError):
    """More than one candidate zero found where at most one is admissible."""


class InsufficientSamplesError(FluidTailError):
    """Too few Monte Carlo samples in the requested fit window."""


class InvalidInputError(FluidTailError, ValueError):
    """A parameter, run setting or option outside its domain."""
