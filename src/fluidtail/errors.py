"""Exception types shared across the package."""


class FluidTailError(Exception):
    """Base class for all package errors."""


class UnstableModelError(FluidTailError):
    """The fluid level has no stationary distribution for these parameters."""


class AssumptionViolatedError(FluidTailError):
    """More than one candidate zero found where at most one is admissible."""


class InsufficientSamplesError(FluidTailError):
    """Too few Monte Carlo samples in the requested fit window."""


class InvalidInputError(FluidTailError, ValueError):
    """A parameter, run setting or option outside its domain."""
