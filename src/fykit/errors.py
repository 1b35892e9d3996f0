"""Exception types shared across the toolkit.

All toolkit errors derive from :class:`ToolkitError` so callers can catch
one base class. The CLI maps these onto exit codes.
"""


class ToolkitError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(ToolkitError):
    """An argument violates a documented precondition."""


class TooLargeError(ToolkitError):
    """A requested computation exceeds a dimension cap: the dense-copy cap
    ``blockops.DENSE_LIMIT`` or a model's ``lattice.DIMENSION_CAP``."""


class SingularMatrixError(ToolkitError):
    """A linear system is singular to working precision."""


class ShiftSingularError(SingularMatrixError):
    """A shift is an eigenvalue exactly, so the shifted matrix cannot be
    factored: a singular system to a linear solve, and a shift to step off
    to the shift-invert driver."""


class SolverFailureError(ToolkitError):
    """An iterative solver stagnated or exceeded its iteration cap."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class SpuriousEnergyError(ToolkitError):
    """The requested energy lies on (or numerically too close to) the
    spectrum of the unperturbed operator, so the free resolvent does not
    exist."""


class ChannelEnergyError(ToolkitError):
    """The requested energy hits the spectrum of a channel operator
    (unperturbed part plus a single pair potential)."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class PreconditionError(ToolkitError):
    """A numerical precondition check failed; carries the measured defect."""

    def __init__(self, message, measured=None):
        super().__init__(message)
        self.measured = measured


class InternalConsistencyError(ToolkitError):
    """An identity that must hold by construction was violated. Seeing this
    error means the package itself is broken."""


class ConfigError(ToolkitError):
    """A run configuration file is missing, malformed, or contains unknown
    or out-of-range entries."""
