"""Exception types shared across the package."""


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


class InadmissiblePartitionError(RuntimeError):
    """Boundary classification produced an empty clamped or feedback part."""


class NumericalFailureError(RuntimeError):
    """An iterative numerical procedure failed to converge."""


class StepFailureError(RuntimeError):
    """A time step could not be completed.

    Carries the simulation time and the last nonlinear residual norm.
    Nothing retries the step; a caller that wants to go on reruns with a
    smaller dt.
    """

    def __init__(self, t, residual, message=None):
        self.t = t
        self.residual = residual
        super().__init__(message or f"step failed at t={t:.6g}, residual={residual:.3e}")


class FitUndefinedError(RuntimeError):
    """Decay-rate fit requested on a window containing non-positive energy."""


class ConfigError(ValueError):
    """Run configuration is malformed or contains unknown keys."""
