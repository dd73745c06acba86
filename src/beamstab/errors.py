"""Exception types shared across the package."""


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


class InadmissiblePartitionError(RuntimeError):
    """Boundary classification produced an empty clamped or feedback part."""


class NumericalFailureError(RuntimeError):
    """An iterative numerical procedure failed to converge."""


class StepFailureError(RuntimeError):
    """A time step could not be completed.

    Carries the simulation time and the last nonlinear residual norm; its
    message is the line the CLI prints.  Nothing retries the step; a caller
    that wants to go on reruns with a smaller dt.
    """

    def __init__(self, t, residual):
        self.t = t
        self.residual = residual
        super().__init__(f"step failure at t={t:.17g} (residual {residual:.3e}); "
                         f"retry with a smaller dt")


class FitUndefinedError(RuntimeError):
    """Decay-rate fit requested on a window containing non-positive energy."""


class ConfigError(ValueError):
    """Run configuration is malformed or contains unknown keys."""
