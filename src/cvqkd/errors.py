"""Exception types shared across the simulator."""


class CurveRangeError(ValueError):
    """Wavelength lookup outside the tabulated band of a beam-splitter curve."""


class ScheduleError(ValueError):
    """Invalid attenuation schedule."""


class EstimationError(ValueError):
    """Estimator preconditions not met (too few ratios, no full-transmission slots, ...)."""


class CountermeasureError(EstimationError):
    """The noise-polynomial fit needs at least three distinct attenuation ratios."""


class InfeasibleAttackError(ValueError):
    """The attack parameter solver found no valid solution; message names the constraint."""


class ConfigError(ValueError):
    """Bad scenario configuration. Carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
