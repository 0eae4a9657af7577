"""Exception types, one per kind that code tells apart (ConfigError carries the line, the CLI
catches EstimationError and InfeasibleAttackError), and the one table of value domains."""

import math
import os


class EstimationError(ValueError):
    """Estimator or fit preconditions not met (too few ratios, no full-transmission slots, ...)."""


class InfeasibleAttackError(ValueError):
    """The attack parameter solver found no valid solution; message names the constraint."""


class ConfigError(ValueError):
    """A value outside its domain, or a bad scenario. Carries the offending line when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _within(lo: float, hi: float):  # [lo, hi]: false for NaN, elementwise for an array
    return lambda v: (lo <= v) & (v <= hi)


def below_out(name: str) -> bool:
    """Whether an output name is a path below ``--out``: not empty, not ``--out``
    itself, not absolute and not climbing out with ``..``."""
    return not os.path.isabs(name) and os.path.normpath(name).split(os.sep)[0] not in (".", "..")


# name -> (predicate, false for NaN; its wording). Inside the physical ranges of the system
# rows every product and quotient the noise model and the estimators form is finite and normal;
# electronic_noise is the one derived row, its predicate also takes N0.
DOMAINS = {
    "modulation_variance": (_within(0.0, 1e3), "in [0, 1e3] shot-noise units"),
    "excess_noise": (_within(0.0, 1e3), "in [0, 1e3] shot-noise units"),
    "detector_efficiency": (_within(1e-6, 1.0), "in [1e-6, 1]"),
    "channel_transmittance": (_within(1e-30, 1.0), "in [1e-30, 1]"),
    "lo_intensity": (_within(1.0, 1e15), "in [1, 1e15] photo-electrons"),
    "electronic_noise": (lambda v, n0: 0.0 <= v <= 1e3 * n0,
                         "in [0, 1e3*N0], N0 = detector_efficiency*lo_intensity = {!r}"),
    "pulse intensity": (_within(0.0, 1e15), "in [0, 1e15] photo-electrons"),
    "displacement": (lambda v: 0.0 <= v < math.inf, "finite and >= 0"),
    "schedule ratio": (_within(0.0, 1.0), "in [0, 1]"),
    "schedule probability": (lambda v: 0.0 <= v < math.inf, "finite and >= 0"),
    "schedule span": (lambda v: v >= 1e-6, ">= 1e-6 between every two ratios"),
    "transmittance": (lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    "amplification": (lambda v: 1.0 <= v < math.inf, "finite and >= 1"),
    "slope_factor": (lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    "slots": (lambda v: v > 0, "> 0"),
    "master_seed": (lambda v: v >= 0, ">= 0"),
    "threads": (lambda v: v >= 1, ">= 1"),
    "points": (lambda v: v >= 1, ">= 1"),
    "grid bound": (math.isfinite, "a finite number"),
    "threshold": (lambda v: 0.0 < v < math.inf, "finite and > 0"),
    "output name": (below_out, "a file name below --out"),
}


def check(row: str, value, *args, line: int | None = None, name: str | None = None):
    """``value``, if ``row``'s predicate holds for it (and ``args``); else a
    ConfigError naming it (as ``name``, the row by default) at ``line``."""
    ok, wording = DOMAINS[row]
    if not ok(value, *args):
        raise ConfigError(f"{name or row} must be {wording.format(*args)}, got {value!r}", line)
    return value
