"""Beam-splitter curves, the detector, and the response to injected foreign pulses.

The homodyne arm is modelled at the Gaussian level, so a foreign pulse
reduces to the mean and variance of the differential current it adds.
Currents and intensities are expressed in photo-electron numbers throughout
(amplification factor fixed to 1); electronic noise is *not* added here, the
noise table owns it (``protocol.NoiseTable``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import ConfigError, CurveRangeError


class PulsePath(enum.Enum):
    """Which polarization/time slot a pulse rides in at the receiver."""

    SIGNAL = "signal"
    LO = "lo"


@dataclass(frozen=True)
class BeamSplitterCurve:
    """Measured transmittance of a fused biconical taper coupler vs wavelength.

    Lookups return the tabulated value exactly on grid points and linear
    interpolation between adjacent points; outside the tabulated band the
    lookup raises CurveRangeError.
    """

    nominal_ratio: str
    wavelengths_nm: np.ndarray
    transmittances: np.ndarray

    def __post_init__(self):
        wl = np.asarray(self.wavelengths_nm, dtype=float)
        tr = np.asarray(self.transmittances, dtype=float)
        object.__setattr__(self, "wavelengths_nm", wl)
        object.__setattr__(self, "transmittances", tr)
        if wl.ndim != 1 or wl.size < 2 or wl.shape != tr.shape:
            raise ValueError("curve needs >= 2 (wavelength, transmittance) rows")
        if not np.all(np.diff(wl) > 0):
            raise ValueError("curve wavelengths must be strictly increasing")
        if np.any(tr <= 0.0) or np.any(tr >= 1.0):
            raise ValueError("curve transmittances must lie in (0, 1)")

    @property
    def band_nm(self) -> tuple[float, float]:
        return float(self.wavelengths_nm[0]), float(self.wavelengths_nm[-1])

    def transmittance_at(self, wavelength_nm: float) -> float:
        lo, hi = self.band_nm
        if not (lo <= wavelength_nm <= hi):
            raise CurveRangeError(
                f"wavelength {wavelength_nm} nm outside the tabulated band "
                f"[{lo}, {hi}] nm of the {self.nominal_ratio} coupler"
            )
        i = int(np.searchsorted(self.wavelengths_nm, wavelength_nm))
        if i < self.wavelengths_nm.size and self.wavelengths_nm[i] == wavelength_nm:
            return float(self.transmittances[i])  # exact on grid points
        w0, w1 = self.wavelengths_nm[i - 1], self.wavelengths_nm[i]
        t0, t1 = self.transmittances[i - 1], self.transmittances[i]
        return float(t0 + (t1 - t0) * (wavelength_nm - w0) / (w1 - w0))


def transmittance_at(curve: BeamSplitterCurve, wavelength_nm: float) -> float:
    """Table value at grid points, linear interpolation in between."""
    return curve.transmittance_at(wavelength_nm)


def load_curve(path, nominal_ratio: str | None = None) -> BeamSplitterCurve:
    """Read a curve from the plain-text table format.

    One header line, then rows ``wavelength_nm transmittance`` in ascending
    wavelength order. A row without exactly two cells, a cell that is not a
    finite number, a transmittance outside (0, 1) or a wavelength not above
    the previous row's raises a ConfigError naming the file and the line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(n, ln.split()) for n, ln in enumerate(fh, start=1) if ln.strip()]
    wl: list[float] = []
    tr: list[float] = []
    for lineno, cells in lines[1:]:
        try:
            w, t = map(float, cells)  # a non-number or a row of other length both raise
        except ValueError:
            raise ConfigError(f"curve file {path}: expected two numbers "
                              f"'wavelength_nm transmittance', got {' '.join(cells)!r}",
                              lineno) from None
        if not (math.isfinite(w) and math.isfinite(t)):
            raise ConfigError(f"curve file {path}: expected finite numbers, "
                              f"got {' '.join(cells)!r}", lineno)
        if not 0.0 < t < 1.0:
            raise ConfigError(f"curve file {path}: transmittance {t!r} outside (0, 1)", lineno)
        if wl and w <= wl[-1]:
            raise ConfigError(f"curve file {path}: wavelength {w!r} nm does not ascend "
                              f"from {wl[-1]!r} nm", lineno)
        wl.append(w)
        tr.append(t)
    if len(wl) < 2:
        raise ConfigError(f"curve file {path}: needs >= 2 (wavelength, transmittance) rows")
    if nominal_ratio is None:
        nominal_ratio = str(path)
    return BeamSplitterCurve(nominal_ratio, np.array(wl), np.array(tr))


_BUILTIN_FILES = {"50:50": "bs_50_50.txt", "10:90": "bs_10_90.txt"}


def builtin_curve(nominal_ratio: str = "50:50") -> BeamSplitterCurve:
    """Shipped measured curves for the 50:50 and 10:90 couplers."""
    try:
        fname = _BUILTIN_FILES[nominal_ratio]
    except KeyError:
        raise KeyError(f"no builtin curve {nominal_ratio!r}; have {sorted(_BUILTIN_FILES)}")
    ref = resources.files("cvqkd.data").joinpath(fname)
    with resources.as_file(ref) as path:
        return load_curve(path, nominal_ratio)


@dataclass(frozen=True)
class DetectorConfig:
    """Homodyne detector pair: quantum efficiency and electronic noise variance.

    The efficiency is the same at every wavelength, injected foreign pulses
    included. Currents are photo-electron numbers, so there is no
    amplification gain (see the module docstring).
    """

    efficiency: float = 0.5
    electronic_noise: float = 0.0

    def __post_init__(self):
        # each check is false for NaN, so NaN fails it too
        if not (0.0 < self.efficiency <= 1.0):
            raise ValueError("detector efficiency must be in (0, 1]")
        if not 0.0 <= self.electronic_noise < math.inf:
            raise ValueError("electronic_noise must be finite and >= 0, "
                             f"got {self.electronic_noise!r}")


@dataclass(frozen=True)
class ForeignPulse:
    """An injected off-wavelength coherent pulse and the path it lands in."""

    wavelength_nm: float
    intensity: float
    path: PulsePath

    def __post_init__(self):
        if self.intensity < 0.0:
            raise ValueError("pulse intensity must be >= 0")


def foreign_pulse_response(detector: DetectorConfig, curve: BeamSplitterCurve,
                           pulse: ForeignPulse) -> tuple[float, float]:
    """Differential-current moments produced by one injected foreign pulse.

    A pulse in the LO path pushes the current by eta*(2T-1)*I, one in the
    signal path by eta*(1-2T)*I, with T taken from the curve at the pulse
    wavelength. The shot variance is eta*I exactly: the bracket
    eta(2T-1)^2 + 4 eta T(1-T) + 1 - eta collapses to 1 for every T.
    """
    t = curve.transmittance_at(pulse.wavelength_nm)
    eta = detector.efficiency
    if pulse.path is PulsePath.LO:
        mean = eta * (2.0 * t - 1.0) * pulse.intensity
    else:
        mean = eta * (1.0 - 2.0 * t) * pulse.intensity
    shot_variance = eta * pulse.intensity
    return mean, shot_variance
