"""Beam-splitter and homodyne-detection statistics.

The homodyne arm is modelled at the Gaussian level: every quadrature and
vacuum mode is a zero-mean unit-variance normal variate, so all operations
here reduce to first and second moments of the differential photocurrent.
Currents and intensities are expressed in photo-electron numbers throughout
(amplification factor fixed to 1); electronic noise is *not* added here, the
protocol layer owns it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
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
    """Homodyne detector pair: efficiency, electronic noise, amplification.

    ``efficiency_overrides`` optionally maps wavelength (nm) to a detector
    efficiency for off-band pulses; everything else sees ``efficiency``.
    """

    efficiency: float = 0.5
    electronic_noise: float = 0.0
    amplification: float = 1.0
    efficiency_overrides: dict[float, float] = field(default_factory=dict)

    def __post_init__(self):
        if not (0.0 < self.efficiency <= 1.0):
            raise ValueError("detector efficiency must be in (0, 1]")
        if self.electronic_noise < 0.0:
            raise ValueError("electronic noise must be >= 0")
        if self.amplification <= 0.0:
            raise ValueError("amplification must be > 0")

    def efficiency_at(self, wavelength_nm: float) -> float:
        return self.efficiency_overrides.get(wavelength_nm, self.efficiency)


@dataclass(frozen=True)
class ForeignPulse:
    """An injected off-wavelength coherent pulse and the path it lands in."""

    wavelength_nm: float
    intensity: float
    path: PulsePath

    def __post_init__(self):
        if self.intensity < 0.0:
            raise ValueError("pulse intensity must be >= 0")


@dataclass(frozen=True)
class HomodyneSample:
    """One differential-current outcome, in photo-electron units."""

    value: float


def balanced_homodyne_stats(detector: DetectorConfig, lo_intensity: float,
                            quad_mean: float, quad_variance: float) -> tuple[float, float]:
    """Moments of the differential current for an exactly balanced splitter.

    Returns (mean, variance) with mean = eta * sqrt(lo_intensity) * quad_mean
    and variance = eta * quad_variance * N0 + N0, where N0 = eta * lo_intensity
    is the shot-noise unit. Electronic noise is added by the caller.
    """
    if lo_intensity <= 0.0:
        raise ValueError("local-oscillator intensity must be > 0")
    if quad_variance < 0.0:
        raise ValueError("quadrature variance must be >= 0")
    eta = detector.efficiency
    n0 = eta * lo_intensity
    mean = eta * math.sqrt(lo_intensity) * quad_mean
    variance = eta * quad_variance * n0 + n0
    return mean, variance


def unbalanced_variance(detector: DetectorConfig, transmittance: float,
                        lo_intensity: float, quad_second_moment: float) -> tuple[float, float]:
    """Moments of the differential current for an unbalanced splitter.

    The strong local oscillator leaks a deterministic term
    eta * lo_intensity * (2T - 1) into the current; the fluctuating part has
    variance
        eta^2 I (2T-1)^2 + 4 eta^2 I T(1-T) (<X^2> + 1) + eta (1-eta) I.
    """
    if not (0.0 < transmittance < 1.0):
        raise ValueError("transmittance must be in (0, 1)")
    if lo_intensity <= 0.0:
        raise ValueError("local-oscillator intensity must be > 0")
    eta = detector.efficiency
    i_lo = lo_intensity
    k = 2.0 * transmittance - 1.0
    mean = eta * i_lo * k
    variance = (eta * eta * i_lo * k * k
                + 4.0 * eta * eta * i_lo * transmittance * (1.0 - transmittance)
                * (quad_second_moment + 1.0)
                + eta * (1.0 - eta) * i_lo)
    return mean, variance


def foreign_pulse_response(detector: DetectorConfig, curve: BeamSplitterCurve,
                           pulse: ForeignPulse) -> tuple[float, float]:
    """Differential-current moments produced by one injected foreign pulse.

    A pulse in the LO path pushes the current by eta*(2T-1)*I, one in the
    signal path by eta*(1-2T)*I, with T taken from the curve at the pulse
    wavelength. The shot variance is eta*I exactly: the bracket
    eta(2T-1)^2 + 4 eta T(1-T) + 1 - eta collapses to 1 for every T.
    """
    t = curve.transmittance_at(pulse.wavelength_nm)
    eta = detector.efficiency_at(pulse.wavelength_nm)
    if pulse.path is PulsePath.LO:
        mean = eta * (2.0 * t - 1.0) * pulse.intensity
    else:
        mean = eta * (1.0 - 2.0 * t) * pulse.intensity
    shot_variance = eta * pulse.intensity
    return mean, shot_variance


def sample_foreign_current(rng: np.random.Generator,
                           response: tuple[float, float]) -> HomodyneSample:
    """Draw one Gaussian differential-current sample from (mean, variance)."""
    mean, shot_variance = response
    if shot_variance < 0.0:
        raise ValueError("shot variance must be >= 0")
    return HomodyneSample(float(rng.normal(mean, math.sqrt(shot_variance))))
