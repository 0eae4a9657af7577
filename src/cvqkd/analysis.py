"""Analytic noise model, the three-ratio countermeasure, and auxiliary monitors.

Total noise versus attenuation ratio is a second-order polynomial
a*r^2 + b*r + c. Honest sessions are affine (a = 0); injected signal-path
power shows up as a positive quadratic term of order D^2, so requiring
a << c closes the loophole the two-ratio shot-noise measurement leaves open.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .attack import AttackPlan, attack_variance, realistic_shot_noise
from .errors import CountermeasureError
from .protocol import (AttenuationSchedule, RatioMoments, RecordBatch, SystemParams,
                       honest_variance, ratio_moments, variances_by_ratio)


@dataclass(frozen=True)
class NoisePolynomial:
    """Weighted least-squares fit of per-ratio noise against (r^2, r, 1)."""

    a: float
    b: float
    c: float
    residual: float
    counts: dict[float, int] = field(default_factory=dict)

    @property
    def ratio_a_over_c(self) -> float:
        return self.a / self.c

    def as_items(self) -> list[tuple[str, float]]:
        items = [("a", self.a), ("b", self.b), ("c", self.c),
                 ("a_over_c", self.ratio_a_over_c), ("residual", self.residual)]
        for r in sorted(self.counts):
            items.append((f"count[r={r!r}]", float(self.counts[r])))
        return items


@dataclass(frozen=True)
class LoMonitorInput:
    """Observed LO-path intensity (a stream, or moments carrying its sum) with the
    expected level and tolerance."""

    observed: Sequence[float] | np.ndarray | RatioMoments
    expected: float
    tolerance: float = 1e-3


@dataclass(frozen=True)
class BandCheck:
    """Wavelengths present at the receiver against the accepted filter band (nm)."""

    wavelengths_nm: Sequence[float]
    low_nm: float
    high_nm: float

    def violated(self) -> bool:
        return any(not (self.low_nm <= wl <= self.high_nm) for wl in self.wavelengths_nm)


@dataclass(frozen=True)
class DetectionVerdict:
    """Outcome of the countermeasure checks on one session."""

    ratio_a_over_c: float
    threshold: float
    attacked: bool
    lo_intensity_anomaly: bool = False
    wavelength_band_violation: bool = False

    def as_items(self) -> list[tuple[str, object]]:
        return [("a_over_c", self.ratio_a_over_c), ("threshold", self.threshold),
                ("attacked", self.attacked),
                ("lo_intensity_anomaly", self.lo_intensity_anomaly),
                ("wavelength_band_violation", self.wavelength_band_violation)]


DEFAULT_DETECTION_THRESHOLD = 0.05


def analytic_variance(params: SystemParams, plan: AttackPlan | None, ratio: float) -> float:
    """Population variance of Bob's outcome at one ratio, honest or attacked."""
    if plan is None:
        return honest_variance(params, ratio)
    return attack_variance(params, plan, ratio)


def variance_estimator_std(params: SystemParams, plan: AttackPlan | None,
                           ratio: float, count: int) -> float:
    """Standard deviation of the per-ratio sample variance at this slot count.

    The attacked outcome at ratio r is a +-(1-r)*D coin flip plus a Gaussian,
    so Var(V_hat) = (2*s^4 + 4*s^2*delta^2)/n with s^2 the Gaussian part and
    delta the flip amplitude (delta = 0 honestly, giving the usual 2*V^2/n).
    """
    v = analytic_variance(params, plan, ratio)
    delta2 = 0.0
    if plan is not None and plan.wavelength is not None:
        delta2 = (1.0 - ratio) ** 2 * plan.wavelength.displacement ** 2
    s2 = v - delta2
    return math.sqrt((2.0 * s2 * s2 + 4.0 * s2 * delta2) / count)


def fit_variance_summaries(per_ratio: dict[float, tuple[float, int]]) -> NoisePolynomial:
    """Weighted LS of sample variances against (r^2, r, 1).

    Weights follow the Gaussian variance-of-variance, count/(2*variance^2).
    Exactly three ratios interpolate regardless of the weights.
    """
    if len(per_ratio) < 3:
        raise CountermeasureError(
            f"the quadratic countermeasure needs >= 3 distinct ratios, got {len(per_ratio)}; "
            "a two-ratio schedule cannot see the r^2 term")
    ratios = np.array(sorted(per_ratio))
    v = np.array([per_ratio[r][0] for r in ratios])
    n = np.array([per_ratio[r][1] for r in ratios], dtype=float)
    w = n / (2.0 * v * v)
    design = np.column_stack([ratios ** 2, ratios, np.ones_like(ratios)])
    sw = np.sqrt(w)
    coef, *_ = np.linalg.lstsq(design * sw[:, None], v * sw, rcond=None)
    fitted = design @ coef
    residual = float(np.sum(w * (v - fitted) ** 2))
    counts = {float(r): int(per_ratio[float(r)][1]) for r in ratios}
    return NoisePolynomial(float(coef[0]), float(coef[1]), float(coef[2]), residual, counts)


def fit_noise_polynomial(records) -> NoisePolynomial:
    """Fit the per-ratio sample variances of a record stream."""
    return fit_variance_summaries(variances_by_ratio(records))


def monitor_lo_intensity(observed, expected: float, tolerance: float = 1e-3) -> bool:
    """Flag a relative deviation of the mean LO-path intensity beyond tolerance.

    ``observed`` is an intensity stream, or the moments or record batch of a
    session; a session without an LO monitor is never flagged.
    """
    if expected <= 0.0:
        raise ValueError("expected LO intensity must be > 0")
    if isinstance(observed, (RatioMoments, RecordBatch)):
        moments = ratio_moments(observed)
        slots = int(moments.count.sum())
        if moments.lo_sum is None or slots == 0:
            return False
        mean = float(moments.lo_sum.sum()) / slots
    else:
        arr = np.asarray(observed, dtype=float)
        if arr.size == 0:
            return False
        mean = float(arr.mean())
    return bool(abs(mean / expected - 1.0) > tolerance)


def detect(poly: NoisePolynomial, threshold: float = DEFAULT_DETECTION_THRESHOLD,
           lo_monitor: LoMonitorInput | None = None,
           band_check: BandCheck | None = None) -> DetectionVerdict:
    """Combine the a << c test with the optional physical monitors."""
    if threshold <= 0.0:
        raise ValueError("detection threshold must be > 0")
    lo_flag = False
    if lo_monitor is not None:
        lo_flag = monitor_lo_intensity(lo_monitor.observed, lo_monitor.expected,
                                       lo_monitor.tolerance)
    band_flag = band_check.violated() if band_check is not None else False
    ratio = poly.ratio_a_over_c
    return DetectionVerdict(
        ratio_a_over_c=ratio,
        threshold=threshold,
        attacked=(ratio > threshold) or lo_flag or band_flag,
        lo_intensity_anomaly=lo_flag,
        wavelength_band_violation=band_flag,
    )


def schedule_key_rate_overhead(schedule: AttenuationSchedule) -> float:
    """Fraction of pulses lost to the countermeasure (mass on ratios != 1)."""
    return schedule.discard_fraction()


def single_point_excess_estimate(variance: float, params: SystemParams) -> float:
    """Pre-countermeasure excess-noise estimate from the full-transmission variance.

    Uses the nominal shot-noise unit N0 = eta * I_LO, which is exactly the
    calibration the resend strategies bias.
    """
    n0 = params.shot_noise_unit
    ee = params.detector.efficiency * params.channel_transmittance
    return ((variance - ee * params.modulation_variance * n0 - n0
             - params.detector.electronic_noise) / (ee * n0))


def part1_only_excess_estimate(amplification: float, eta: float, eta_ch: float,
                               xi: float) -> float:
    """Estimated excess noise (shot-noise units) for the bare amplified resend.

    With the LO divided by N and no injected pulses, the single-point estimate
    evaluates to 2 + xi + (1/N - 1)/(eta*eta_ch); for N = 10, eta = 0.5,
    xi = 0.1 this is the curve 2.1 - 1.8/eta_ch.
    """
    if amplification < 1.0:
        raise ValueError("amplification must be >= 1")
    return 2.0 + xi + (1.0 / amplification - 1.0) / (eta * eta_ch)


def part1_zero_crossing(amplification: float, eta: float, xi: float,
                        lo: float = 0.05, hi: float = 1.0) -> float:
    """Channel transmittance where the bare-resend excess estimate crosses zero."""
    def f(ec):
        return part1_only_excess_estimate(amplification, eta, ec, xi)

    f_lo = f(lo)
    if f_lo * f(hi) > 0.0:
        raise ValueError(f"no zero crossing in [{lo}, {hi}]")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_lo * f_mid <= 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
        if hi - lo <= 1e-15:
            break
    return 0.5 * (lo + hi)


def analytic_noise_polynomial(params: SystemParams,
                              plan: AttackPlan | None) -> NoisePolynomial:
    """Exact polynomial coefficients of the population noise model.

    Honest sessions have a = 0. An attack contributes a = D^2 + c_signal*D
    (within a few percent of D^2 alone for the solved plans), pushes the
    slope down by 2*D^2, and inflates the constant back up to the honest
    shot-noise level.
    """
    n0 = params.shot_noise_unit
    ee = params.detector.efficiency * params.channel_transmittance
    v_el = params.detector.electronic_noise
    signal_slope = ee * (params.modulation_variance + params.excess_noise) * n0
    if plan is None:
        return NoisePolynomial(0.0, signal_slope, n0 + v_el, 0.0)
    d = plan.displacement
    wl = plan.wavelength
    c_lo = wl.shot_coeff_lo if wl is not None else 0.0
    c_s = wl.shot_coeff_signal if wl is not None else 0.0
    a = d * d + c_s * d
    b = ee * (params.modulation_variance + 2.0 + params.excess_noise) * n0 - 2.0 * d * d
    c = realistic_shot_noise(params, plan) + v_el + d * d + c_lo * d
    return NoisePolynomial(a, b, c, 0.0)
