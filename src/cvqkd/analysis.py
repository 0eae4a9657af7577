"""Analytic noise model, the three-ratio countermeasure, and the LO-intensity monitor.

Total noise versus attenuation ratio is a second-order polynomial
a*r^2 + b*r + c. Honest sessions are affine (a = 0); injected signal-path
power shows up as a positive quadratic term of order D^2, so requiring
a << c closes the loophole the two-ratio shot-noise measurement leaves open.

The model is the noise table the sampler draws from
(``protocol.honest_noise_table``, ``attack.noise_table``). The analytic
variance, the estimator sd and the population polynomial are derivations
of it: each builds the table at the ratios it needs and reads its moments.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .attack import AttackPlan, StrategyA, noise_table
from .errors import EstimationError, check
from .physics import DetectorConfig
from .protocol import (AttenuationSchedule, NoiseTable, SystemParams, honest_noise_table,
                       variances_by_ratio)


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
class DetectionVerdict:
    """The countermeasure's verdict on one session's fit; no LO flag when nothing read the LO."""

    polynomial: NoisePolynomial
    threshold: float
    attacked: bool
    lo_intensity_anomaly: bool | None = None

    def as_items(self) -> list[tuple[str, object]]:
        """The verdict file: the fit's items, the cut, the verdict, and the LO flag if read."""
        items = [*self.polynomial.as_items(), ("threshold", self.threshold),
                 ("attacked", self.attacked)]
        if self.lo_intensity_anomaly is not None:
            items.append(("lo_intensity_anomaly", self.lo_intensity_anomaly))
        return items


DEFAULT_DETECTION_THRESHOLD = 0.05
# relative deviation of the mean LO-path intensity that the monitor flags
LO_TOLERANCE = 1e-3


def _table_at(params: SystemParams, plan: AttackPlan | None, ratio: float) -> NoiseTable:
    """The session's noise table with every slot at one attenuation ratio."""
    point = dataclasses.replace(params, schedule=AttenuationSchedule(((ratio, 1.0),)))
    return honest_noise_table(point) if plan is None else noise_table(point, plan)


def analytic_variance(params: SystemParams, plan: AttackPlan | None, ratio: float) -> float:
    """Population variance of Bob's outcome at one ratio, honest or attacked."""
    return float(_table_at(params, plan, ratio).outcome_moments()[0][0])


def variance_estimator_std(params: SystemParams, plan: AttackPlan | None,
                           ratio: float, count: int) -> float:
    """Standard deviation of the per-ratio sample variance at this slot count.

    sqrt((m4 - V^2)/n), with V and m4 the outcome's variance and fourth
    central moment at the ratio; for a Gaussian outcome (honestly) that is
    V*sqrt(2/n).
    """
    (v,), (m4,) = _table_at(params, plan, ratio).outcome_moments()
    return math.sqrt((m4 - v * v) / count)


def fit_variance_summaries(per_ratio: dict[float, tuple[float, int]]) -> NoisePolynomial:
    """Weighted LS of sample variances against (r^2, r, 1).

    Weights follow the Gaussian variance-of-variance, count/(2*variance^2).
    Exactly three ratios interpolate regardless of the weights. Raises EstimationError,
    naming the ratio, unless there are three ratios and each sample variance, its weight
    (whose variance^2 can overflow or underflow) and the floor c (without which a/c means
    nothing) is finite and > 0; ConfigError names two ratios nearer than ``schedule span``.
    """
    if len(per_ratio) < 3:
        raise EstimationError(
            f"the quadratic countermeasure needs >= 3 distinct ratios, got {len(per_ratio)}; "
            f"the ratios that drew slots: {', '.join(map(repr, sorted(per_ratio))) or 'none'}")
    ratios = np.array(sorted(per_ratio))
    i = int(np.argmin(np.diff(ratios)))  # ratios from a records file skip the schedule's check
    lo, hi = ratios[i:i + 2].tolist()
    check("schedule span", hi - lo, name=f"the gap between ratios {lo!r} and {hi!r}")
    v = np.array([per_ratio[r][0] for r in ratios])
    for r, var in zip(ratios, v):
        if not 0.0 < var < math.inf:
            raise EstimationError(f"the sample variance at ratio {float(r)!r} must be "
                                  f"finite and > 0, got {float(var)!r}")
    n = np.array([per_ratio[r][1] for r in ratios], dtype=float)
    with np.errstate(over="ignore", divide="ignore"):
        w = n / (2.0 * v * v)
    for r, weight in zip(ratios, w):
        if not 0.0 < weight < math.inf:
            raise EstimationError(f"the fit's weight count/(2*variance^2) at ratio "
                                  f"{float(r)!r} must be finite and > 0, got {float(weight)!r}")
    design = np.column_stack([ratios ** 2, ratios, np.ones_like(ratios)])
    sw = np.sqrt(w)
    coef, *_ = np.linalg.lstsq(design * sw[:, None], v * sw, rcond=None)
    if not 0.0 < coef[2] < math.inf:
        raise EstimationError(f"the fitted shot-noise floor c must be finite and > 0, "
                              f"got {float(coef[2])!r}")
    fitted = design @ coef
    residual = float(np.sum(w * (v - fitted) ** 2))
    counts = {float(r): int(per_ratio[float(r)][1]) for r in ratios}
    return NoisePolynomial(float(coef[0]), float(coef[1]), float(coef[2]), residual, counts)


def fit_noise_polynomial(records) -> NoisePolynomial:
    """Fit the per-ratio sample variances of a record stream."""
    return fit_variance_summaries(variances_by_ratio(records))


def monitor_lo_intensity(table: NoiseTable, expected: float) -> bool:
    """Flag a relative deviation of the mean LO-path intensity beyond ``LO_TOLERANCE``.

    The monitor reads ``table.lo_level``, averaged over the equally likely
    pulse sets; a table without an LO monitor is never flagged.
    """
    check("lo_intensity", expected)
    if table.lo_level is None:
        return False
    return bool(abs(float(np.mean(table.lo_level)) / expected - 1.0) > LO_TOLERANCE)


def detect(poly: NoisePolynomial, threshold: float = DEFAULT_DETECTION_THRESHOLD,
           lo_anomaly: bool | None = None) -> DetectionVerdict:
    """Combine the a << c test with the LO-intensity monitor's flag, if it read the LO."""
    check("threshold", threshold)
    return DetectionVerdict(poly, threshold, poly.ratio_a_over_c > threshold or bool(lo_anomaly),
                            lo_anomaly)


def schedule_key_rate_overhead(schedule: AttenuationSchedule) -> float:
    """Fraction of pulses lost to the countermeasure (mass on ratios != 1)."""
    return float(sum(p for r, p in schedule.entries if r != 1.0))


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

    The single-point estimate of the strategy-A table at r = 1 with the LO
    divided by N and no injected pulses. It evaluates to
    2 + xi + (1/N - 1)/(eta*eta_ch); for N = 10, eta = 0.5, xi = 0.1 this is
    the curve 2.1 - 1.8/eta_ch.
    """
    params = SystemParams(channel_transmittance=eta_ch, excess_noise=xi,
                          detector=DetectorConfig(eta))
    plan = AttackPlan(StrategyA(amplification), None)
    return single_point_excess_estimate(analytic_variance(params, plan, 1.0), params)


def part1_zero_crossing(amplification: float, eta: float, xi: float,
                        lo: float = 0.05, hi: float = 1.0) -> float:
    """Channel transmittance where the bare-resend excess estimate crosses zero.

    The root of 2 + xi + (1/N - 1)/(eta*eta_ch), (1 - 1/N)/(eta*(2 + xi)).
    Raises ValueError when it lies outside [lo, hi].
    """
    crossing = (1.0 - 1.0 / amplification) / (eta * (2.0 + xi))
    if not lo <= crossing <= hi:
        raise ValueError(f"no zero crossing in [{lo}, {hi}]")
    return crossing


def analytic_noise_polynomial(params: SystemParams,
                              plan: AttackPlan | None) -> NoisePolynomial:
    """Exact polynomial coefficients of the population noise model.

    The table's gain^2 and sd^2 are at most quadratic in r and its offsets
    affine, so the variance is exactly the quadratic through its values at
    r = 0, 1/2 and 1. Honest sessions have a = 0 (up to rounding). An attack
    contributes a = D^2 + c_signal*D (within a few percent of D^2 alone for the
    solved plans), pushes the slope down by 2*D^2, and inflates the constant
    back up to the honest shot-noise level.
    """
    v0, v_half, v1 = (analytic_variance(params, plan, r) for r in (0.0, 0.5, 1.0))
    return NoisePolynomial(2.0 * (v1 - 2.0 * v_half + v0), 4.0 * v_half - v1 - 3.0 * v0,
                           v0, 0.0)
