"""Eavesdropper toolkit: intercept-resend, wavelength pulse injection, solver.

The attack has two halves. First a full heterodyne intercept-resend, run in
one of two flavours: strategy A rescales the resent signal by sqrt(N) while
dividing the local oscillator by N, strategy B reshapes the LO so the
detection slope drops by a factor gamma while a fake channel transmittance
keeps the covariance honest. Either way the receiver's realistic shot noise
shrinks. Second, pairs of off-wavelength pulses ride the signal and LO
polarizations; the wavelength-dependent split ratio converts their intensity
into a differential-current offset of size D whose sign flips slot by slot,
inflating the shot-noise estimate back up to its honest value. The solver
picks (D, N) or (D, gamma) so the two-point estimates come out at exactly
(N0, 0). Both conditions are quadratics in D, stated once in
``_two_point_model``, so the solver takes their roots in closed form.
``noise_table`` is the attacked model, which the sampler draws from and
``analysis`` derives every analytic variance and moment from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InfeasibleAttackError
from .physics import (BeamSplitterCurve, DetectorConfig, ForeignPulse, PulsePath,
                      foreign_pulse_response)
from .protocol import NoiseTable, SystemParams, sample_session

# signal/LO wavelength pairs (nm) whose 50:50 transmittances sit on opposite
# sides of 1/2, set1 = (signal, lo), set2 = (signal, lo)
DEFAULT_WAVELENGTHS = (1410.0, 1490.0, 1310.0, 1590.0)

# relative tolerance of the four-way displacement match inside a plan
_D_MATCH_RTOL = 1e-9


@dataclass(frozen=True)
class StrategyA:
    """Resend with amplified signal and a local oscillator divided by the same factor."""

    amplification: float  # N >= 1; N = 1 degenerates to plain intercept-resend

    def __post_init__(self):
        if not 1.0 <= self.amplification < math.inf:  # false for NaN too
            raise ValueError(f"amplification must be finite and >= 1, got {self.amplification!r}")


@dataclass(frozen=True)
class StrategyB:
    """Slope-control resend: detection response scaled by gamma, fake channel keeps
    gamma * fake_channel equal to the victim's channel transmittance.

    fake_channel may exceed 1: it is an amplitude scaling the attacker applies
    to her resent state, not a physical channel (the worked gamma = 0.47 at
    channel transmittance 0.5 needs fake_channel = 1.063).
    """

    slope_factor: float
    fake_channel: float

    def __post_init__(self):
        # each check is false for NaN, so NaN fails it too
        if not (0.0 < self.slope_factor <= 1.0):
            raise ValueError("slope factor must be in (0, 1]")
        if not 0.0 < self.fake_channel < math.inf:
            raise ValueError(f"fake_channel must be finite and > 0, got {self.fake_channel!r}")

    def check_consistency(self, channel_transmittance: float) -> None:
        if not math.isclose(self.slope_factor * self.fake_channel,
                            channel_transmittance, rel_tol=1e-9):
            raise InfeasibleAttackError(
                "strategy B plan inconsistent: slope_factor * fake_channel = "
                f"{self.slope_factor * self.fake_channel!r} but the channel "
                f"transmittance is {channel_transmittance!r}")


@dataclass(frozen=True)
class WavelengthPlan:
    """Two signal/LO foreign-pulse pairs realizing a common displacement D.

    The pulse intensities are chosen so the four differential-current means are
    (+D, -D, -D, +D) for (signal1, lo1, signal2, lo2); at full transmission the
    signal- and LO-path contributions of a set cancel exactly, at strong
    attenuation the LO contribution survives as a +-D coin flip of variance D^2.
    ``shot_coeff_lo`` and ``shot_coeff_signal`` are the linear-in-D shot-noise
    coefficients recomputed from the active curve (nominally 35.81 and 35.47).
    """

    signal1: ForeignPulse
    lo1: ForeignPulse
    signal2: ForeignPulse
    lo2: ForeignPulse
    displacement: float
    means: tuple[float, float, float, float]          # responses of (s1, lo1, s2, lo2)
    shot_variances: tuple[float, float, float, float]
    shot_coeff_lo: float
    shot_coeff_signal: float

    def __post_init__(self):
        if self.displacement <= 0.0:
            raise ValueError("displacement must be > 0")
        d = self.displacement
        m_s1, m_lo1, m_s2, m_lo2 = self.means
        for name, value, want in (("signal1", m_s1, d), ("lo1", m_lo1, -d),
                                  ("signal2", m_s2, -d), ("lo2", m_lo2, d)):
            if not math.isclose(value, want, rel_tol=_D_MATCH_RTOL):
                raise ValueError(
                    f"{name} pulse produces displacement {value!r}, expected {want!r}")

    @property
    def pulses(self) -> tuple[ForeignPulse, ForeignPulse, ForeignPulse, ForeignPulse]:
        return self.signal1, self.lo1, self.signal2, self.lo2

    @property
    def mean_lo_intensity(self) -> float:
        """Average injected LO-path intensity, what an intensity monitor gains."""
        return 0.5 * (self.lo1.intensity + self.lo2.intensity)

    @classmethod
    def from_pulses(cls, curve: BeamSplitterCurve, detector: DetectorConfig,
                    pulses: Sequence[ForeignPulse], displacement: float) -> "WavelengthPlan":
        responses = [foreign_pulse_response(detector, curve, p) for p in pulses]
        means = tuple(r[0] for r in responses)
        shot_vars = tuple(r[1] for r in responses)
        # shot variance of a foreign pulse is eta*I, so the per-set averages are
        # linear in D with curve-only coefficients
        c_lo = (shot_vars[1] + shot_vars[3]) / (2.0 * displacement)
        c_s = (shot_vars[0] + shot_vars[2]) / (2.0 * displacement)
        return cls(pulses[0], pulses[1], pulses[2], pulses[3], displacement,
                   means, shot_vars, c_lo, c_s)

    @classmethod
    def design(cls, curve: BeamSplitterCurve, detector: DetectorConfig,
               displacement: float,
               wavelengths: Sequence[float] = DEFAULT_WAVELENGTHS) -> "WavelengthPlan":
        """Choose the four intensities that realize ``displacement`` at these wavelengths."""
        if displacement <= 0.0:
            raise InfeasibleAttackError("displacement must be > 0")
        targets = (displacement, -displacement, -displacement, displacement)
        paths = (PulsePath.SIGNAL, PulsePath.LO, PulsePath.SIGNAL, PulsePath.LO)
        names = ("signal1", "lo1", "signal2", "lo2")
        pulses = []
        for name, wl, path, target in zip(names, wavelengths, paths, targets):
            gain, _ = foreign_pulse_response(detector, curve, ForeignPulse(wl, 1.0, path))
            if gain == 0.0:
                raise InfeasibleAttackError(
                    f"{name} wavelength {wl} nm hits transmittance 1/2 exactly; "
                    "no intensity produces a displacement there")
            if (gain > 0) != (target > 0):
                raise InfeasibleAttackError(
                    f"{name} wavelength {wl} nm sits on the wrong side of "
                    f"transmittance 1/2 for a displacement of sign {int(math.copysign(1, target))}")
            pulses.append(ForeignPulse(wl, target / gain, path))
        return cls.from_pulses(curve, detector, pulses, displacement)


@dataclass(frozen=True)
class AttackPlan:
    """Complete attack: the resend strategy plus (optionally) the pulse plan."""

    strategy: StrategyA | StrategyB
    wavelength: WavelengthPlan | None  # None means no injected pulses (D = 0)

    @property
    def displacement(self) -> float:
        return 0.0 if self.wavelength is None else self.wavelength.displacement


def shot_coefficients(curve: BeamSplitterCurve,
                      wavelengths: Sequence[float] = DEFAULT_WAVELENGTHS) -> tuple[float, float]:
    """Linear-in-D shot-noise coefficients (LO-path, signal-path) for a wavelength set.

    For equal-probability sets, the mean injected shot variance is
    (c_lo + c_signal * r^2) * D. These are the coefficients of the plan
    designed at unit displacement, (1/|1-2T_a| + 1/|1-2T_b|)/2 per path: the
    detector efficiency cancels between a pulse's intensity and its shot
    variance, so any detector gives them.
    """
    plan = WavelengthPlan.design(curve, DetectorConfig(), 1.0, wavelengths)
    return plan.shot_coeff_lo, plan.shot_coeff_signal


def _injected(wl: WavelengthPlan, ratios: np.ndarray):
    """Per (ratio, pulse set): the injected pulses' mean current, the LO-path
    shot variance and the signal-path shot variance. The attenuator scales only
    the signal path, its current by r and its shot variance by r^2."""
    r = ratios[:, None]
    var_s = np.array([wl.shot_variances[0], wl.shot_variances[2]])
    var_lo = np.array([wl.shot_variances[1], wl.shot_variances[3]])
    offset = np.array([wl.means[1], wl.means[3]]) + r * np.array([wl.means[0], wl.means[2]])
    return offset, var_lo, r * r * var_s


def part2_variance(plan: WavelengthPlan | None, ratio: float) -> float:
    """Population variance added by the injected pulses at one attenuation ratio."""
    if plan is None:
        return 0.0
    ratios = np.array([float(ratio)])
    offset, var_lo, var_s = _injected(plan, ratios)
    alone = NoiseTable(ratios, np.ones(1), 0.0, np.zeros(1), np.sqrt(var_lo + var_s), offset)
    return float(alone.outcome_moments()[0][0])


def realistic_shot_noise(params: SystemParams, plan: AttackPlan) -> float:
    """Actual shot noise of the receiver under the plan (N0/N or gamma*N0)."""
    n0 = params.shot_noise_unit
    if isinstance(plan.strategy, StrategyA):
        return n0 / plan.strategy.amplification
    return plan.strategy.slope_factor * n0


def predicted_two_point(params: SystemParams, plan: AttackPlan,
                        r1: float | None = None, r2: float | None = None
                        ) -> tuple[float, float]:
    """Closed-form two-point (shot-noise, excess-noise) estimates under attack.

    These are the estimate expressions the solver nulls. The shot-noise line is
    the exact push-through of the attacked per-ratio variances; the excess-noise
    line keeps the injected-pulse shot term in outcome units, which reproduces
    the published worked parameter sets. Fully input-referring that term instead
    would shift the nulled excess estimate by roughly +0.006 (strategy A) to
    +0.011 (strategy B) shot-noise units; the sample estimator lands at those
    small offsets, far below any detection threshold.
    """
    ratios = params.schedule.ratios
    r1 = float(ratios.min()) if r1 is None else r1
    r2 = float(ratios.max()) if r2 is None else r2
    n0 = params.shot_noise_unit
    d = plan.displacement
    wl = plan.wavelength
    c_lo, c_s = (0.0, 0.0) if wl is None else (wl.shot_coeff_lo, wl.shot_coeff_signal)
    bias, numerator = _two_point_model(params, c_lo, c_s, r1, r2)
    n0_est = realistic_shot_noise(params, plan) + _evaluate(bias, d)
    excess = _evaluate(numerator, d)
    if isinstance(plan.strategy, StrategyB):
        excess += params.modulation_variance * (n0 - n0_est)
    return n0_est, excess / n0_est


def _two_point_model(params: SystemParams, c_lo: float, c_s: float,
                     r1: float, r2: float):
    """The two-point estimates under attack as coefficient triples (D^2, D, 1).

    ``bias`` is the shot-noise bias S(D) the injected pulses add to the
    realistic shot noise in the shot-noise estimate. ``numerator`` is the
    excess-noise estimate's numerator before strategy B's modulation term;
    its denominator is the shot-noise estimate (see ``predicted_two_point``).
    """
    ee = params.detector.efficiency * params.channel_transmittance
    bias = (1.0 - r1 * r2, c_lo - c_s * r1 * r2, 0.0)
    numerator = ((r1 + r2 - 2.0) / ee, c_s * (r1 + r2),
                 (2.0 + params.excess_noise) * params.shot_noise_unit)
    return bias, numerator


def _evaluate(coeffs: tuple[float, float, float], d: float) -> float:
    a, b, c = coeffs
    return (a * d + b) * d + c


def _positive_root(a: float, b: float, c: float) -> float:
    """The one positive root of a*x^2 + b*x + c when a and c differ in sign.

    q = -(b + sign(b) sqrt(b^2 - 4ac))/2 adds two terms of one sign, so no
    digits cancel; the roots are q/a and c/q.
    """
    q = -0.5 * (b + math.copysign(math.sqrt(b * b - 4.0 * a * c), b))
    return max(q / a, c / q)


def solve_attack_parameters(strategy_kind: str, params: SystemParams,
                            curve: BeamSplitterCurve,
                            wavelengths: Sequence[float] = DEFAULT_WAVELENGTHS,
                            r1: float | None = None, r2: float | None = None
                            ) -> AttackPlan:
    """Choose (N, D) or (gamma, D) nulling the two-point estimates.

    Solves {shot-noise estimate = N0, excess-noise estimate = 0} in closed
    form. The excess-noise numerator is a quadratic in D that is positive at
    0 and opens downward, so D is its one positive root; back-substituting D
    into the shot-noise condition gives the realistic shot noise, hence N or
    gamma. That shot noise is positive only below the feasibility boundary,
    the positive root of S(D) = N0. Raises InfeasibleAttackError naming the
    violated constraint when no valid solution exists.
    """
    if strategy_kind not in ("A", "B"):
        raise ValueError("strategy_kind must be 'A' or 'B'")
    ratios = params.schedule.ratios
    r1 = float(ratios.min()) if r1 is None else float(r1)
    r2 = float(ratios.max()) if r2 is None else float(r2)
    if r1 >= r2:
        raise InfeasibleAttackError("need two distinct estimation ratios with r1 < r2")
    if r1 + r2 >= 2.0:
        raise InfeasibleAttackError(
            f"the excess-noise estimate stays positive at every displacement when "
            f"r1 + r2 >= 2 (r1 = {r1!r}, r2 = {r2!r})")
    n0 = params.shot_noise_unit
    c_lo, c_s = shot_coefficients(curve, wavelengths)
    bias, numerator = _two_point_model(params, c_lo, c_s, r1, r2)
    d = _positive_root(*numerator)

    shot = n0 - _evaluate(bias, d)
    if shot <= 0.0:
        d_boundary = _positive_root(bias[0], bias[1], bias[2] - n0)
        raise InfeasibleAttackError(
            "nulling the excess-noise estimate needs a realistic shot noise <= 0 "
            f"(required displacement {d:.1f} exceeds the feasibility boundary "
            f"{d_boundary:.1f}); the channel is too transparent for strategy "
            f"{strategy_kind}")

    if strategy_kind == "A":
        strategy: StrategyA | StrategyB = StrategyA(n0 / shot)
    else:
        gamma = shot / n0
        strategy = StrategyB(gamma, params.channel_transmittance / gamma)
    plan = AttackPlan(strategy, WavelengthPlan.design(curve, params.detector, d, wavelengths))

    n0_est, xi_est = predicted_two_point(params, plan, r1, r2)
    if abs(n0_est / n0 - 1.0) > 1e-9 or abs(xi_est) > 1e-9:
        raise InfeasibleAttackError(
            f"solver residuals too large: shot-noise ratio {n0_est / n0!r}, "
            f"excess estimate {xi_est!r}")
    return plan


def noise_table(params: SystemParams, plan: AttackPlan,
                compensate_lo: bool = True) -> NoiseTable:
    """The per-(ratio, pulse set) law of one attacked slot.

    Heterodyne intercept (2*N0 of extra noise on Eve's x), strategy resend,
    Bob's homodyne draw with the part-1 statistics, plus the injected-pulse
    contribution of set 1 or 2. Part-1 noise, electronic noise and both
    injected pulses' shot noise are independent Gaussians, so the table
    carries their summed variance. The LO level is what an ideal intensity
    monitor reads: with ``compensate_lo`` the attacker lowers her part-1 LO
    power by the mean injected intensity and recalibrates the trigger so the
    homodyne statistics stay on plan; only the monitored intensity changes.
    """
    strategy = plan.strategy
    wl = plan.wavelength
    ratios = params.schedule.ratios
    n0 = params.shot_noise_unit

    if isinstance(strategy, StrategyA):
        lo_base = params.lo_intensity / strategy.amplification
        eta_eff = params.channel_transmittance
        slope = 1.0
    else:
        strategy.check_consistency(params.channel_transmittance)
        lo_base = params.lo_intensity
        eta_eff = strategy.fake_channel
        slope = strategy.slope_factor
    reff = ratios * params.detector.efficiency * eta_eff
    # the slope scales the resent state's response, not the electronic noise
    part1_var = (slope * reff * params.excess_noise * n0 + realistic_shot_noise(params, plan)
                 + params.detector.electronic_noise)

    if wl is not None:
        offset, var_lo, var_s = _injected(wl, ratios)
        sd = np.sqrt(part1_var[:, None] + var_lo + var_s)
        monitor_base = lo_base - (wl.mean_lo_intensity if compensate_lo else 0.0)
        lo_level = monitor_base + np.array([wl.lo1.intensity, wl.lo2.intensity])
    else:
        sd = np.sqrt(part1_var)[:, None]
        offset = np.zeros_like(sd)
        lo_level = np.array([lo_base])
    return NoiseTable(ratios, params.schedule.probabilities,
                      math.sqrt(params.modulation_variance * n0), np.sqrt(slope * reff),
                      sd, offset, sig_intercept=math.sqrt(2.0 * n0), lo_level=lo_level)


def run_attacked_session(params: SystemParams, plan: AttackPlan, slots: int,
                         master_seed: int, *, threads: int = 1,
                         compensate_lo: bool = True, records: bool = True):
    """Simulate ``slots`` attacked protocol slots drawn from ``noise_table``.

    The batch carries ground-truth annotations: Eve's measured quadrature and
    the LO-path intensity an ideal monitor would read. Returns the batch with
    its moments, or with ``records=False`` only the RatioMoments (see
    ``protocol.sample_session``).
    """
    return sample_session(noise_table(params, plan, compensate_lo), slots, master_seed,
                          threads=threads, records=records)
