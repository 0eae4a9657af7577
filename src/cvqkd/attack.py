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
(N0, 0).
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
        if self.amplification < 1.0:
            raise ValueError("strategy A amplification must be >= 1")


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
        if not (0.0 < self.slope_factor <= 1.0):
            raise ValueError("slope factor must be in (0, 1]")
        if self.fake_channel <= 0.0:
            raise ValueError("fake channel scaling must be > 0")

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
            t = curve.transmittance_at(wl)
            eta = detector.efficiency_at(wl)
            gain = eta * (1.0 - 2.0 * t) if path is PulsePath.SIGNAL else eta * (2.0 * t - 1.0)
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
    (c_lo + c_signal * r^2) * D with c = (1/|1-2T_a| + 1/|1-2T_b|)/2; the
    detector efficiencies cancel between intensity and shot variance.
    """
    t = [curve.transmittance_at(wl) for wl in wavelengths]
    gaps = [abs(1.0 - 2.0 * ti) for ti in t]
    if any(g == 0.0 for g in gaps):
        raise InfeasibleAttackError("a plan wavelength hits transmittance 1/2 exactly")
    c_s = 0.5 * (1.0 / gaps[0] + 1.0 / gaps[2])
    c_lo = 0.5 * (1.0 / gaps[1] + 1.0 / gaps[3])
    return c_lo, c_s


def heterodyne_intercept(rng: np.random.Generator, alice_x: float, alice_p: float,
                         params: SystemParams) -> tuple[float, float]:
    """Eve's heterodyne measurement of both quadratures.

    Splitting the signal for simultaneous X and P readout costs one vacuum unit
    on top of the coherent-state unit, so each outcome carries an extra 2*N0 of
    noise in the pre-channel normalization.
    """
    n0 = params.shot_noise_unit
    sigma = math.sqrt(2.0 * n0)
    return (alice_x + float(rng.normal(0.0, sigma)),
            alice_p + float(rng.normal(0.0, sigma)))


def resend_strategy_a(plan: StrategyA, x_e: float, p_e: float,
                      params: SystemParams) -> tuple[float, float]:
    """Amplitude scale and LO intensity Eve sends for strategy A.

    Relative to the regular intercept-resend state the signal amplitude grows
    by sqrt(N) and the local oscillator intensity drops to I_LO / N, leaving
    the measured covariance untouched while the realistic shot noise becomes
    N0 / N.
    """
    return math.sqrt(plan.amplification), params.lo_intensity / plan.amplification


def resend_strategy_b(plan: StrategyB, x_e: float, p_e: float,
                      params: SystemParams) -> tuple[float, float]:
    """Amplitude scale and effective shot noise for strategy B.

    The calibration attack is abstracted into the slope factor gamma; the
    resent amplitude uses the fake channel so gamma * fake_channel matches the
    honest transmittance. Effective shot noise is gamma * N0.
    """
    plan.check_consistency(params.channel_transmittance)
    scale = math.sqrt(plan.fake_channel / params.channel_transmittance)
    return scale, plan.slope_factor * params.shot_noise_unit


def part2_variance(plan: WavelengthPlan | None, ratio: float) -> float:
    """Population variance added by the injected pulses at one attenuation ratio."""
    if plan is None:
        return 0.0
    d = plan.displacement
    return ((1.0 - ratio) ** 2 * d * d
            + (plan.shot_coeff_lo + plan.shot_coeff_signal * ratio * ratio) * d)


def inject_part2(rng: np.random.Generator, plan: WavelengthPlan, ratio: float,
                 *, include_shot_noise: bool = True) -> float:
    """One slot's differential-current contribution from the injected pulses.

    Picks set 1 or 2 with equal probability, then adds the LO-path current plus
    ``ratio`` times the signal-path current (the attenuator only touches the
    signal path). ``include_shot_noise=False`` returns the deterministic means,
    which cancel exactly at ratio 1.
    """
    j = 0 if rng.random() < 0.5 else 1
    m_s = plan.means[2 * j]
    m_lo = plan.means[2 * j + 1]
    if not include_shot_noise:
        return m_lo + ratio * m_s
    v_s = plan.shot_variances[2 * j]
    v_lo = plan.shot_variances[2 * j + 1]
    cur_lo = rng.normal(m_lo, math.sqrt(v_lo))
    cur_s = rng.normal(m_s, math.sqrt(v_s))
    return float(cur_lo + ratio * cur_s)


def realistic_shot_noise(params: SystemParams, plan: AttackPlan) -> float:
    """Actual shot noise of the receiver under the plan (N0/N or gamma*N0)."""
    n0 = params.shot_noise_unit
    if isinstance(plan.strategy, StrategyA):
        return n0 / plan.strategy.amplification
    return plan.strategy.slope_factor * n0


def attack_variance(params: SystemParams, plan: AttackPlan, ratio: float) -> float:
    """Population variance of Bob's outcome at one ratio under a full attack."""
    n0 = params.shot_noise_unit
    eta = params.detector.efficiency
    v_el = params.detector.electronic_noise
    v_a = params.modulation_variance
    xi = params.excess_noise
    if isinstance(plan.strategy, StrategyA):
        part1 = (ratio * eta * params.channel_transmittance * (v_a + 2.0 + xi) * n0
                 + n0 / plan.strategy.amplification + v_el)
    else:
        s = plan.strategy
        s.check_consistency(params.channel_transmittance)
        part1 = (s.slope_factor
                 * (ratio * eta * s.fake_channel * (v_a + 2.0 + xi) + 1.0) * n0
                 + v_el)
    return part1 + part2_variance(plan.wavelength, ratio)


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
    if r1 is None or r2 is None:
        ratios = params.schedule.ratios
        r1 = float(ratios.min()) if r1 is None else r1
        r2 = float(ratios.max()) if r2 is None else r2
    n0 = params.shot_noise_unit
    ee = params.detector.efficiency * params.channel_transmittance
    xi = params.excess_noise
    d = plan.displacement
    if plan.wavelength is None:
        c_lo = c_s = 0.0
    else:
        c_lo = plan.wavelength.shot_coeff_lo
        c_s = plan.wavelength.shot_coeff_signal
    shot = realistic_shot_noise(params, plan)
    n0_est = shot + (1.0 - r1 * r2) * d * d + (c_lo - c_s * r1 * r2) * d
    numerator = ((2.0 + xi) * n0
                 + (r1 + r2 - 2.0) * d * d / ee
                 + c_s * (r1 + r2) * d)
    if isinstance(plan.strategy, StrategyB):
        numerator += params.modulation_variance * (n0 - n0_est)
    return n0_est, numerator / n0_est


def coarse_displacement_guess(strategy_kind: str, params: SystemParams) -> float:
    """First-order displacement targets (shot-noise balance only, no pulse shot terms).

    Matching the strong-attenuation variance alone asks for D^2 = (1 - 1/N)*N0
    (strategy A, N0 in the large-N limit) or D^2 = N0/3 (strategy B); the solver
    treats these purely as scale anchors, the exact system supersedes them.
    """
    n0 = params.shot_noise_unit
    if strategy_kind == "A":
        return math.sqrt(n0)
    return math.sqrt(n0 / 3.0)


def solve_attack_parameters(strategy_kind: str, params: SystemParams,
                            curve: BeamSplitterCurve,
                            wavelengths: Sequence[float] = DEFAULT_WAVELENGTHS,
                            r1: float | None = None, r2: float | None = None
                            ) -> AttackPlan:
    """Choose (N, D) or (gamma, D) nulling the two-point estimates.

    Solves {shot-noise estimate = N0, excess-noise estimate = 0} by bisecting
    the excess-noise numerator over D in [0, sqrt(3*N0)] (it is positive at 0
    and monotone decreasing past its vertex), then back-substituting the
    realistic shot noise into N or gamma. Raises InfeasibleAttackError naming
    the violated constraint when no valid solution exists.
    """
    if strategy_kind not in ("A", "B"):
        raise ValueError("strategy_kind must be 'A' or 'B'")
    ratios = params.schedule.ratios
    r1 = float(ratios.min()) if r1 is None else float(r1)
    r2 = float(ratios.max()) if r2 is None else float(r2)
    if r1 >= r2:
        raise InfeasibleAttackError("need two distinct estimation ratios with r1 < r2")
    n0 = params.shot_noise_unit
    ee = params.detector.efficiency * params.channel_transmittance
    xi = params.excess_noise
    c_lo, c_s = shot_coefficients(curve, wavelengths)

    def excess_numerator(d: float) -> float:
        return ((2.0 + xi) * n0
                + (r1 + r2 - 2.0) * d * d / ee
                + c_s * (r1 + r2) * d)

    d_hi = math.sqrt(3.0 * n0)
    if excess_numerator(d_hi) >= 0.0:
        raise InfeasibleAttackError(
            "no displacement in [0, sqrt(3*N0)] nulls the excess-noise estimate "
            f"(channel transmittance {params.channel_transmittance} too high for the bracket)")
    lo, hi = 0.0, d_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if excess_numerator(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * d_hi:
            break
    d = 0.5 * (lo + hi)

    shot = n0 - (1.0 - r1 * r2) * d * d - (c_lo - c_s * r1 * r2) * d
    if shot <= 0.0:
        d_boundary = _max_feasible_displacement(n0, c_lo, c_s, r1, r2)
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


def _max_feasible_displacement(n0, c_lo, c_s, r1, r2) -> float:
    """Largest D keeping the required realistic shot noise positive."""
    a = 1.0 - r1 * r2
    b = c_lo - c_s * r1 * r2
    return (-b + math.sqrt(b * b + 4.0 * a * n0)) / (2.0 * a)


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
        shot = n0 / strategy.amplification
    else:
        strategy.check_consistency(params.channel_transmittance)
        lo_base = params.lo_intensity
        eta_eff = strategy.fake_channel
        slope = strategy.slope_factor
        shot = n0
    reff = ratios * params.detector.efficiency * eta_eff
    # the slope scales the resent state's response, not the electronic noise
    part1_var = slope * (reff * params.excess_noise * n0 + shot) + params.detector.electronic_noise

    r = ratios[:, None]
    if wl is not None:
        var_s = np.array([wl.shot_variances[0], wl.shot_variances[2]])
        var_lo = np.array([wl.shot_variances[1], wl.shot_variances[3]])
        sd = np.sqrt(part1_var[:, None] + var_lo + r * r * var_s)
        offset = np.array([wl.means[1], wl.means[3]]) + r * np.array([wl.means[0], wl.means[2]])
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
