"""Eavesdropper toolkit: intercept-resend, wavelength pulse injection, solver.

The attack has two halves. First a full heterodyne intercept-resend, run in
one of two flavours: strategy A rescales the resent signal by sqrt(N) while
dividing the local oscillator by N, strategy B reshapes the LO so the
detection slope drops by a factor gamma while a fake channel transmittance
eta_ch / gamma keeps the covariance honest. Either way the receiver's realistic shot noise
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
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import EstimationError, InfeasibleAttackError, check
from .physics import (BeamSplitterCurve, DetectorConfig, ForeignPulse, PulsePath,
                      foreign_pulse_response)
from .protocol import NoiseTable, SystemParams, honest_noise_table, sample_session

# signal/LO wavelength pairs (nm) whose 50:50 transmittances sit on opposite
# sides of 1/2, set1 = (signal, lo), set2 = (signal, lo)
DEFAULT_WAVELENGTHS = (1410.0, 1490.0, 1310.0, 1590.0)

# the four injected pulses in plan-file order, as (name, path, sign of the
# displacement they produce); set j is (signal j, lo j)
PULSES = (("signal1", PulsePath.SIGNAL, +1), ("lo1", PulsePath.LO, -1),
          ("signal2", PulsePath.SIGNAL, -1), ("lo2", PulsePath.LO, +1))


@dataclass(frozen=True)
class StrategyA:
    """Resend with amplified signal and a local oscillator divided by the same factor."""

    amplification: float  # N >= 1; N = 1 degenerates to plain intercept-resend

    def __post_init__(self):
        check("amplification", self.amplification)


@dataclass(frozen=True)
class StrategyB:
    """Slope-control resend: detection response scaled by gamma.

    Eve's fake channel is eta_ch / gamma of the system she attacks, so gamma
    times it is that system's channel transmittance. It may exceed 1: it is an
    amplitude scaling the attacker applies to her resent state, not a physical
    channel (the worked gamma = 0.47 at channel transmittance 0.5 needs 1.063).
    """

    slope_factor: float

    def __post_init__(self):
        check("slope_factor", self.slope_factor)


STRATEGIES = {"A": StrategyA, "B": StrategyB}  # by their scenario and plan-file letter


@dataclass(frozen=True)
class WavelengthPlan:
    """Two signal/LO foreign-pulse pairs and the response Bob's curve gives them.

    ``pulses``, ``means`` and ``shot_variances`` run in ``PULSES`` order, signal
    path at the even positions. ``design`` picks the intensities that make the
    means (+D, -D, -D, +D) for a common displacement D; at full transmission the
    signal- and LO-path contributions of a set then cancel exactly, at strong
    attenuation the LO contribution survives as a +-D coin flip of variance D^2.
    ``from_pulses`` takes the means from whatever curve it is given, so they need
    not match; ``serialize.load_plan`` checks the match for a plan file.
    The shot variance of a foreign pulse is eta*I, so the per-set averages are linear
    in D: ``shot_coeff_lo`` and ``shot_coeff_signal`` are their coefficients, which
    depend on the curve alone (nominally 35.81 and 35.47).
    """

    pulses: tuple[ForeignPulse, ...]
    displacement: float
    means: tuple[float, ...]
    shot_variances: tuple[float, ...]

    @property
    def mean_lo_intensity(self) -> float:
        """Average injected LO-path intensity, what an intensity monitor gains."""
        return 0.5 * sum(p.intensity for p in self.pulses[1::2])

    @property
    def shot_coeff_lo(self) -> float:
        return sum(self.shot_variances[1::2]) / (2.0 * self.displacement)

    @property
    def shot_coeff_signal(self) -> float:
        return sum(self.shot_variances[0::2]) / (2.0 * self.displacement)

    @classmethod
    def from_pulses(cls, curve: BeamSplitterCurve, detector: DetectorConfig,
                    pulses: Sequence[ForeignPulse], displacement: float) -> "WavelengthPlan":
        means, shot_vars = zip(*(foreign_pulse_response(detector, curve, p) for p in pulses))
        return cls(tuple(pulses), displacement, means, shot_vars)

    @classmethod
    def design(cls, curve: BeamSplitterCurve, detector: DetectorConfig,
               displacement: float,
               wavelengths: Sequence[float] = DEFAULT_WAVELENGTHS) -> "WavelengthPlan":
        """Choose the four intensities that realize ``displacement`` at these wavelengths."""
        pulses = []
        for (name, path, sign), wl in zip(PULSES, wavelengths):
            gain, _ = foreign_pulse_response(detector, curve, ForeignPulse(wl, 1.0, path))
            if gain == 0.0:
                raise InfeasibleAttackError(
                    f"{name} wavelength {wl} nm hits transmittance 1/2 exactly; "
                    "no intensity produces a displacement there")
            if (gain > 0) != (sign > 0):
                raise InfeasibleAttackError(
                    f"{name} wavelength {wl} nm sits on the wrong side of "
                    f"transmittance 1/2 for a displacement of sign {sign}")
            pulses.append(ForeignPulse(wl, sign * displacement / gain, path))
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
    means, shot = np.array(wl.means), np.array(wl.shot_variances)
    return means[1::2] + r * means[0::2], shot[1::2], r * r * shot[0::2]


def part2_variance(plan: WavelengthPlan | None, ratio: float) -> float:
    """Population variance added by the injected pulses at one attenuation ratio."""
    if plan is None:
        return 0.0
    ratios = np.array([float(ratio)])
    offset, var_lo, var_s = _injected(plan, ratios)
    alone = NoiseTable(ratios, np.ones(1), 0.0, np.zeros(1), var_lo + var_s, offset)
    return float(alone.outcome_moments()[0][0])


def realistic_shot_noise(params: SystemParams, plan: AttackPlan) -> float:
    """Actual shot noise of the receiver under the plan (N0/N or gamma*N0)."""
    n0 = params.shot_noise_unit
    if isinstance(plan.strategy, StrategyA):
        return n0 / plan.strategy.amplification
    return plan.strategy.slope_factor * n0


def predicted_two_point(params: SystemParams, plan: AttackPlan) -> tuple[float, float]:
    """Closed-form two-point (shot-noise, excess-noise) estimates under attack.

    These are the estimate expressions the solver nulls. The shot-noise line is
    the exact push-through of the attacked per-ratio variances; the excess-noise
    line keeps the injected-pulse shot term in outcome units, which reproduces
    the published worked parameter sets. Fully input-referring that term instead
    would shift the nulled excess estimate by roughly +0.006 (strategy A) to
    +0.011 (strategy B) shot-noise units; the sample estimator lands at those
    small offsets, far below any detection threshold.
    """
    n0 = params.shot_noise_unit
    d = plan.displacement
    wl = plan.wavelength
    c_lo, c_s = (0.0, 0.0) if wl is None else (wl.shot_coeff_lo, wl.shot_coeff_signal)
    bias, numerator = _two_point_model(params, c_lo, c_s)
    n0_est = realistic_shot_noise(params, plan) + _evaluate(bias, d)
    excess = _evaluate(numerator, d)
    if isinstance(plan.strategy, StrategyB):
        excess += params.modulation_variance * (n0 - n0_est)
    return n0_est, excess / n0_est


def _two_point_model(params: SystemParams, c_lo: float, c_s: float):
    """The two-point estimates under attack as coefficient triples (D^2, D, 1),
    at the schedule's smallest and largest ratio r1 < r2.

    ``bias`` is the shot-noise bias S(D) the injected pulses add to the
    realistic shot noise in the shot-noise estimate. ``numerator`` is the
    excess-noise estimate's numerator before strategy B's modulation term;
    its denominator is the shot-noise estimate (see ``predicted_two_point``).
    """
    ratios = params.schedule.ratios
    r1, r2 = float(ratios.min()), float(ratios.max())
    if r1 == r2:
        raise EstimationError(f"two-point estimates need two ratios, got only {r1!r}")
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
    digits cancel; the roots are q/a and c/q (inside ``errors.DOMAINS`` b^2 - 4ac is finite).
    """
    q = -0.5 * (b + math.copysign(math.sqrt(b * b - 4.0 * a * c), b))
    return max(q / a, c / q)


def solve_attack_parameters(strategy_kind: str, params: SystemParams,
                            curve: BeamSplitterCurve,
                            wavelengths: Sequence[float] = DEFAULT_WAVELENGTHS
                            ) -> AttackPlan:
    """Choose (N, D) or (gamma, D) nulling the two-point estimates.

    Solves {shot-noise estimate = N0, excess-noise estimate = 0} in closed
    form. The schedule keeps its ratios in [0, 1], so r1 + r2 < 2 and the
    excess-noise numerator is a quadratic in D that is positive at 0 and
    opens downward: D is its one positive root. Back-substituting D into the
    shot-noise condition gives the realistic shot noise, hence N or gamma.
    That shot noise is positive only below the feasibility boundary, the
    positive root of S(D) = N0; a more opaque channel, a lower excess noise
    or a brighter LO moves the system below it. Raises InfeasibleAttackError
    naming the violated constraint when no valid solution exists.
    """
    if strategy_kind not in STRATEGIES:
        raise ValueError("strategy_kind must be 'A' or 'B'")
    n0 = params.shot_noise_unit
    c_lo, c_s = shot_coefficients(curve, wavelengths)
    bias, numerator = _two_point_model(params, c_lo, c_s)
    d = _positive_root(*numerator)

    shot = n0 - _evaluate(bias, d)
    if shot <= 0.0:
        d_boundary = _positive_root(bias[0], bias[1], bias[2] - n0)
        raise InfeasibleAttackError(
            "nulling the excess-noise estimate needs a realistic shot noise <= 0 "
            f"(required displacement {d:.6g} exceeds the feasibility boundary "
            f"{d_boundary:.6g}); strategy {strategy_kind} needs a more opaque channel or a "
            f"brighter LO (channel transmittance {params.channel_transmittance!r}, "
            f"N0 = {n0:.6g})")

    if strategy_kind == "A":
        strategy: StrategyA | StrategyB = StrategyA(n0 / shot)
    else:
        strategy = StrategyB(shot / n0)
    plan = AttackPlan(strategy, WavelengthPlan.design(curve, params.detector, d, wavelengths))

    n0_est, xi_est = predicted_two_point(params, plan)
    if abs(n0_est / n0 - 1.0) > 1e-9 or abs(xi_est) > 1e-9:
        raise InfeasibleAttackError(
            f"solver residuals too large: shot-noise ratio {n0_est / n0!r}, "
            f"excess estimate {xi_est!r}")
    return plan


def noise_table(params: SystemParams, plan: AttackPlan,
                compensate_lo: bool = True) -> NoiseTable:
    """The per-(ratio, pulse set) law of one attacked slot.

    Bob's receiver is the honest one (``protocol.honest_noise_table``) at the
    realistic shot noise the resend leaves him; his gain and excess-noise term
    stay honest, for strategy B because her fake channel eta_ch / gamma undoes
    the slope factor. Eve changes the rest: her heterodyne intercept adds
    2*N0 of noise to the x she resends from, and the injected pulses of set 1
    or 2 add their offset and their independent shot-noise variance. The LO
    level is what an ideal intensity monitor reads: with ``compensate_lo`` the
    attacker lowers her part-1 LO power by the mean injected intensity and
    recalibrates the trigger so the homodyne statistics stay on plan; only
    the monitored intensity changes.
    """
    wl = plan.wavelength
    lo_base = params.lo_intensity
    if isinstance(plan.strategy, StrategyA):
        lo_base /= plan.strategy.amplification
    table = replace(honest_noise_table(params, realistic_shot_noise(params, plan)),
                    sig_intercept=math.sqrt(2.0 * params.shot_noise_unit),
                    lo_level=np.array([lo_base]))
    if wl is None:
        return table
    offset, var_lo, var_s = _injected(wl, params.schedule.ratios)
    monitor_base = lo_base - (wl.mean_lo_intensity if compensate_lo else 0.0)
    return replace(table, var=table.var + var_lo + var_s, offset=offset,
                   lo_level=monitor_base + np.array([p.intensity for p in wl.pulses[1::2]]))


def run_attacked_session(params: SystemParams, plan: AttackPlan, slots: int,
                         master_seed: int, *, threads: int = 1,
                         records: bool | Callable = True, chunks: range | None = None):
    """Simulate ``slots`` attacked protocol slots drawn from ``noise_table``.

    The batch carries Eve's measured quadrature as a ground-truth annotation.
    The LO level a monitor reads is no slot column, so ``noise_table``'s
    ``compensate_lo`` changes nothing drawn here. Returns the batch with
    its moments, or, with ``records`` False or a callable that takes each
    chunk's records, only the RatioMoments (``protocol.sample_session``, as ``chunks``).
    """
    return sample_session(noise_table(params, plan), slots, master_seed,
                          threads=threads, records=records, chunks=chunks)
