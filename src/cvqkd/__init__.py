"""Wavelength attack on homodyne-detection CV-QKD: simulator and countermeasure."""

from .analysis import (DetectionVerdict, NoisePolynomial, analytic_variance, detect,
                       fit_noise_polynomial, monitor_lo_intensity,
                       schedule_key_rate_overhead)
from .attack import (AttackPlan, StrategyA, StrategyB, WavelengthPlan,
                     run_attacked_session, solve_attack_parameters)
from .physics import (BeamSplitterCurve, DetectorConfig, ForeignPulse, HomodyneSample,
                      PulsePath, builtin_curve, load_curve, transmittance_at)
from .protocol import (AttenuationSchedule, EstimatorReport, PulseRecord, RatioMoments,
                       RecordBatch, SystemParams, estimate_covariance_transmittance,
                       estimate_two_point, run_honest_session)
from .scenario import Scenario, load_scenario, parse_scenario

__version__ = "0.1.0"

__all__ = [
    "AttackPlan", "AttenuationSchedule", "BeamSplitterCurve", "DetectionVerdict",
    "DetectorConfig", "EstimatorReport", "ForeignPulse", "HomodyneSample",
    "NoisePolynomial", "PulsePath", "PulseRecord", "RatioMoments", "RecordBatch", "Scenario",
    "StrategyA", "StrategyB", "SystemParams", "WavelengthPlan",
    "analytic_variance", "builtin_curve", "detect", "estimate_covariance_transmittance",
    "estimate_two_point", "fit_noise_polynomial", "load_curve", "load_scenario",
    "monitor_lo_intensity", "parse_scenario", "run_attacked_session",
    "run_honest_session", "schedule_key_rate_overhead", "solve_attack_parameters",
    "transmittance_at",
]
