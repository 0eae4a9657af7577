import dataclasses
import math

import numpy as np
import pytest

from cvqkd.analysis import (LO_TOLERANCE, DetectionVerdict, NoisePolynomial,
                            analytic_noise_polynomial, analytic_variance, detect,
                            fit_noise_polynomial, fit_variance_summaries,
                            monitor_lo_intensity, part1_only_excess_estimate,
                            part1_zero_crossing, schedule_key_rate_overhead,
                            single_point_excess_estimate, variance_estimator_std)
from cvqkd.attack import (AttackPlan, StrategyA, WavelengthPlan, noise_table,
                          run_attacked_session, solve_attack_parameters)
from cvqkd.errors import ConfigError, EstimationError
from cvqkd.physics import builtin_curve
from cvqkd.protocol import (AttenuationSchedule, NoiseTable, RatioMoments, SystemParams,
                            THREE_RATIO_SCHEDULE, honest_noise_table, run_honest_session,
                            two_point_from_variances)

CURVE = builtin_curve("50:50")
P_CM = SystemParams(schedule=THREE_RATIO_SCHEDULE)


def records_with_exact_variances(targets: dict[float, float]) -> RatioMoments:
    """The moments of two records per ratio whose ddof=1 sample variance hits the target
    exactly."""
    ratios = np.array(sorted(targets))
    bob_y = np.array([sign * math.sqrt(targets[r] / 2.0) for r in ratios for sign in (-1.0, 1.0)])
    return RatioMoments.of_cells(ratios, np.full(ratios.size, 2), np.zeros(bob_y.size), bob_y)


def test_fit_interpolates_three_exact_points():
    targets = {r: 2 * r * r + 3 * r + 4 for r in (0.1, 0.5, 0.9)}
    poly = fit_noise_polynomial(records_with_exact_variances(targets))
    assert poly.a == pytest.approx(2.0, rel=1e-9)
    assert poly.b == pytest.approx(3.0, rel=1e-9)
    assert poly.c == pytest.approx(4.0, rel=1e-9)
    assert poly.residual == pytest.approx(0.0, abs=1e-9)
    assert poly.counts == {0.1: 2, 0.5: 2, 0.9: 2}


def test_fit_needs_three_ratios():
    targets = {0.001: 5e7, 1.0: 1.6e8}
    with pytest.raises(EstimationError, match=">= 3 distinct ratios"):
        fit_noise_polynomial(records_with_exact_variances(targets))


def test_fit_refuses_a_non_positive_shot_noise_floor():
    # in-range ratios whose variances interpolate to c = -3: a/c would read as "not attacked"
    per_ratio = {0.001: (1.0, 100), 0.5: (1e6, 100), 1.0: (4e6, 100)}
    with pytest.raises(EstimationError, match="c must be finite and > 0, got -3.0"):
        fit_variance_summaries(per_ratio)


@pytest.mark.parametrize("near", [(0.5, 0.5 + 1e-9), (1e-300, 0.0)], ids=["mid", "zero"])
def test_fit_refuses_two_ratios_nearer_than_the_schedule_span(near):
    # moments from outside a schedule, such as a records file, are held to its span row too
    per_ratio = {r: (1e8 * (1.0 + r), 1000) for r in (*near, 1.0)}
    lo, hi = sorted(near)
    with pytest.raises(ConfigError, match=rf"the gap between ratios {lo!r} and {hi!r} must be "
                                          r">= 1e-6 between every two ratios"):
        fit_variance_summaries(per_ratio)


def test_fit_weighted_least_squares_over_four_ratios():
    # exact affine data over 4 ratios: weighted fit must return a = 0
    per_ratio = {r: (analytic_variance(P_CM, None, r), 1000 + 100 * i)
                 for i, r in enumerate((0.001, 0.3, 0.7, 1.0))}
    poly = fit_variance_summaries(per_ratio)
    assert abs(poly.a) < 1e-9 * poly.c
    assert poly.b == pytest.approx(0.45 * 5.1 * 5e7, rel=1e-9)
    assert poly.c == pytest.approx(5e7, rel=1e-9)


def test_population_polynomial_honest_and_attacked():
    honest = analytic_noise_polynomial(P_CM, None)
    assert abs(honest.a) <= 1e-12 * honest.c
    assert honest.c == pytest.approx(5e7)
    plan = solve_attack_parameters("A", P_CM, CURVE)
    attacked = analytic_noise_polynomial(P_CM, plan)
    d2 = plan.displacement ** 2
    assert attacked.a >= 0.9 * d2
    assert attacked.ratio_a_over_c == pytest.approx(0.952, abs=0.01)
    # polynomial evaluates to the closed-form variance at every ratio
    for r in (0.0, 0.001, 0.5, 1.0):
        value = attacked.a * r * r + attacked.b * r + attacked.c
        assert value == pytest.approx(analytic_variance(P_CM, plan, r), rel=1e-12)


def test_analytic_variance_honest_example():
    assert analytic_variance(P_CM, None, 1.0) == pytest.approx(1.6475e8, rel=1e-12)


def test_attacked_variances_invert_to_nominal_shot_noise():
    # feeding the attacked population variances through the two-point inversion
    # returns exactly the nominal shot-noise unit: the estimator is blind
    plan = solve_attack_parameters("A", P_CM, CURVE)
    r1, r2 = 0.001, 1.0
    n0_est, _ = two_point_from_variances(
        analytic_variance(P_CM, plan, r1), analytic_variance(P_CM, plan, r2), r1, r2,
        0.5, 0.9, 0.0, 5.0)
    assert n0_est == pytest.approx(5e7, rel=1e-9)


def test_detect_thresholding_and_monotonicity():
    honest = NoisePolynomial(0.5e6, 0.0, 5e7, 0.0)   # a/c = 0.01
    attacked = NoisePolynomial(47.5e6, 0.0, 5e7, 0.0)  # a/c = 0.95
    assert not detect(honest, 0.05).attacked
    assert detect(attacked, 0.05).attacked
    assert not detect(NoisePolynomial(0.0, 1.0, 5e7, 0.0), 1e-9).attacked
    for poly in (honest, attacked):
        flags = [detect(poly, t).attacked for t in (0.01, 0.05, 0.2, 0.5, 1.5)]
        # raising the threshold never flips false -> true
        for earlier, later in zip(flags, flags[1:]):
            assert not (later and not earlier)


def _lo_table(*levels: float) -> NoiseTable:
    """An honest table whose LO monitor reads ``levels[j]`` in pulse set j."""
    return dataclasses.replace(honest_noise_table(SystemParams()), lo_level=np.array(levels))


def test_detect_verdict_composition():
    poly = NoisePolynomial(0.0, 0.0, 5e7, 0.0, {0.001: 50, 1.0: 50})
    lo_bad = monitor_lo_intensity(_lo_table(1.006e8), 1e8)
    verdict = detect(poly, 0.05, lo_anomaly=lo_bad)
    assert verdict.attacked and verdict.lo_intensity_anomaly
    verdict = detect(poly, 0.05, lo_anomaly=monitor_lo_intensity(_lo_table(1e8), 1e8))
    assert not verdict.attacked and verdict.lo_intensity_anomaly is False
    # a verdict without a monitor reading claims none: it is not the one that read a steady LO
    unread = detect(poly, 0.05)
    assert not unread.attacked and unread.lo_intensity_anomaly is None
    assert unread != verdict and unread.polynomial is verdict.polynomial is poly
    # the verdict file: the fit's items, the cut and the verdict, then the LO flag if read
    keys = [key for key, _ in poly.as_items()] + ["threshold", "attacked"]
    assert [key for key, _ in unread.as_items()] == keys
    assert [key for key, _ in verdict.as_items()] == keys + ["lo_intensity_anomaly"]
    assert keys.count("a_over_c") == 1
    with pytest.raises(ValueError):
        detect(poly, 0.0)


def test_monitor_lo_intensity_modes():
    assert LO_TOLERANCE == 1e-3
    assert not monitor_lo_intensity(_lo_table(1e8), 1e8)
    assert not monitor_lo_intensity(_lo_table(1.0005e8), 1e8)
    # 0.5% shift against a 0.1% tolerance
    assert monitor_lo_intensity(_lo_table(1.005e8), 1e8)
    # the mean over the equally likely pulse sets, not one set, is what is read
    assert not monitor_lo_intensity(_lo_table(0.99e8, 1.01e8), 1e8)
    for expected in (0.0, math.nan):
        with pytest.raises(ValueError):
            monitor_lo_intensity(_lo_table(1.0), expected)


def test_lo_monitoring_attacked_sessions():
    params = SystemParams(channel_transmittance=0.5, schedule=THREE_RATIO_SCHEDULE)
    plan = solve_attack_parameters("B", params, CURVE)
    assert not monitor_lo_intensity(noise_table(params, plan, compensate_lo=True), 1e8)
    assert monitor_lo_intensity(noise_table(params, plan, compensate_lo=False), 1e8)
    # honest sessions have no LO monitor
    assert not monitor_lo_intensity(honest_noise_table(params), 1e8)


def test_schedule_overhead_examples():
    assert schedule_key_rate_overhead(THREE_RATIO_SCHEDULE) == pytest.approx(0.10, abs=1e-15)
    assert schedule_key_rate_overhead(AttenuationSchedule(((1.0, 1.0),))) == 0.0
    sched = AttenuationSchedule(((1.0, 0.8), (0.5, 0.1), (0.001, 0.1)))
    assert schedule_key_rate_overhead(sched) == pytest.approx(0.20, abs=1e-15)


def test_part1_only_excess_estimate_curve():
    for eta_ch in np.linspace(0.8, 0.95, 20):
        est = part1_only_excess_estimate(10.0, 0.5, float(eta_ch), 0.1)
        assert est == pytest.approx(2.1 - 1.8 / eta_ch, rel=1e-9)
    crossing = part1_zero_crossing(10.0, 0.5, 0.1)
    assert crossing == pytest.approx(1.8 / 2.1, abs=1e-9)
    assert abs(part1_only_excess_estimate(10.0, 0.5, crossing, 0.1)) <= 1e-12
    # the crossing does not depend on the search range, which only bounds it
    assert part1_zero_crossing(10.0, 0.5, 0.1, 0.8, 0.95) == crossing
    with pytest.raises(ValueError, match="no zero crossing"):
        part1_zero_crossing(10.0, 0.5, 0.1, 0.9, 1.0)


def test_single_point_consistent_with_part1_formula():
    plan = AttackPlan(StrategyA(10.0), None)
    v = analytic_variance(P_CM, plan, 1.0)
    est = single_point_excess_estimate(v, P_CM)
    assert est == pytest.approx(part1_only_excess_estimate(10.0, 0.5, 0.9, 0.1), rel=1e-9)


def test_honest_mc_fit_stays_affine_within_statistics():
    params = SystemParams(schedule=AttenuationSchedule(
        ((1.0, 1 / 3), (0.5, 1 / 3), (0.001, 1 / 3))))
    batch = run_honest_session(params, 1_000_000, 33)
    poly = fit_noise_polynomial(batch)
    # propagate the variance-of-variance through the 3-point interpolation
    denom = {1.0: 0.4995, 0.5: -0.2495, 0.001: 0.498501}
    var_a = sum((variance_estimator_std(params, None, r, poly.counts[r]) / denom[r]) ** 2
                for r in denom)
    assert abs(poly.a) < 4 * math.sqrt(var_a)
    assert poly.c == pytest.approx(5e7, rel=0.01)


def test_variance_estimator_std_honest_limit():
    v = analytic_variance(P_CM, None, 1.0)
    assert variance_estimator_std(P_CM, None, 1.0, 10_000) == pytest.approx(
        v * math.sqrt(2 / 10_000), rel=1e-12)


def test_countermeasure_separates_honest_from_attacked():
    plan = solve_attack_parameters("A", P_CM, CURVE)
    honest = fit_noise_polynomial(run_honest_session(P_CM, 2_000_000, 35))
    attacked = fit_noise_polynomial(run_attacked_session(P_CM, plan, 500_000, 35))
    assert abs(honest.ratio_a_over_c) < 0.2   # loose at this slot count
    assert attacked.ratio_a_over_c > 0.5
    assert detect(attacked, 0.05).attacked
    assert not detect(honest, max(0.2, 0.05)).attacked


def test_two_point_blind_exactly_where_quadratic_fit_fires():
    # same attacked stream: the two-ratio estimator reads (N0, ~0) while the
    # three-ratio quadratic check flags it
    from cvqkd.protocol import estimate_two_point

    plan = solve_attack_parameters("A", P_CM, CURVE)
    batch = run_attacked_session(P_CM, plan, 2_000_000, 37)
    report = estimate_two_point(batch, P_CM)
    assert report.shot_noise_est == pytest.approx(P_CM.shot_noise_unit, rel=0.02)
    assert abs(report.excess_noise_est) < 0.06
    verdict = detect(fit_noise_polynomial(batch), 0.05)
    assert verdict.attacked
