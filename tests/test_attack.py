import math

import numpy as np
import pytest

from cvqkd.attack import (AttackPlan, DEFAULT_WAVELENGTHS, StrategyA, StrategyB,
                          WavelengthPlan, attack_variance, coarse_displacement_guess,
                          heterodyne_intercept, inject_part2, noise_table, part2_variance,
                          predicted_two_point, realistic_shot_noise, resend_strategy_a,
                          resend_strategy_b, run_attacked_session, shot_coefficients,
                          solve_attack_parameters)
from cvqkd.errors import InfeasibleAttackError
from cvqkd.physics import DetectorConfig, builtin_curve
from cvqkd.protocol import (THREE_RATIO_SCHEDULE, AttenuationSchedule, SystemParams,
                            estimate_covariance_transmittance, estimate_two_point,
                            variances_by_ratio)
from cvqkd.rng import chunk_generator

CURVE = builtin_curve("50:50")
P_A = SystemParams()                              # eta_ch = 0.9 regime
P_B = SystemParams(channel_transmittance=0.5)     # eta_ch = 0.5 regime

# worked parameter sets (derived against the published analysis)
PAPER_A_INTENSITIES = (5e5, 5.4e5, 4.8e5, 4.4e5)
PAPER_B_INTENSITIES = (3.72e5, 4.04e5, 3.56e5, 3.31e5)


def test_strategy_dataclass_validation():
    with pytest.raises(ValueError):
        StrategyA(0.5)
    with pytest.raises(ValueError):
        StrategyB(0.0, 1.0)
    with pytest.raises(ValueError):
        StrategyB(1.2, 1.0)
    with pytest.raises(InfeasibleAttackError, match="inconsistent"):
        StrategyB(0.5, 0.8).check_consistency(0.9)
    StrategyB(0.5, 1.8).check_consistency(0.9)  # gamma * fake == eta_ch is fine


def test_shot_coefficients_recomputed_from_curve():
    c_lo, c_s = shot_coefficients(CURVE)
    assert c_lo == pytest.approx(35.81, abs=0.05)
    assert c_s == pytest.approx(35.47, abs=0.05)


def test_wavelength_plan_design_geometry():
    d = 6000.0
    plan = WavelengthPlan.design(CURVE, P_A.detector, d)
    assert plan.means == pytest.approx((d, -d, -d, d), rel=1e-12)
    # inversion: intensity = D / (eta * |1 - 2T|)
    assert plan.signal1.intensity == pytest.approx(d / (0.5 * (1 - 2 * 0.4862)), rel=1e-12)
    assert plan.lo2.intensity == pytest.approx(d / (0.5 * (2 * 0.5155 - 1)), rel=1e-12)
    assert plan.mean_lo_intensity == pytest.approx(
        0.5 * (plan.lo1.intensity + plan.lo2.intensity))


def test_wavelength_plan_rejects_wrong_side_wavelengths():
    # 1310 has T > 1/2: cannot produce a positive signal-path displacement
    with pytest.raises(InfeasibleAttackError, match="wrong side"):
        WavelengthPlan.design(CURVE, P_A.detector, 1000.0,
                              (1310.0, 1490.0, 1410.0, 1590.0))


def test_wavelength_plan_validates_displacement_match():
    plan = WavelengthPlan.design(CURVE, P_A.detector, 5000.0)
    with pytest.raises(ValueError, match="displacement"):
        WavelengthPlan.from_pulses(CURVE, P_A.detector, plan.pulses, 5001.0)


def test_heterodyne_intercept_penalty_and_determinism():
    gen = chunk_generator(0, 7, 0)
    n = 100_000
    xs = np.zeros(n)
    xe = np.array([heterodyne_intercept(gen, 0.0, 0.0, P_A)[0] for _ in range(n)])
    assert np.var(xe - xs) == pytest.approx(2 * 5e7, rel=0.02)
    a = heterodyne_intercept(chunk_generator(1, 7, 0), 1.0, 2.0, P_A)
    b = heterodyne_intercept(chunk_generator(1, 7, 0), 1.0, 2.0, P_A)
    assert a == b


def test_heterodyne_quadrature_noises_uncorrelated():
    gen = chunk_generator(2, 7, 0)
    n = 100_000
    pairs = np.array([heterodyne_intercept(gen, 0.0, 0.0, P_A) for _ in range(n)])
    corr = np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1]
    assert abs(corr) < 0.01


def test_resend_strategy_a_scalings():
    scale, lo_out = resend_strategy_a(StrategyA(10.0), 0.0, 0.0, P_A)
    assert scale == pytest.approx(math.sqrt(10.0))
    assert lo_out == pytest.approx(1e7)
    scale, lo_out = resend_strategy_a(StrategyA(1.0), 0.0, 0.0, P_A)
    assert (scale, lo_out) == (1.0, 1e8)  # N = 1 is plain intercept-resend


def test_strategy_b_realistic_shot_noise_floor():
    # with no modulation and no injected pulses, the strong-attenuation
    # variance collapses to the slope-scaled shot noise gamma * N0
    params = SystemParams(modulation_variance=0.0, excess_noise=0.0,
                          channel_transmittance=0.5,
                          schedule=AttenuationSchedule(((0.001, 1.0),)))
    plan = AttackPlan(StrategyB(0.47, 0.5 / 0.47), None)
    batch = run_attacked_session(params, plan, 200_000, 29)
    var, n = variances_by_ratio(batch)[0.001]
    assert var == pytest.approx(0.47 * 5e7, rel=0.01)


def test_resend_strategy_b_scalings():
    scale, shot = resend_strategy_b(StrategyB(1.0, 0.9), 0.0, 0.0, P_A)
    assert scale == pytest.approx(1.0)
    assert shot == pytest.approx(5e7)
    with pytest.raises(InfeasibleAttackError):
        resend_strategy_b(StrategyB(0.5, 0.9), 0.0, 0.0, P_A)
    scale, shot = resend_strategy_b(StrategyB(0.5, 1.8), 0.0, 0.0, P_A)
    assert scale == pytest.approx(math.sqrt(2.0))
    assert shot == pytest.approx(0.5 * 5e7)


def test_inject_part2_cancels_exactly_at_full_transmission():
    plan = WavelengthPlan.design(CURVE, P_A.detector, 6886.0)
    for chunk in range(20):
        gen = chunk_generator(3, 7, chunk)
        assert inject_part2(gen, plan, 1.0, include_shot_noise=False) == pytest.approx(0.0, abs=1e-9)


def test_inject_part2_strong_attenuation_variance():
    d = 6886.0
    plan = WavelengthPlan.design(CURVE, P_A.detector, d)
    expected = (0.999 ** 2) * d * d + (plan.shot_coeff_lo
                                       + plan.shot_coeff_signal * 0.001 ** 2) * d
    assert expected == pytest.approx(4.76e7, rel=2e-3)
    gen = chunk_generator(4, 7, 0)
    n = 200_000
    draws = np.array([inject_part2(gen, plan, 0.001) for _ in range(n)])
    assert np.var(draws, ddof=1) == pytest.approx(expected, rel=0.01)
    # zero statistical average over the two sets
    sigma_mean = math.sqrt(expected / n)
    assert abs(draws.mean()) < 3 * sigma_mean


def test_part2_variance_closed_form_matches_plan_terms():
    plan = WavelengthPlan.design(CURVE, P_A.detector, 5000.0)
    for r in (0.0, 0.001, 0.5, 1.0):
        expected = ((1 - r) ** 2 * 5000.0 ** 2
                    + (plan.shot_coeff_lo + plan.shot_coeff_signal * r * r) * 5000.0)
        assert part2_variance(plan, r) == pytest.approx(expected, rel=1e-12)
    assert part2_variance(None, 0.5) == 0.0


def test_solver_strategy_a_matches_worked_parameters():
    plan = solve_attack_parameters("A", P_A, CURVE)
    assert isinstance(plan.strategy, StrategyA)
    assert 20.0 <= plan.strategy.amplification <= 22.0
    assert plan.strategy.amplification == pytest.approx(20.8888, abs=2e-3)
    assert plan.displacement == pytest.approx(6885.306, abs=0.01)
    for pulse, target in zip(plan.wavelength.pulses, PAPER_A_INTENSITIES):
        assert abs(pulse.intensity / target - 1.0) < 0.05


def test_solver_strategy_b_matches_worked_parameters():
    plan = solve_attack_parameters("B", P_B, CURVE)
    assert isinstance(plan.strategy, StrategyB)
    assert plan.strategy.slope_factor == pytest.approx(0.47, abs=0.02)
    assert plan.strategy.slope_factor * plan.strategy.fake_channel == pytest.approx(0.5, rel=1e-12)
    for pulse, target in zip(plan.wavelength.pulses, PAPER_B_INTENSITIES):
        assert abs(pulse.intensity / target - 1.0) < 0.05


def test_solver_round_trip_residuals():
    for kind, params in (("A", P_A), ("B", P_B)):
        plan = solve_attack_parameters(kind, params, CURVE)
        n0_est, xi_est = predicted_two_point(params, plan)
        assert abs(n0_est / params.shot_noise_unit - 1.0) < 1e-9
        assert abs(xi_est) < 1e-9
        d = plan.displacement
        assert plan.wavelength.means == pytest.approx((d, -d, -d, d), rel=1e-9)


def test_solver_infeasible_when_channel_too_transparent():
    params = SystemParams(channel_transmittance=1.0, excess_noise=0.0)
    with pytest.raises(InfeasibleAttackError, match="shot noise <= 0"):
        solve_attack_parameters("A", params, CURVE)
    with pytest.raises(InfeasibleAttackError, match="boundary"):
        solve_attack_parameters("B", params, CURVE)


def test_solver_feasible_at_low_transmittance():
    # the exact system admits a solution even deep in the lossy regime
    params = SystemParams(channel_transmittance=0.1)
    plan = solve_attack_parameters("A", params, CURVE)
    assert plan.strategy.amplification == pytest.approx(1.1195, abs=1e-3)
    n0_est, xi_est = predicted_two_point(params, plan)
    assert abs(n0_est / params.shot_noise_unit - 1.0) < 1e-9
    assert abs(xi_est) < 1e-9


def test_solver_accepts_alternative_wavelength_sets():
    # any (signal, lo) pairs with transmittances on opposite sides of 1/2 work;
    # the shot coefficients are recomputed from the curve for the new set
    alt = (1450.0, 1390.0, 1570.0, 1610.0)
    plan = solve_attack_parameters("A", P_A, CURVE, wavelengths=alt)
    c_lo, c_s = shot_coefficients(CURVE, alt)
    assert plan.wavelength.shot_coeff_lo == pytest.approx(c_lo, rel=1e-12)
    assert plan.wavelength.shot_coeff_signal == pytest.approx(c_s, rel=1e-12)
    assert (c_lo, c_s) != shot_coefficients(CURVE)
    n0_est, xi_est = predicted_two_point(P_A, plan)
    assert abs(n0_est / P_A.shot_noise_unit - 1.0) < 1e-9
    assert abs(xi_est) < 1e-9


def test_coarse_guesses_bracket_the_exact_solutions():
    assert coarse_displacement_guess("A", P_A) == pytest.approx(math.sqrt(5e7))
    assert coarse_displacement_guess("B", P_B) == pytest.approx(math.sqrt(5e7 / 3))
    # the exact solutions sit within a factor ~2 of the first-order anchors
    assert 0.5 < solve_attack_parameters("A", P_A, CURVE).displacement \
        / coarse_displacement_guess("A", P_A) < 2.0


def test_attack_variance_reductions():
    # D = 0, N = 1 is plain intercept-resend: honest model with xi -> 2 + xi
    from cvqkd.protocol import honest_variance
    plan = AttackPlan(StrategyA(1.0), None)
    boosted = SystemParams(excess_noise=P_A.excess_noise + 2.0)
    for r in (0.001, 0.3, 1.0):
        assert attack_variance(P_A, plan, r) == pytest.approx(
            honest_variance(boosted, r), rel=1e-12)
    # strategy B with gamma = 1 and honest fake channel reduces the same way
    plan_b = AttackPlan(StrategyB(1.0, 0.9), None)
    for r in (0.001, 1.0):
        assert attack_variance(P_A, plan_b, r) == pytest.approx(
            honest_variance(boosted, r), rel=1e-12)


def test_predicted_two_point_plain_intercept_resend():
    plan = AttackPlan(StrategyA(1.0), None)
    n0_est, xi_est = predicted_two_point(P_A, plan)
    assert n0_est == pytest.approx(5e7, rel=1e-12)
    assert xi_est == pytest.approx(2.1, rel=1e-12)


def test_attacked_session_variances_match_analytic():
    plan = solve_attack_parameters("A", P_A, CURVE)
    batch = run_attacked_session(P_A, plan, 400_000, 21)
    for r, (var, n) in variances_by_ratio(batch).items():
        expected = attack_variance(P_A, plan, r)
        delta2 = (1 - r) ** 2 * plan.displacement ** 2
        s2 = expected - delta2
        sigma = math.sqrt((2 * s2 * s2 + 4 * s2 * delta2) / n)
        assert abs(var - expected) < 4 * sigma


def _noisy_attack(kind, injected):
    """Strategy A or B, with or without a wavelength plan, electronic noise on, three ratios."""
    params = SystemParams(channel_transmittance=0.9 if kind == "A" else 0.5,
                          detector=DetectorConfig(electronic_noise=5e6),
                          schedule=THREE_RATIO_SCHEDULE)
    if injected:
        return params, solve_attack_parameters(kind, params, CURVE)
    strategy = StrategyA(20.0) if kind == "A" else StrategyB(0.47, 0.5 / 0.47)
    return params, AttackPlan(strategy, None)


_NOISY_CASES = pytest.mark.parametrize("kind, injected", [
    ("A", True), ("A", False), ("B", True), ("B", False)],
    ids=["A-plan", "A-no-plan", "B-plan", "B-no-plan"])


@_NOISY_CASES
def test_attacked_variances_match_analytic_with_electronic_noise(kind, injected):
    # the sampler draws one normal with the summed variance of part-1 noise,
    # electronic noise (outside strategy B's slope) and both pulses' shot
    # noise; |z| < 5 on 12 comparisons gives a false-failure rate below 7e-6
    params, plan = _noisy_attack(kind, injected)
    moments = run_attacked_session(params, plan, 400_000, 31, records=False)
    for r, (var, n) in variances_by_ratio(moments).items():
        expected = attack_variance(params, plan, r)
        delta2 = (1 - r) ** 2 * plan.displacement ** 2
        s2 = expected - delta2
        sigma = math.sqrt((2 * s2 * s2 + 4 * s2 * delta2) / n)
        assert abs(var - expected) < 5 * sigma


@_NOISY_CASES
def test_noise_table_sums_to_the_analytic_variance(kind, injected):
    # exact: gain^2 * Var(x_e) + Var(offset) + E[sd^2] over the pulse sets, so
    # every term of the summed noise is checked, also those too small to see
    # statistically
    params, plan = _noisy_attack(kind, injected)
    table = noise_table(params, plan)
    var_xe = table.sig_x ** 2 + table.sig_intercept ** 2
    for k, r in enumerate(table.ratios):
        population = (table.gain[k] ** 2 * var_xe + np.var(table.offset[k])
                      + np.mean(table.sd[k] ** 2))
        assert population == pytest.approx(attack_variance(params, plan, r), rel=1e-12)
    # compensated, the monitor reads the part-1 LO on average
    part1_lo = params.lo_intensity / (plan.strategy.amplification if kind == "A" else 1.0)
    assert np.mean(table.lo_level) == pytest.approx(part1_lo, rel=1e-12)


def test_attacked_session_fools_two_point_estimators():
    for kind, params in (("A", P_A), ("B", P_B)):
        plan = solve_attack_parameters(kind, params, CURVE)
        batch = run_attacked_session(params, plan, 1_000_000, 42)
        report = estimate_two_point(batch, params)
        assert report.shot_noise_est == pytest.approx(params.shot_noise_unit, rel=0.02)
        assert report.excess_noise_est <= 0.02
        # covariance-based transmittance still looks honest
        assert estimate_covariance_transmittance(batch, params) == pytest.approx(
            params.channel_transmittance, rel=0.02)


def test_plain_intercept_resend_is_caught_by_two_point():
    plan = AttackPlan(StrategyA(1.0), None)
    batch = run_attacked_session(P_A, plan, 200_000, 23)
    report = estimate_two_point(batch, P_A)
    assert report.excess_noise_est == pytest.approx(2.1, abs=0.15)


def test_attacked_session_heterodyne_ground_truth():
    plan = solve_attack_parameters("A", P_A, CURVE)
    batch = run_attacked_session(P_A, plan, 300_000, 24)
    penalty = np.var(batch.eve_x - batch.alice_x) / P_A.shot_noise_unit
    assert penalty == pytest.approx(2.0, rel=0.02)


def test_lo_monitoring_stream_with_and_without_compensation():
    plan = solve_attack_parameters("B", P_B, CURVE)
    with_comp = run_attacked_session(P_B, plan, 100_000, 25, compensate_lo=True)
    without = run_attacked_session(P_B, plan, 100_000, 25, compensate_lo=False)
    i_lo = P_B.lo_intensity
    assert abs(with_comp.lo_observed.mean() / i_lo - 1.0) < 1e-4
    shift = plan.wavelength.mean_lo_intensity / i_lo
    assert without.lo_observed.mean() / i_lo - 1.0 == pytest.approx(shift, rel=0.05)
    assert shift > 1e-3  # visible to a 0.1% monitor


def test_realistic_shot_noise_values():
    plan_a = solve_attack_parameters("A", P_A, CURVE)
    assert realistic_shot_noise(P_A, plan_a) == pytest.approx(
        5e7 / plan_a.strategy.amplification)
    plan_b = solve_attack_parameters("B", P_B, CURVE)
    assert realistic_shot_noise(P_B, plan_b) == pytest.approx(
        plan_b.strategy.slope_factor * 5e7)
