import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from cvqkd.analysis import (analytic_noise_polynomial, analytic_variance, detect,
                            variance_estimator_std)
from cvqkd.attack import (PULSES, AttackPlan, StrategyA, StrategyB, WavelengthPlan, noise_table,
                          part2_variance, predicted_two_point, realistic_shot_noise,
                          run_attacked_session, shot_coefficients, solve_attack_parameters)
from cvqkd.errors import EstimationError, InfeasibleAttackError
from cvqkd.physics import BeamSplitterCurve, DetectorConfig, builtin_curve
from cvqkd.protocol import (THREE_RATIO_SCHEDULE, AttenuationSchedule, SystemParams,
                            estimate_covariance_transmittance, estimate_two_point,
                            honest_noise_table, sample_session, variances_by_ratio)
from cvqkd.scenario import load_scenario

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
        StrategyB(0.0)
    with pytest.raises(ValueError):
        StrategyB(1.2)
    for build, field in ((StrategyA, "amplification"), (StrategyB, "slope_factor")):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=field):
                build(value)


def test_shot_coefficients_recomputed_from_curve():
    c_lo, c_s = shot_coefficients(CURVE)
    assert c_lo == pytest.approx(35.81, abs=0.05)
    assert c_s == pytest.approx(35.47, abs=0.05)


def test_wavelength_plan_design_geometry():
    d = 6000.0
    plan = WavelengthPlan.design(CURVE, P_A.detector, d)
    assert plan.means == pytest.approx((d, -d, -d, d), rel=1e-12)
    # inversion: intensity = D / (eta * |1 - 2T|)
    assert plan.pulses[0].intensity == pytest.approx(d / (0.5 * (1 - 2 * 0.4862)), rel=1e-12)
    assert plan.pulses[3].intensity == pytest.approx(d / (0.5 * (2 * 0.5155 - 1)), rel=1e-12)
    assert plan.mean_lo_intensity == pytest.approx(
        0.5 * (plan.pulses[1].intensity + plan.pulses[3].intensity))


def test_wavelength_plan_rejects_wrong_side_wavelengths():
    # 1310 has T > 1/2: cannot produce a positive signal-path displacement
    with pytest.raises(InfeasibleAttackError, match="wrong side"):
        WavelengthPlan.design(CURVE, P_A.detector, 1000.0,
                              (1310.0, 1490.0, 1410.0, 1590.0))


@pytest.mark.parametrize("kind", ["A", "B"])
def test_solved_plans_realize_one_common_displacement(kind):
    # intensity = sign * D / gain, so every solved pulse lands on +-D; only a plan
    # file is checked for it, where serialize.load_plan reads it
    signs = np.array([sign for _, _, sign in PULSES])
    solved = 0
    for eta_ch in np.linspace(0.05, 1.0, 20):
        for schedule in (P_A.schedule, THREE_RATIO_SCHEDULE):
            params = SystemParams(channel_transmittance=float(eta_ch), schedule=schedule)
            try:
                wl = solve_attack_parameters(kind, params, CURVE).wavelength
            except InfeasibleAttackError:
                continue
            assert np.array(wl.means) == pytest.approx(signs * wl.displacement, rel=1e-12)
            solved += 1
    assert solved == 36  # eta_ch 0.05 .. 0.9 on both schedules


def test_wavelength_plan_takes_its_means_from_the_curve_it_is_given():
    # Bob's curve may differ from the one Eve designed on: the plan carries his response
    plan = WavelengthPlan.design(CURVE, P_A.detector, 5000.0)
    row = np.flatnonzero(CURVE.wavelengths_nm == plan.pulses[1].wavelength_nm)
    edited = CURVE.transmittances.copy()
    edited[row] += 1e-3
    bob = WavelengthPlan.from_pulses(BeamSplitterCurve("edited", CURVE.wavelengths_nm, edited),
                                     P_A.detector, plan.pulses, plan.displacement)
    assert row.size == 1 and bob.pulses == plan.pulses
    assert bob.means[1] == pytest.approx(-5000.0 + 0.5 * 2e-3 * plan.pulses[1].intensity,
                                         rel=1e-12)
    assert bob.means[1] != pytest.approx(-5000.0, rel=1e-6)
    assert bob.means[:1] + bob.means[2:] == plan.means[:1] + plan.means[2:]  # the other three


def test_heterodyne_intercept_penalty_and_determinism():
    # splitting the signal for simultaneous X and P readout costs Eve one
    # vacuum unit on top of the coherent-state unit: 2*N0 on her x, either strategy
    for params, strategy in ((P_A, StrategyA(10.0)), (P_B, StrategyB(0.47))):
        table = noise_table(params, AttackPlan(strategy, None))
        assert table.sig_intercept ** 2 == pytest.approx(2 * 5e7, rel=1e-12)
    plan = AttackPlan(StrategyA(10.0), None)
    a = run_attacked_session(P_A, plan, 1000, 7)
    b = run_attacked_session(P_A, plan, 1000, 7)
    assert np.array_equal(a.eve_x, b.eve_x)


def test_resend_strategy_a_scalings():
    # the resent amplitude grows by sqrt(N) while the LO drops to I_LO / N: the
    # receiver's gain on x stays sqrt(r * eta * eta_ch), the monitor reads I_LO / N
    for n_amp, lo in ((10.0, 1e7), (1.0, 1e8)):  # N = 1 is plain intercept-resend
        table = noise_table(P_A, AttackPlan(StrategyA(n_amp), None))
        assert table.gain ** 2 == pytest.approx(table.ratios * 0.5 * 0.9, rel=1e-12)
        assert table.lo_level == pytest.approx([lo], rel=1e-12)
    plan = solve_attack_parameters("A", P_A, CURVE)
    assert np.mean(noise_table(P_A, plan).lo_level) == pytest.approx(
        1e8 / plan.strategy.amplification, rel=1e-12)


def test_strategy_b_realistic_shot_noise_floor():
    # with no modulation and no injected pulses, the strong-attenuation
    # variance collapses to the slope-scaled shot noise gamma * N0
    params = SystemParams(modulation_variance=0.0, excess_noise=0.0,
                          channel_transmittance=0.5,
                          schedule=AttenuationSchedule(((0.001, 1.0),)))
    plan = AttackPlan(StrategyB(0.47), None)
    batch = run_attacked_session(params, plan, 200_000, 29)
    var, n = variances_by_ratio(batch)[0.001]
    assert var == pytest.approx(0.47 * 5e7, rel=0.01)


def test_resend_strategy_b_scalings():
    # the fake channel eta_ch / gamma keeps the gain on x honest at any channel
    # while the receiver's shot noise becomes gamma * N0 (no excess noise here)
    for eta_ch in (0.9, 0.5):
        params = SystemParams(excess_noise=0.0, channel_transmittance=eta_ch,
                              schedule=AttenuationSchedule(((0.0, 0.5), (1.0, 0.5))))
        for gamma in (1.0, 0.5):
            table = noise_table(params, AttackPlan(StrategyB(gamma), None))
            assert table.gain ** 2 == pytest.approx(table.ratios * 0.5 * eta_ch, rel=1e-12)
            assert table.var[:, 0] == pytest.approx([gamma * 5e7] * 2, rel=1e-12)


def _table_with_pulses(d):
    wl = WavelengthPlan.design(CURVE, P_A.detector, d)
    params = SystemParams(schedule=THREE_RATIO_SCHEDULE)
    return wl, noise_table(params, AttackPlan(StrategyA(20.0), wl))


def test_inject_part2_cancels_exactly_at_full_transmission():
    d = 6886.0
    _, table = _table_with_pulses(d)
    assert np.abs(table.offset[table.ratios == 1.0]).max() <= 1e-9 * d


def test_inject_part2_strong_attenuation_variance():
    d = 6886.0
    wl, table = _table_with_pulses(d)
    assert part2_variance(wl, 0.001) == pytest.approx(4.76e7, rel=2e-3)
    # the two pulse sets push the current by -+(1 - r) * D, zero on average
    offsets = table.offset[table.ratios == 0.001][0]
    assert offsets == pytest.approx([-0.999 * d, 0.999 * d], rel=1e-9)
    assert abs(offsets.mean()) <= 1e-9 * d


def test_noise_table_carries_foreign_pulse_shot_variance():
    # each injected pulse adds its shot variance eta * I: the LO-path pulse in
    # full, the signal-path pulse scaled by r^2 through the attenuator
    wl, table = _table_with_pulses(6886.0)
    bare = noise_table(SystemParams(schedule=THREE_RATIO_SCHEDULE),
                       AttackPlan(StrategyA(20.0), None))
    r = table.ratios[:, None]
    added = 0.5 * (np.array([wl.pulses[1].intensity, wl.pulses[3].intensity])
                   + r * r * np.array([wl.pulses[0].intensity, wl.pulses[2].intensity]))
    assert table.var - bare.var == pytest.approx(added, rel=1e-12)


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


@pytest.mark.parametrize("name", ["attack_a", "attack_b"])
@pytest.mark.parametrize("field, grid", [
    ("channel_transmittance", np.linspace(0.05, 1.0, 60)),
    ("excess_noise", np.linspace(0.0, 0.5, 60)),
], ids=["eta_ch", "xi"])
def test_solved_polynomial_does_not_depend_on_the_strategy(name, field, grid):
    # both strategies null the same two-point estimates with the same D and
    # realistic shot noise, so a solved sweep row needs no strategy
    scen = load_scenario(Path(__file__).resolve().parent.parent / "scenarios"
                         / f"{name}.scenario")
    curve = scen.load_curve()
    for value in grid:
        params = dataclasses.replace(scen.params, **{field: float(value)})
        polys = []
        for kind in ("A", "B"):
            try:
                plan = solve_attack_parameters(kind, params, curve, scen.wavelengths)
            except InfeasibleAttackError:
                polys.append(None)
            else:
                polys.append(analytic_noise_polynomial(params, plan))
        poly_a, poly_b = polys
        if poly_a is None or poly_b is None:
            assert poly_a is poly_b, (field, value)
            continue
        for x, y in ((poly_a.a, poly_b.a), (poly_a.b, poly_b.b), (poly_a.c, poly_b.c)):
            assert math.isclose(x, y, rel_tol=1e-13), (field, value)
        assert detect(poly_a).attacked == detect(poly_b).attacked, (field, value)


def _reference_displacement(params, c_s, r1, r2):
    """Bisect the excess-noise numerator (2 + xi) N0 + (r1 + r2 - 2) D^2/(eta eta_ch)
    + c_s (r1 + r2) D down to adjacent doubles, growing the bracket from
    sqrt(3 N0) until the numerator is negative at its top."""
    ee = params.detector.efficiency * params.channel_transmittance

    def numerator(d):
        return ((2.0 + params.excess_noise) * params.shot_noise_unit
                + (r1 + r2 - 2.0) * d * d / ee + c_s * (r1 + r2) * d)

    lo, hi = 0.0, math.sqrt(3.0 * params.shot_noise_unit)
    while numerator(hi) >= 0.0:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if numerator(mid) > 0.0:
            lo = mid
        else:
            hi = mid


@pytest.mark.parametrize("kind", ["A", "B"])
@pytest.mark.parametrize("r1, r2", [(0.001, 1.0), (0.2, 0.6), (0.9, 1.0)])
def test_solver_closed_form_matches_bisection(kind, r1, r2):
    c_lo, c_s = shot_coefficients(CURVE)
    for eta_ch in (0.1, 0.3, 0.5, 0.7, 0.9, 0.95):
        for xi in (0.0, 0.1, 0.5):
            # the solver reads the schedule's smallest and largest ratio
            params = SystemParams(channel_transmittance=eta_ch, excess_noise=xi,
                                  schedule=AttenuationSchedule(((r2, 0.5), (r1, 0.5))))
            n0 = params.shot_noise_unit
            d_ref = _reference_displacement(params, c_s, r1, r2)
            shot_ref = n0 - (1.0 - r1 * r2) * d_ref ** 2 - (c_lo - c_s * r1 * r2) * d_ref
            try:
                plan = solve_attack_parameters(kind, params, CURVE)
            except InfeasibleAttackError as exc:
                assert "feasibility boundary" in str(exc)
                assert shot_ref <= 0.0, (eta_ch, xi)
                continue
            assert shot_ref > 0.0
            assert plan.displacement == pytest.approx(d_ref, rel=1e-12, abs=0.0)
            n0_est, xi_est = predicted_two_point(params, plan)
            assert abs(n0_est / n0 - 1.0) < 1e-9
            assert abs(xi_est) < 1e-9


def test_solver_refuses_a_schedule_with_one_ratio():
    # the schedule keeps its ratios in [0, 1] and distinct; one ratio is no two-point
    # pair, a configuration error rather than an infeasible attack
    params = SystemParams(schedule=AttenuationSchedule(((1.0, 1.0),)))
    for solve in (lambda: solve_attack_parameters("A", params, CURVE),
                  lambda: predicted_two_point(params, AttackPlan(StrategyA(10.0), None))):
        with pytest.raises(EstimationError, match="need two ratios, got only 1.0"):
            solve()


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


def test_attack_variance_reductions():
    # D = 0, N = 1 is plain intercept-resend: honest model with xi -> 2 + xi
    plan = AttackPlan(StrategyA(1.0), None)
    boosted = SystemParams(excess_noise=P_A.excess_noise + 2.0)
    for r in (0.001, 0.3, 1.0):
        assert analytic_variance(P_A, plan, r) == pytest.approx(
            analytic_variance(boosted, None, r), rel=1e-12)
    # strategy B with gamma = 1, whose fake channel is the honest one, reduces the same way
    plan_b = AttackPlan(StrategyB(1.0), None)
    for r in (0.001, 1.0):
        assert analytic_variance(P_A, plan_b, r) == pytest.approx(
            analytic_variance(boosted, None, r), rel=1e-12)


def test_predicted_two_point_plain_intercept_resend():
    plan = AttackPlan(StrategyA(1.0), None)
    n0_est, xi_est = predicted_two_point(P_A, plan)
    assert n0_est == pytest.approx(5e7, rel=1e-12)
    assert xi_est == pytest.approx(2.1, rel=1e-12)


def test_attacked_session_variances_match_analytic():
    plan = solve_attack_parameters("A", P_A, CURVE)
    batch = run_attacked_session(P_A, plan, 400_000, 21)
    for r, (var, n) in variances_by_ratio(batch).items():
        expected = analytic_variance(P_A, plan, r)
        delta2 = (1 - r) ** 2 * plan.displacement ** 2
        s2 = expected - delta2
        sigma = math.sqrt((2 * s2 * s2 + 4 * s2 * delta2) / n)
        assert abs(var - expected) < 4 * sigma


def _noisy_attack(kind, injected, v_el=5e6):
    """Strategy A or B, with or without a wavelength plan, electronic noise on, three ratios."""
    params = SystemParams(channel_transmittance=0.9 if kind == "A" else 0.5,
                          detector=DetectorConfig(electronic_noise=v_el),
                          schedule=THREE_RATIO_SCHEDULE)
    if injected:
        return params, solve_attack_parameters(kind, params, CURVE)
    strategy = StrategyA(20.0) if kind == "A" else StrategyB(0.47)
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
        expected = analytic_variance(params, plan, r)
        delta2 = (1 - r) ** 2 * plan.displacement ** 2
        s2 = expected - delta2
        sigma = math.sqrt((2 * s2 * s2 + 4 * s2 * delta2) / n)
        assert abs(var - expected) < 5 * sigma


@_NOISY_CASES
def test_noise_table_sums_to_the_analytic_variance(kind, injected):
    # exact: gain^2 * Var(x_e) + Var(offset) + E[var] over the pulse sets, so
    # every term of the summed noise is checked, also those too small to see
    # statistically
    params, plan = _noisy_attack(kind, injected)
    table = noise_table(params, plan)
    var_xe = table.sig_x ** 2 + table.sig_intercept ** 2
    for k, r in enumerate(table.ratios):
        population = (table.gain[k] ** 2 * var_xe + np.var(table.offset[k])
                      + np.mean(table.var[k]))
        assert population == pytest.approx(_reference_variance(params, plan, r), rel=1e-12)
    # compensated, the monitor reads the part-1 LO on average
    part1_lo = params.lo_intensity / (plan.strategy.amplification if kind == "A" else 1.0)
    assert np.mean(table.lo_level) == pytest.approx(part1_lo, rel=1e-12)
    # bit for bit, the table is Bob's honest receiver at the realistic shot
    # noise, plus the intercept's 2*N0 and the pulses' shot variances
    var = honest_noise_table(params, realistic_shot_noise(params, plan)).var
    if injected:
        shot, r = np.array(plan.wavelength.shot_variances), table.ratios[:, None]
        var = var + shot[1::2] + r * r * shot[0::2]
    assert np.array_equal(table.var, var)
    assert np.array_equal(table.gain, honest_noise_table(params).gain)
    assert table.sig_intercept == math.sqrt(2.0 * params.shot_noise_unit)


def _reference_variance(params, plan, ratio):
    """Population variance of Bob's outcome at one ratio, written out per strategy."""
    n0 = params.shot_noise_unit
    eta = params.detector.efficiency
    v_el = params.detector.electronic_noise
    v_a, xi = params.modulation_variance, params.excess_noise
    if plan is None:
        return ratio * eta * params.channel_transmittance * (v_a + xi) * n0 + n0 + v_el
    if isinstance(plan.strategy, StrategyA):
        part1 = (ratio * eta * params.channel_transmittance * (v_a + 2.0 + xi) * n0
                 + n0 / plan.strategy.amplification + v_el)
    else:  # Eve's fake channel is eta_ch / gamma
        gamma = plan.strategy.slope_factor
        fake = params.channel_transmittance / gamma
        part1 = gamma * (ratio * eta * fake * (v_a + 2.0 + xi) + 1.0) * n0 + v_el
    if plan.wavelength is None:
        return part1
    d, wl = plan.displacement, plan.wavelength
    return (part1 + (1.0 - ratio) ** 2 * d * d
            + (wl.shot_coeff_lo + wl.shot_coeff_signal * ratio * ratio) * d)


def _reference_polynomial(params, plan):
    """(a, b, c): an attack adds a = D^2 + c_signal*D, takes 2*D^2 off the slope
    and D^2 + c_lo*D on top of the realistic shot noise."""
    n0 = params.shot_noise_unit
    ee = params.detector.efficiency * params.channel_transmittance
    v_el = params.detector.electronic_noise
    if plan is None:
        return 0.0, ee * (params.modulation_variance + params.excess_noise) * n0, n0 + v_el
    d = plan.displacement
    c_lo = c_s = 0.0
    if plan.wavelength is not None:
        c_lo, c_s = plan.wavelength.shot_coeff_lo, plan.wavelength.shot_coeff_signal
    b = ee * (params.modulation_variance + 2.0 + params.excess_noise) * n0 - 2.0 * d * d
    return d * d + c_s * d, b, realistic_shot_noise(params, plan) + v_el + d * d + c_lo * d


def _reference_estimator_std(params, plan, ratio, count):
    """The outcome as a +-(1-r)*D coin flip plus a Gaussian of variance s^2:
    Var(V_hat) = (2*s^4 + 4*s^2*delta^2)/n."""
    v = _reference_variance(params, plan, ratio)
    delta2 = 0.0 if plan is None else (1.0 - ratio) ** 2 * plan.displacement ** 2
    s2 = v - delta2
    return math.sqrt((2.0 * s2 * s2 + 4.0 * s2 * delta2) / count)


@pytest.mark.parametrize("v_el", [0.0, 5e6])
@pytest.mark.parametrize("kind, injected", [
    ("honest", False), ("A", True), ("A", False), ("B", True), ("B", False)],
    ids=["honest", "A-plan", "A-no-plan", "B-plan", "B-no-plan"])
def test_table_derivations_match_closed_forms(kind, injected, v_el):
    # the analytic variance, polynomial and estimator sd are read off the noise
    # table; the closed forms above state the same model independently
    if kind == "honest":
        params = SystemParams(detector=DetectorConfig(electronic_noise=v_el),
                              schedule=THREE_RATIO_SCHEDULE)
        plan = None
    else:
        params, plan = _noisy_attack(kind, injected, v_el)
    for r in (0.0, 0.001, 0.5, 1.0):
        assert analytic_variance(params, plan, r) == pytest.approx(
            _reference_variance(params, plan, r), rel=1e-12)
        assert variance_estimator_std(params, plan, r, 10_000) == pytest.approx(
            _reference_estimator_std(params, plan, r, 10_000), rel=1e-5)
    poly = analytic_noise_polynomial(params, plan)
    a, b, c = _reference_polynomial(params, plan)
    assert poly.c == pytest.approx(c, rel=1e-12)
    assert poly.b == pytest.approx(b, rel=1e-12)
    assert poly.a == pytest.approx(a, rel=1e-12, abs=1e-12 * c)  # a = 0 without pulses


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


def test_one_pulse_set_label_drives_noise_and_offset():
    # given pulse set j, Bob's outcome at ratio k less the gain on Eve's x must be
    # N(offset[k, j], var[k, j]). Set 1's offset is shifted far past any draw, so
    # the outcome names the set, and its variance is scaled by 4, so a gather of
    # the other set's sd fails; the slots stream through per-cell sums.
    params = SystemParams(schedule=THREE_RATIO_SCHEDULE)
    solved = noise_table(params, solve_attack_parameters("A", params, CURVE))
    shift = 100.0 * (np.sqrt(4.0 * solved.var).max() + np.abs(solved.offset).max())
    table = dataclasses.replace(solved, offset=solved.offset + [0.0, shift],
                                var=solved.var * [1.0, 4.0])
    sums = np.zeros((3, table.var.size))  # per cell 2k + j: n, sum of z, sum of z^2

    def add(batch):
        k = batch.ratio_index.astype(int)
        resid = batch.bob_y - table.gain[k] * batch.eve_x
        j = (resid > shift / 2).astype(int)
        z = (resid - table.offset[k, j]) / np.sqrt(table.var[k, j])
        for row, weights in enumerate((None, z, z * z)):
            sums[row] += np.bincount(2 * k + j, weights, minlength=table.var.size)

    sample_session(table, 2_000_000, 31, records=add)
    n = sums[0]
    assert n.min() > 40_000
    # z = 5 on the mean and on the mean square (normal approximation): each of
    # the 12 checks fails a correct sampler with probability < 6e-7
    assert np.all(np.abs(sums[1] / n) < 5 / np.sqrt(n))
    assert np.all(np.abs(sums[2] / n - 1.0) < 5 * np.sqrt(2 / n))


def test_lo_monitoring_stream_with_and_without_compensation():
    plan = solve_attack_parameters("B", P_B, CURVE)
    i_lo = P_B.lo_intensity
    # the monitor reads the mean over the equally likely pulse sets
    with_comp = np.mean(noise_table(P_B, plan, compensate_lo=True).lo_level)
    without = np.mean(noise_table(P_B, plan, compensate_lo=False).lo_level)
    assert abs(with_comp / i_lo - 1.0) < 1e-4
    shift = plan.wavelength.mean_lo_intensity / i_lo
    assert without / i_lo - 1.0 == pytest.approx(shift, rel=1e-12)
    assert shift > 1e-3  # visible to a 0.1% monitor


def test_realistic_shot_noise_values():
    plan_a = solve_attack_parameters("A", P_A, CURVE)
    assert realistic_shot_noise(P_A, plan_a) == pytest.approx(
        5e7 / plan_a.strategy.amplification)
    plan_b = solve_attack_parameters("B", P_B, CURVE)
    assert realistic_shot_noise(P_B, plan_b) == pytest.approx(
        plan_b.strategy.slope_factor * 5e7)
