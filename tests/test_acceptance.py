"""Acceptance suite: one test per release criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines; any assertion failure marks the corresponding criterion red.
"""

import filecmp
import math
import time

import numpy as np
import pytest

from cvqkd.analysis import (analytic_variance, detect, fit_noise_polynomial,
                            part1_only_excess_estimate, part1_zero_crossing,
                            schedule_key_rate_overhead, variance_estimator_std)
from cvqkd.attack import (part2_variance, predicted_two_point, run_attacked_session,
                          shot_coefficients, solve_attack_parameters)
from cvqkd.cli import main
from cvqkd.physics import builtin_curve, transmittance_at
from cvqkd.protocol import (SystemParams, THREE_RATIO_SCHEDULE, run_honest_session,
                            estimate_two_point, two_point_from_variances,
                            variances_by_ratio)

CURVE = builtin_curve("50:50")
P_A = SystemParams()                                        # eta_ch = 0.9
P_B = SystemParams(channel_transmittance=0.5)               # eta_ch = 0.5
MASTER_SEED = 42

TABLE_50_50 = [0.5327, 0.5253, 0.5144, 0.5052, 0.5011, 0.4965, 0.4931, 0.4862,
               0.4902, 0.4885, 0.4908, 0.4873, 0.4954, 0.4960, 0.5012, 0.5069,
               0.5155, 0.5265]
TABLE_10_90 = [0.9050, 0.9066, 0.9020, 0.8978, 0.9014, 0.8991, 0.8985, 0.8938,
               0.8940, 0.8985, 0.8989, 0.8985, 0.9012, 0.8995, 0.8956, 0.9026,
               0.9022, 0.9060]
WAVELENGTHS = [1270 + 20 * i for i in range(18)]


def test_criterion_01_table_fidelity():
    curves = {"50:50": TABLE_50_50, "10:90": TABLE_10_90}
    loaded = {label: builtin_curve(label) for label in curves}
    start = time.perf_counter()
    checked = 0
    for label, table in curves.items():
        for wl, expected in zip(WAVELENGTHS, table):
            assert transmittance_at(loaded[label], wl) == expected
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 36
    assert elapsed < 1e-3
    print(f"\n[criterion 1] PASS: 36/36 tabulated transmittances exact "
          f"in {elapsed * 1e6:.0f} us")


def test_criterion_02_shot_noise_coefficients():
    c_lo, c_s = shot_coefficients(CURVE)
    assert c_lo == pytest.approx(35.81, abs=0.05)
    assert c_s == pytest.approx(35.47, abs=0.05)
    print(f"\n[criterion 2] PASS: recomputed coefficients "
          f"({c_lo:.4f}, {c_s:.4f}) within 0.05 of (35.81, 35.47)")


def test_criterion_03_bare_resend_excess_noise_curve():
    start = time.perf_counter()
    for eta_ch in np.linspace(0.8, 0.95, 20):
        est = part1_only_excess_estimate(10.0, 0.5, float(eta_ch), 0.1)
        assert est == pytest.approx(2.1 - 1.8 / float(eta_ch), rel=1e-9)
    crossing = part1_zero_crossing(10.0, 0.5, 0.1)
    assert crossing == pytest.approx(0.857, abs=1e-3)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\n[criterion 3] PASS: 20 grid points at 1e-9, zero crossing "
          f"{crossing:.6f} (target 0.857 +- 0.001), {elapsed * 1e3:.1f} ms")


def test_criterion_04_strategy_a_solver():
    start = time.perf_counter()
    plan = solve_attack_parameters("A", P_A, CURVE)
    elapsed = time.perf_counter() - start
    n_amp = plan.strategy.amplification
    assert 20.0 <= n_amp <= 22.0
    targets = (5e5, 5.4e5, 4.8e5, 4.4e5)
    for pulse, target in zip(plan.wavelength.pulses, targets):
        assert abs(pulse.intensity / target - 1.0) < 0.05
    n0_est, xi_est = predicted_two_point(P_A, plan)
    assert abs(n0_est / P_A.shot_noise_unit - 1.0) < 1e-9
    assert abs(xi_est) < 1e-9
    assert elapsed < 1.0
    print(f"\n[criterion 4] PASS: N = {n_amp:.3f} in [20, 22], intensities within "
          f"5% of the worked set, residuals < 1e-9, {elapsed * 1e3:.1f} ms")


def test_criterion_05_strategy_b_solver():
    start = time.perf_counter()
    plan = solve_attack_parameters("B", P_B, CURVE)
    elapsed = time.perf_counter() - start
    gamma = plan.strategy.slope_factor
    assert gamma == pytest.approx(0.47, abs=0.02)
    targets = (3.72e5, 4.04e5, 3.56e5, 3.31e5)
    for pulse, target in zip(plan.wavelength.pulses, targets):
        assert abs(pulse.intensity / target - 1.0) < 0.05
    n0_est, xi_est = predicted_two_point(P_B, plan)
    assert abs(n0_est / P_B.shot_noise_unit - 1.0) < 1e-9
    assert abs(xi_est) < 1e-9
    assert elapsed < 1.0
    print(f"\n[criterion 5] PASS: gamma = {gamma:.4f} = 0.47 +- 0.02, intensities "
          f"within 5%, {elapsed * 1e3:.1f} ms")


def test_criterion_06_end_to_end_deception():
    lines = []
    for kind, params in (("A", P_A), ("B", P_B)):
        plan = solve_attack_parameters(kind, params, CURVE)
        start = time.perf_counter()
        batch = run_attacked_session(params, plan, 1_000_000, MASTER_SEED)
        report = estimate_two_point(batch, params)
        elapsed = time.perf_counter() - start
        n0 = params.shot_noise_unit
        assert abs(report.shot_noise_est / n0 - 1.0) <= 0.02
        assert report.excess_noise_est <= 0.02
        # ground truth: heterodyne penalty plus injected-pulse leakage,
        # input-referred at full transmission, exceeds the 2*N0 floor
        ee = params.detector.efficiency * params.channel_transmittance
        true_added = (np.var(batch.eve_x - batch.alice_x)
                      + part2_variance(plan.wavelength, 1.0) / ee) / n0
        assert true_added > 2.0
        assert elapsed < 60.0
        lines.append(f"{kind}: N0_est/N0 = {report.shot_noise_est / n0:.4f}, "
                     f"xi_est = {report.excess_noise_est:+.4f}, true added noise "
                     f"= {true_added:.3f} N0, {elapsed:.1f} s")
    print("\n[criterion 6] PASS: " + " | ".join(lines))


def test_criterion_07_countermeasure_separation():
    params = SystemParams(schedule=THREE_RATIO_SCHEDULE)
    assert schedule_key_rate_overhead(THREE_RATIO_SCHEDULE) == pytest.approx(0.10, abs=1e-15)
    plan = solve_attack_parameters("A", params, CURVE)
    honest_worst = 0.0
    attacked_worst = math.inf
    for seed in range(20):
        honest = fit_noise_polynomial(
            run_honest_session(params, 20_000_000, seed, records=False))
        attacked = fit_noise_polynomial(
            run_attacked_session(params, plan, 2_000_000, seed, records=False))
        assert honest.ratio_a_over_c < 0.05
        assert attacked.ratio_a_over_c > 0.5
        assert not detect(honest, 0.05).attacked
        assert detect(attacked, 0.05).attacked
        honest_worst = max(honest_worst, honest.ratio_a_over_c)
        attacked_worst = min(attacked_worst, attacked.ratio_a_over_c)
    print(f"\n[criterion 7] PASS: 20 seeds, zero classification errors; honest "
          f"a/c <= {honest_worst:.4f} < 0.05, attacked a/c >= {attacked_worst:.4f} "
          f"> 0.5, overhead = 0.10 exactly")


def test_criterion_08_mc_analytic_agreement():
    params_b = SystemParams(channel_transmittance=0.5, schedule=THREE_RATIO_SCHEDULE)
    params_h = SystemParams(schedule=THREE_RATIO_SCHEDULE)
    cases = [
        ("honest", params_h, None),
        ("A", params_h, solve_attack_parameters("A", params_h, CURVE)),
        ("B", params_b, solve_attack_parameters("B", params_b, CURVE)),
    ]
    worst = 0.0
    for name, params, plan in cases:
        if plan is None:
            batch = run_honest_session(params, 1_000_000, MASTER_SEED)
        else:
            batch = run_attacked_session(params, plan, 1_000_000, MASTER_SEED)
        for r, (var, n) in variances_by_ratio(batch).items():
            sigma = variance_estimator_std(params, plan, r, n)
            z = abs(var - analytic_variance(params, plan, r)) / sigma
            worst = max(worst, z)
            assert z < 3.0, f"{name} session at ratio {r}: |z| = {z:.2f}"
    print(f"\n[criterion 8] PASS: 9 (session, ratio) pairs within 3 sigma "
          f"(worst |z| = {worst:.2f})")


def test_criterion_09_estimator_round_trip():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        eta = rng.uniform(0.2, 1.0)
        eta_ch = rng.uniform(0.2, 1.0)
        v_a = rng.uniform(1.0, 10.0)
        xi = rng.uniform(0.01, 1.0)
        i_lo = 10 ** rng.uniform(6, 9)
        v_el = rng.uniform(0.0, 0.1) * eta * i_lo
        r1 = rng.uniform(1e-4, 0.3)
        r2 = rng.uniform(0.6, 1.0)
        n0 = eta * i_lo

        def variance(r):
            return r * eta * eta_ch * (v_a + xi) * n0 + n0 + v_el

        n0_est, xi_est = two_point_from_variances(
            variance(r1), variance(r2), r1, r2, eta, eta_ch, v_el, v_a)
        worst = max(worst, abs(n0_est / n0 - 1.0), abs(xi_est / xi - 1.0))
        assert abs(n0_est / n0 - 1.0) < 1e-12
        assert abs(xi_est / xi - 1.0) < 1e-12
    print(f"\n[criterion 9] PASS: 100 random parameter draws invert exactly "
          f"(worst relative error {worst:.2e})")


def test_criterion_10_deterministic_artifacts(tmp_path):
    scenario = tmp_path / "det.scenario"
    scenario.write_text("""\
[system]
channel_transmittance = 0.9
[schedule]
1.0 = 0.90
0.5 = 0.05
0.001 = 0.05
[attack]
strategy = A
mode = solve
[run]
slots = 100000
master_seed = 42
[outputs]
records = records.csv
report = report.txt
polynomial = polynomial.txt
verdict = verdict.txt
plan = plan.txt
""")
    names = ("records.csv", "report.txt", "polynomial.txt", "verdict.txt", "plan.txt")
    for out, threads in (("t1", "1"), ("t8", "8"), ("t1_again", "1")):
        assert main(["run", "--scenario", str(scenario), "--out", str(tmp_path / out),
                     "--threads", threads]) == 0
    for name in names:
        assert filecmp.cmp(tmp_path / "t1" / name, tmp_path / "t8" / name,
                           shallow=False), name
        assert filecmp.cmp(tmp_path / "t1" / name, tmp_path / "t1_again" / name,
                           shallow=False), name
    print("\n[criterion 10] PASS: 5 artifacts byte-identical across --threads 1/8 "
          "and across reruns")
