import csv

import numpy as np
import pytest

from cvqkd.attack import AttackPlan, StrategyA, solve_attack_parameters
from cvqkd.physics import builtin_curve
from cvqkd.protocol import RecordBatch, SystemParams, run_honest_session
from cvqkd.serialize import (csv_text, load_plan, plan_items, read_records_csv,
                             read_report, write_plan, write_records_csv, write_report)

CURVE = builtin_curve("50:50")


def test_records_csv_round_trip_is_exact(tmp_path):
    batch = run_honest_session(SystemParams(), 500, 1)
    path = tmp_path / "records.csv"
    write_records_csv(path, batch, "abc123", 7)
    first = path.read_text().splitlines()[0]
    assert first == "# format=records-v1 scenario=abc123 seed=7"
    loaded = read_records_csv(path)
    assert np.array_equal(loaded.slot, batch.slot)
    assert np.array_equal(loaded.quad, batch.quad)
    assert np.array_equal(loaded.ratio, batch.ratio)
    assert np.array_equal(loaded.alice_x, batch.alice_x)
    assert np.array_equal(loaded.bob_y, batch.bob_y)


def _reference_records_csv(path, batch, scenario_hash, seed):
    """The records-v1 bytes as csv.writer writes them, one row at a time."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# format=records-v1 scenario={scenario_hash} seed={seed}\n")
        writer = csv.writer(fh)
        writer.writerow(["slot", "quad", "ratio", "alice_x", "bob_y"])
        for i in range(len(batch)):
            writer.writerow([int(batch.slot[i]), ("X", "P")[batch.quad[i]],
                             repr(float(batch.ratio[i])), repr(float(batch.alice_x[i])),
                             repr(float(batch.bob_y[i]))])


def _edge_batch(n):
    rng = np.random.default_rng(5)
    edges = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e-05, 1e16, 123456789.125,
                      -1.5e300, 0.1])
    alice_x = rng.normal(0.0, 3e4, n)
    bob_y = rng.normal(0.0, 1e4, n) * 10.0 ** rng.integers(-8, 9, n)
    k = min(n, edges.size)
    alice_x[:k] = edges[:k]
    bob_y[n - k:] = edges[:k]
    ratio = rng.choice([1.0, 0.5, 0.001, 0.1, -0.0, 0.0], n)
    slot = np.arange(n, dtype=np.int64) * 3 + 2 ** 40
    return RecordBatch(slot, rng.integers(0, 2, n), ratio, alice_x, bob_y)


@pytest.mark.parametrize("n", [1, 2 * 65536 + 7])
def test_records_csv_bytes_match_csv_writer(tmp_path, n):
    batch = _edge_batch(n)
    write_records_csv(tmp_path / "new.csv", batch, "g0", 9)
    _reference_records_csv(tmp_path / "ref.csv", batch, "g0", 9)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("n", [0, 1])
def test_records_csv_round_trip_tiny(tmp_path, n):
    batch = _edge_batch(n)
    path = tmp_path / "tiny.csv"
    write_records_csv(path, batch, "t", 1)
    loaded = read_records_csv(path)
    assert len(loaded) == n
    for name in ("slot", "quad", "ratio", "alice_x", "bob_y"):
        got, want = getattr(loaded, name), getattr(batch, name)
        assert got.dtype == want.dtype and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes(), name


def test_records_csv_header_row(tmp_path):
    batch = run_honest_session(SystemParams(), 10, 2)
    path = tmp_path / "r.csv"
    write_records_csv(path, batch, "h", 0)
    lines = path.read_text().splitlines()
    assert lines[1] == "slot,quad,ratio,alice_x,bob_y"
    assert lines[2].split(",")[1] in ("X", "P")


def test_report_round_trip(tmp_path):
    path = tmp_path / "report.txt"
    write_report(path, [("shot_noise_est", 5.01e7), ("count", 10), ("flag", True)],
                 "beef", 3)
    kv = read_report(path)
    assert float(kv["shot_noise_est"]) == 5.01e7
    assert kv["count"] == "10"
    assert kv["flag"] == "true"


def test_plan_file_round_trip(tmp_path):
    plan = solve_attack_parameters("A", SystemParams(), CURVE)
    path = tmp_path / "plan.txt"
    write_plan(path, plan, "50:50", "cafe", 11)
    loaded = load_plan(path, CURVE, SystemParams().detector)
    assert isinstance(loaded.strategy, StrategyA)
    assert loaded.strategy.amplification == pytest.approx(
        plan.strategy.amplification, rel=1e-12)
    assert loaded.displacement == pytest.approx(plan.displacement, rel=1e-12)
    for a, b in zip(loaded.wavelength.pulses, plan.wavelength.pulses):
        assert a.wavelength_nm == b.wavelength_nm
        assert a.intensity == pytest.approx(b.intensity, rel=1e-12)


def test_plan_file_round_trip_strategy_b(tmp_path):
    params = SystemParams(channel_transmittance=0.5)
    plan = solve_attack_parameters("B", params, CURVE)
    path = tmp_path / "plan_b.txt"
    write_plan(path, plan, "50:50", "cafe", 12)
    loaded = load_plan(path, CURVE, params.detector)
    assert loaded.strategy.slope_factor == pytest.approx(
        plan.strategy.slope_factor, rel=1e-12)
    assert loaded.strategy.fake_channel == pytest.approx(
        plan.strategy.fake_channel, rel=1e-12)


def test_plan_items_expose_all_parameters():
    plan = solve_attack_parameters("A", SystemParams(), CURVE)
    keys = dict(plan_items(plan, "50:50"))
    for key in ("strategy", "amplification", "displacement",
                "signal1_wavelength_nm", "signal1_intensity",
                "lo2_wavelength_nm", "lo2_intensity",
                "shot_coeff_lo", "shot_coeff_signal"):
        assert key in keys


def test_plan_without_pulses_round_trips(tmp_path):
    plan = AttackPlan(StrategyA(10.0), None)
    path = tmp_path / "bare.txt"
    write_plan(path, plan, "50:50", "00", 0)
    loaded = load_plan(path, CURVE, SystemParams().detector)
    assert loaded.wavelength is None
    assert loaded.strategy.amplification == 10.0


def test_csv_text_header_and_rows():
    text = csv_text([[1, 2.5, "x"]], ["a", "b", "c"], "dd", 5)
    lines = text.splitlines()
    assert lines[0] == "# format=sweep-v1 scenario=dd seed=5"
    assert lines[1] == "a,b,c"
    assert lines[2] == "1,2.5,x"
