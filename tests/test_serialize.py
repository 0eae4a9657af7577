import csv
import math
import re

import numpy as np
import pytest

from cvqkd.attack import AttackPlan, StrategyA, solve_attack_parameters
from cvqkd.physics import builtin_curve
from cvqkd.protocol import RatioMoments, RecordBatch, SystemParams, run_honest_session
from cvqkd.rng import CHUNK_SLOTS
from cvqkd.serialize import (_int_chars, _repr_source, _repr_tables, _spell, csv_text,
                             load_plan, plan_items, read_records_csv, read_report, write_plan,
                             write_records_csv, write_report)

CURVE = builtin_curve("50:50")


def test_records_csv_round_trip_is_exact(tmp_path):
    batch = run_honest_session(SystemParams(), 500, 1)
    path = tmp_path / "records.csv"
    write_records_csv(path, batch, "abc123", 7)
    first = path.read_text().splitlines()[0]
    assert first == "# format=records-v1 scenario=abc123 seed=7"
    loaded = read_records_csv(path)
    assert np.array_equal(loaded.quad, batch.quad)
    assert np.array_equal(loaded.ratios[loaded.ratio_index], batch.ratios[batch.ratio_index])
    assert np.array_equal(loaded.alice_x, batch.alice_x)
    assert np.array_equal(loaded.bob_y, batch.bob_y)


def test_records_csv_read_in_chunks_reproduces_the_moments(tmp_path):
    # ratio 0.001 first appears in the second chunk, so the ratio table grows
    n = 2 * CHUNK_SLOTS + 7
    rng = np.random.default_rng(8)
    ratio_index = rng.integers(0, 2, n)
    ratio_index[CHUNK_SLOTS + 3:] = rng.integers(0, 3, n - CHUNK_SLOTS - 3)
    batch = RecordBatch(rng.integers(0, 2, n), [1.0, 0.5, 0.001], ratio_index,
                        rng.normal(0.0, 3e4, n), rng.normal(0.0, 1e4, n))
    path = tmp_path / "records.csv"
    write_records_csv(path, batch, "m", 0)
    loaded = read_records_csv(path)
    assert loaded.ratios.tolist() == [0.5, 1.0, 0.001]
    assert np.array_equal(loaded.ratios[loaded.ratio_index], batch.ratios[batch.ratio_index])
    want = batch.moments
    for got in (read_records_csv(path, records=False), loaded.moments,
                RatioMoments.of_batch(loaded)):
        for k, r in enumerate(got.ratios.tolist()):
            w = batch.ratios.tolist().index(r)
            for name in ("count", "mean", "m2", "sxy"):
                assert getattr(got, name)[k] == getattr(want, name)[w], (r, name)


def test_records_csv_groups_many_distinct_ratios(tmp_path):
    # 70 distinct ratios read back with the slot count of each
    n, rng = 5000, np.random.default_rng(12)
    ratios = np.linspace(0.0, 1.0, 70)
    ratio_index = rng.integers(0, ratios.size, n)
    batch = RecordBatch(rng.integers(0, 2, n), ratios, ratio_index,
                        rng.normal(size=n), rng.normal(size=n))
    path = tmp_path / "many.csv"
    write_records_csv(path, batch, "m", 0)
    loaded = read_records_csv(path)
    assert np.array_equal(loaded.ratios[loaded.ratio_index], ratios[ratio_index])
    counts = dict(zip(loaded.moments.ratios.tolist(), loaded.moments.count.tolist()))
    assert counts == dict(zip(ratios.tolist(), np.bincount(ratio_index).tolist()))


def _reference_records_csv(path, batch, scenario_hash, seed):
    """The records-v1 bytes as csv.writer writes them, one row at a time."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# format=records-v1 scenario={scenario_hash} seed={seed}\n")
        writer = csv.writer(fh)
        writer.writerow(["slot", "quad", "ratio", "alice_x", "bob_y"])
        for i in range(len(batch)):
            writer.writerow([i, ("X", "P")[batch.quad[i]],
                             repr(float(batch.ratios[batch.ratio_index[i]])),
                             repr(float(batch.alice_x[i])), repr(float(batch.bob_y[i]))])


def _edge_batch(n):
    rng = np.random.default_rng(5)
    edges = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e-05, 1e16, 123456789.125,
                      -1.5e300, 0.1])
    alice_x = rng.normal(0.0, 3e4, n)
    bob_y = rng.normal(0.0, 1e4, n) * 10.0 ** rng.integers(-8, 9, n)
    k = min(n, edges.size)
    alice_x[:k] = edges[:k]
    bob_y[n - k:] = edges[:k]
    # the table holds both zeros: each entry is spelled by repr, -0.0 as "-0.0"
    ratios = [1.0, 0.5, 0.001, 0.1, -0.0, 0.0]
    ratio_index = rng.integers(0, len(ratios), n)
    return RecordBatch(rng.integers(0, 2, n), ratios, ratio_index, alice_x, bob_y)


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
    assert loaded.ratio_index.dtype == np.uint8
    got_ratio = loaded.ratios[loaded.ratio_index]
    assert got_ratio.tobytes() == batch.ratios[batch.ratio_index].tobytes()
    for name in ("quad", "alice_x", "bob_y"):
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
    loaded = load_plan(path, CURVE, SystemParams().detector, "A")
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
    loaded = load_plan(path, CURVE, params.detector, "B")
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
    loaded = load_plan(path, CURVE, SystemParams().detector, "A")
    assert loaded.wavelength is None
    assert loaded.strategy.amplification == 10.0


def test_load_plan_refuses_another_strategy(tmp_path):
    path = tmp_path / "bare.txt"
    write_plan(path, AttackPlan(StrategyA(10.0), None), "50:50", "00", 0)
    message = f"plan file {path} holds a strategy A plan, but the scenario names strategy B"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_plan(path, CURVE, SystemParams().detector, "B")


def test_csv_text_header_and_rows():
    text = csv_text([[1, 2.5, "x"]], ["a", "b", "c"], "dd", 5)
    lines = text.splitlines()
    assert lines[0] == "# format=sweep-v1 scenario=dd seed=5"
    assert lines[1] == "a,b,c"
    assert lines[2] == "1,2.5,x"


def _repr_bytes(values):
    """The float kernel's text for each value, as bytes objects."""
    values = np.ascontiguousarray(values, dtype=float)
    out = []
    for start in range(0, values.size, 1 << 14):
        src, layout = _repr_source(values[start:start + (1 << 14)])
        chars = _spell(src, layout, _repr_tables().left)
        out += [text[:-2] for text in chars.view(f"S{chars.shape[1]}").ravel().tolist()]
    return out


def _kernel_cases():
    rng = np.random.default_rng(20201)
    bits = rng.integers(0, 1 << 64, 700_000, dtype=np.uint64, endpoint=False)
    # one in eight patterns gets exponent field 0: subnormals and both zeros
    bits[::8] &= np.uint64((1 << 63) | ((1 << 52) - 1))
    patterns = bits.view(float)
    patterns = patterns[np.isfinite(patterns)]
    edges = np.array([0.0, -0.0, 5e-324, -5e-324, np.finfo(float).max, -np.finfo(float).max,
                      np.finfo(float).tiny, np.nextafter(np.finfo(float).tiny, 0.0)])
    powers = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)),
                             np.array([float(f"1e{k}") for k in range(-323, 309)])])
    with np.errstate(over="ignore"):
        powers = np.concatenate([powers, np.nextafter(powers, np.inf),
                                 np.nextafter(powers, -np.inf)])
    powers = powers[np.isfinite(powers) & (powers > 0)]
    whole = np.concatenate([rng.integers(0, 1 << 53, 100_000).astype(float),
                            2.0 ** 53 + np.arange(-64, 65), 10.0 ** 15 + np.arange(-9, 10),
                            10.0 ** 16 + np.arange(-8, 9, 2)])
    # doubles whose rounding interval ends at a short decimal t 10^j 2^a, so the
    # half-even rule decides whether that end belongs to the interval
    ends = []
    for j in range(1, 23):
        lo, hi = -(-(1 << 53) // 5 ** j), (1 << 54) // 5 ** j
        for t in range(lo | 1, min(hi, lo + 400), 2):
            for c in ((t * 5 ** j - 1) // 2, (t * 5 ** j + 1) // 2):
                if (1 << 52) <= c < (1 << 53):
                    ends += [math.ldexp(c, j + 1 + a) for a in range(6)]
    # first digit at 10^-4, 10^-5 (decpt -3, -4) and at 10^15, 10^16 (decpt 16, 17)
    scale = 10.0 ** np.array([-4, -5, 15, 16])
    near = (rng.uniform(1.0, 10.0, (25_000, 4)) * scale).ravel()
    cases = np.concatenate([edges, powers, whole, ends, near, rng.normal(0.0, 3e4, 50_000)])
    return np.concatenate([patterns, cases, -cases])


def test_float_kernel_matches_repr():
    values = _kernel_cases()
    assert values.size >= 1_000_000
    got = _repr_bytes(values)
    want = [repr(v).encode() for v in values.tolist()]
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert not bad, bad[:5]


def test_float_kernel_layout_boundaries():
    values = [-0.0, 0.0, 1e-4, 1.2e-05, 1e15, 1e16, -1.2345678901234567e16, 5e-324, 1e100]
    assert _repr_bytes(values) == [b"-0.0", b"0.0", b"0.0001", b"1.2e-05", b"1000000000000000.0",
                                   b"1e+16", b"-1.2345678901234568e+16", b"5e-324", b"1e+100"]


def test_int_kernel_matches_str():
    info = np.iinfo(np.int64)
    tens = 10 ** np.arange(19, dtype=np.int64)
    values = np.concatenate([[0, 1, info.max, info.max - 1], tens, tens - 1, tens + 1,
                             np.random.default_rng(3).integers(0, info.max, 10_000)]).astype(
                                 np.int64)
    chars = _int_chars(values)
    # right-aligned: a leading 0 byte would end the string early, so drop them first
    got = [bytes(row[row != 0]) for row in chars]
    assert got == [str(v).encode() for v in values.tolist()]


@pytest.mark.parametrize("name", ["ratio", "alice_x", "bob_y"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_records_rejects_non_finite_before_opening(tmp_path, name, bad):
    batch = _edge_batch(10)
    (batch.ratios if name == "ratio" else getattr(batch, name))[3] = bad
    path = tmp_path / "r.csv"
    with pytest.raises(ValueError, match=f"non-finite {name}"):
        write_records_csv(path, batch, "h", 0)
    assert not path.exists()
