import csv
import io
import itertools
import math
import os
import re

import numpy as np
import pytest

from cvqkd.attack import AttackPlan, StrategyA, solve_attack_parameters
from cvqkd.physics import builtin_curve
from cvqkd.protocol import RatioMoments, RecordBatch, SystemParams, run_honest_session
from cvqkd.rng import CHUNK_SLOTS
from cvqkd import serialize
from cvqkd.serialize import (_RECORDS_BLOCK, _int_words, _record_chunks, _repr_words, csv_text,
                             fmt_value, load_plan, plan_items, read_records_csv, read_report,
                             records_writer, write_plan, write_report)

CURVE = builtin_curve("50:50")


def test_records_csv_round_trip_is_exact(tmp_path):
    batch = run_honest_session(SystemParams(), 500, 1)
    path = tmp_path / "records.csv"
    with records_writer(path, "abc123", 7) as append:
        append(batch)
    first = path.read_text().splitlines()[0]
    assert first == "# format=records-v1 scenario=abc123 seed=7"
    loaded = RecordBatch.collect(_record_chunks(path))
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
    with records_writer(path, "m", 0) as append:
        append(batch)
    loaded = RecordBatch.collect(_record_chunks(path))
    assert loaded.ratios.tolist() == [0.5, 1.0, 0.001]
    assert np.array_equal(loaded.ratios[loaded.ratio_index], batch.ratios[batch.ratio_index])
    # each chunk's cells in the order of a stable sort, reduced as the session reduces them
    parts = []
    for start in range(0, n, CHUNK_SLOTS):
        cut = slice(start, start + CHUNK_SLOTS)
        order = np.argsort(batch.ratio_index[cut], kind="stable")
        parts.append(RatioMoments.of_cells(batch.ratios,
                                           np.bincount(batch.ratio_index[cut], minlength=3),
                                           batch.alice_x[cut][order], batch.bob_y[cut][order]))
    want = RatioMoments.fold(parts)
    for got in (read_records_csv(path), loaded.moments):
        for k, r in enumerate(got.ratios.tolist()):
            w = batch.ratios.tolist().index(r)
            for name in ("count", "mean", "m2", "sxy"):
                assert getattr(got, name)[k] == getattr(want, name)[w], (r, name)


def test_records_csv_of_exactly_one_chunk_reads_without_a_warning(tmp_path):
    # the read after the last full chunk is empty; pytest turns any warning into an error
    rng = np.random.default_rng(9)
    batch = RecordBatch(rng.integers(0, 2, CHUNK_SLOTS), [1.0, 0.5, 0.001],
                        rng.integers(0, 3, CHUNK_SLOTS), rng.normal(size=CHUNK_SLOTS),
                        rng.normal(size=CHUNK_SLOTS))
    path = tmp_path / "records.csv"
    with records_writer(path, "m", 0) as append:
        append(batch)
    got = read_records_csv(path)
    assert isinstance(got, RatioMoments)
    assert sorted(zip(got.ratios.tolist(), got.count.tolist())) == sorted(
        zip(batch.ratios.tolist(), np.bincount(batch.ratio_index, minlength=3).tolist()))


def test_records_csv_groups_many_distinct_ratios(tmp_path):
    # 70 distinct ratios read back with the slot count of each
    n, rng = 5000, np.random.default_rng(12)
    ratios = np.linspace(0.0, 1.0, 70)
    ratio_index = rng.integers(0, ratios.size, n)
    batch = RecordBatch(rng.integers(0, 2, n), ratios, ratio_index,
                        rng.normal(size=n), rng.normal(size=n))
    path = tmp_path / "many.csv"
    with records_writer(path, "m", 0) as append:
        append(batch)
    loaded = RecordBatch.collect(_record_chunks(path))
    assert np.array_equal(loaded.ratios[loaded.ratio_index], ratios[ratio_index])
    counts = dict(zip(loaded.moments.ratios.tolist(), loaded.moments.count.tolist()))
    assert counts == dict(zip(ratios.tolist(), np.bincount(ratio_index).tolist()))


def _write_records(path, ratio_tables, rows, seed=10):
    """A records file of ``rows`` slots whose chunk j draws its ratios from ``ratio_tables[j]``
    (the last table for the later chunks)."""
    ratios = sorted({r for table in ratio_tables for r in table}, reverse=True)
    rng = np.random.default_rng(seed)
    index = np.empty(rows, int)
    for j, start in enumerate(range(0, rows, CHUNK_SLOTS)):
        table = [ratios.index(r) for r in ratio_tables[min(j, len(ratio_tables) - 1)]]
        index[start:start + CHUNK_SLOTS] = rng.choice(table, min(CHUNK_SLOTS, rows - start))
    with records_writer(path, "m", 0) as append:
        append(RecordBatch(rng.integers(0, 2, rows), ratios, index, rng.normal(0.0, 3e4, rows),
                           rng.normal(0.0, 1e4, rows)))


def _split_and_one_range(monkeypatch, path, cpus=2):
    """The moments read as ranges for ``cpus`` CPUs and as one range, and the children forked."""
    forked = []

    def fork_range(*span):
        forked.append(span)
        return fork(*span)

    fork = serialize._fork_range
    monkeypatch.setattr(serialize, "_fork_range", fork_range)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    split = read_records_csv(path)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    one = read_records_csv(path)
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)
    return split, one, len(forked)


def _assert_same_moments(got, want):
    for name in ("ratios", "count", "mean", "m2", "sxy"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("rows, cpus, forks", [
    (3 * CHUNK_SLOTS - 5, 2, 1),   # ratios 0.001 and 0.25 are first seen in the child's range
    (2 * CHUNK_SLOTS, 2, 1),       # an exact chunk multiple: no empty chunk at the end
    (CHUNK_SLOTS + 1, 2, 1),       # the child reads one row
    (CHUNK_SLOTS, 2, 0),           # one chunk is one range
    (4 * CHUNK_SLOTS - 9, 3, 2),   # three ranges: chunks 0, 1 and 2-3
], ids=["ratio-first-in-a-child", "chunk-multiple", "chunk-plus-one", "one-chunk",
        "three-ranges"])
def test_records_csv_read_in_ranges_gives_the_one_range_moments(tmp_path, monkeypatch, rows,
                                                                cpus, forks):
    path = tmp_path / "records.csv"
    _write_records(path, [[1.0, 0.5], [0.001, 1.0], [0.25, 0.5, 0.001]], rows)
    split, one, forked = _split_and_one_range(monkeypatch, path, cpus)
    assert forked == forks
    _assert_same_moments(split, one)
    if rows > 2 * CHUNK_SLOTS:
        assert one.ratios.tolist() == [0.5, 1.0, 0.001, 0.25]


def test_records_csv_without_a_metadata_line_reads_in_ranges(tmp_path, monkeypatch):
    path = tmp_path / "records.csv"
    _write_records(path, [[1.0, 0.5, 0.001]], 2 * CHUNK_SLOTS + 3)
    path.write_bytes(path.read_bytes().split(b"\n", 1)[1])
    split, one, forked = _split_and_one_range(monkeypatch, path)
    assert forked == 1 and one.count.sum() == 2 * CHUNK_SLOTS + 3
    _assert_same_moments(split, one)


@pytest.mark.parametrize("row, split", [
    (100, False),               # a lone \r ends a line in the parent's range
    (CHUNK_SLOTS + 100, False),  # and in the child's
    (CHUNK_SLOTS - 1, False),   # and ends the parent's range
    (100, True),                # a lone \r splits a row in the parent's range
    (CHUNK_SLOTS + 100, True),   # and in the child's
], ids=["line-end-parent", "line-end-child", "range-end", "split-row-parent",
        "split-row-child"])
def test_records_csv_lone_cr_reads_as_one_range_reads_it(tmp_path, monkeypatch, row, split):
    # the text reader ends a line at \n, \r\n and a lone \r, and so does the range split
    path = tmp_path / "records.csv"
    _write_records(path, [[1.0, 0.5, 0.001]], 2 * CHUNK_SLOTS + 3)
    lines = path.read_bytes().split(b"\r\n")  # lines[0] holds the metadata line and the header
    if split:
        lines[row + 1] = lines[row + 1].replace(b",", b"\r,", 1)
    else:
        lines[row + 1] += b"\r" + lines.pop(row + 2)
    path.write_bytes(b"\r\n".join(lines))
    outcomes = []
    for cpus in (2, 1):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        try:
            outcomes.append(read_records_csv(path))
        except ValueError as exc:
            outcomes.append(str(exc))
    if split:
        assert outcomes[0] == outcomes[1] == (f"malformed records CSV {path}: data row "
                                              f"{row + 1} has 1 columns, not 5")
    else:
        _assert_same_moments(*outcomes)
        assert outcomes[0].count.sum() == 2 * CHUNK_SLOTS + 3


@pytest.mark.parametrize("lone", [True, False], ids=["lone-cr", "crlf"])
@pytest.mark.parametrize("shift", range(-2, 3))
def test_chunk_starts_count_line_ends_as_the_text_reader_splits_lines(tmp_path, shift, lone):
    # a lone \r, or the \r of a \r\n, at the edge of a 64 KiB scan block, against the text
    # reader's lines
    path = tmp_path / "records.csv"
    _write_records(path, [[1.0]], 3 * CHUNK_SLOTS)
    head, body = path.read_bytes().split(b"\n", 1)
    at = body.index(b"\r\n", (1 << 16) - len(head) - 100)
    if lone:
        body = body[:at] + b"\r" + body[at + 2:]
    pad = (1 << 16) - 1 - len(head) - 1 - at + shift  # puts that \r at byte 65535 + shift
    path.write_bytes(head + b"x" * pad + b"\n" + body)
    assert path.read_bytes()[(1 << 16) - 1 + shift] == ord("\r")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        offsets = list(itertools.accumulate(len(line.encode()) for line in fh))
    want = [offsets[k * CHUNK_SLOTS + 1] for k in (1, 2) if k * CHUNK_SLOTS + 1 < len(offsets)]
    assert serialize._chunk_starts(path) == want


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
    with records_writer(tmp_path / "new.csv", "g0", 9) as append:
        append(batch)
    _reference_records_csv(tmp_path / "ref.csv", batch, "g0", 9)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_records_writer_streams_batches_as_one_file(tmp_path):
    # batches as run appends them, straddling write blocks; most blocks mix
    # positional and exponent layouts, both zeros and subnormals among normal
    # values, and the third batch has no exponent layout
    sizes = [1, 4095, 4097, _RECORDS_BLOCK + 1, 65539]
    batch = _edge_batch(sum(sizes))
    batch.bob_y[:] = np.random.default_rng(6).normal(0.0, 1e4, len(batch))
    edges = [1e-05, 1e16, -0.0, 0.0, 5e-324, -1.2345678901234567e-308, 1e100, 123456.789]
    for column, start in ((batch.alice_x, 0), (batch.bob_y, 3)):
        column[start::8209] = np.resize(edges, column[start::8209].size)
    third = np.abs(np.concatenate([batch.alice_x[4096:8193], batch.bob_y[4096:8193]]))
    assert ((third >= 1e-4) & (third < 1e16)).all()
    with records_writer(tmp_path / "streamed.csv", "s", 4) as append:
        start = 0
        for size in sizes:
            block = slice(start, start + size)
            append(RecordBatch(batch.quad[block], batch.ratios, batch.ratio_index[block],
                               batch.alice_x[block], batch.bob_y[block]))
            start += size
    _reference_records_csv(tmp_path / "ref.csv", batch, "s", 4)
    assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("n", [0, 1])
def test_records_csv_round_trip_tiny(tmp_path, n):
    batch = _edge_batch(n)
    path = tmp_path / "tiny.csv"
    with records_writer(path, "t", 1) as append:
        append(batch)
    loaded = RecordBatch.collect(_record_chunks(path))
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
    with records_writer(path, "h", 0) as append:
        append(batch)
    lines = path.read_text().splitlines()
    assert lines[1] == "slot,quad,ratio,alice_x,bob_y"
    assert lines[2].split(",")[1] in ("X", "P")


def test_report_round_trip(tmp_path):
    # a bracketed key splits after its "]", any other line at its first "="
    path = tmp_path / "report.txt"
    write_report(path, [("shot_noise_est", 5.01e7), ("count", 10), ("flag", True),
                        ("variance[r=0.5]", 2.5), ("count[r=0.5]", 10.0),
                        ("curve", "a=b/bs.txt")], "beef", 3)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("key=value\n")
    assert read_report(path) == {"shot_noise_est": "50100000.0", "count": "10", "flag": "true",
                                 "variance[r=0.5]": "2.5", "count[r=0.5]": "10.0",
                                 "curve": "a=b/bs.txt", "key": "value"}


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
    # floats round-trip exactly, and the shot coefficients are derived from the pulses
    assert loaded == plan
    assert (loaded.wavelength.shot_coeff_lo, loaded.wavelength.shot_coeff_signal) == (
        plan.wavelength.shot_coeff_lo, plan.wavelength.shot_coeff_signal)


def test_plan_items_expose_all_parameters(tmp_path):
    # a plan file holds what load_plan reads: the curve, the strategy, its one
    # parameter, D and the four pulses, 12 keys under a plan-v2 header
    pulses = [f"{name}_{part}" for name in ("signal1", "lo1", "signal2", "lo2")
              for part in ("wavelength_nm", "intensity")]
    for kind, eta_ch, parameter in (("A", 0.9, "amplification"), ("B", 0.5, "slope_factor")):
        plan = solve_attack_parameters(kind, SystemParams(channel_transmittance=eta_ch), CURVE)
        assert [key for key, _ in plan_items(plan, "50:50")] == [
            "curve", "strategy", parameter, "displacement", *pulses]
        path = tmp_path / f"{kind}.txt"
        write_plan(path, plan, "50:50", "cafe", 1)
        assert path.read_text().splitlines()[0] == "# format=plan-v2 scenario=cafe seed=1"


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
    # the cells a sweep writes need no quoting: the bytes are csv.writer's
    rows = [["eta_ch", 0.5, 1e-05, -0.25, True], ["xi", 0.1, "", "", "infeasible"],
            ["N", 10.0, 2, math.inf, False]]
    header = ["variable", "value", "a", "b", "verdict"]
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *([fmt_value(v) for v in row] for row in rows)])
    assert csv_text(rows, header, "dd", 5) == ("# format=sweep-v1 scenario=dd seed=5\n"
                                               + buf.getvalue())


def _repr_bytes(values):
    """The float kernel's text for each value, as bytes objects (its 0 bytes and the
    leading "," dropped)."""
    values = np.ascontiguousarray(values, dtype=float)
    out = []
    for start in range(0, values.size, 1 << 14):
        words = _repr_words(values[start:start + (1 << 14)])
        out += [text.translate(None, b"\0") for text in words.view("S32").ravel().tolist()]
    assert all(text.startswith(b",") for text in out)
    return [text[1:] for text in out]


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
    chars = _int_words(values).view(np.uint8)
    assert not chars[:, :2].any()  # room for the "\r\n" before a slot
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
        with records_writer(path, "h", 0) as append:
            append(batch)
    assert not path.exists()
