"""On-disk formats: records CSV, key-value reports, and replayable plan files.

Every artifact starts with one metadata line carrying the format version, the
scenario hash and the master seed, so outputs can be traced back to the exact
configuration that produced them. Floats are written with repr(), which
round-trips exactly, and CSV uses comma separators with '.' decimal points.

Records CSVs are written a block of 65536 rows at a time: each column of the
block is formatted with one ``map(repr, ...)`` (``str`` for slot indices) and
the block's rows are joined into one string. The metadata line ends in
``\n``; the column header and every row end in ``\r\n``, as ``csv.writer``
writes them. The reader checks the column header and parses the body with one
``np.loadtxt`` call, whose float conversion is correctly rounded, so a written
batch reads back bit for bit.
"""

from __future__ import annotations

import csv
import io
import warnings
from typing import Iterable

import numpy as np

from .attack import AttackPlan, StrategyA, StrategyB, WavelengthPlan
from .physics import BeamSplitterCurve, DetectorConfig, ForeignPulse, PulsePath
from .protocol import RecordBatch

RECORDS_FORMAT = "records-v1"
REPORT_FORMAT = "report-v1"
PLAN_FORMAT = "plan-v1"
SWEEP_FORMAT = "sweep-v1"

_QUAD_NAMES = ("X", "P")


def meta_line(fmt: str, scenario_hash: str, seed: int) -> str:
    return f"# format={fmt} scenario={scenario_hash} seed={seed}"


def read_meta(path) -> dict[str, str]:
    """Parse the leading metadata comment of an artifact (empty if absent)."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().strip()
    if not first.startswith("#"):
        return {}
    out: dict[str, str] = {}
    for token in first[1:].split():
        key, sep, value = token.partition("=")
        if sep:
            out[key] = value
    return out


def fmt_value(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return repr(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


_RECORDS_COLUMNS = ["slot", "quad", "ratio", "alice_x", "bob_y"]
_RECORDS_BLOCK = 1 << 16
_RECORDS_DTYPE = np.dtype([("slot", np.int64), ("quad", np.uint8), ("ratio", float),
                           ("alice_x", float), ("bob_y", float)])


def write_records_csv(path, batch: RecordBatch, scenario_hash: str, seed: int) -> None:
    """Stream a record batch as slot,quad,ratio,alice_x,bob_y rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(meta_line(RECORDS_FORMAT, scenario_hash, seed) + "\n")
        fh.write(",".join(_RECORDS_COLUMNS) + "\r\n")
        for start in range(0, len(batch), _RECORDS_BLOCK):
            block = slice(start, start + _RECORDS_BLOCK)
            # Unique bit patterns, not values: -0.0 and 0.0 print differently.
            bits, which = np.unique(batch.ratio[block].view(np.int64), return_inverse=True)
            ratio_text = [repr(r) for r in bits.view(float).tolist()]
            rows = zip(map(str, batch.slot[block].tolist()),
                       map(_QUAD_NAMES.__getitem__, batch.quad[block].tolist()),
                       map(ratio_text.__getitem__, which.tolist()),
                       map(repr, batch.alice_x[block].tolist()),
                       map(repr, batch.bob_y[block].tolist()))
            fh.write("\r\n".join(map(",".join, rows)))
            fh.write("\r\n")


def read_records_csv(path) -> RecordBatch:
    """Load a records CSV back into a columnar batch (metadata line skipped).

    Raises ValueError for a wrong column header or any malformed row: a short
    row, a quadrature other than X or P, a cell that is not a number, or a
    ratio, x or y that is not finite.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        line = fh.readline()
        if line.startswith("#"):
            line = fh.readline()
        header = next(csv.reader([line]), [])
        if header[:5] != _RECORDS_COLUMNS:
            raise ValueError(f"unexpected records header {header!r}")
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                rows = np.loadtxt(fh, dtype=_RECORDS_DTYPE, delimiter=",", comments=None,
                                  usecols=range(5), ndmin=1,
                                  converters={1: {"X": 0, "P": 1}.__getitem__})
        except ValueError as exc:
            raise ValueError(f"malformed records CSV {path}: {exc}") from exc
    for name in ("ratio", "alice_x", "bob_y"):
        if not np.isfinite(rows[name]).all():
            raise ValueError(f"malformed records CSV {path}: non-finite {name}")
    return RecordBatch(*(np.ascontiguousarray(rows[name]) for name in _RECORDS_COLUMNS))


def write_report(path, items: Iterable[tuple[str, object]], scenario_hash: str,
                 seed: int, fmt: str = REPORT_FORMAT) -> None:
    """Write a flat key = value document."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(meta_line(fmt, scenario_hash, seed) + "\n")
        for key, value in items:
            fh.write(f"{key} = {fmt_value(value)}\n")


def read_report(path) -> dict[str, str]:
    """Parse a key = value document back (values stay strings)."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def plan_items(plan: AttackPlan, curve_name: str) -> list[tuple[str, object]]:
    """Flatten a plan (strategy scalars, D, wavelengths, intensities) for saving."""
    items: list[tuple[str, object]] = [("curve", curve_name)]
    if isinstance(plan.strategy, StrategyA):
        items += [("strategy", "A"), ("amplification", plan.strategy.amplification)]
    else:
        items += [("strategy", "B"),
                  ("slope_factor", plan.strategy.slope_factor),
                  ("fake_channel", plan.strategy.fake_channel)]
    wl = plan.wavelength
    items.append(("displacement", plan.displacement))
    if wl is not None:
        for name, pulse in zip(("signal1", "lo1", "signal2", "lo2"), wl.pulses):
            items.append((f"{name}_wavelength_nm", pulse.wavelength_nm))
            items.append((f"{name}_intensity", pulse.intensity))
        items.append(("shot_coeff_lo", wl.shot_coeff_lo))
        items.append(("shot_coeff_signal", wl.shot_coeff_signal))
    return items


def write_plan(path, plan: AttackPlan, curve_name: str, scenario_hash: str,
               seed: int) -> None:
    write_report(path, plan_items(plan, curve_name), scenario_hash, seed, fmt=PLAN_FORMAT)


def load_plan(path, curve: BeamSplitterCurve, detector: DetectorConfig) -> AttackPlan:
    """Rebuild a plan from a plan file, revalidating against the active curve."""
    kv = read_report(path)
    strategy_kind = kv["strategy"]
    if strategy_kind == "A":
        strategy: StrategyA | StrategyB = StrategyA(float(kv["amplification"]))
    elif strategy_kind == "B":
        strategy = StrategyB(float(kv["slope_factor"]), float(kv["fake_channel"]))
    else:
        raise ValueError(f"unknown strategy {strategy_kind!r} in plan file")
    displacement = float(kv["displacement"])
    if displacement == 0.0:
        return AttackPlan(strategy, None)
    pulses = []
    for name, path_kind in zip(("signal1", "lo1", "signal2", "lo2"),
                               (PulsePath.SIGNAL, PulsePath.LO,
                                PulsePath.SIGNAL, PulsePath.LO)):
        pulses.append(ForeignPulse(float(kv[f"{name}_wavelength_nm"]),
                                   float(kv[f"{name}_intensity"]), path_kind))
    wl = WavelengthPlan.from_pulses(curve, detector, pulses, displacement)
    return AttackPlan(strategy, wl)


def csv_text(rows: list[list], header: list[str], scenario_hash: str, seed: int,
             fmt: str = SWEEP_FORMAT) -> str:
    """Render generic CSV (for sweep grids) with the standard metadata line."""
    buf = io.StringIO()
    buf.write(meta_line(fmt, scenario_hash, seed) + "\n")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt_value(v) for v in row])
    return buf.getvalue()
