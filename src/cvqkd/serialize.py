"""On-disk formats: records CSV, key-value reports, and replayable plan files.

Every artifact starts with one metadata line carrying the format version, the
scenario hash and the master seed, so outputs can be traced back to the exact
configuration that produced them. Floats are written as repr() writes them,
which round-trips exactly, and CSV uses comma separators with '.' decimal
points.

Records CSVs (``records-v1``) are written 4096 rows at a time, each block as
one uint8 buffer passed to one ``write``. The floats of x and y come from a
numpy kernel that spells exactly what ``repr`` spells. Schubfach (R.
Giulietti, "The Schubfach way to render doubles", 2020) finds the shortest
decimal that rounds back to each double with fixed-width integer arithmetic:
a table of 126-bit powers of ten split into 63-bit halves, and three
round-to-odd 64x64->128-bit products per value built from 32-bit halves in
``np.uint64``. A table of layouts then places the digits, the decimal point,
the sign and the exponent as ``repr`` does. A slot is its row number, whose
digits come from the same table of 4-digit groups. Each entry of the batch's
ratio table is spelled by ``repr`` once per file, and the rows' ratio text is
gathered by the batch's ratio index. The block's rows are laid out in a
zero-padded (rows, width) matrix that one boolean compaction turns into the
block's bytes. The kernel's tables are built at import, in a few
milliseconds.

The block size keeps a block's temporaries (about 4 MB) small enough that
glibc keeps reusing the same heap pages: from 8192 rows up it hands the heap
back to the system after every block, so every block faults its pages in
again (16384 rows: about 130k more minor page faults and 10-20 % more time
per 1e6 rows). 2048 rows took about 10 % more time than 4096.

The metadata line ends in ``\n``; the column header and every row end in
``\r\n``, as ``csv.writer`` writes them. The writer appends batch by batch,
as ``run`` draws its chunks. The reader checks the column header and parses
``rng.CHUNK_SLOTS`` rows per ``np.loadtxt`` call, whose float conversion is
correctly rounded, so a written batch reads back bit for bit. The quadrature
column is read as two-byte strings and checked and mapped as one column, the
slot column must read 0, 1, 2, ... in order, and the reader is the one place
that groups ratio values, because there they come from outside the program.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import itertools
import os
import warnings
from dataclasses import fields
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from . import rng as _rng
from .attack import PULSES, STRATEGIES, AttackPlan, WavelengthPlan
from .physics import BeamSplitterCurve, DetectorConfig, ForeignPulse
from .protocol import RecordBatch
from .scenario import parse_float

RECORDS_FORMAT = "records-v1"
REPORT_FORMAT = "report-v1"
PLAN_FORMAT = "plan-v1"
SWEEP_FORMAT = "sweep-v1"


def meta_line(fmt: str, scenario_hash: str, seed: int) -> str:
    return f"# format={fmt} scenario={scenario_hash} seed={seed}"


def read_meta(path) -> dict[str, str]:
    """Parse the leading metadata comment of an artifact (empty if absent)."""
    with open(path, "r", encoding="utf-8") as fh:
        return _meta(fh.readline())


def _meta(line: str) -> dict[str, str]:
    """The ``key=value`` tokens of a metadata line (empty if ``line`` is not a comment)."""
    if not line.startswith("#"):
        return {}
    return dict(token.split("=", 1) for token in line[1:].split() if "=" in token)


def fmt_value(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return repr(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


_RECORDS_COLUMNS = ["slot", "quad", "ratio", "alice_x", "bob_y"]
_RECORDS_BLOCK = 1 << 12
_RECORDS_DTYPE = np.dtype([("slot", np.int64), ("quad", "S2"), ("ratio", float),
                           ("alice_x", float), ("bob_y", float)])

_U64 = np.uint64
_M32 = _U64(0xFFFFFFFF)
_M63 = _U64((1 << 63) - 1)
_K_MIN, _K_MAX = -324, 292  # decimal exponents of the power-of-ten table
_REPR_WIDTH = 24            # the longest repr: -1.2345678901234567e-308
_SRC_PAD = 31               # the byte of a value's source row that is always 0


class _Tables(NamedTuple):
    g: tuple             # per decimal exponent: g1 high, g1 low, g0 high, g0 low, g1
    digits4: np.ndarray  # uint32: the four ASCII digits of 0000..9999
    blank4: np.ndarray   # uint32: digits4; then leading zeros blank, 0 blank; then 0 as "0"
    last4: np.ndarray    # uint8: per digit group j, last non-zero digit position
    pow10: np.ndarray    # uint64: 10^0 .. 10^19
    lengths: np.ndarray  # uint8: text length of each layout
    right: np.ndarray    # uint8: per layout, source bytes of the text and ",", right-aligned
    left: np.ndarray     # uint8: per layout, source bytes of the text and "\r\n", left-aligned


@functools.cache
def _repr_tables() -> _Tables:
    """The float and integer kernels' tables, built once at import (a few milliseconds).

    ``g`` holds, for each decimal exponent k, g = floor(10^-k 2^-r) + 1 with
    2^125 <= g < 2^126, split into its high 63 bits g1 and low 63 bits g0,
    each also as 32-bit halves. ``last4[10000 j + v]`` is the 1-based position
    of the last non-zero digit of group value v in a 17-digit string whose
    group j (of four) follows the lead digit, or 0 when v is 0. Blank bytes
    are 0.
    """
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        if k <= 0:
            p = 10 ** -k
            r = p.bit_length() - 126
            g.append((p >> r if r >= 0 else p << -r) + 1)
        else:
            p = 10 ** k
            g.append((1 << (125 + p.bit_length())) // p + 1)
    g1 = np.array([x >> 63 for x in g], np.uint64)
    g0 = np.array([x & ((1 << 63) - 1) for x in g], np.uint64)

    i = np.arange(10000)
    chars = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1) + 48
    digits4 = np.ascontiguousarray(chars, np.uint8).view(np.uint32).ravel()
    blank = np.where(i[:, None] < np.array([1000, 100, 10, 1]), 0, chars).astype(np.uint8)
    blank = blank.view(np.uint32).ravel()
    blank4 = np.concatenate([digits4, blank, blank])
    blank4[20000] = digits4[0] & np.uint32(0xFF000000)  # "0" in the last byte
    trailing = (i % 10 == 0).astype(int) + (i % 100 == 0) + (i % 1000 == 0)
    last4 = np.concatenate([np.where(i == 0, 0, 4 * j + 5 - trailing) for j in range(4)])
    return _Tables((g1 >> _U64(32), g1 & _M32, g0 >> _U64(32), g0 & _M32, g1),
                   digits4, blank4, last4.astype(np.uint8),
                   np.array([10 ** j for j in range(20)], np.uint64), *_repr_templates())


def _repr_templates():
    """Which source bytes spell each layout of ``repr``, two ways.

    A value's source row (``_repr_source``) holds ``,\r\n`` (bytes 0..2), the
    17 significant digits (byte 3, then bytes 4..19), ``0.e`` and the
    exponent's sign (bytes 20..23), the exponent's absolute value as four
    digits (bytes 24..27), ``-`` (byte 28) and a 0 byte (31). Layouts are
    numbered by sign (374 apart), then 340 positional ones by decimal-point
    position decpt = -3..16 and digit count n = 1..17, then 34 exponential
    ones by exponent width (2 or 3 digits) and n. Returns the layouts' text
    lengths and two templates: text then "," right-aligned, and text then
    "\r\n" left-aligned, both padded with the 0 byte.
    """
    digit = [3] + list(range(4, 20))
    rows = []
    for sign in ([], [28]):
        for decpt in range(-3, 17):
            for n in range(1, 18):
                if decpt <= 0:
                    body = [20, 21] + [20] * -decpt + digit[:n]
                elif decpt < n:
                    body = digit[:decpt] + [21] + digit[decpt:n]
                else:
                    body = digit[:n] + [20] * (decpt - n) + [21, 20]
                rows.append(sign + body)
        for exponent in ([26, 27], [25, 26, 27]):
            for n in range(1, 18):
                fraction = [21] + digit[1:n] if n > 1 else []
                rows.append(sign + digit[:1] + fraction + [22, 23] + exponent)
    right = np.full((len(rows), _REPR_WIDTH + 1), _SRC_PAD, np.uint8)
    left = np.full((len(rows), _REPR_WIDTH + 2), _SRC_PAD, np.uint8)
    for r, row in enumerate(rows):
        right[r, _REPR_WIDTH - len(row):] = row + [0]
        left[r, :len(row) + 2] = row + [1, 2]
    return np.array([len(row) for row in rows], np.uint8), right, left


# Built at import: built lazily in the first records write, the tables can sit
# on the heap above that run's columns and keep their freed pages resident.
_repr_tables()


def _mul_hi(ah, al, bh, bl):
    """High 64 bits of the 128-bit product of a = ah 2^32 + al and b = bh 2^32 + bl."""
    ll = al * bl
    hl = ah * bl
    lh = al * bh
    mid = (ll >> _U64(32)) + (hl & _M32) + (lh & _M32)
    return ah * bh + (hl >> _U64(32)) + (lh >> _U64(32)) + (mid >> _U64(32))


def _round_to_odd(g, cp):
    """floor(g cp 2^-127), with its lowest bit set if any bit below was (cp < 2^63)."""
    g1h, g1l, g0h, g0l, g1 = g
    ch, cl = cp >> _U64(32), cp & _M32
    z = ((g1 * cp) >> _U64(1)) + _mul_hi(g0h, g0l, ch, cl)
    return (_mul_hi(g1h, g1l, ch, cl) + (z >> _U64(63))) | (((z & _M63) + _M63) >> _U64(63))


def _shortest_decimal(bits, g):
    """(d, e) with d 10^e the shortest decimal that rounds to each finite double.

    Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020):
    scale the value and its rounding interval's two ends by 10^-k with three
    round-to-odd products, then take the multiple of 10^(k+1) in the
    interval if there is one, else the one of floor and ceiling in it, else
    the nearer of the two (the even one on a tie). The interval's ends count
    when the significand is even, as round-half-even reading needs. Whole
    numbers below 2^53 are their own shortest decimal. Zero gives (0, 0).
    """
    exp2 = ((bits >> _U64(52)) & _U64(0x7FF)).astype(np.int64)
    frac = bits & _U64((1 << 52) - 1)
    c = frac | ((exp2 != 0).astype(np.uint64) << _U64(52))
    q = np.maximum(exp2, 1) - 1075
    # at a power of two the interval below is half as wide
    irregular = (frac == 0) & (exp2 > 1)
    k = (q * 661971961083 - irregular * 274743187321) >> 41  # floor(log10(2^q)), or of 3/4 2^q
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(np.uint64)  # + floor(log2(10^-k))
    g = [part.take(k - _K_MIN) for part in g]
    cb = c << _U64(2)
    vb = _round_to_odd(g, cb << h)
    vbl = _round_to_odd(g, (cb - _U64(2) + irregular) << h)
    vbr = _round_to_odd(g, (cb + _U64(2)) << h)
    odd = c & _U64(1)
    s = vb >> _U64(2)
    s10 = s // _U64(10) * _U64(10)
    u10 = vbl + odd <= s10 << _U64(2)
    w10 = ((s10 + _U64(10)) << _U64(2)) + odd <= vbr
    u = vbl + odd <= s << _U64(2)
    w = ((s + _U64(1)) << _U64(2)) + odd <= vbr
    mid = (s << _U64(2)) + _U64(2)
    up = (vb > mid) | ((vb == mid) & (s & _U64(1)).astype(bool))
    one = u != w
    d = s + (one & w | ~one & up)
    d ^= (d ^ (s10 + _U64(10) * w10)) & (_U64(0) - (u10 != w10))
    shift = (-q).astype(np.uint64)  # only 0 < -q < 53 is used; numpy shifts by >= 64 give 0
    whole = c >> shift
    is_whole = ((whole << shift) == c) & (q > -53) & (q < 0)
    d ^= (d ^ whole) & (_U64(0) - is_whole)
    d *= c != 0
    return d, k * ~(is_whole | (c == 0))


def _repr_source(values):
    """Per finite float64: its source row (see ``_repr_templates``) and layout number.

    Digits come from ``_shortest_decimal``; the layout follows ``repr``:
    positional when -4 < decpt <= 16 (``.0`` after whole numbers), else
    ``d.ddde±XX``, and ``-`` before negative values, -0.0 included.
    """
    t = _repr_tables()
    m = values.size
    bits = values.view(np.uint64)
    d, e = _shortest_decimal(bits, t.g)
    zero = d == 0
    d |= zero  # zero is laid out as the digits of 1, then cleared
    log2 = (d.astype(np.float64).view(np.uint64) >> _U64(52)).astype(np.int64) - 1022
    nd = log2 * 1233 >> 12  # digit count of d, or one less
    nd += d >= t.pow10.take(nd)
    decpt = nd + e
    d = d * t.pow10.take(17 - nd) * ~zero  # 17 digits
    lead = d // _U64(10 ** 16)
    d -= lead * _U64(10 ** 16)
    hi = d // _U64(10 ** 8)
    lo = d - hi * _U64(10 ** 8)
    groups = (hi // _U64(10000), hi % _U64(10000), lo // _U64(10000), lo % _U64(10000))
    src = np.empty((m, 8), np.uint32)
    src[:, 0] = (lead.astype(np.uint32) << np.uint32(24)) + np.uint32(
        int.from_bytes(b",\r\n0", "little"))
    n = np.ones(m, np.uint8)
    for j, group in enumerate(groups):
        src[:, j + 1] = t.digits4.take(group)
        np.maximum(n, t.last4.take(group + _U64(10000 * j)), out=n)
    exp10 = decpt - 1
    src[:, 5] = np.uint32(int.from_bytes(b"0.e+", "little")) + (
        (exp10 < 0).astype(np.uint32) << np.uint32(25))  # "+" + 2 = "-"
    src[:, 6] = t.digits4.take(np.abs(exp10))
    src[:, 7] = np.uint32(ord("-"))
    positional = (decpt > -4) & (decpt <= 16)
    layout = np.where(positional, (decpt + 3) * 17, 340 + 17 * (np.abs(exp10) >= 100)) + n - 1
    layout += 374 * (bits >> _U64(63)).astype(np.int64)
    return src.view(np.uint8), layout


def _spell(src, layout, template):
    """Gather each source row's bytes through its layout's template row."""
    m, width = layout.size, template.shape[1]
    index = np.ascontiguousarray(template).view(f"V{width}").ravel().take(layout)
    index = np.add(index.view(np.uint8).reshape(m, width),
                   np.arange(0, src.size, src.shape[1])[:, None], dtype=np.intp)
    return src.ravel().take(index)


def _int_chars(values):
    """``str`` of each non-negative int64 as a (n, width) uint8 array, right-aligned,
    0-padded."""
    t = _repr_tables()
    u = values.astype(np.uint64)
    width = len(str(int(u.max(initial=0))))
    groups = -(-width // 4)
    words = np.empty((values.size, groups), np.uint32)
    for j in range(5 - groups, 5):
        group = u // t.pow10[16 - 4 * j] % _U64(10000)
        # leading zeros are blank unless a higher group has digits; the last shows 0
        blank = _U64(10000) if j == 0 else (u < t.pow10[20 - 4 * j]) * _U64(20000 if j == 4 else 10000)
        words[:, j - 5 + groups] = t.blank4.take(group + blank)
    return words.view(np.uint8)[:, 4 * groups - width:]


def _records_rows(first_slot, quad, ratio_text, alice_x, bob_y) -> np.ndarray:
    """The records-v1 rows of one block as one uint8 buffer.

    Slots are numbered from ``first_slot``; ``ratio_text`` holds each row's
    ratio and ``,``, 0-padded. Each row is laid out in a fixed-width row of a
    (rows, width) matrix whose unused bytes are 0, and the matrix is
    compacted in row order. The padding sits only after the ratio and after
    the row, which keeps the compaction to two runs of bytes per row: slot
    (right-aligned), ``,X,`` or ``,P,``, the ratio and ``,``; then x and
    ``,`` (right-aligned), y and ``\r\n``.
    """
    t = _repr_tables()
    m, rw = ratio_text.shape
    slot_text = _int_chars(np.arange(first_slot, first_slot + m))
    src, layout = _repr_source(np.concatenate([alice_x, bob_y]))
    width = int(t.lengths.take(layout).max(initial=1))
    x_text = _spell(src[:m], layout[:m], t.right[:, _REPR_WIDTH - width:])
    y_text = _spell(src[m:], layout[m:], t.left[:, :width + 2])
    sw = slot_text.shape[1]
    rows = np.empty((m, sw + 3 + rw + 2 * width + 3), np.uint8)
    rows[:, :sw] = slot_text
    rows[:, sw:sw + 3] = np.frombuffer(b",X,", np.uint8)
    rows[:, sw + 1] = np.frombuffer(b"XP", np.uint8).take(quad)
    rows[:, sw + 3:sw + 3 + rw] = ratio_text
    rows[:, sw + 3 + rw:sw + 4 + rw + width] = x_text
    rows[:, sw + 4 + rw + width:] = y_text
    flat = rows.ravel()
    return flat[flat != 0]


@contextlib.contextmanager
def records_writer(path, scenario_hash: str, seed: int):
    """Yield a function that appends a record batch as slot,quad,ratio,alice_x,bob_y rows.

    Batches come in slot order; each entry of a batch's ratio table is spelled
    by ``repr`` once. The rows go to a temporary file next to ``path`` that
    replaces it when the block exits without an exception, and is otherwise
    removed with any directory made for it. A ratio, alice_x or bob_y that is
    not finite raises ValueError: the reader would reject it.
    """
    path = Path(path)
    made = [p for p in (path.parent, *path.parent.parents) if not p.exists()]
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    written = 0

    def append(batch: RecordBatch) -> None:
        nonlocal written
        for name, values in (("ratio", batch.ratios), ("alice_x", batch.alice_x),
                             ("bob_y", batch.bob_y)):
            if not np.isfinite(values).all():
                raise ValueError(f"cannot write records: non-finite {name}")
        texts = [repr(r).encode() + b"," for r in batch.ratios.tolist()]
        rw = max(map(len, texts), default=1)
        ratio_text = np.array(texts, f"S{rw}").view(np.uint8).reshape(-1, rw)
        for start in range(0, len(batch), _RECORDS_BLOCK):
            block = slice(start, start + _RECORDS_BLOCK)
            fh.write(_records_rows(written + start, batch.quad[block],
                                   ratio_text[batch.ratio_index[block]],
                                   batch.alice_x[block], batch.bob_y[block]))
        written += len(batch)

    try:
        with open(temp, "wb") as fh:
            fh.write((meta_line(RECORDS_FORMAT, scenario_hash, seed) + "\n").encode())
            fh.write((",".join(_RECORDS_COLUMNS) + "\r\n").encode())
            yield append
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        for directory in made:  # deepest first
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise


def write_records_csv(path, batch: RecordBatch, scenario_hash: str, seed: int) -> None:
    """Write a record batch as a records CSV (see ``records_writer``)."""
    with records_writer(path, scenario_hash, seed) as append:
        append(batch)


def read_records_csv(path, *, records: bool = True):
    """Read a records CSV ``rng.CHUNK_SLOTS`` rows at a time.

    Each chunk of rows is checked, becomes a record batch and is reduced as a
    session chunk is; its distinct ratios that no earlier chunk held join the
    ratio table in ascending order. Returns one batch carrying the moments,
    or with ``records=False`` only the RatioMoments, in memory set by the chunk.

    Raises ValueError for a leading metadata line of another format than
    ``records-v1``, a wrong column header or any malformed row: a short row,
    a quadrature other than X or P, a cell that is not a number, a ratio, x
    or y that is not finite, a slot that is not its row number (0, 1, 2, ...
    in order), or a ratio outside [0, 1], naming the data row (from 1,
    across the file) or, for a cell, its chunk's rows.
    """
    return RecordBatch.collect(_record_chunks(path), records)


def _record_chunks(path):
    chunk, seen = _rng.CHUNK_SLOTS, {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        line = fh.readline()
        if line.startswith("#"):
            fmt = _meta(line).get("format")
            if fmt != RECORDS_FORMAT:
                raise ValueError(f"{path} has format {fmt}, not {RECORDS_FORMAT}")
            line = fh.readline()
        header = next(csv.reader([line]), [])
        if header[:5] != _RECORDS_COLUMNS:
            raise ValueError(f"unexpected records header {header!r}")
        bad = f"malformed records CSV {path}: data row"
        for first in itertools.count(0, chunk):
            try:
                with warnings.catch_warnings():
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    rows = np.loadtxt(fh, dtype=_RECORDS_DTYPE, delimiter=",", comments=None,
                                      usecols=range(5), ndmin=1, max_rows=chunk)
            except ValueError as exc:
                raise ValueError(f"{bad}s {first + 1} to {first + chunk}: {exc}") from exc
            quad = rows["quad"] == b"P"
            wrong = np.flatnonzero(~quad & (rows["quad"] != b"X"))
            if wrong.size:
                text = rows["quad"][wrong[0]].decode(errors="replace")
                raise ValueError(f"{bad} {first + wrong[0] + 1}: quadrature {text!r} is not X or P")
            for name in ("ratio", "alice_x", "bob_y"):
                wrong = np.flatnonzero(~np.isfinite(rows[name]))
                if wrong.size:
                    raise ValueError(f"{bad} {first + wrong[0] + 1}: non-finite {name} "
                                     f"{float(rows[name][wrong[0]])!r}")
            wrong = np.flatnonzero(rows["slot"] != np.arange(first, first + rows.size))
            if wrong.size:
                raise ValueError(f"{bad} {first + wrong[0] + 1}: slot {rows['slot'][wrong[0]]} "
                                 f"is not the row number {first + wrong[0]}")
            values, index = np.unique(rows["ratio"], return_inverse=True)
            if values.size and not 0.0 <= values[0] <= values[-1] <= 1.0:
                wrong = np.flatnonzero((rows["ratio"] < 0.0) | (rows["ratio"] > 1.0))[0]
                raise ValueError(f"{bad} {first + wrong + 1}: ratio "
                                 f"{float(rows['ratio'][wrong])!r} is outside [0, 1]")
            # a ratio keeps the label of the chunk that first held it
            labels = np.array([seen.setdefault(v, len(seen)) for v in values.tolist()], np.intp)
            yield RecordBatch(quad.view(np.uint8), list(seen), labels[index],
                              np.ascontiguousarray(rows["alice_x"]),
                              np.ascontiguousarray(rows["bob_y"]))
            if rows.size < chunk:
                return


def report_text(items: Iterable[tuple[str, object]]) -> str:
    """The ``key = value`` lines of a report, as written and as printed."""
    return "".join(f"{key} = {fmt_value(value)}\n" for key, value in items)


def write_report(path, items: Iterable[tuple[str, object]], scenario_hash: str,
                 seed: int, fmt: str = REPORT_FORMAT) -> None:
    """Write a flat key = value document."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(meta_line(fmt, scenario_hash, seed) + "\n" + report_text(items))


def read_report(path) -> dict[str, str]:
    """Parse a key = value document back (values stay strings); a line without
    ``=`` or a key given twice raises ValueError naming the file and the line.
    A line splits at its last ``=``, since keys such as ``count[r=0.5]`` hold one."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = (part.strip() for part in line.rpartition("="))
            if not sep or key in out:
                problem = f"duplicate key {key!r}" if sep else f"expected key = value, got {line!r}"
                raise ValueError(f"{path} line {lineno}: {problem}")
            out[key] = value
    return out


def plan_items(plan: AttackPlan, curve_name: str) -> list[tuple[str, object]]:
    """Flatten a plan (strategy scalars, D, wavelengths, intensities) for saving."""
    kind = next(k for k, cls in STRATEGIES.items() if isinstance(plan.strategy, cls))
    items: list[tuple[str, object]] = [("curve", curve_name), ("strategy", kind)]
    items += [(f.name, getattr(plan.strategy, f.name)) for f in fields(plan.strategy)]
    items.append(("displacement", plan.displacement))
    wl = plan.wavelength
    if wl is not None:
        for (name, _, _), pulse in zip(PULSES, wl.pulses):
            items.append((f"{name}_wavelength_nm", pulse.wavelength_nm))
            items.append((f"{name}_intensity", pulse.intensity))
        items += [("shot_coeff_lo", wl.shot_coeff_lo), ("shot_coeff_signal", wl.shot_coeff_signal)]
    return items


def write_plan(path, plan: AttackPlan, curve_name: str, scenario_hash: str,
               seed: int) -> None:
    write_report(path, plan_items(plan, curve_name), scenario_hash, seed, fmt=PLAN_FORMAT)


def load_plan(path, curve: BeamSplitterCurve, detector: DetectorConfig,
              strategy: str) -> AttackPlan:
    """Rebuild a plan of ``strategy`` (a key of ``STRATEGIES``) from a plan file,
    revalidating against the active curve.

    Raises ValueError naming the file and the key when a key is missing, is
    not one ``plan_items`` writes for the plan, or holds a number that is not
    finite (the scenario parser's rule), and naming both curves or both
    strategies when the plan was written for another curve than ``curve`` or
    holds another strategy than ``strategy``.
    """
    kv = read_report(path)
    if kv.get("curve", curve.nominal_ratio) != curve.nominal_ratio:
        raise ValueError(f"plan file {path} was written for curve {kv['curve']}, "
                         f"but the scenario's curve is {curve.nominal_ratio}")
    if kv.get("strategy", strategy) != strategy:
        raise ValueError(f"plan file {path} holds a strategy {kv['strategy']} plan, "
                         f"but the scenario names strategy {strategy}")

    def number(key: str) -> float:
        return parse_float(kv[key], None, f"plan file {path} key {key!r}")

    try:
        cls = STRATEGIES[kv["strategy"]]  # ``strategy`` itself, or no such key
        plan = AttackPlan(cls(*(number(f.name) for f in fields(cls))), None)
        displacement = number("displacement")
        if displacement != 0.0:
            pulses = [ForeignPulse(number(f"{name}_wavelength_nm"),
                                   number(f"{name}_intensity"), pulse_path)
                      for name, pulse_path, _ in PULSES]
            plan = AttackPlan(plan.strategy, WavelengthPlan.from_pulses(
                curve, detector, pulses, displacement))
    except KeyError as exc:
        raise ValueError(f"plan file {path} has no {exc.args[0]!r} key") from None
    written = dict(plan_items(plan, ""))
    unknown = [key for key in kv if key not in written]
    if unknown:
        raise ValueError(f"plan file {path} has unknown key {unknown[0]!r}")
    return plan


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
