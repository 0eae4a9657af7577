"""On-disk formats: records CSV, key-value reports, and replayable plan files.

Every artifact starts with one metadata line carrying the format version, the
scenario hash and the master seed, so outputs can be traced back to the exact
configuration that produced them. Floats are written as repr() writes them,
which round-trips exactly, and CSV uses comma separators with '.' decimal
points.

Records CSVs (``records-v1``) are written 8192 rows at a time, each block as
one bytes object passed to one ``write``. The floats of x and y come from a
numpy kernel that spells exactly what ``repr`` spells: Schubfach's shortest
digits in 64-bit integer arithmetic (``_shortest_decimal``), laid out in uint64
words whose 0 bytes one ``bytes.translate`` per block drops (``_repr_words``,
``_records_rows``). A slot is its row number, spelled from the same table of
4-digit groups, and each (ratio, quadrature) cell of the batch's ratio table is
spelled by ``repr`` once per file. The kernel's tables are built in a few
milliseconds when the first records writer opens, below the session's columns
on the heap; a command that writes no records never builds them.

The metadata line ends in ``\n``; the column header and every row end in
``\r\n``, as in a sweep CSV. The writer appends batch by batch, as ``run``
draws its chunks. ``read_records_csv`` reduces each ``rng.CHUNK_SLOTS`` rows
as a session reduces its chunks, from lists of 2048 lines, each parsed by one
``np.loadtxt`` call, whose float conversion is correctly rounded, so a written
batch reads back bit for bit. It reads any number ``np.loadtxt`` reads, refuses
any other row, naming its data row and, for a cell, its column, and it is the
one place that groups ratio values, because there they come from outside the
program.

The spelling and the parse hold the GIL, so both work in ranges of whole chunks,
one per CPU in ``os.sched_getaffinity(0)`` and at most one per chunk: this
process takes the first and a forked child each other one (``_forked``). A
writer's child draws its own chunks into a part file appended after this
process's rows, a reader's starts at the byte a count of line ends finds; all
fold in chunk order. On a 2-vCPU host 1e6 slots wrote in 0.27-0.39 s (one
range: 0.47-0.62 s) and read in 0.46-0.53 s (0.73-1.0 s). One CPU, one chunk
or no ``os.fork`` is one range.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
from dataclasses import fields
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from . import rng as _rng
from .attack import PULSES, STRATEGIES, AttackPlan, WavelengthPlan
from .errors import DOMAINS, check
from .physics import BeamSplitterCurve, DetectorConfig, ForeignPulse, foreign_pulse_response
from .protocol import RatioMoments, RecordBatch
from .scenario import parse_float

RECORDS_FORMAT = "records-v1"
REPORT_FORMAT = "report-v1"
PLAN_FORMAT = "plan-v2"
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


# rows per write: streaming 1e6 attack_a rows in process on a 2-vCPU host, 8192-row blocks took
# about 16 % less time than 4096 (half the calls per row) and 16384 about 60 % more: a block's
# temporaries peak at 2.2, 4.5 and 8.9 MB (tracemalloc), against a 2 MB L2 cache per core
_RECORDS_BLOCK = 1 << 13
# lines per np.loadtxt call, a divisor of the chunk: 65536 lines held as str took 6.2 MiB, and
# a chunk's list of them raised detect's peak RSS from 44 to 61 MiB; 2048 lines peak at 44 MiB
_READ_LINES = _rng.CHUNK_SLOTS // 32
_RECORDS_DTYPE = np.dtype([("slot", np.int64), ("quad", "S2"), ("ratio", float),
                           ("alice_x", float), ("bob_y", float)])

_U64 = np.uint64
_K_MIN, _K_MAX = -324, 292  # decimal exponents of the power-of-ten table
_CRLF = _U64(int.from_bytes(b"\r\n", "little"))  # ends the row before, from a slot's first word


class _Tables(NamedTuple):
    k: np.ndarray          # int64: per exponent field, then per power of two, Schubfach's k
    h: np.ndarray          # uint64: the same for h
    g: np.ndarray          # uint64 (2, k): g1 and g0 per decimal exponent k
    digits4: np.ndarray    # uint32: the four ASCII digits of 0000..9999
    blank4: np.ndarray     # uint32: digits4; then leading zeros blank, 0 blank; then 0 as "0"
    last4: np.ndarray      # uint8: per digit group j, last non-zero digit position (at least 1)
    pow10: np.ndarray      # uint64: 10^0 .. 10^19
    masks: np.ndarray      # uint64 (3, 748, 4): per layout, low, high and point masks
    exponents: np.ndarray  # uint64: per decpt -324..309, the last word's exponent


@functools.cache
def _repr_tables() -> _Tables:
    """The float and integer kernels' tables, built once, by the first records writer.

    ``k`` and ``h`` are Schubfach's decimal exponent and shift per binary
    exponent field, and per field of a power of two (``irregular``, whose
    rounding interval below is half as wide) 2048 entries later.
    ``g`` holds, for each decimal exponent k, g = floor(10^-k 2^-r) + 1 with
    2^125 <= g < 2^126, split into its high 63 bits g1 and low 63 bits g0.
    ``last4[10000 j + v]`` is the 1-based position of the last non-zero digit
    of group value v in a 17-digit string whose group j (of four) follows the
    lead digit, or 1 (the lead digit) when v is 0. ``masks`` place the point (see
    ``_repr_words``). Blank bytes are 0.
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
    g = np.array([[x >> 63 for x in g], [x & ((1 << 63) - 1) for x in g]], np.uint64)
    exp2, irregular = np.arange(4096) & 0x7FF, np.arange(4096) >> 11
    q = np.maximum(exp2, 1) - 1075
    k = (q * 661971961083 - irregular * 274743187321) >> 41  # floor(log10(2^q)), or of 3/4 2^q
    h = (q + (-k * 913124641741 >> 38) + 2).astype(np.uint64)  # + floor(log2(10^-k))

    i, u8 = np.arange(10000, dtype=np.uint16), np.uint8  # built in their final dtypes
    chars = (np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1) + 48).astype(u8)
    digits4 = chars.view(np.uint32).ravel()
    blank = np.where(i[:, None] < np.array([1000, 100, 10, 1]), u8(0), chars)
    blank = blank.view(np.uint32).ravel()
    blank4 = np.concatenate([digits4, blank, blank])
    blank4[20000] = digits4[0] & np.uint32(0xFF000000)  # "0" in the last byte
    trailing = (i % 10 == 0).astype(u8) + (i % 100 == 0) + (i % 1000 == 0)
    last4 = np.concatenate([np.where(i == 0, u8(1), 4 * j + 5 - trailing) for j in range(4)])

    # per layout (sign, decpt clipped to -4..17, digit count): low, high and point masks
    sign, decpt = np.arange(2)[:, None, None, None] == 1, np.arange(-4, 18)[:, None, None]
    n, b = np.arange(1, 18)[:, None], np.arange(32)
    positional = (decpt > -4) & (decpt < 17)
    q = np.where(positional, decpt, 1)
    p, e = 6 + q, 6 + np.where(positional, np.maximum(n, q + 1), n)
    point = ((b == p) & (e > p)) * u8(ord(".")) + (b == 0) * u8(ord(",")) + (
        (b == 1) & sign) * u8(ord("-")) + ((b == 2) & (q <= 0)) * u8(ord("0"))
    masks = np.stack(np.broadcast_arrays(((b >= np.minimum(p, 6)) & (b < p)) * u8(255),
                                         ((b > p) & (b <= e)) * u8(255), point))
    exponents = [int.from_bytes(f"e{x - 1:+03d}".encode(), "little") * (not -4 < x < 17)
                 for x in range(-324, 310)]
    return _Tables(k, h, g, digits4, blank4, last4,
                   np.array([10 ** j for j in range(20)], np.uint64),
                   masks.view(np.uint64).reshape(3, -1, 4), np.array(exponents, np.uint64))


def _round_to_odd(g, cp):
    """floor(g cp 2^-127), with its lowest bit set if any bit below was (cp < 2^63).

    ``g`` holds g1 and g0 (g = g1 2^63 + g0) as 32-bit high and low halves,
    and g1; the high 64 bits of g1 cp and g0 cp come from 32x32-bit products,
    each sum below 2^64 since g1, g0, cp < 2^63. Operations are in place.
    """
    (gh1, gh0), (gl1, gl0), g1 = g
    ch, cl = cp >> _U64(32), cp & _U64(0xFFFFFFFF)
    mid1, mid0 = gl1 * cl, gl0 * cl
    for mid, gh, gl in ((mid1, gh1, gl1), (mid0, gh0, gl0)):
        mid >>= _U64(32)
        mid += gh * cl
        mid += gl * ch
        mid >>= _U64(32)
    z = g1 * cp
    z >>= _U64(1)
    z += mid0
    z += gh0 * ch
    mid1 += gh1 * ch
    mid1 += z >> _U64(63)
    z <<= _U64(1)
    mid1 |= z != 0
    return mid1


def _shortest_decimal(bits):
    """(d, e) with d 10^e the shortest decimal that rounds to each finite double.

    Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020):
    scale the value and its rounding interval's two ends by 10^-k with three
    round-to-odd products, then take the multiple of 10^(k+1) in the
    interval if there is one, else the one of floor and ceiling in it, else
    the nearer of the two (the even one on a tie). The interval's ends count
    when the significand is even, as round-half-even reading needs. Zero
    gives (0, 0).
    """
    signed = bits.view(np.int64)
    exp2 = signed >> 52 & 0x7FF
    frac = signed & (1 << 52) - 1
    c = (frac | (exp2 + 0x7FF) >> 11 << 52).view(np.uint64)  # the hidden bit unless subnormal
    # at a power of two the interval below is half as wide
    irregular = (frac == 0) & (exp2 > 1)
    t = _repr_tables()
    row = exp2 + 2048 * irregular
    k, h = t.k.take(row), t.h.take(row)
    g = t.g.take(k - _K_MIN, axis=-1)
    g = g >> _U64(32), g & _U64(0xFFFFFFFF), g[0]
    cb = c << _U64(2)
    lo, vb, hi = (_round_to_odd(g, cp << h) for cp in (cb - _U64(2) + irregular, cb,
                                                       cb + _U64(2)))
    odd = c & _U64(1)
    lo += odd
    hi -= odd
    s = vb >> _U64(2)
    s10 = s // _U64(10) * _U64(10)
    u10, w10 = lo <= s10 << _U64(2), (s10 + _U64(10)) << _U64(2) <= hi
    u, w = lo <= s << _U64(2), (s + _U64(1)) << _U64(2) <= hi
    vb &= _U64(3)
    vb += s & _U64(1)
    s += w & ~u | (u == w) & (vb > _U64(2))
    s10 += w10 * _U64(10)
    nonzero = c != 0
    k *= nonzero
    return np.where(u10 != w10, s10, s) * nonzero, k


def _repr_words(values):
    """``,`` and each finite float64's ``repr`` in four uint64 words, 0 bytes between.

    Digits come from ``_shortest_decimal``; the layout follows ``repr``:
    positional when -4 < decpt <= 16 (``.0`` after whole numbers), else
    ``d.ddde±XX``, and ``-`` before negative values, -0.0 included. Layouts
    are numbered by sign, decpt (clipped to -4..17) and digit count. Bytes
    3..22 hold three "0" digits and the 17 digits; the point goes in at byte
    P = 6 + q (q = decpt, or 1 for the exponent layout): the bytes from P on
    move up one byte, and the layout's masks keep the digits to show, set
    the point, "," (byte 0), "-" (byte 1) and the "0" before the point of
    values below 1 (byte 2). So a positional repr ends by byte 23, and only
    the exponent layout fills the last word.
    """
    t = _repr_tables()
    bits = values.view(np.uint64)
    d, e = _shortest_decimal(bits)
    log2 = ((d | _U64(1)).view(np.int64).astype(np.float64).view(np.int64) >> 52) - 1022
    nd = log2 * 1233 >> 12  # digit count of d (1 for zero), or one less
    nd += d >= t.pow10.take(nd)
    decpt = nd + e
    d *= t.pow10.take(17 - nd)  # 17 digits
    groups = (d // t.pow10[16::-4, None]).view(np.int64)  # the lead digit, four groups of four
    groups[1:] -= groups[:-1] * 10000
    n = t.last4.take(groups[1:] + np.arange(0, 40000, 10000)[:, None]).max(axis=0)
    field = np.zeros((values.size, 4), np.uint64)  # the digits placed one byte up
    half = field.view(np.uint32)
    half[:, 1] = (groups[0] << 24) + int.from_bytes(b"0000", "little")  # "000", the lead digit
    for j in range(1, 5):
        half[:, j + 1] = t.digits4.take(groups[j])
    layout = np.clip(decpt, -4, 17) * 17 + 374 * (bits >> _U64(63)).view(np.int64)
    layout += n + (4 * 17 - 1)  # decpt from -4, digit count from 1
    low, high, point = t.masks.take(layout, axis=1)
    down = np.zeros_like(field)  # the digits in place
    down.view(np.uint8).ravel()[:-1] = field.view(np.uint8).ravel()[1:]
    down &= low
    field &= high
    field |= down
    field |= point
    field[:, 3] |= t.exponents.take(decpt + 324)
    return field


def _int_words(values):
    """``str`` of each int64 >= 0, right-aligned in uint64 words after two or more 0 bytes."""
    blank4 = _repr_tables().blank4
    width = len(str(int(values.max(initial=0))))
    groups = -(-width // 4)
    words = np.zeros((values.size, -(-(width + 2) // 8) * 2), np.uint32)
    higher = 0
    for j in range(5 - groups, 5):
        quotient = values // 10 ** (16 - 4 * j)
        # leading zeros are blank unless a higher group has digits; the last shows 0
        blank = (higher == 0) * (20000 if j == 4 else 10000)
        words[:, j - 5] = blank4.take(quotient - higher * 10000 + blank)
        higher = quotient
    return words.view(np.uint64)


def _records_rows(first_slot, prefix, alice_x, bob_y) -> bytes:
    """The records-v1 rows of one block.

    Slots are numbered from ``first_slot``; ``prefix`` holds each row's
    ``,X,`` or ``,P,`` and ratio in uint64 words. Each row starts with the
    ``\r\n`` that ends the line before it, and is laid out in uint64 words,
    with 0 bytes between its characters that one ``bytes.translate`` drops:
    ``\r\n`` and the slot (right-aligned), the prefix, then ``,`` and x and
    ``,`` and y (``_repr_words``), each without its last word when no value
    of the block has an exponent.
    """
    m = alice_x.size
    words = _repr_words(np.concatenate([alice_x, bob_y]))
    slots = _int_words(np.arange(first_slot, first_slot + m))
    slots[:, 0] |= _CRLF
    rows = np.concatenate([slots, prefix, *(column[:, :3 + column[:, 3].any()]
                                            for column in (words[:m], words[m:]))], axis=1)
    return rows.tobytes().translate(None, b"\0")


class RecordsFile:
    """An open records file. Called with a record batch, it appends its rows, slots numbered on
    from ``written``, spelling each entry of its ratio table once, and keeps its moments; a
    ratio, alice_x or bob_y that is not finite raises ValueError, as the reader would."""

    def __init__(self, fh, written: int = 0):
        self.fh, self.written, self.moments = fh, written, []

    def __call__(self, batch: RecordBatch) -> None:
        for name, values in (("ratio", batch.ratios), ("alice_x", batch.alice_x),
                             ("bob_y", batch.bob_y)):
            if not np.isfinite(values).all():
                raise ValueError(f"cannot write records: non-finite {name}")
        # ",X,<ratio>" and ",P,<ratio>" per ratio, in uint64 words; a row's cell indexes them
        texts = [f",{quad},{r!r}".encode() for r in batch.ratios.tolist() for quad in "XP"]
        width = -(-max(map(len, texts), default=1) // 8)
        prefixes = np.array(texts, f"S{8 * width}").view(np.uint64).reshape(-1, width)
        cell = batch.ratio_index.astype(np.intp) * 2 + batch.quad
        for start in range(0, len(batch), _RECORDS_BLOCK):
            block = slice(start, start + _RECORDS_BLOCK)
            self.fh.write(_records_rows(self.written + start, prefixes.take(cell[block], axis=0),
                                        batch.alice_x[block], batch.bob_y[block]))
        self.written += len(batch)
        self.moments.append(batch.moments)

    def draw(self, session, slots: int) -> RatioMoments:
        """Write a session of ``slots`` slots in ranges and return its moments; ``session(slots,
        records=..., chunks=...)`` hands ``records`` the batch of each chunk in range ``chunks``."""
        chunk = _rng.CHUNK_SLOTS
        spans = _spans(-(-slots // chunk))
        parts = {a: Path(f"{self.fh.name}.{a}") for a, _ in spans[1:]}
        if parts:  # each CPU draws a range already: sampler threads would only contend
            session = functools.partial(session, threads=1)

        def write(a, b):
            with open(parts[a], "wb") if a else contextlib.nullcontext(self.fh) as fh:
                records = RecordsFile(fh, a * chunk) if a else self
                session(slots, records=records, chunks=range(a, b))
                return records.moments

        try:
            ranges = _forked(write, spans, lambda a, b: f"the writer of data rows {a * chunk + 1} "
                                                        f"to {min(b * chunk, slots)}")
            for part in parts.values():
                with open(part, "rb") as src:
                    while block := src.read(1 << 20):
                        self.fh.write(block)
        finally:
            for part in parts.values():  # every child has been reaped
                part.unlink(missing_ok=True)
        return RatioMoments.fold(itertools.chain.from_iterable(ranges))


@contextlib.contextmanager
def records_writer(path, scenario_hash: str, seed: int):
    """Yield a RecordsFile whose records-v1 rows go to a temporary file next to ``path``
    that replaces it when the block exits without an exception, and is otherwise removed
    with any directory made for it."""
    _repr_tables()  # before the session's columns, so the tables sit below them on the heap
    path = Path(path)
    made = [p for p in (path.parent, *path.parent.parents) if not p.exists()]
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "wb") as fh:
            fh.write((meta_line(RECORDS_FORMAT, scenario_hash, seed) + "\n").encode())
            fh.write(",".join(_RECORDS_DTYPE.names).encode())  # each row starts with "\r\n"
            yield RecordsFile(fh)
            fh.write(b"\r\n")
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        for directory in made:  # deepest first
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise


def _cpus() -> int:
    """The CPUs in ``os.sched_getaffinity(0)``, or 1 without it or without ``os.fork``."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _spans(chunks: int) -> list[tuple[int, int]]:
    """Contiguous ranges [a, b) of ``chunks`` chunks: one per CPU, at most one per chunk."""
    ranges = min(_cpus(), chunks)
    return list(itertools.pairwise(i * chunks // ranges for i in range(ranges + 1)))


def _forked(work, spans, lost):
    """``work(a, b)`` per span, in order: here for the first, in a forked child that pickles
    its result or exception to a pipe for each other. Every child is reaped before the earliest
    span's exception, or OSError ``<lost(a, b)> ended without a result`` if a child sent none."""
    import pickle  # loaded with numpy
    children, results = [], []
    try:
        for span in spans[1:]:
            read, write = os.pipe()
            if not (pid := os.fork()):
                try:  # the child leaves by os._exit: it never returns into the caller
                    with open(write, "wb") as pipe:
                        try:
                            result = work(*span)
                        except Exception as exc:
                            result = exc
                        pipe.write(pickle.dumps(result))
                finally:
                    os._exit(0)
            os.close(write)
            children.append((span, pid, open(read, "rb")))
        results.append(work(*spans[0]))
        for span, _, pipe in children:
            try:
                results.append(pickle.loads(pipe.read()))
            except (EOFError, pickle.UnpicklingError):  # killed, or left before it wrote
                raise OSError(f"{lost(*span)} ended without a result") from None
            if isinstance(results[-1], BaseException):
                raise results[-1]
    finally:
        for _, pid, pipe in children:  # each has sent its result, or an earlier span failed
            pipe.close()
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
    return results


def read_records_csv(path):
    """The RatioMoments of a records CSV, reduced ``rng.CHUNK_SLOTS`` rows at a time
    as a session's chunks are, in ranges of whole chunks (see the module docstring);
    a ratio joins the moments, in ascending order, with the first chunk that holds it.

    Raises ValueError for a metadata line of another format than ``records-v1``,
    another column header, or a bad data row, naming the row (from 1, across the
    file) and, for a cell, its column: a blank line, another column count, a
    cell that is not a number ``np.loadtxt`` reads, a quadrature other than X or
    P, a non-finite ratio, x or y, a slot that is not its row number, or a ratio
    outside [0, 1]; the earliest range's error, or OSError if a child sends none.
    """
    starts = [None, *_chunk_starts(path)] if _cpus() > 1 else [None]  # chunk k from byte starts[k]
    chunk = _rng.CHUNK_SLOTS

    def stop(b):
        return b * chunk if b < len(starts) else None

    def moments(a, b):  # each chunk's, its batch dropped before the next is read
        return list(map(lambda batch: batch.moments,
                        _record_chunks(path, starts[a], a * chunk, stop(b))))

    parts = _forked(moments, _spans(len(starts)), lambda a, b: (
        f"the reader of data rows {a * chunk + 1} to {stop(b) or 'the end'} of {path}"))
    return RatioMoments.fold(itertools.chain.from_iterable(parts))


def _chunk_starts(path) -> list[int]:
    """The byte offset of data row ``k * rng.CHUNK_SLOTS``, k >= 1, of each chunk after the
    first, counting the text reader's line ends: ``\n``, ``\r\n`` and a lone ``\r``."""
    starts, ends, offset = [], 0, 0  # ends: the line ends before byte offset
    with open(path, "rb") as fh:
        target = _rng.CHUNK_SLOTS + 1 + (fh.peek(1)[:1] == b"#")  # after the header lines
        while block := fh.read(1 << 16):  # 22 ms per 1e6-row file, 37 ms in 1 MiB blocks
            lf, cr = (np.frombuffer(block, np.uint8) == byte for byte in b"\n\r")
            np.greater(cr[:-1], lf[1:], out=cr[:-1])  # a \r ends a line unless a \n follows
            cr[-1] &= fh.peek(1)[:1] != b"\n"
            count = np.count_nonzero(lf) + np.count_nonzero(cr)
            while ends + count >= target:
                starts.append(offset + int(np.flatnonzero(lf | cr)[target - ends - 1]) + 1)
                target += _rng.CHUNK_SLOTS
            ends, offset = ends + count, offset + len(block)
    return starts[:-1] if starts and starts[-1] == offset else starts  # no row at the end


def _loadtxt(lines, dtype=_RECORDS_DTYPE, column=None):
    """``np.loadtxt`` of records lines (or a column), None if it refuses or skips (blank) one."""
    with contextlib.suppress(ValueError):
        rows = np.loadtxt(lines, dtype, delimiter=",", comments=None, usecols=column, ndmin=1)
        return rows if rows.size == len(lines) else None


def _refusal(lines, first: int) -> str:
    """The data row (``lines[0]``'s is ``first + 1``) of the line ``_loadtxt`` fails on, and why."""
    for row, line in enumerate(lines, first + 1):
        cells = line.rstrip("\r\n").split(",")
        if not line.strip():
            return f"{row} is blank"
        if len(cells) != len(_RECORDS_DTYPE):
            return f"{row} has {len(cells)} columns, not {len(_RECORDS_DTYPE)}"
        if _loadtxt([line]) is None:  # then it refuses one of the line's cells
            c = next(c for c in range(len(cells)) if _loadtxt([line], _RECORDS_DTYPE[c], c) is None)
            return (f"{row}, column {c + 1} ({_RECORDS_DTYPE.names[c]}): could not convert "
                    f"string {cells[c]!r} to {_RECORDS_DTYPE[c]}")


def _record_chunks(path, start=None, first=0, stop=None):
    """Each ``rng.CHUNK_SLOTS`` rows from data row ``first`` (byte ``start``) to ``stop``,
    a RecordBatch carrying their moments."""
    chunk, seen = _rng.CHUNK_SLOTS, {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        line = fh.readline()
        if line.startswith("#"):
            fmt = _meta(line).get("format")
            if fmt != RECORDS_FORMAT:
                raise ValueError(f"{path} has format {fmt}, not {RECORDS_FORMAT}")
            line = fh.readline()
        header = line.rstrip("\r\n").split(",")
        if tuple(header) != _RECORDS_DTYPE.names:
            raise ValueError(f"unexpected records header {header!r}")
        if start is not None:
            fh.seek(start)  # a byte offset is a text position with no decoder state pending
        bad = f"malformed records CSV {path}: data row"
        for first in itertools.count(first, chunk) if stop is None else range(first, stop, chunk):
            rows, n = np.empty(chunk, _RECORDS_DTYPE), 0
            while n < chunk and (lines := list(itertools.islice(fh, _READ_LINES))):
                # np.loadtxt warns when every line is blank: refuse a blank first line here
                part = _loadtxt(lines) if lines[0].strip() else None
                if part is None:
                    raise ValueError(f"{bad} {_refusal(lines, first + n)}")
                rows[n:n + part.size] = part
                n += part.size
            if first and not n:  # a file of no rows reads as one empty chunk
                return
            rows = rows[:n]
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
            in_domain = DOMAINS["schedule ratio"][0]
            if values.size and not in_domain(values[[0, -1]]).all():  # values ascend
                wrong = np.flatnonzero(~in_domain(rows["ratio"]))[0]
                check("schedule ratio", float(rows["ratio"][wrong]),
                      name=f"{bad} {first + wrong + 1}: ratio")
            # a ratio keeps the label of the chunk that first held it
            labels = [seen.setdefault(v, len(seen)) for v in values.tolist()]
            ratios = np.array(list(seen))
            index = np.array(labels, np.min_scalar_type(max(ratios.size - 1, 0)))[index]
            # the chunk's slots back in the ratio order a session drew them in
            order = np.argsort(index, kind="stable")
            moments = RatioMoments.of_cells(ratios, np.bincount(index, minlength=ratios.size),
                                            rows["alice_x"][order], rows["bob_y"][order])
            yield RecordBatch(quad.view(np.uint8), ratios, index, rows["alice_x"], rows["bob_y"],
                              moments=moments)
            del rows, order  # before the next chunk's rows are allocated


def report_text(items: Iterable[tuple[str, object]]) -> str:
    """The ``key = value`` lines of a report, as written and as printed."""
    return "".join(f"{key} = {fmt_value(value)}\n" for key, value in items)


def write_text(path, text: str) -> None:
    """Write an artifact's text, making the directories its name holds."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def write_report(path, items: Iterable[tuple[str, object]], scenario_hash: str,
                 seed: int, fmt: str = REPORT_FORMAT) -> None:
    """Write a flat key = value document."""
    write_text(path, meta_line(fmt, scenario_hash, seed) + "\n" + report_text(items))


def read_report(path) -> dict[str, str]:
    """Parse a key = value document back (values stay strings); a line without
    ``=`` or a key given twice raises ValueError naming the file and the line.
    A line splits at its first ``=`` after the key's ``]``, as in ``count[r=0.5]``."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            start = line.find("]") + 1 if "[" in line.partition("=")[0] else 0
            cut = line.find("=", start)
            key, sep, value = line[:cut].strip(), cut >= 0, line[cut + 1:].strip()
            if not sep or key in out:
                problem = f"duplicate key {key!r}" if sep else f"expected key = value, got {line!r}"
                raise ValueError(f"{path} line {lineno}: {problem}")
            out[key] = value
    return out


def plan_items(plan: AttackPlan, curve_name: str) -> list[tuple[str, object]]:
    """Flatten a plan (curve, strategy, its parameter, D, wavelengths, intensities) for saving."""
    kind = next(k for k, cls in STRATEGIES.items() if isinstance(plan.strategy, cls))
    items: list[tuple[str, object]] = [("curve", curve_name), ("strategy", kind)]
    items += [(f.name, getattr(plan.strategy, f.name)) for f in fields(plan.strategy)]
    items.append(("displacement", plan.displacement))
    wl = plan.wavelength
    if wl is not None:
        for (name, _, _), pulse in zip(PULSES, wl.pulses):
            items.append((f"{name}_wavelength_nm", pulse.wavelength_nm))
            items.append((f"{name}_intensity", pulse.intensity))
    return items


def write_plan(path, plan: AttackPlan, curve_name: str, scenario_hash: str,
               seed: int) -> None:
    write_report(path, plan_items(plan, curve_name), scenario_hash, seed, fmt=PLAN_FORMAT)


def load_plan(path, curve: BeamSplitterCurve, detector: DetectorConfig,
              strategy: str) -> AttackPlan:
    """Rebuild a plan of ``strategy`` (a key of ``STRATEGIES``) from a plan file,
    revalidating against the active curve.

    Raises ValueError naming both formats for a metadata line of another
    format than ``plan-v2`` (a file without one is read); naming the file and
    the key when a key is missing, is not one ``plan_items`` writes for the
    plan, or holds a number that is not finite (the scenario parser's rule),
    or when ``displacement`` is outside its domain; naming both curves or both
    strategies when the plan was written for another curve than ``curve`` or
    holds another strategy than ``strategy``; and naming the file and the pulse when
    ``ForeignPulse`` or ``curve`` refuses a pulse, or its mean current on
    ``curve`` is not its sign times ``displacement``.
    """
    fmt = read_meta(path).get("format", PLAN_FORMAT)
    if fmt != PLAN_FORMAT:
        raise ValueError(f"plan file {path} has format {fmt}, not {PLAN_FORMAT}")
    kv = read_report(path)

    def number(key: str) -> float:
        return parse_float(kv[key], None, f"plan file {path} key {key!r}")

    try:
        if kv["curve"] != curve.nominal_ratio:
            raise ValueError(f"plan file {path} was written for curve {kv['curve']}, "
                             f"but the scenario's curve is {curve.nominal_ratio}")
        if kv["strategy"] != strategy:
            raise ValueError(f"plan file {path} holds a strategy {kv['strategy']} plan, "
                             f"but the scenario names strategy {strategy}")
        cls = STRATEGIES[strategy]
        plan = AttackPlan(cls(*(number(f.name) for f in fields(cls))), None)
        displacement = check("displacement", number("displacement"),
                             name=f"plan file {path} key 'displacement'")
        if displacement != 0.0:
            pulses = []
            for name, pulse_path, sign in PULSES:
                nm, intensity = number(f"{name}_wavelength_nm"), number(f"{name}_intensity")
                try:
                    pulses.append(ForeignPulse(nm, intensity, pulse_path))
                    mean, _ = foreign_pulse_response(detector, curve, pulses[-1])
                except ValueError as exc:
                    raise ValueError(f"plan file {path}: {name} pulse: {exc}") from None
                if not math.isclose(mean, sign * displacement, rel_tol=1e-9):
                    raise ValueError(f"plan file {path}: {name} pulse produces displacement "
                                     f"{mean!r}, expected {sign * displacement!r}")
            plan = AttackPlan(plan.strategy, WavelengthPlan.from_pulses(curve, detector, pulses,
                                                                        displacement))
    except KeyError as exc:
        raise ValueError(f"plan file {path} has no {exc.args[0]!r} key") from None
    written = dict(plan_items(plan, ""))
    unknown = [key for key in kv if key not in written]
    if unknown:
        raise ValueError(f"plan file {path} has unknown key {unknown[0]!r}")
    return plan


def csv_text(rows: list[list], header: list[str], scenario_hash: str, seed: int) -> str:
    """Render a sweep grid as CSV after the standard metadata line, each line ended
    by ``\r\n``; no value a sweep writes holds a comma, a quote or a line break."""
    lines = (",".join(map(fmt_value, row)) + "\r\n" for row in [header, *rows])
    return meta_line(SWEEP_FORMAT, scenario_hash, seed) + "\n" + "".join(lines)
