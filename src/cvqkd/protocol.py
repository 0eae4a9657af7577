"""Honest Gaussian-modulated coherent-state session, the slot sampler, and the estimators.

Conventions: Alice's quadrature x is stored pre-channel in sqrt(N0)
normalization, so Var(x) = V_A * N0 with N0 = eta * I_LO the shot-noise unit.
Bob's outcome is the total differential current
    y = sqrt(r * eta * eta_ch) * x + noise,
whose conditional variance at attenuation ratio r is
    r * eta * eta_ch * xi * N0 + N0 + v_el.
That makes Var(y | r) affine in r for an honest session, which is exactly the
assumption the real-time shot-noise estimator rests on.

``NoiseTable`` is the noise model: per (ratio, injected-pulse set) the gain
on x, noise variance, mean offset and the LO level only the monitor reads.
``sample_session`` draws honest and attacked slots from it, and every analytic
variance and moment is read off it (``NoiseTable.outcome_moments``). Each chunk of
``rng.CHUNK_SLOTS`` slots first draws its per-ratio slot counts with one
multinomial, then its columns in ratio order, so every ratio's slots are one
contiguous block reduced with contiguous two-pass sums. A records run then
draws a permutation of the chunk's ratio labels, after every other draw,
keeps it as the chunk's ratio index (a ``RecordBatch`` holds the ratio table
and one label per slot; a slot is its row number), and places the
ratio-ordered slots at those positions; last it draws each slot's quadrature
label, a fair bit that no statistic reads (both quadratures have the same
law). The chunks' batches are handed on in chunk order, to the records
writer or joined. The sequence is i.i.d. and the moments are bit-identical.

Every estimator reads ``RatioMoments``: per ratio the slot count, mean and M2
of y and the sum of x*y, both quadratures pooled as the estimators pool them.
The chunks' moments are merged in chunk order with the pairwise update of
Chan, Golub & LeVeque (1983), so a session needs memory for a few chunks, not
for its slots, and its moments are bit-identical for any thread count. A
batch carries the moments its source reduced and never reduces its columns
again: the records reader cuts a file at the same chunk boundaries, puts each
chunk's slots back in ratio order with a stable sort of their ratio index and
runs the same reduction, so it reproduces the session's moments bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import pairwise
from typing import Callable, Iterable

import numpy as np

from . import rng as _rng
from .errors import ConfigError, EstimationError, check
from .physics import DetectorConfig


@dataclass(frozen=True)
class AttenuationSchedule:
    """Attenuation ratios of the signal path and their probabilities; ConfigError if invalid."""

    entries: tuple[tuple[float, float], ...]

    def __post_init__(self):
        entries = tuple((check("schedule ratio", float(r)), check("schedule probability", float(p)))
                        for r, p in self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise ConfigError("schedule needs at least one (ratio, probability) entry")
        gaps = [b - a for a, b in pairwise(sorted(r for r, _ in entries))]
        if gaps:  # the estimators divide by the gap between two ratios that drew slots
            check("schedule span", min(gaps))
        probs = [p for _, p in entries]
        if not abs(sum(probs) - 1.0) <= 1e-12:
            raise ConfigError(f"probabilities sum to {sum(probs)!r}, expected 1")

    @property
    def ratios(self) -> np.ndarray:
        return np.array([r for r, _ in self.entries])

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([p for _, p in self.entries])


TWO_POINT_SCHEDULE = AttenuationSchedule(((0.001, 0.5), (1.0, 0.5)))
THREE_RATIO_SCHEDULE = AttenuationSchedule(((1.0, 0.90), (0.5, 0.05), (0.001, 0.05)))


@dataclass(frozen=True)
class SystemParams:
    """All honest-system constants of one receiver/transmitter pair."""

    modulation_variance: float = 5.0
    channel_transmittance: float = 0.9
    excess_noise: float = 0.1
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    lo_intensity: float = 1e8
    schedule: AttenuationSchedule = TWO_POINT_SCHEDULE

    def __post_init__(self):
        for key in ("modulation_variance", "channel_transmittance", "excess_noise", "lo_intensity"):
            check(key, getattr(self, key))
        check("electronic_noise", self.detector.electronic_noise, self.shot_noise_unit)

    @property
    def shot_noise_unit(self) -> float:
        return self.detector.efficiency * self.lo_intensity


def _chan(na, ma, m2a, nb, mb, m2b):
    """Pairwise merge of (count, mean, M2) (Chan, Golub & LeVeque 1983).

    Exact when either side is empty: that side's weight is then 0 and the
    other's 1.
    """
    n = na + nb
    wb = nb / np.maximum(n, 1)
    delta = mb - ma
    return n, ma + delta * wb, m2a + m2b + delta * delta * na * wb


class RatioMoments:
    """Sufficient statistics of a slot stream per attenuation ratio.

    Entry k of each array belongs to ``ratios[k]``: the slot count, the mean
    and M2 (sum of squared deviations from the mean) of Bob's outcome, and the
    sum of Alice's x times Bob's outcome.
    """

    __slots__ = ("ratios", "count", "mean", "m2", "sxy")

    def __init__(self, ratios, count, mean, m2, sxy):
        self.ratios = ratios
        self.count = count
        self.mean = mean
        self.m2 = m2
        self.sxy = sxy

    @classmethod
    def of_cells(cls, ratios, counts, alice_x, bob_y, scratch=None) -> "RatioMoments":
        """Moments of slots stored ratio by ratio.

        Ratio ``ratios[k]`` holds the next ``counts[k]`` slots of the columns,
        ratios in ascending index order. Each block is reduced with contiguous
        two-pass sums (``np.add.reduce``, which never threads): the mean
        first, then the squared deviations from it. ``scratch``, as long as
        the columns, is overwritten.
        """
        size = counts.size
        mean, m2, sxy = np.zeros(size), np.zeros(size), np.zeros(size)
        t = np.empty(bob_y.size) if scratch is None else scratch
        stop = np.cumsum(counts)
        for k in np.flatnonzero(counts):
            a, b = stop[k] - counts[k], stop[k]
            y = bob_y[a:b]
            mean[k] = np.add.reduce(y) / counts[k]
            dev = np.subtract(y, mean[k], out=t[a:b])
            m2[k] = np.add.reduce(np.multiply(dev, dev, out=dev))
            sxy[k] = np.add.reduce(np.multiply(alice_x[a:b], y, out=t[a:b]))
        return cls(ratios, counts, mean, m2, sxy)

    @staticmethod
    def fold(parts: Iterable["RatioMoments"]) -> "RatioMoments":
        """Merge per-chunk moments left to right, in the order given (chunk order)."""
        parts = iter(parts)
        total = next(parts, None)
        if total is None:
            raise ValueError("no moments to fold")
        for part in parts:
            total = total.merge(part)
        return total

    def merge(self, other: "RatioMoments") -> "RatioMoments":
        """Moments of this stream followed by ``other``, their ratios matched by value: a
        ratio only ``other`` has joins the table after this one's, in ``other``'s order."""
        at = {ratio: k for k, ratio in enumerate(other.ratios.tolist())}
        table = dict.fromkeys(self.ratios.tolist()) | dict.fromkeys(at)
        a, b = ([m.count, m.mean, m.m2, m.sxy] for m in (self, other))
        if len(table) > self.ratios.size or list(table) != list(at):  # not one table: align
            take = [at.get(ratio, -1) for ratio in table]  # -1: a 0 where ``other`` has no slots
            a = [np.pad(v, (0, len(table) - self.ratios.size)) for v in a]
            b = [np.append(v, 0)[take] for v in b]
        return RatioMoments(np.array(list(table)), *_chan(*a[:3], *b[:3]), a[3] + b[3])


class RecordBatch:
    """Columnar store of pulse records (one numpy array per field).

    Slot i is row i. Its attenuation ratio is ``ratios[ratio_index[i]]``: the
    batch holds the table of ratios and one label per slot, of the smallest
    unsigned type that indexes the table (uint8 up to 256 ratios).
    ``moments`` are the RatioMoments its source reduced, the sampler's or the
    records reader's, or None for a batch built only to be written.
    """

    def __init__(self, quad, ratios, ratio_index, alice_x, bob_y, eve_x=None,
                 *, moments: RatioMoments | None = None):
        self.quad = np.asarray(quad, dtype=np.uint8)  # 0 = X, 1 = P
        self.ratios = np.asarray(ratios, dtype=float)
        self.ratio_index = np.asarray(ratio_index,
                                      np.min_scalar_type(max(self.ratios.size - 1, 0)))
        self.alice_x = np.asarray(alice_x, dtype=float)
        self.bob_y = np.asarray(bob_y, dtype=float)
        self.eve_x = None if eve_x is None else np.asarray(eve_x, dtype=float)
        self.moments = moments

    @classmethod
    def collect(cls, chunks: Iterable["RecordBatch"], records=True):
        """Fold the moments of batches of consecutive slots, in slot order, handing
        each to ``records`` when that is a callable. Returns the RatioMoments, or
        with ``records=True`` one batch of all the slots carrying them. A batch's
        ratio table begins with the earlier ones'."""
        kept = []

        def each():
            for chunk in chunks:
                if callable(records):
                    records(chunk)
                elif records:
                    kept.append(chunk)
                yield chunk.moments

        moments = RatioMoments.fold(each())
        if records is not True:
            return moments
        columns = {name: None if getattr(kept[0], name) is None
                   else np.concatenate([getattr(chunk, name) for chunk in kept])
                   for name in ("quad", "ratio_index", "alice_x", "bob_y", "eve_x")}
        return cls(ratios=kept[-1].ratios, moments=moments, **columns)

    def __len__(self) -> int:
        return self.quad.size


def ratio_moments(records: RatioMoments | RecordBatch) -> RatioMoments:
    """The per-ratio moments of a session result: its moments, or a record batch."""
    if isinstance(records, RatioMoments):
        return records
    return records.moments


@dataclass(frozen=True)
class EstimatorReport:
    """Output of the two-point real-time shot-noise estimation."""

    shot_noise_est: float
    excess_noise_est: float
    covariance_xy: float

    def as_items(self) -> list[tuple[str, float]]:
        return [("shot_noise_est", self.shot_noise_est),
                ("excess_noise_est", self.excess_noise_est),
                ("covariance_xy", self.covariance_xy)]


@dataclass(frozen=True)
class NoiseTable:
    """The law of one slot, per attenuation ratio k and injected-pulse set j.

    Ratio k is picked with ``probabilities[k]`` and, when ``var`` has two
    columns, pulse set j with 1/2 each; the quadrature, X or P with 1/2 each,
    does not change the law. Alice draws x ~ N(0, sig_x^2). Under attack Eve
    reads x_e = x + N(0, sig_intercept^2) and resends from it; honest sessions
    have no intercept (``sig_intercept`` None) and x_e = x. Bob reads
        y = gain[k] * x_e + offset[k, j] + sqrt(var[k, j]) * z,    z ~ N(0, 1),
    where ``var`` sums the variances of every independent Gaussian noise term,
    and only the LO-intensity monitor reads ``lo_level[j]`` (None: no monitor).
    """

    ratios: np.ndarray          # (K,)
    probabilities: np.ndarray   # (K,)
    sig_x: float
    gain: np.ndarray            # (K,)
    var: np.ndarray             # (K, J), J = 1 or 2 pulse sets
    offset: np.ndarray          # (K, J)
    sig_intercept: float | None = None
    lo_level: np.ndarray | None = None  # (J,)

    def __post_init__(self):
        if self.var.shape[1] not in (1, 2):
            raise ValueError(f"a noise table has one or two pulse sets, got {self.var.shape[1]}")

    def outcome_moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Per ratio, the population variance V and fourth central moment m4 of y.

        Given pulse set j, y is Gaussian with mean offset[k, j] and variance
        var_j = gain[k]^2 (sig_x^2 + sig_intercept^2) + var[k, j]. Over the
        equally likely sets, with dev_j = offset[k, j] - mean_j(offset[k]):
            V = mean_j[var_j + dev_j^2],
            m4 = mean_j[dev_j^4 + 6 dev_j^2 var_j + 3 var_j^2].
        """
        var_xe = self.sig_x ** 2 + (self.sig_intercept or 0.0) ** 2
        var = (self.gain ** 2 * var_xe)[:, None] + self.var
        dev2 = (self.offset - self.offset.mean(axis=1, keepdims=True)) ** 2
        return (np.mean(var + dev2, axis=1),
                np.mean(dev2 * dev2 + 6.0 * dev2 * var + 3.0 * var * var, axis=1))


def honest_noise_table(params: SystemParams, shot_noise: float | None = None) -> NoiseTable:
    """The per-ratio law of one slot at Bob's receiver with no injected pulse: one
    pulse set with no offset, no intercept and no LO monitor. ``shot_noise`` is
    his realistic shot noise, N0 when None; the excess noise stays in units of N0."""
    ratios = params.schedule.ratios
    n0 = params.shot_noise_unit
    shot = n0 if shot_noise is None else shot_noise
    ree = ratios * params.detector.efficiency * params.channel_transmittance
    noise_var = ree * params.excess_noise * n0 + shot + params.detector.electronic_noise
    return NoiseTable(ratios, params.schedule.probabilities,
                      math.sqrt(params.modulation_variance * n0), np.sqrt(ree),
                      noise_var[:, None], np.zeros((len(ratios), 1)))


def sample_session(table: NoiseTable, slots: int, master_seed: int, *, threads: int = 1,
                   records: bool | Callable = True, chunks: range | None = None):
    """Draw ``slots`` slots (those in ``chunks``) from ``table``; reproducible in (seed, slots).

    Per chunk, in this order: the multinomial per-ratio counts; then, each
    column over the whole chunk in ratio order, x, Eve's heterodyne noise
    (with an intercept), the pulse-set labels (with two pulse sets) and Bob's
    noise normal; last, with records, the permutation of the ratio labels
    that places the slots and then one quadrature bit per slot. A slot's
    pulse-set label gathers its set's noise sd and offset with
    ``np.take`` in clip mode, which, unlike raise mode, writes into ``out``
    without a copy. Each chunk allocates its columns once, as one block.

    With records, each chunk's slots become a RecordBatch in slot order, and
    the batches go, in chunk order, to ``records`` when it is a callable, or
    else into the returned batch, which carries the session's moments. With a
    callable or ``records=False`` it returns only the RatioMoments, in memory
    that does not grow with ``slots``.
    """
    ratios = table.ratios
    size = len(ratios)
    label_type = np.min_scalar_type(size - 1)
    sd = np.sqrt(table.var)
    two_sets = sd.shape[1] == 2
    intercept = table.sig_intercept is not None

    def fill(gen, start, stop):
        m = stop - start
        x, xe, y, t = np.empty((4, m))  # one block, drawn into with out=
        counts = gen.multinomial(m, table.probabilities)
        if table.sig_x > 0:
            gen.standard_normal(out=x)
            x *= table.sig_x
        else:
            x.fill(0.0)
        if intercept:
            gen.standard_normal(out=xe)
            xe *= table.sig_intercept
            xe += x
        else:
            xe = x
        if two_sets:
            gen.random(out=t)
            pulse_set = np.less(t, 0.5).view(np.uint8)  # column j of the per-set tables
        gen.standard_normal(out=y)
        stop_c = np.cumsum(counts)
        for k in np.flatnonzero(counts):
            a, b = stop_c[k] - counts[k], stop_c[k]
            yc, tc = y[a:b], t[a:b]
            if two_sets:
                yc *= np.take(sd[k], pulse_set[a:b], out=tc, mode="clip")
                yc += np.take(table.offset[k], pulse_set[a:b], out=tc, mode="clip")
            else:
                yc *= sd[k, 0]
                if table.offset[k, 0] != 0.0:
                    yc += table.offset[k, 0]
            yc += np.multiply(xe[a:b], table.gain[k], out=tc)
        moments = RatioMoments.of_cells(ratios, counts, x, y, t)
        if not records:
            return moments
        # numpy shuffles intp faster than uint8, and sorts uint8 faster than intp
        ratio_index = gen.permutation(np.repeat(np.arange(size), counts)).astype(label_type)
        place = np.argsort(ratio_index, kind="stable")

        def placed(values):
            column = np.empty(m)
            column[place] = values
            return column

        return RecordBatch(gen.integers(0, 2, m, dtype=np.uint8), ratios, ratio_index,
                           placed(x), placed(y), placed(xe) if intercept else None, moments=moments)

    chunks = _rng.run_chunked(slots, master_seed, fill, threads=threads, chunks=chunks)
    return RecordBatch.collect(chunks, records) if records else RatioMoments.fold(chunks)


def run_honest_session(params: SystemParams, slots: int, master_seed: int, *, threads: int = 1,
                       records: bool | Callable = True, chunks: range | None = None):
    """Simulate ``slots`` honest protocol slots drawn from ``honest_noise_table``;
    reproducible in (seed, slots).

    Returns a RecordBatch carrying the session's moments, or, with
    ``records`` False or a callable that takes each chunk's records, only
    the RatioMoments (see ``sample_session``, which also reads ``chunks``).
    """
    return sample_session(honest_noise_table(params), slots, master_seed,
                          threads=threads, records=records, chunks=chunks)


def two_point_from_variances(v1: float, v2: float, r1: float, r2: float,
                             eta: float, eta_ch: float, v_el: float,
                             modulation_variance: float) -> tuple[float, float]:
    """Shot-noise and excess-noise estimates from the variances at two ratios.

    Inverts the affine noise model: with V(r) = r*eta*eta_ch*(V_A+xi)*N0 + N0 + v_el,
        N0_est = (r2*V1 - r1*V2)/(r2 - r1) - v_el
        xi_est = [ (V2 - V1)/((r2 - r1)*eta*eta_ch) - V_A*N0_est ] / N0_est
    """
    if r2 == r1:
        raise EstimationError("degenerate schedule: the two estimation ratios coincide")
    n0_est = (r2 * v1 - r1 * v2) / (r2 - r1) - v_el
    slope = (v2 - v1) / ((r2 - r1) * eta * eta_ch)
    xi_est = (slope - modulation_variance * n0_est) / n0_est
    return n0_est, xi_est


def variances_by_ratio(records) -> dict[float, tuple[float, int]]:
    """Per-ratio sample variance (ddof=1) and count."""
    moments = ratio_moments(records)
    out: dict[float, tuple[float, int]] = {}
    for k in np.argsort(moments.ratios):
        n = int(moments.count[k])
        if n == 0:
            continue
        r = float(moments.ratios[k])
        if n < 2:
            raise EstimationError(f"need >= 2 records at ratio {r!r} (got {n})")
        out[r] = (float(moments.m2[k] / (n - 1)), n)
    return out


def estimate_two_point(records, params: SystemParams) -> EstimatorReport:
    """Run the two-extreme-ratio estimation over a record stream.

    The minimum and maximum ratios present act as (r1, r2); middle ratios
    do not enter the two-point inversion.
    """
    moments = ratio_moments(records)
    per_ratio = variances_by_ratio(moments)
    if len(per_ratio) < 2:
        raise EstimationError("two-point estimation needs records at >= 2 distinct ratios")
    r1, r2 = min(per_ratio), max(per_ratio)
    v1, _ = per_ratio[r1]
    v2, n2 = per_ratio[r2]
    n0_est, xi_est = two_point_from_variances(
        v1, v2, r1, r2,
        params.detector.efficiency, params.channel_transmittance,
        params.detector.electronic_noise, params.modulation_variance)
    cov = float(moments.sxy[moments.ratios == r2].sum() / n2)
    return EstimatorReport(n0_est, xi_est, cov)


def estimate_covariance_transmittance(records, params: SystemParams) -> float:
    """Channel transmittance from the Alice/Bob covariance at full transmission.

    Uses Cov(x, y) = sqrt(eta*eta_ch) * V_A * N0 over the r = 1 records.
    """
    moments = ratio_moments(records)
    top = moments.ratios == 1.0
    n = int(moments.count[top].sum())
    if n < 2:
        raise EstimationError("transmittance estimation needs >= 2 records at ratio 1")
    if params.modulation_variance == 0.0:
        raise EstimationError("transmittance estimation is degenerate at zero modulation")
    cov = float(moments.sxy[top].sum() / n)
    scaled = cov / (params.modulation_variance * params.shot_noise_unit)
    return scaled * scaled / params.detector.efficiency
