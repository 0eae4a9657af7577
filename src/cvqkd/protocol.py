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
on x, noise sd, mean offset and LO-monitor level. ``sample_session`` draws
honest and attacked slots from it, and every analytic variance and moment is
read off it (``NoiseTable.outcome_moments``). Each chunk of
``rng.CHUNK_SLOTS`` slots first draws its per-(ratio, quadrature) cell counts
with one multinomial, then its columns in cell order, so every cell is one
contiguous block reduced with contiguous two-pass sums. A records run then
draws a permutation of the chunk's cell labels, after every other draw, and
writes the cell-ordered slots at those positions: the written sequence is
i.i.d. and the moments are bit-identical with and without records.

Every estimator reads ``RatioMoments``: per (ratio, quadrature) the slot
count, mean and M2 of y and the sum of x*y. The chunks' moments are merged in
chunk order with the pairwise update of Chan, Golub & LeVeque (1983), so a
session needs memory for a few chunks, not for its slots, and its moments are
bit-identical for any thread count. A batch read back from a records file is
cut at the same chunk boundaries, each chunk's slots are put back in cell
order with a stable sort of their cell ids, and the same reduction runs, so
it reproduces the session's moments bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from . import rng as _rng
from .errors import EstimationError, ScheduleError
from .physics import DetectorConfig


@dataclass(frozen=True)
class AttenuationSchedule:
    """Attenuation ratios the receiver applies on the signal path, with probabilities."""

    entries: tuple[tuple[float, float], ...]

    def __post_init__(self):
        entries = tuple((float(r), float(p)) for r, p in self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise ScheduleError("schedule needs at least one (ratio, probability) entry")
        ratios = [r for r, _ in entries]
        probs = [p for _, p in entries]
        if any(not (0.0 <= r <= 1.0) for r in ratios):
            raise ScheduleError("attenuation ratios must lie in [0, 1]")
        if len(set(ratios)) != len(ratios):
            raise ScheduleError("attenuation ratios must be pairwise distinct")
        if any(p < 0.0 for p in probs):
            raise ScheduleError("probabilities must be >= 0")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise ScheduleError(f"probabilities sum to {sum(probs)!r}, expected 1")

    @property
    def ratios(self) -> np.ndarray:
        return np.array([r for r, _ in self.entries])

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([p for _, p in self.entries])

    def discard_fraction(self) -> float:
        """Probability mass on ratios != 1, i.e. pulses lost to attenuation."""
        return float(sum(p for r, p in self.entries if r != 1.0))


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
        # each check is false for NaN, so NaN fails it too
        if not 0.0 <= self.modulation_variance < math.inf:
            raise ValueError("modulation_variance must be finite and >= 0, "
                             f"got {self.modulation_variance!r}")
        if not (0.0 < self.channel_transmittance <= 1.0):
            raise ValueError("channel transmittance must be in (0, 1]")
        if not 0.0 <= self.excess_noise < math.inf:
            raise ValueError(f"excess_noise must be finite and >= 0, got {self.excess_noise!r}")
        if not 0.0 < self.lo_intensity < math.inf:
            raise ValueError(f"lo_intensity must be finite and > 0, got {self.lo_intensity!r}")

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


def distinct_values(values: np.ndarray):
    """Sorted distinct values of a 1-D array and each element's index among them.

    The result of ``np.unique(values, return_inverse=True)``, found with one
    pass per distinct value instead of a sort, for columns that hold a few
    values such as attenuation ratios. Equal floats group together (-0.0 with
    0.0, represented by the first seen). Past 64 distinct values it sorts.
    Raises ValueError on NaN.
    """
    found = []
    rest = values
    while rest.size:
        if len(found) == 64:
            return np.unique(values, return_inverse=True)
        first = rest[0]
        if first != first:
            raise ValueError("cannot group NaN values")
        found.append(first)
        rest = rest[rest != first]
    table = np.sort(np.array(found, values.dtype))
    return table, np.searchsorted(table, values)


class RatioMoments:
    """Sufficient statistics of a slot stream per (attenuation ratio, quadrature).

    Row k belongs to ``ratios[k]``, column q to quadrature X (0) or P (1). Per
    cell: the slot count, the mean and M2 (sum of squared deviations from the
    mean) of Bob's outcome, the sum of Alice's x times Bob's outcome, and the
    sum of the monitored LO intensity (``lo_sum`` is None when the stream
    carries no LO monitor).
    """

    __slots__ = ("ratios", "count", "mean", "m2", "sxy", "lo_sum")

    def __init__(self, ratios, count, mean, m2, sxy, lo_sum=None):
        self.ratios = ratios
        self.count = count
        self.mean = mean
        self.m2 = m2
        self.sxy = sxy
        self.lo_sum = lo_sum

    @classmethod
    def of_cells(cls, ratios, counts, alice_x, bob_y, lo_observed=None,
                 scratch=None) -> "RatioMoments":
        """Moments of slots stored cell by cell.

        Cell ``c = 2*k + q`` (ratio ``ratios[k]``, quadrature q) holds the
        next ``counts[c]`` slots of the columns, cells in ascending order.
        Each block is reduced with contiguous two-pass sums (``np.add.reduce``,
        which never threads): the mean first, then the squared deviations from
        it. ``scratch``, as long as the columns, is overwritten.
        """
        size = counts.size
        mean, m2, sxy = np.zeros(size), np.zeros(size), np.zeros(size)
        lo = None if lo_observed is None else np.zeros(size)
        t = np.empty(bob_y.size) if scratch is None else scratch
        stop = np.cumsum(counts)
        for c in np.flatnonzero(counts):
            a, b = stop[c] - counts[c], stop[c]
            y = bob_y[a:b]
            mean[c] = np.add.reduce(y) / counts[c]
            dev = np.subtract(y, mean[c], out=t[a:b])
            m2[c] = np.add.reduce(np.multiply(dev, dev, out=dev))
            sxy[c] = np.add.reduce(np.multiply(alice_x[a:b], y, out=t[a:b]))
            if lo is not None:
                lo[c] = np.add.reduce(lo_observed[a:b])
        shape = (size // 2, 2)
        return cls(ratios, counts.reshape(shape), mean.reshape(shape), m2.reshape(shape),
                   sxy.reshape(shape), None if lo is None else lo.reshape(shape))

    @classmethod
    def of_batch(cls, batch: "RecordBatch") -> "RatioMoments":
        """Moments of a record batch, cut at the sessions' chunk boundaries.

        Within each chunk a stable sort of the cell ids puts the slots back in
        the cell order they were drawn in, and ``of_cells`` reduces them, so
        the records of a session give back the session's moments bit for bit.
        """
        ratios, k = distinct_values(batch.ratio)
        size = 2 * len(ratios)
        cell = (2 * k + batch.quad).astype(np.min_scalar_type(max(size - 1, 0)))
        lo = batch.lo_observed
        parts = []
        for start in range(0, max(len(batch), 1), _rng.CHUNK_SLOTS):
            cut = slice(start, start + _rng.CHUNK_SLOTS)
            order = np.argsort(cell[cut], kind="stable")
            parts.append(cls.of_cells(ratios, np.bincount(cell[cut], minlength=size),
                                      batch.alice_x[cut][order], batch.bob_y[cut][order],
                                      None if lo is None else lo[cut][order]))
        return cls.fold(parts)

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
        """Moments of this stream followed by ``other``, over the same ratio table."""
        count, mean, m2 = _chan(self.count, self.mean, self.m2,
                                other.count, other.mean, other.m2)
        lo = None if self.lo_sum is None else self.lo_sum + other.lo_sum
        return RatioMoments(self.ratios, count, mean, m2, self.sxy + other.sxy, lo)

    def by_ratio(self, quadrature: str | None = None):
        """Per-ratio (count, M2, sum of x*y) of one quadrature, or of both pooled."""
        if quadrature is not None:
            q = 0 if quadrature == "X" else 1
            return self.count[:, q], self.m2[:, q], self.sxy[:, q]
        c, mu, m2 = self.count, self.mean, self.m2
        count, _, pooled = _chan(c[:, 0], mu[:, 0], m2[:, 0], c[:, 1], mu[:, 1], m2[:, 1])
        return count, pooled, self.sxy.sum(axis=1)


class RecordBatch:
    """Columnar store of pulse records (one numpy array per field).

    ``slot`` may be passed as None for consecutively numbered slots; the
    index column then materializes on first access. ``moments`` are the
    columns' RatioMoments: the sampler passes the ones it streamed, otherwise
    they are reduced from the columns on first use.
    """

    def __init__(self, slot, quad, ratio, alice_x, bob_y, eve_x=None, lo_observed=None,
                 *, moments: RatioMoments | None = None):
        self._slot = None if slot is None else np.asarray(slot, dtype=np.int64)
        self.quad = np.asarray(quad, dtype=np.uint8)  # 0 = X, 1 = P
        self.ratio = np.asarray(ratio, dtype=float)
        self.alice_x = np.asarray(alice_x, dtype=float)
        self.bob_y = np.asarray(bob_y, dtype=float)
        self.eve_x = None if eve_x is None else np.asarray(eve_x, dtype=float)
        self.lo_observed = None if lo_observed is None else np.asarray(lo_observed, dtype=float)
        self._moments = moments

    @property
    def slot(self) -> np.ndarray:
        if self._slot is None:
            self._slot = np.arange(self.quad.size, dtype=np.int64)
        return self._slot

    @property
    def moments(self) -> RatioMoments:
        if self._moments is None:
            self._moments = RatioMoments.of_batch(self)
        return self._moments

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

    variance_per_ratio: dict[float, tuple[float, int]]
    shot_noise_est: float
    excess_noise_est: float
    covariance_xy: float

    def as_items(self) -> list[tuple[str, float]]:
        items: list[tuple[str, float]] = []
        for r in sorted(self.variance_per_ratio):
            v, n = self.variance_per_ratio[r]
            items.append((f"variance[r={r!r}]", v))
            items.append((f"count[r={r!r}]", float(n)))
        items.append(("shot_noise_est", self.shot_noise_est))
        items.append(("excess_noise_est", self.excess_noise_est))
        items.append(("covariance_xy", self.covariance_xy))
        return items


@dataclass(frozen=True)
class NoiseTable:
    """The law of one slot, per attenuation ratio k and injected-pulse set j.

    Ratio k is picked with ``probabilities[k]``, the quadrature with 1/2
    each and, when ``sd`` has two columns, pulse set j with 1/2 each. Alice
    draws x ~ N(0, sig_x^2). Under attack Eve reads x_e = x + N(0,
    sig_intercept^2) and resends from it; honest sessions have no intercept
    (``sig_intercept`` None) and x_e = x. Bob reads
        y = gain[k] * x_e + offset[k, j] + sd[k, j] * z,    z ~ N(0, 1),
    where ``sd`` sums the variances of every independent Gaussian noise term,
    and an LO-intensity monitor reads ``lo_level[j]`` (None: no monitor).
    """

    ratios: np.ndarray          # (K,)
    probabilities: np.ndarray   # (K,)
    sig_x: float
    gain: np.ndarray            # (K,)
    sd: np.ndarray              # (K, J), J = 1 or 2 pulse sets
    offset: np.ndarray          # (K, J)
    sig_intercept: float | None = None
    lo_level: np.ndarray | None = None  # (J,)

    def __post_init__(self):
        if self.sd.shape[1] not in (1, 2):
            raise ValueError(f"a noise table has one or two pulse sets, got {self.sd.shape[1]}")

    def outcome_moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Per ratio, the population variance V and fourth central moment m4 of y.

        Given pulse set j, y is Gaussian with mean offset[k, j] and variance
        var_j = gain[k]^2 (sig_x^2 + sig_intercept^2) + sd[k, j]^2. Over the
        equally likely sets, with dev_j = offset[k, j] - mean_j(offset[k]):
            V = mean_j[var_j + dev_j^2],
            m4 = mean_j[dev_j^4 + 6 dev_j^2 var_j + 3 var_j^2].
        """
        var_xe = self.sig_x ** 2 + (self.sig_intercept or 0.0) ** 2
        var = (self.gain ** 2 * var_xe)[:, None] + self.sd ** 2
        dev2 = (self.offset - self.offset.mean(axis=1, keepdims=True)) ** 2
        return (np.mean(var + dev2, axis=1),
                np.mean(dev2 * dev2 + 6.0 * dev2 * var + 3.0 * var * var, axis=1))


def honest_noise_table(params: SystemParams) -> NoiseTable:
    """The per-ratio law of one honest slot: one pulse set with no offset, no
    intercept and no LO monitor."""
    ratios = params.schedule.ratios
    n0 = params.shot_noise_unit
    ree = ratios * params.detector.efficiency * params.channel_transmittance
    noise_var = ree * params.excess_noise * n0 + n0 + params.detector.electronic_noise
    return NoiseTable(ratios, params.schedule.probabilities,
                      math.sqrt(params.modulation_variance * n0), np.sqrt(ree),
                      np.sqrt(noise_var)[:, None], np.zeros((len(ratios), 1)))


def sample_session(table: NoiseTable, slots: int, master_seed: int,
                   *, threads: int = 1, records: bool = True):
    """Draw ``slots`` slots from ``table``; reproducible in (seed, slots).

    Per chunk, in this order: the multinomial cell counts; then, each column
    over the whole chunk in cell order, x, Eve's heterodyne noise (with an
    intercept), the pulse-set bits (with two pulse sets) and Bob's noise
    normal; last, with ``records``, the permutation of the cell labels that
    places the slots. Each chunk allocates its columns once, as one block,
    and every draw and product writes into it.

    Returns a RecordBatch carrying the session's moments, or with
    ``records=False`` only the RatioMoments, in memory that does not grow
    with ``slots``.
    """
    ratios = table.ratios
    size = 2 * len(ratios)
    p_cell = np.repeat(table.probabilities / 2.0, 2)  # cell 2k + q
    label_type = np.min_scalar_type(size - 1)
    two_sets = table.sd.shape[1] == 2
    intercept = table.sig_intercept is not None
    monitor = table.lo_level is not None

    if records:
        quad = np.empty(slots, np.uint8)
        ratio = np.empty(slots)
        x_col = np.empty(slots)
        y_col = np.empty(slots)
        xe_col = np.empty(slots) if intercept else None
        lo_col = np.empty(slots) if monitor else None

    def fill(gen, start, stop):
        m = stop - start
        x, xe, y, t, lo = np.empty((5, m))  # one block, drawn into with out=
        bit = np.empty(m, bool)
        counts = gen.multinomial(m, p_cell)
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
            np.less(t, 0.5, out=bit)
        gen.standard_normal(out=y)
        stop_c = np.cumsum(counts)
        for c in np.flatnonzero(counts):
            k = c >> 1
            a, b = stop_c[c] - counts[c], stop_c[c]
            yc, tc = y[a:b], t[a:b]
            if two_sets:
                tc.fill(table.sd[k, 0])
                np.copyto(tc, table.sd[k, 1], where=bit[a:b])
                yc *= tc
                tc.fill(table.offset[k, 0])
                np.copyto(tc, table.offset[k, 1], where=bit[a:b])
                yc += tc
            else:
                yc *= table.sd[k, 0]
                if table.offset[k, 0] != 0.0:
                    yc += table.offset[k, 0]
            yc += np.multiply(xe[a:b], table.gain[k], out=tc)
        if monitor:
            lo.fill(table.lo_level[0])
            if two_sets:
                np.copyto(lo, table.lo_level[1], where=bit)
        moments = RatioMoments.of_cells(ratios, counts, x, y, lo if monitor else None, t)
        if records:
            # numpy shuffles intp faster than uint8, and sorts uint8 faster than intp
            labels = gen.permutation(np.repeat(np.arange(size), counts))
            place = start + np.argsort(labels.astype(label_type), kind="stable")
            quad[start:stop] = labels & 1
            ratio[start:stop] = ratios.take(labels >> 1)
            x_col[place] = x
            y_col[place] = y
            if intercept:
                xe_col[place] = xe
            if monitor:
                lo_col[place] = lo
        return moments

    moments = RatioMoments.fold(_rng.run_chunked(slots, master_seed, fill, threads=threads))
    if not records:
        return moments
    return RecordBatch(None, quad, ratio, x_col, y_col, xe_col, lo_col, moments=moments)


def run_honest_session(params: SystemParams, slots: int, master_seed: int,
                       *, threads: int = 1, records: bool = True):
    """Simulate ``slots`` honest protocol slots drawn from ``honest_noise_table``;
    reproducible in (seed, slots).

    Returns a RecordBatch carrying the session's moments, or with
    ``records=False`` only the RatioMoments (see ``sample_session``).
    """
    return sample_session(honest_noise_table(params), slots, master_seed,
                          threads=threads, records=records)


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


def variances_by_ratio(records, quadrature: str | None = None) -> dict[float, tuple[float, int]]:
    """Per-ratio sample variance (ddof=1) and count, optionally one quadrature only."""
    moments = ratio_moments(records)
    count, m2, _ = moments.by_ratio(quadrature)
    out: dict[float, tuple[float, int]] = {}
    for k in np.argsort(moments.ratios):
        n = int(count[k])
        if n == 0:
            continue
        r = float(moments.ratios[k])
        if n < 2:
            raise EstimationError(f"need >= 2 records at ratio {r!r} (got {n})")
        out[r] = (float(m2[k] / (n - 1)), n)
    return out


def estimate_two_point(records, params: SystemParams,
                       quadrature: str | None = None) -> EstimatorReport:
    """Run the two-extreme-ratio estimation over a record stream.

    The minimum and maximum ratios present act as (r1, r2); middle ratios
    contribute to the per-ratio variance map but not to the two-point inversion.
    """
    moments = ratio_moments(records)
    per_ratio = variances_by_ratio(moments, quadrature)
    if len(per_ratio) < 2:
        raise EstimationError("two-point estimation needs records at >= 2 distinct ratios")
    r1, r2 = min(per_ratio), max(per_ratio)
    v1, _ = per_ratio[r1]
    v2, n2 = per_ratio[r2]
    n0_est, xi_est = two_point_from_variances(
        v1, v2, r1, r2,
        params.detector.efficiency, params.channel_transmittance,
        params.detector.electronic_noise, params.modulation_variance)
    _, _, sxy = moments.by_ratio(quadrature)
    cov = float(sxy[moments.ratios == r2].sum() / n2)
    return EstimatorReport(per_ratio, n0_est, xi_est, cov)


def estimate_covariance_transmittance(records, params: SystemParams) -> float:
    """Channel transmittance from the Alice/Bob covariance at full transmission.

    Uses Cov(x, y) = sqrt(eta*eta_ch) * V_A * N0 over the r = 1 records.
    """
    moments = ratio_moments(records)
    count, _, sxy = moments.by_ratio()
    top = moments.ratios == 1.0
    n = int(count[top].sum())
    if n < 2:
        raise EstimationError("transmittance estimation needs >= 2 records at ratio 1")
    if params.modulation_variance <= 0.0:
        raise EstimationError("transmittance estimation is degenerate at zero modulation")
    cov = float(sxy[top].sum() / n)
    scaled = cov / (params.modulation_variance * params.shot_noise_unit)
    return scaled * scaled / params.detector.efficiency
