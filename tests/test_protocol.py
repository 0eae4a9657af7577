import math
import tracemalloc

import numpy as np
import pytest

from cvqkd.analysis import analytic_variance
from cvqkd.attack import run_attacked_session, solve_attack_parameters
from cvqkd.errors import ConfigError, EstimationError
from cvqkd.physics import DetectorConfig, builtin_curve
from cvqkd.protocol import (AttenuationSchedule, RatioMoments, RecordBatch,
                            SystemParams, THREE_RATIO_SCHEDULE, TWO_POINT_SCHEDULE,
                            estimate_covariance_transmittance,
                            estimate_two_point, honest_noise_table, run_honest_session,
                            two_point_from_variances, variances_by_ratio)
from cvqkd.rng import CHUNK_SLOTS
from cvqkd.serialize import _record_chunks, read_records_csv, records_writer

P_DEFAULT = SystemParams()  # V_A=5, eta=0.5, eta_ch=0.9, xi=0.1, I_LO=1e8
THREE_RATIO_PARAMS = SystemParams(schedule=THREE_RATIO_SCHEDULE)


def _written_and_read(path, batch: RecordBatch) -> RatioMoments:
    """The moments the records reader reduces from ``batch`` written to ``path``."""
    with records_writer(path, "0" * 16, 0) as append:
        append(batch)
    return read_records_csv(path)


def test_schedule_validation():
    with pytest.raises(ConfigError, match="sum"):
        AttenuationSchedule(((1.0, 0.5), (0.5, 0.4)))
    # two equal ratios are a gap of 0.0, which the schedule span row refuses
    with pytest.raises(ConfigError, match=r"schedule span must be >= 1e-6 between every two "
                                          r"ratios, got 0.0"):
        AttenuationSchedule(((1.0, 0.5), (1.0, 0.5)))
    with pytest.raises(ConfigError, match=r"schedule ratio must be in \[0, 1\], got 1.5"):
        AttenuationSchedule(((1.5, 1.0),))
    with pytest.raises(ConfigError, match="at least one"):
        AttenuationSchedule(())


def test_system_params_validation_and_shot_noise():
    assert P_DEFAULT.shot_noise_unit == pytest.approx(5e7)
    with pytest.raises(ValueError):
        SystemParams(channel_transmittance=0.0)
    with pytest.raises(ValueError):
        SystemParams(excess_noise=-0.1)
    with pytest.raises(ValueError):
        SystemParams(lo_intensity=0.0)
    for field in ("modulation_variance", "channel_transmittance", "excess_noise",
                  "lo_intensity"):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=field.replace("_", "[_ ]")):
                SystemParams(**{field: value})


def test_alice_modulate_zero_variance_and_determinism():
    params = SystemParams(modulation_variance=0.0)
    assert honest_noise_table(params).sig_x == 0.0
    assert not run_honest_session(params, 1000, 0).alice_x.any()
    a = run_honest_session(P_DEFAULT, 1000, 1)
    b = run_honest_session(P_DEFAULT, 1000, 1)
    assert np.array_equal(a.alice_x, b.alice_x) and np.array_equal(a.bob_y, b.bob_y)


def test_alice_modulate_empirical_variance():
    # Var(x) = V_A * N0: exact in the table, within 7 sigma in a session
    assert honest_noise_table(P_DEFAULT).sig_x ** 2 == pytest.approx(2.5e8, rel=1e-12)
    batch = run_honest_session(P_DEFAULT, 1_000_000, 2)
    assert np.var(batch.alice_x) == pytest.approx(2.5e8, rel=0.01)


def test_honest_measure_requires_scheduled_ratio():
    # every slot is measured at a ratio of the active schedule
    batch = run_honest_session(P_DEFAULT, 10_000, 0)
    assert set(np.unique(batch.ratios[batch.ratio_index])) == {0.001, 1.0}


def test_honest_measure_record_fields():
    batch = run_honest_session(P_DEFAULT, 1000, 1)
    # one row per slot in every column: the slot is the row number
    assert all(column.shape == (1000,) for column in
               (batch.quad, batch.ratio_index, batch.alice_x, batch.bob_y))
    assert set(np.unique(batch.quad)) == {0, 1}  # X and P
    assert batch.eve_x is None  # no attack annotation


def test_honest_session_pure_shot_noise_when_silent():
    params = SystemParams(modulation_variance=0.0, excess_noise=0.0,
                          schedule=TWO_POINT_SCHEDULE)
    batch = run_honest_session(params, 200_000, 5)
    for _, (var, n) in variances_by_ratio(batch).items():
        assert var == pytest.approx(5e7, rel=4 * math.sqrt(2 / n))


def test_honest_session_variance_and_covariance_at_full_transmission():
    params = SystemParams(schedule=AttenuationSchedule(((1.0, 1.0),)))
    batch = run_honest_session(params, 1_000_000, 6)
    var, n = variances_by_ratio(batch)[1.0]
    assert var == pytest.approx(1.6475e8, rel=0.01)
    slope = np.mean(batch.alice_x * batch.bob_y) / np.var(batch.alice_x)
    assert slope == pytest.approx(math.sqrt(0.45), rel=0.01)


def test_honest_variance_formula():
    assert analytic_variance(P_DEFAULT, None, 1.0) == pytest.approx(0.45 * 5.1 * 5e7 + 5e7)
    params = SystemParams(detector=DetectorConfig(electronic_noise=1e6))
    assert analytic_variance(params, None, 0.0) == pytest.approx(5e7 + 1e6)


def test_two_point_inversion_is_exact_on_population_values():
    params = SystemParams(detector=DetectorConfig(efficiency=0.6, electronic_noise=2e5),
                          channel_transmittance=0.8, excess_noise=0.3,
                          modulation_variance=4.0, lo_intensity=2e8)
    r1, r2 = 0.01, 0.9
    n0_est, xi_est = two_point_from_variances(
        analytic_variance(params, None, r1), analytic_variance(params, None, r2), r1, r2,
        0.6, 0.8, 2e5, 4.0)
    assert n0_est == pytest.approx(params.shot_noise_unit, rel=1e-12)
    assert xi_est == pytest.approx(0.3, rel=1e-12)


def test_two_point_degenerate_ratio_error():
    with pytest.raises(EstimationError, match="degenerate"):
        two_point_from_variances(1.0, 1.0, 0.5, 0.5, 0.5, 0.9, 0.0, 5.0)


def test_estimate_two_point_on_honest_session():
    batch = run_honest_session(P_DEFAULT, 1_000_000, 7)
    report = estimate_two_point(batch, P_DEFAULT)
    assert report.shot_noise_est == pytest.approx(5e7, rel=0.01)
    assert report.excess_noise_est == pytest.approx(0.1, abs=0.05)
    per_ratio = variances_by_ratio(batch)
    assert set(per_ratio) == {0.001, 1.0}
    for _, n in per_ratio.values():
        assert n >= 2


def test_estimate_two_point_needs_two_ratios():
    params = SystemParams(schedule=AttenuationSchedule(((1.0, 1.0),)))
    batch = run_honest_session(params, 1000, 8)
    with pytest.raises(EstimationError, match=">= 2 distinct ratios"):
        estimate_two_point(batch, params)


def test_estimators_are_permutation_invariant(tmp_path):
    batch = run_honest_session(P_DEFAULT, 4000, 9)
    perm = np.random.default_rng(0).permutation(len(batch))
    shuffled = RecordBatch(batch.quad[perm], batch.ratios, batch.ratio_index[perm],
                           batch.alice_x[perm], batch.bob_y[perm])
    a = estimate_two_point(batch, P_DEFAULT)
    b = estimate_two_point(_written_and_read(tmp_path / "records.csv", shuffled), P_DEFAULT)
    assert a.shot_noise_est == pytest.approx(b.shot_noise_est, rel=1e-12)
    assert a.excess_noise_est == pytest.approx(b.excess_noise_est, rel=1e-12)


def test_estimate_covariance_transmittance_honest():
    params = SystemParams(schedule=AttenuationSchedule(((1.0, 0.9), (0.001, 0.1))))
    batch = run_honest_session(params, 1_000_000, 10)
    assert estimate_covariance_transmittance(batch, params) == pytest.approx(0.9, rel=0.02)


def test_estimate_covariance_transmittance_errors():
    params = SystemParams(schedule=AttenuationSchedule(((0.5, 1.0),)))
    batch = run_honest_session(params, 1000, 11)
    with pytest.raises(EstimationError, match="ratio 1"):
        estimate_covariance_transmittance(batch, params)
    silent = SystemParams(modulation_variance=0.0)
    batch2 = run_honest_session(silent, 1000, 12)
    with pytest.raises(EstimationError, match="zero modulation"):
        estimate_covariance_transmittance(batch2, silent)


def test_two_point_covariance_pools_both_quadratures(tmp_path):
    # at the top ratio, the X records have <xy> = 28/3 and the P records -2
    ratio_index = [0] * 6 + [1] * 4  # ratios 1.0, then 0.5
    quad = [0, 0, 0, 1, 1, 1, 0, 0, 1, 1]
    alice_x = [1.0, 2.0, 3.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0]
    bob_y = [2.0, 4.0, 6.0, -1.0, -2.0, -3.0, 10.0, -10.0, 20.0, -20.0]
    batch = RecordBatch(quad, [1.0, 0.5], ratio_index, alice_x, bob_y)
    moments = _written_and_read(tmp_path / "records.csv", batch)
    assert estimate_two_point(moments, P_DEFAULT).covariance_xy == pytest.approx(22 / 6)


def test_record_batch_round_trip_and_lazy_slots(tmp_path):
    batch = run_honest_session(P_DEFAULT, 100, 14)
    assert len(batch) == 100
    with records_writer(tmp_path / "records.csv", "0" * 16, 14) as append:
        append(batch)
    # the slot column is written from the row numbers
    rows = (tmp_path / "records.csv").read_text().splitlines()[2:]
    assert [int(row.split(",")[0]) for row in rows] == list(range(100))
    rebuilt = RecordBatch.collect(_record_chunks(tmp_path / "records.csv"))
    assert np.array_equal(rebuilt.ratios[rebuilt.ratio_index], batch.ratios[batch.ratio_index])
    assert np.array_equal(rebuilt.bob_y, batch.bob_y)
    assert np.array_equal(rebuilt.quad, batch.quad)


def test_monte_carlo_convergence_rate():
    # doubling the slot count shrinks the estimator spread by about sqrt(2)
    def spreads(slots):
        ests = []
        for seed in range(64):
            batch = run_honest_session(P_DEFAULT, slots, 1000 + seed)
            ests.append(estimate_two_point(batch, P_DEFAULT).shot_noise_est)
        return np.std(ests)

    ratio = spreads(20_000) / spreads(40_000)
    assert math.sqrt(2) * 0.8 <= ratio <= math.sqrt(2) * 1.2



def _reference_variances(batch):
    """The per-ratio reduction written directly over the columns: np.unique and np.var."""
    out = {}
    ratio = batch.ratios[batch.ratio_index]
    for r in np.unique(ratio):
        y = batch.bob_y[ratio == r]
        out[float(r)] = (float(np.var(y, ddof=1)), y.size)
    return out


def test_streamed_moments_match_direct_column_reductions():
    plan = solve_attack_parameters("A", THREE_RATIO_PARAMS, builtin_curve("50:50"))
    batch = run_attacked_session(THREE_RATIO_PARAMS, plan, 3 * CHUNK_SLOTS + 777, 15)
    got = variances_by_ratio(batch)
    want = _reference_variances(batch)
    assert list(got) == list(want)
    for r in want:
        assert got[r][1] == want[r][1]
        assert got[r][0] == pytest.approx(want[r][0], rel=1e-12)
    top = batch.ratios[batch.ratio_index] == 1.0
    cov = estimate_two_point(batch, THREE_RATIO_PARAMS).covariance_xy
    assert cov == pytest.approx(np.mean(batch.alice_x[top] * batch.bob_y[top]), rel=1e-12)
    scaled = (np.mean(batch.alice_x[top] * batch.bob_y[top])
              / (THREE_RATIO_PARAMS.modulation_variance * THREE_RATIO_PARAMS.shot_noise_unit))
    assert estimate_covariance_transmittance(batch, THREE_RATIO_PARAMS) == pytest.approx(
        scaled * scaled / THREE_RATIO_PARAMS.detector.efficiency, rel=1e-12)


def test_moments_stay_accurate_far_from_zero_mean(tmp_path):
    # a one-pass sum-of-squares variance loses about ten digits at this offset
    batch = run_honest_session(THREE_RATIO_PARAMS, 4 * CHUNK_SLOTS + 321, 16)
    shifted = RecordBatch(batch.quad, batch.ratios, batch.ratio_index, batch.alice_x,
                          batch.bob_y + 1e9)
    got = variances_by_ratio(_written_and_read(tmp_path / "records.csv", shifted))
    for r, (var, n) in _reference_variances(shifted).items():
        assert got[r][1] == n
        assert got[r][0] == pytest.approx(var, rel=1e-9)


def _sorted_moments(m: RatioMoments) -> list[np.ndarray]:
    """The moment arrays with their rows in ascending ratio order."""
    order = np.argsort(m.ratios)
    return [a[order] for a in (m.ratios, m.count, m.mean, m.m2, m.sxy)]


@pytest.mark.parametrize("attacked", [False, True], ids=["honest", "attacked"])
def test_merged_moments_bit_identical_across_threads_and_records(attacked, tmp_path):
    n = 5 * CHUNK_SLOTS + 99
    if attacked:
        plan = solve_attack_parameters("A", THREE_RATIO_PARAMS, builtin_curve("50:50"))

        def run(**kw):
            return run_attacked_session(THREE_RATIO_PARAMS, plan, n, 17, **kw)
    else:
        def run(**kw):
            return run_honest_session(THREE_RATIO_PARAMS, n, 17, **kw)

    base = _sorted_moments(run(threads=1, records=False))
    assert len(base) == 5
    batch = run(threads=2)
    chunks = []
    # the batch's own moments, and the moments of a session that hands each
    # chunk's records on
    for other in (run(threads=2, records=False), run(threads=8, records=False),
                  batch.moments, run(threads=2, records=chunks.append)):
        got = _sorted_moments(other)
        assert len(got) == len(base)
        assert all(np.array_equal(a, b) for a, b in zip(got, base))
    # the records reader, chunk by chunk, on the session's records
    got = _sorted_moments(_written_and_read(tmp_path / "records.csv", batch))
    assert len(got) == 5
    assert all(np.array_equal(a, b) for a, b in zip(got, base))
    # the chunks it hands on are the batch's slots, in slot order
    assert [len(c) for c in chunks] == [CHUNK_SLOTS] * 5 + [99]
    joined = RecordBatch.collect(chunks)
    for name in ("quad", "ratio_index", "alice_x", "bob_y", "eve_x"):
        got, want = getattr(joined, name), getattr(batch, name)
        assert (got is None and want is None) or np.array_equal(got, want), name


def test_session_memory_does_not_grow_with_slots():
    def peak(slots):
        tracemalloc.start()
        try:
            run_honest_session(THREE_RATIO_PARAMS, slots, 18, records=False)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(1 << 20), peak(1 << 22)
    assert large < 16 * 2**20
    assert abs(large - small) < 2 * 2**20


def test_records_are_not_written_in_cell_order():
    # chi-square test of independence between a slot's (ratio, quadrature) cell
    # and the half of its chunk it is written to, pooled over 16 chunks; 5
    # degrees of freedom, cut at 35.89, so an i.i.d. record sequence fails it
    # with probability 1e-6, cell-ordered records with certainty
    plan = solve_attack_parameters("A", THREE_RATIO_PARAMS, builtin_curve("50:50"))
    batch = run_attacked_session(THREE_RATIO_PARAMS, plan, 1 << 20, 19)
    k = batch.ratio_index.astype(int)
    cell = 2 * k + batch.quad
    half = (np.arange(len(batch)) % CHUNK_SLOTS) >= CHUNK_SLOTS // 2
    table = np.stack([np.bincount(cell[~half], minlength=6),
                      np.bincount(cell[half], minlength=6)]).astype(float)
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
    chi2 = float(((table - expected) ** 2 / expected).sum())
    assert chi2 < 35.89


def test_records_quadrature_is_a_fair_bit_independent_of_the_ratio():
    # chi-square of the 2 x K (quadrature, ratio) table against 1/2 of each
    # ratio's count: K = 3 degrees of freedom, cut at 30.66, so a fair bit drawn
    # independently of the ratio fails it with probability 1e-6
    plan = solve_attack_parameters("A", THREE_RATIO_PARAMS, builtin_curve("50:50"))
    batch = run_attacked_session(THREE_RATIO_PARAMS, plan, 1 << 20, 20)
    assert batch.quad.dtype == np.uint8 and set(np.unique(batch.quad)) == {0, 1}
    k = batch.ratio_index.astype(int)
    table = np.stack([np.bincount(k[batch.quad == q], minlength=3) for q in (0, 1)])
    expected = table.sum(axis=0) / 2.0
    chi2 = float(((table - expected) ** 2 / expected).sum())
    assert chi2 < 30.66


@pytest.mark.parametrize("attacked", [False, True], ids=["honest", "attacked"])
def test_records_batch_holds_the_sampler_ratio_index(attacked):
    # the batch keeps the schedule as its ratio table and the sampler's labels
    # as one uint8 per slot; no slot column and no float ratio column
    n = 2 * CHUNK_SLOTS + 5
    if attacked:
        plan = solve_attack_parameters("A", THREE_RATIO_PARAMS, builtin_curve("50:50"))
        batch = run_attacked_session(THREE_RATIO_PARAMS, plan, n, 21)
    else:
        batch = run_honest_session(THREE_RATIO_PARAMS, n, 21)
    assert batch.ratio_index.dtype == np.uint8
    assert np.array_equal(batch.ratios, THREE_RATIO_SCHEDULE.ratios)
    assert np.array_equal(np.bincount(batch.ratio_index, minlength=3), batch.moments.count)
    per_slot = sum(v.nbytes for v in vars(batch).values() if isinstance(v, np.ndarray))
    per_slot -= batch.ratios.nbytes
    # quad and ratio index 1 B each, x and y 8 B each, Eve's x 8 B
    assert per_slot == (26 if attacked else 18) * n
