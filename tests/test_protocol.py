import math
import tracemalloc

import numpy as np
import pytest

from cvqkd.analysis import analytic_variance
from cvqkd.attack import run_attacked_session, solve_attack_parameters
from cvqkd.errors import EstimationError, ScheduleError
from cvqkd.physics import DetectorConfig, builtin_curve
from cvqkd.protocol import (AttenuationSchedule, RatioMoments, RecordBatch,
                            SystemParams, THREE_RATIO_SCHEDULE, TWO_POINT_SCHEDULE,
                            distinct_values, estimate_covariance_transmittance,
                            estimate_two_point, honest_noise_table, run_honest_session,
                            two_point_from_variances, variances_by_ratio)
from cvqkd.rng import CHUNK_SLOTS
from cvqkd.serialize import read_records_csv, write_records_csv

P_DEFAULT = SystemParams()  # V_A=5, eta=0.5, eta_ch=0.9, xi=0.1, I_LO=1e8
THREE_RATIO_PARAMS = SystemParams(schedule=THREE_RATIO_SCHEDULE)


def test_schedule_validation():
    with pytest.raises(ScheduleError, match="sum"):
        AttenuationSchedule(((1.0, 0.5), (0.5, 0.4)))
    with pytest.raises(ScheduleError, match="distinct"):
        AttenuationSchedule(((1.0, 0.5), (1.0, 0.5)))
    with pytest.raises(ScheduleError, match=r"\[0, 1\]"):
        AttenuationSchedule(((1.5, 1.0),))
    with pytest.raises(ScheduleError):
        AttenuationSchedule(())


def test_schedule_discard_fraction():
    assert THREE_RATIO_SCHEDULE.discard_fraction() == pytest.approx(0.10, abs=1e-15)
    assert AttenuationSchedule(((1.0, 1.0),)).discard_fraction() == 0.0
    sched = AttenuationSchedule(((1.0, 0.8), (0.5, 0.1), (0.001, 0.1)))
    assert sched.discard_fraction() == pytest.approx(0.20, abs=1e-15)


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
    assert set(np.unique(batch.ratio)) == {0.001, 1.0}


def test_honest_measure_record_fields():
    batch = run_honest_session(P_DEFAULT, 1000, 1)
    assert np.array_equal(batch.slot, np.arange(1000))
    assert set(np.unique(batch.quad)) == {0, 1}  # X and P
    assert batch.eve_x is None and batch.lo_observed is None  # no attack annotations


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
    assert set(report.variance_per_ratio) == {0.001, 1.0}
    for _, n in report.variance_per_ratio.values():
        assert n >= 2


def test_estimate_two_point_needs_two_ratios():
    params = SystemParams(schedule=AttenuationSchedule(((1.0, 1.0),)))
    batch = run_honest_session(params, 1000, 8)
    with pytest.raises(EstimationError, match=">= 2 distinct ratios"):
        estimate_two_point(batch, params)


def test_estimators_are_permutation_invariant():
    batch = run_honest_session(P_DEFAULT, 4000, 9)
    perm = np.random.default_rng(0).permutation(len(batch))
    shuffled = RecordBatch(batch.slot[perm], batch.quad[perm], batch.ratio[perm],
                           batch.alice_x[perm], batch.bob_y[perm])
    a = estimate_two_point(batch, P_DEFAULT)
    b = estimate_two_point(shuffled, P_DEFAULT)
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


def test_quadrature_pooling_and_per_quadrature_split():
    batch = run_honest_session(P_DEFAULT, 400_000, 13)
    full = variances_by_ratio(batch)
    x_only = variances_by_ratio(batch, quadrature="X")
    p_only = variances_by_ratio(batch, quadrature="P")
    for r in full:
        assert full[r][1] == x_only[r][1] + p_only[r][1]
        # symmetric model: both quadratures share the same statistics
        assert x_only[r][0] == pytest.approx(p_only[r][0],
                                             rel=6 * math.sqrt(2 / min(x_only[r][1],
                                                                       p_only[r][1])))


def test_two_point_covariance_uses_the_requested_quadrature():
    # at the top ratio, the X records have <xy> = 28/3 and the P records -2
    ratio = [1.0] * 6 + [0.5] * 4
    quad = [0, 0, 0, 1, 1, 1, 0, 0, 1, 1]
    alice_x = [1.0, 2.0, 3.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0]
    bob_y = [2.0, 4.0, 6.0, -1.0, -2.0, -3.0, 10.0, -10.0, 20.0, -20.0]
    batch = RecordBatch(None, quad, ratio, alice_x, bob_y)
    assert estimate_two_point(batch, P_DEFAULT, "X").covariance_xy == pytest.approx(28 / 3)
    assert estimate_two_point(batch, P_DEFAULT, "P").covariance_xy == pytest.approx(-2.0)
    assert estimate_two_point(batch, P_DEFAULT).covariance_xy == pytest.approx(22 / 6)


def test_record_batch_round_trip_and_lazy_slots(tmp_path):
    batch = run_honest_session(P_DEFAULT, 100, 14)
    assert len(batch) == 100
    assert batch._slot is None
    assert np.array_equal(batch.slot, np.arange(100))
    write_records_csv(tmp_path / "records.csv", batch, "0" * 16, 14)
    rebuilt = read_records_csv(tmp_path / "records.csv")
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



def _reference_variances(batch, quadrature=None):
    """The per-ratio reduction written directly over the columns: np.unique and np.var."""
    sel = np.ones(len(batch), bool)
    if quadrature is not None:
        sel = batch.quad == (0 if quadrature == "X" else 1)
    out = {}
    for r in np.unique(batch.ratio[sel]):
        y = batch.bob_y[sel & (batch.ratio == r)]
        out[float(r)] = (float(np.var(y, ddof=1)), y.size)
    return out


def test_streamed_moments_match_direct_column_reductions():
    plan = solve_attack_parameters("A", THREE_RATIO_PARAMS, builtin_curve("50:50"))
    batch = run_attacked_session(THREE_RATIO_PARAMS, plan, 3 * CHUNK_SLOTS + 777, 15)
    for quadrature in (None, "X", "P"):
        got = variances_by_ratio(batch, quadrature)
        want = _reference_variances(batch, quadrature)
        assert list(got) == list(want)
        for r in want:
            assert got[r][1] == want[r][1]
            assert got[r][0] == pytest.approx(want[r][0], rel=1e-12)
        top = batch.ratio == 1.0
        if quadrature is not None:
            top &= batch.quad == (0 if quadrature == "X" else 1)
        cov = estimate_two_point(batch, THREE_RATIO_PARAMS, quadrature).covariance_xy
        assert cov == pytest.approx(np.mean(batch.alice_x[top] * batch.bob_y[top]), rel=1e-12)
    top = batch.ratio == 1.0
    scaled = (np.mean(batch.alice_x[top] * batch.bob_y[top])
              / (THREE_RATIO_PARAMS.modulation_variance * THREE_RATIO_PARAMS.shot_noise_unit))
    assert estimate_covariance_transmittance(batch, THREE_RATIO_PARAMS) == pytest.approx(
        scaled * scaled / THREE_RATIO_PARAMS.detector.efficiency, rel=1e-12)


def test_moments_stay_accurate_far_from_zero_mean():
    # a one-pass sum-of-squares variance loses about ten digits at this offset
    batch = run_honest_session(THREE_RATIO_PARAMS, 4 * CHUNK_SLOTS + 321, 16)
    shifted = RecordBatch(None, batch.quad, batch.ratio, batch.alice_x, batch.bob_y + 1e9)
    for quadrature in (None, "X", "P"):
        got = variances_by_ratio(shifted, quadrature)
        for r, (var, n) in _reference_variances(shifted, quadrature).items():
            assert got[r][1] == n
            assert got[r][0] == pytest.approx(var, rel=1e-9)


def _sorted_moments(m: RatioMoments) -> list[np.ndarray]:
    """The moment arrays with their rows in ascending ratio order."""
    order = np.argsort(m.ratios)
    arrays = [m.ratios, m.count, m.mean, m.m2, m.sxy]
    if m.lo_sum is not None:
        arrays.append(m.lo_sum)
    return [a[order] for a in arrays]


@pytest.mark.parametrize("attacked", [False, True], ids=["honest", "attacked"])
def test_merged_moments_bit_identical_across_threads_and_records(attacked):
    n = 5 * CHUNK_SLOTS + 99
    if attacked:
        plan = solve_attack_parameters("A", THREE_RATIO_PARAMS, builtin_curve("50:50"))

        def run(**kw):
            return run_attacked_session(THREE_RATIO_PARAMS, plan, n, 17, **kw)
    else:
        def run(**kw):
            return run_honest_session(THREE_RATIO_PARAMS, n, 17, **kw)

    base = _sorted_moments(run(threads=1, records=False))
    assert len(base) == (6 if attacked else 5)
    batch = run(threads=2)
    # the batch's own moments, and its columns reduced again chunk by chunk
    for other in (run(threads=2, records=False), run(threads=8, records=False),
                  batch.moments, RatioMoments.of_batch(batch)):
        got = _sorted_moments(other)
        assert len(got) == len(base)
        assert all(np.array_equal(a, b) for a, b in zip(got, base))


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
    _, k = np.unique(batch.ratio, return_inverse=True)
    cell = 2 * k + batch.quad
    half = (np.arange(len(batch)) % CHUNK_SLOTS) >= CHUNK_SLOTS // 2
    table = np.stack([np.bincount(cell[~half], minlength=6),
                      np.bincount(cell[half], minlength=6)]).astype(float)
    expected = np.outer(table.sum(axis=1), table.sum(axis=0)) / table.sum()
    chi2 = float(((table - expected) ** 2 / expected).sum())
    assert chi2 < 35.89


@pytest.mark.parametrize("values", [
    [1.0, 0.5, 0.001, 1.0, 1.0, 0.5],
    [0.25],
    [-0.0, 0.0, 1.0, 0.0],
    np.random.default_rng(4).choice([1.0, 0.5, 0.001, 2.0], 10_000),
    np.random.default_rng(5).normal(size=500),  # past 64 distinct values it sorts
], ids=["three", "one", "signed-zeros", "many-slots", "many-values"])
def test_distinct_values_matches_np_unique(values):
    values = np.asarray(values, dtype=float)
    table, inverse = distinct_values(values)
    want_table, want_inverse = np.unique(values, return_inverse=True)
    assert np.array_equal(table, want_table)
    assert np.array_equal(inverse, want_inverse) and inverse.dtype == want_inverse.dtype


def test_distinct_values_rejects_nan():
    batch = RecordBatch(None, [0, 1, 0], [1.0, np.nan, 0.5], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="NaN"):
        RatioMoments.of_batch(batch)
