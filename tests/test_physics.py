import math
import time

import numpy as np
import pytest

from cvqkd.errors import ConfigError, CurveRangeError
from cvqkd.physics import (BeamSplitterCurve, DetectorConfig, ForeignPulse, PulsePath,
                           balanced_homodyne_stats, builtin_curve, foreign_pulse_response,
                           load_curve, sample_foreign_current, transmittance_at,
                           unbalanced_variance)

# measured transmittances of the two couplers, 1270..1610 nm in 20 nm steps
TABLE_50_50 = [0.5327, 0.5253, 0.5144, 0.5052, 0.5011, 0.4965, 0.4931, 0.4862,
               0.4902, 0.4885, 0.4908, 0.4873, 0.4954, 0.4960, 0.5012, 0.5069,
               0.5155, 0.5265]
TABLE_10_90 = [0.9050, 0.9066, 0.9020, 0.8978, 0.9014, 0.8991, 0.8985, 0.8938,
               0.8940, 0.8985, 0.8989, 0.8985, 0.9012, 0.8995, 0.8956, 0.9026,
               0.9022, 0.9060]
WAVELENGTHS = [1270 + 20 * i for i in range(18)]


def test_builtin_curves_match_measured_tables_exactly():
    for label, table in (("50:50", TABLE_50_50), ("10:90", TABLE_10_90)):
        curve = builtin_curve(label)
        for wl, t in zip(WAVELENGTHS, table):
            assert transmittance_at(curve, wl) == t


def test_tabulated_spot_values():
    c5050 = builtin_curve("50:50")
    assert transmittance_at(c5050, 1310) == 0.5144
    assert transmittance_at(c5050, 1550) == 0.5012
    assert transmittance_at(builtin_curve("10:90"), 1550) == 0.8956


def test_linear_interpolation_between_nodes():
    c = builtin_curve("50:50")
    # midpoint of the 1310/1330 nodes
    assert transmittance_at(c, 1320) == pytest.approx(0.5098, abs=1e-12)
    # quarter point
    expected = 0.5144 + 0.25 * (0.5052 - 0.5144)
    assert transmittance_at(c, 1315) == pytest.approx(expected, rel=1e-12)


def test_out_of_range_wavelength_names_the_band():
    c = builtin_curve("50:50")
    with pytest.raises(CurveRangeError, match=r"\[1270.0, 1610.0\]"):
        transmittance_at(c, 1200)
    with pytest.raises(CurveRangeError):
        transmittance_at(c, 1650)


def test_curve_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        BeamSplitterCurve("x", [1300, 1300], [0.5, 0.5])
    with pytest.raises(ValueError, match="in \\(0, 1\\)"):
        BeamSplitterCurve("x", [1300, 1400], [0.5, 1.0])


def test_load_curve_roundtrip(tmp_path):
    path = tmp_path / "curve.txt"
    path.write_text("wavelength_nm transmittance\n1300 0.49\n1400 0.51\n")
    c = load_curve(path, "custom")
    assert c.nominal_ratio == "custom"
    assert transmittance_at(c, 1300) == 0.49
    assert transmittance_at(c, 1350) == pytest.approx(0.50, rel=1e-12)


def test_lookup_speed_is_sub_millisecond():
    curve = builtin_curve("50:50")
    start = time.perf_counter()
    for wl in WAVELENGTHS:
        curve.transmittance_at(wl)
    assert time.perf_counter() - start < 1e-3


def test_balanced_homodyne_examples():
    det = DetectorConfig(efficiency=0.5)
    assert balanced_homodyne_stats(det, 1e8, 0.0, 0.0) == (0.0, pytest.approx(5e7))
    det1 = DetectorConfig(efficiency=1.0)
    assert balanced_homodyne_stats(det1, 1.0, 0.0, 3.0) == (0.0, pytest.approx(4.0))
    _, var = balanced_homodyne_stats(det, 1e8, 0.0, 5.0)
    assert var == pytest.approx(1.75e8)


def test_balanced_homodyne_mean_scaling():
    det = DetectorConfig(efficiency=0.5)
    mean, _ = balanced_homodyne_stats(det, 1e8, 2.0, 0.0)
    assert mean == pytest.approx(0.5 * math.sqrt(1e8) * 2.0)


def test_balanced_homodyne_rejects_bad_inputs():
    det = DetectorConfig()
    with pytest.raises(ValueError):
        balanced_homodyne_stats(det, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        balanced_homodyne_stats(det, 1e8, 0.0, -1.0)


def test_unbalanced_variance_examples():
    det1 = DetectorConfig(efficiency=1.0)
    assert unbalanced_variance(det1, 0.5, 1.0, 0.0) == (0.0, pytest.approx(1.0))
    det = DetectorConfig(efficiency=0.5)
    mean, var = unbalanced_variance(det, 0.5, 1e8, 0.0)
    assert mean == 0.0
    assert var == pytest.approx(5e7)
    # LO-path pulse of the second wavelength pair: deterministic leakage term
    mean, _ = unbalanced_variance(det, 0.4873, 5.4e5, 0.0)
    assert mean == pytest.approx(0.5 * 5.4e5 * (2 * 0.4873 - 1), rel=1e-12)
    assert mean == pytest.approx(-6858, rel=1e-3)


def test_unbalanced_variance_rejects_t_outside_unit_interval():
    det = DetectorConfig()
    for t in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            unbalanced_variance(det, t, 1e8, 0.0)


def test_unbalanced_reduces_to_balanced_at_half():
    rng = np.random.default_rng(3)
    for _ in range(50):
        eta = rng.uniform(0.1, 1.0)
        i_lo = 10 ** rng.uniform(2, 9)
        v = rng.uniform(0.0, 10.0)
        det = DetectorConfig(efficiency=eta)
        _, var_u = unbalanced_variance(det, 0.5, i_lo, v)
        _, var_b = balanced_homodyne_stats(det, i_lo, 0.0, v)
        assert var_u == pytest.approx(var_b, rel=1e-12)


def test_foreign_pulse_response_examples():
    det = DetectorConfig(efficiency=0.5)
    curve = builtin_curve("50:50")
    mean, shot = foreign_pulse_response(
        det, curve, ForeignPulse(1410, 5e5, PulsePath.SIGNAL))
    assert mean == pytest.approx(0.5 * (1 - 2 * 0.4862) * 5e5, rel=1e-12)
    assert mean == pytest.approx(6900, rel=1e-9)
    assert shot == pytest.approx(2.5e5)
    mean, _ = foreign_pulse_response(det, curve, ForeignPulse(1590, 4.4e5, PulsePath.LO))
    assert mean == pytest.approx(0.5 * (2 * 0.5155 - 1) * 4.4e5, rel=1e-12)
    assert mean == pytest.approx(6820, rel=1e-9)
    for path in PulsePath:
        assert foreign_pulse_response(det, curve, ForeignPulse(1410, 0.0, path)) == (0.0, 0.0)


def test_foreign_pulse_shot_bracket_is_identically_one():
    # eta(2T-1)^2 + 4 eta T(1-T) + 1 - eta == 1 for any T, eta
    rng = np.random.default_rng(11)
    for _ in range(200):
        t = rng.uniform(1e-6, 1 - 1e-6)
        eta = rng.uniform(1e-6, 1.0)
        bracket = eta * (2 * t - 1) ** 2 + 4 * eta * t * (1 - t) + 1 - eta
        assert bracket == pytest.approx(1.0, rel=1e-14)


def test_foreign_pulse_response_propagates_range_error():
    det = DetectorConfig()
    curve = builtin_curve("50:50")
    with pytest.raises(CurveRangeError):
        foreign_pulse_response(det, curve, ForeignPulse(900, 1e5, PulsePath.LO))


def test_foreign_pulse_uses_per_wavelength_efficiency_override():
    det = DetectorConfig(efficiency=0.5, efficiency_overrides={1410.0: 0.25})
    curve = builtin_curve("50:50")
    mean, shot = foreign_pulse_response(
        det, curve, ForeignPulse(1410.0, 5e5, PulsePath.SIGNAL))
    assert mean == pytest.approx(0.25 * (1 - 2 * 0.4862) * 5e5, rel=1e-12)
    assert shot == pytest.approx(0.25 * 5e5)


def test_sample_foreign_current_degenerate_and_deterministic():
    assert sample_foreign_current(np.random.default_rng(0), (0.0, 0.0)).value == 0.0
    a = sample_foreign_current(np.random.default_rng(5), (6900.0, 2.5e5)).value
    b = sample_foreign_current(np.random.default_rng(5), (6900.0, 2.5e5)).value
    assert a == b


def test_sample_foreign_current_statistics():
    rng = np.random.default_rng(17)
    n = 100_000
    draws = np.array([sample_foreign_current(rng, (6900.0, 2.5e5)).value
                      for _ in range(n)])
    assert abs(draws.mean() - 6900.0) < 3.0 * math.sqrt(2.5e5 / n)
    # empirical variance within 1% (variance >= 1e4 regime)
    assert np.var(draws, ddof=1) == pytest.approx(2.5e5, rel=0.01)


def test_detector_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(efficiency=0.0)
    with pytest.raises(ValueError):
        DetectorConfig(electronic_noise=-1.0)
    with pytest.raises(ValueError):
        DetectorConfig(amplification=0.0)
    with pytest.raises(ValueError):
        ForeignPulse(1550, -1.0, PulsePath.LO)


@pytest.mark.parametrize("rows, line, match", [
    ("1300 0.49\n1400\n", 3, "wavelength_nm transmittance"),
    ("1300 0.49 7\n1400 0.51\n", 2, "wavelength_nm transmittance"),
    ("1300 abc\n1400 0.51\n", 2, "two numbers"),
    ("1300 nan\n1400 0.51\n", 2, "finite"),
    ("inf 0.49\n1400 0.51\n", 2, "finite"),
    ("1300 0.49\n1400 1.5\n", 3, r"outside \(0, 1\)"),
    ("1400 0.49\n1300 0.51\n", 3, "does not ascend"),
    ("1300 0.49\n1300 0.51\n", 3, "does not ascend"),
], ids=["short-row", "long-row", "non-numeric", "nan", "inf", "out-of-range",
        "descending", "repeated"])
def test_load_curve_rejects_malformed_rows_with_file_and_line(tmp_path, rows, line, match):
    path = tmp_path / "bad_curve.txt"
    path.write_text("wavelength_nm transmittance\n" + rows)
    with pytest.raises(ConfigError, match=match) as err:
        load_curve(path)
    assert err.value.line == line
    assert "bad_curve.txt" in str(err.value)


def test_load_curve_needs_two_rows(tmp_path):
    path = tmp_path / "one_row.txt"
    path.write_text("wavelength_nm transmittance\n1300 0.49\n")
    with pytest.raises(ConfigError, match="one_row.txt.*>= 2"):
        load_curve(path)
