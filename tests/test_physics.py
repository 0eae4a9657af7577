import dataclasses
import math
import time

import numpy as np
import pytest

from cvqkd.analysis import analytic_variance
from cvqkd.errors import ConfigError
from cvqkd.physics import (BeamSplitterCurve, DetectorConfig, ForeignPulse, PulsePath,
                           builtin_curve, foreign_pulse_response, load_curve,
                           transmittance_at)
from cvqkd.protocol import (AttenuationSchedule, NoiseTable, SystemParams,
                            honest_noise_table, sample_session)
from cvqkd.scenario import parse_scenario

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
    with pytest.raises(ConfigError, match=r"\[1270.0, 1610.0\]"):
        transmittance_at(c, 1200)
    with pytest.raises(ConfigError, match="wavelength 1650 nm outside the tabulated band"):
        transmittance_at(c, 1650)


def test_curve_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        BeamSplitterCurve("x", [1300, 1300], [0.5, 0.5])
    with pytest.raises(ValueError, match="in \\(0, 1\\)"):
        BeamSplitterCurve("x", [1300, 1400], [0.5, 1.0])


@pytest.mark.parametrize("build, match", [
    (lambda: AttenuationSchedule(((1.0, math.nan), (0.001, 0.5))), "schedule probability"),
    (lambda: BeamSplitterCurve("x", [1400, 1500], [0.5, math.nan]), "transmittance"),
    (lambda: BeamSplitterCurve("x", [1400, math.inf], [0.5, 0.5]), "wavelengths"),
    (lambda: ForeignPulse(1410, math.nan, PulsePath.LO), "intensity"),
    (lambda: dataclasses.replace(parse_scenario(""), master_seed=-1), "master_seed"),
], ids=["schedule-nan", "curve-nan", "curve-inf", "pulse-nan", "scenario-seed"])
def test_library_constructors_refuse_what_the_parsers_refuse(build, match):
    # each check is false for NaN, as SystemParams' are, so a value no parser
    # lets through is refused when the library is called directly too
    with pytest.raises(ValueError, match=match):
        build()


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


def _vacuum_receiver(eta, lo_intensity, modulation_variance=0.0):
    """An honest system whose outcome at r = 1 is a balanced homodyne of Alice's state."""
    return SystemParams(modulation_variance=modulation_variance, channel_transmittance=1.0,
                        excess_noise=0.0, detector=DetectorConfig(efficiency=eta),
                        lo_intensity=lo_intensity, schedule=AttenuationSchedule(((1.0, 1.0),)))


def test_balanced_homodyne_examples():
    # at full transmission and no excess noise the honest noise table is a
    # balanced homodyne: variance eta * V * N0 + N0 with N0 = eta * I_LO
    assert analytic_variance(_vacuum_receiver(0.5, 1e8), None, 1.0) == pytest.approx(5e7)
    assert analytic_variance(_vacuum_receiver(1.0, 1.0, 3.0), None, 1.0) == pytest.approx(4.0)
    assert analytic_variance(_vacuum_receiver(0.5, 1e8, 5.0), None, 1.0) == pytest.approx(1.75e8)


def test_balanced_homodyne_mean_scaling():
    # a quadrature q in vacuum units is stored as x = q * sqrt(N0), so the
    # current gain * x reads eta * sqrt(I_LO) * q
    params = _vacuum_receiver(0.5, 1e8)
    gain = honest_noise_table(params).gain[0]
    assert gain * 2.0 * math.sqrt(params.shot_noise_unit) == pytest.approx(
        0.5 * math.sqrt(1e8) * 2.0)


def test_balanced_homodyne_rejects_bad_inputs():
    with pytest.raises(ValueError):
        _vacuum_receiver(0.5, 0.0)
    with pytest.raises(ValueError):
        _vacuum_receiver(0.5, 1e8, -1.0)


def test_unbalanced_variance_examples():
    # an injected pulse is an unbalanced homodyne with vacuum in the other port:
    # it leaks eta * I * (2T - 1) and adds eta^2 I (2T-1)^2 + 4 eta^2 I T(1-T)
    # + eta (1 - eta) I of shot variance; LO-path pulse of the second pair
    eta, t, i = 0.5, 0.4873, 5.4e5
    mean, var = foreign_pulse_response(DetectorConfig(efficiency=eta), builtin_curve("50:50"),
                                       ForeignPulse(1490.0, i, PulsePath.LO))
    assert mean == pytest.approx(eta * i * (2 * t - 1), rel=1e-12)
    assert mean == pytest.approx(-6858, rel=1e-3)
    assert var == pytest.approx(eta * eta * i * (2 * t - 1) ** 2 + 4 * eta * eta * i * t * (1 - t)
                                + eta * (1 - eta) * i, rel=1e-12)


def test_unbalanced_variance_rejects_t_outside_unit_interval():
    # the splitter's transmittance comes from a curve, which refuses T outside (0, 1)
    for t in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            BeamSplitterCurve("x", [1300.0, 1400.0], [t, 0.5])


def test_unbalanced_reduces_to_balanced_at_half():
    # on a balanced splitter an LO-path pulse leaks nothing and adds eta * I,
    # the shot noise of a balanced homodyne of vacuum with that LO
    half = BeamSplitterCurve("flat", [1300.0, 1400.0], [0.5, 0.5])
    rng = np.random.default_rng(3)
    for _ in range(50):
        eta = rng.uniform(0.1, 1.0)
        i_lo = 10 ** rng.uniform(2, 9)
        mean, var = foreign_pulse_response(DetectorConfig(efficiency=eta), half,
                                           ForeignPulse(1350.0, i_lo, PulsePath.LO))
        assert mean == 0.0
        assert var == pytest.approx(
            analytic_variance(_vacuum_receiver(eta, i_lo), None, 1.0), rel=1e-12)


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
    with pytest.raises(ConfigError, match="wavelength 900 nm outside the tabulated band"):
        foreign_pulse_response(det, curve, ForeignPulse(900, 1e5, PulsePath.LO))


def _foreign_current_table(mean, variance):
    """A noise table whose outcome is one foreign pulse's current alone."""
    return NoiseTable(np.array([1.0]), np.array([1.0]), 0.0, np.zeros(1),
                      np.array([[variance]]), np.array([[mean]]))


def test_sample_foreign_current_degenerate_and_deterministic():
    assert not sample_session(_foreign_current_table(0.0, 0.0), 1000, 0).bob_y.any()
    table = _foreign_current_table(6900.0, 2.5e5)
    a = sample_session(table, 1000, 5).bob_y
    b = sample_session(table, 1000, 5).bob_y
    assert np.array_equal(a, b)


def test_sample_foreign_current_statistics():
    n = 100_000
    draws = sample_session(_foreign_current_table(6900.0, 2.5e5), n, 17).bob_y
    assert abs(draws.mean() - 6900.0) < 3.0 * math.sqrt(2.5e5 / n)
    # empirical variance within 1% (variance >= 1e4 regime)
    assert np.var(draws, ddof=1) == pytest.approx(2.5e5, rel=0.01)


def test_detector_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(efficiency=0.0)
    # the electronic noise's domain is derived from N0, so the system checks it
    with pytest.raises(ValueError):
        SystemParams(detector=DetectorConfig(electronic_noise=-1.0))
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="efficiency"):
            DetectorConfig(efficiency=value)
        with pytest.raises(ValueError, match="electronic_noise"):
            SystemParams(detector=DetectorConfig(electronic_noise=value))
    with pytest.raises(ValueError):
        ForeignPulse(1550, -1.0, PulsePath.LO)


@pytest.mark.parametrize("rows, line, match", [
    ("1300 0.49\n1400\n", 3, "wavelength_nm transmittance"),
    ("1300 0.49 7\n1400 0.51\n", 2, "wavelength_nm transmittance"),
    ("1300 abc\n1400 0.51\n", 2, "two numbers"),
    ("1300 nan\n1400 0.51\n", 2, "finite"),
    ("inf 0.49\n1400 0.51\n", 2, "finite"),
    ("1300 0.49\n1400 1.5\n", 3, r"transmittance must be in \(0, 1\), got 1.5"),
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


@pytest.mark.parametrize("text, line, got", [
    ("1270 0.5327\n1290 0.5253\n1310 0.5144\n", 1, "'1270 0.5327'"),
    ("\nwavelength transmittance\n1300 0.49\n1400 0.51\n", 2, "'wavelength transmittance'"),
    ("", 1, "''"),
], ids=["headerless", "misspelt", "empty"])
def test_load_curve_refuses_a_first_line_other_than_the_header(tmp_path, text, line, got):
    path = tmp_path / "bad_curve.txt"
    path.write_text(text)
    with pytest.raises(ConfigError) as err:
        load_curve(path)
    assert err.value.line == line
    assert str(err.value) == (f"line {line}: curve file {path}: expected the header "
                              f"'wavelength_nm transmittance', got {got}")


def test_load_curve_needs_two_rows(tmp_path):
    path = tmp_path / "one_row.txt"
    path.write_text("wavelength_nm transmittance\n1300 0.49\n")
    with pytest.raises(ConfigError, match="one_row.txt.*>= 2"):
        load_curve(path)
