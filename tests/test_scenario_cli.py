import filecmp
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqkd.cli import main
from cvqkd.errors import ConfigError
from cvqkd.scenario import (_ATTACK_KEYS, _OUTPUT_KEYS, _RUN_KEYS, _SYSTEM_KEYS, Scenario,
                            load_scenario, parse_scenario)
from cvqkd.protocol import SystemParams
from cvqkd.serialize import read_report

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL = """\
[system]
channel_transmittance = 0.8
[schedule]
1.0 = 0.5
0.001 = 0.5
[run]
slots = 1000
master_seed = 3
"""


def test_parse_minimal_scenario():
    scen = parse_scenario(MINIMAL)
    assert scen.params.channel_transmittance == 0.8
    assert scen.params.modulation_variance == 5.0  # default
    assert scen.slots == 1000
    assert scen.master_seed == 3
    assert scen.attack_kind == "none"
    assert len(scen.scenario_hash()) == 16


def test_unknown_key_reports_line_number():
    text = "[system]\nmodulation_variance = 5\nbogus_key = 1\n"
    with pytest.raises(ConfigError, match="line 3") as err:
        parse_scenario(text)
    assert err.value.line == 3
    assert "bogus_key" in str(err.value)


def test_system_amplification_key_is_refused_with_its_line():
    # the detector has no amplification gain; [attack] amplification is strategy A's N
    text = "[system]\nchannel_transmittance = 0.5\namplification = 7\n"
    with pytest.raises(ConfigError, match="unknown \\[system\\] key 'amplification'") as err:
        parse_scenario(text)
    assert err.value.line == 3


def test_unknown_section_and_malformed_lines():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_scenario("[nope]\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_scenario("[system]\nnot a kv line\n")
    with pytest.raises(ConfigError, match="before any"):
        parse_scenario("slots = 5\n")
    with pytest.raises(ConfigError, match="expected a number"):
        parse_scenario("[system]\nmodulation_variance = abc\n")


def test_invalid_schedule_probabilities():
    text = "[schedule]\n1.0 = 0.5\n0.5 = 0.4\n"
    with pytest.raises(ConfigError, match="sum"):
        parse_scenario(text)


def test_zero_slots_rejected():
    with pytest.raises(ConfigError, match="slots must be > 0"):
        parse_scenario("[run]\nslots = 0\n")


def test_attack_section_modes():
    text = "[attack]\nstrategy = A\namplification = 10\n"
    scen = parse_scenario(text)
    assert scen.attack_kind == "A"
    assert scen.attack_mode == "fixed"
    assert scen.fixed_amplification == 10.0
    with pytest.raises(ConfigError, match="plan"):
        parse_scenario("[attack]\nstrategy = A\nmode = plan\n")


def test_attack_wavelength_overrides():
    text = """\
[attack]
strategy = A
set1_signal_nm = 1450
set1_lo_nm = 1390
set2_signal_nm = 1570
set2_lo_nm = 1610
"""
    scen = parse_scenario(text)
    assert scen.wavelengths == (1450.0, 1390.0, 1570.0, 1610.0)
    assert parse_scenario("[attack]\nstrategy = A\n").wavelengths == \
        (1410.0, 1490.0, 1310.0, 1590.0)


def test_scenario_hash_tracks_content():
    a = parse_scenario(MINIMAL)
    b = parse_scenario(MINIMAL + "\n# trailing comment\n")
    assert a.scenario_hash() != b.scenario_hash()
    assert a.scenario_hash() == parse_scenario(MINIMAL).scenario_hash()


def test_canonical_text_round_trips():
    scen = Scenario(params=SystemParams(), attack_kind="A", attack_mode="solve")
    text = scen.canonical_text()
    again = parse_scenario(text)
    assert again.params.channel_transmittance == scen.params.channel_transmittance
    assert again.attack_kind == "A"


def test_shipped_scenarios_parse():
    for name in ("honest.scenario", "attack_a.scenario", "attack_b.scenario"):
        scen = load_scenario(SCENARIOS / name)
        assert scen.slots == 1_000_000
        assert scen.params.schedule.discard_fraction() == pytest.approx(0.10)


def test_cli_run_honest_writes_outputs(tmp_path, capsys):
    rc = main(["run", "--scenario", str(SCENARIOS / "honest.scenario"),
               "--out", str(tmp_path), "--slots", "50000"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "shot_noise_est" in out
    assert "attacked = false" in out
    kv = read_report(tmp_path / "report.txt")
    assert abs(float(kv["shot_noise_ratio"]) - 1.0) < 0.05
    verdict = read_report(tmp_path / "verdict.txt")
    assert verdict["attacked"] == "false"


def test_cli_run_attacked_detects(tmp_path, capsys):
    rc = main(["run", "--scenario", str(SCENARIOS / "attack_a.scenario"),
               "--out", str(tmp_path), "--slots", "100000"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "attacked = true" in out
    kv = read_report(tmp_path / "report.txt")
    assert abs(float(kv["shot_noise_ratio"]) - 1.0) < 0.05
    assert float(kv["excess_noise_est"]) < 0.3
    plan = read_report(tmp_path / "plan.txt")
    assert plan["strategy"] == "A"


def test_cli_rejects_invalid_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.scenario"
    bad.write_text("[run]\nslots = 0\n")
    rc = main(["run", "--scenario", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    assert "slots must be > 0" in capsys.readouterr().err


def test_cli_solve_prints_parameters(tmp_path, capsys):
    rc = main(["solve", "--strategy", "B", "--eta-ch", "0.5",
               "--out", str(tmp_path), "--plan-file", "b.plan"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "slope_factor = 0.47" in out
    kv = read_report(tmp_path / "b.plan")
    assert float(kv["slope_factor"]) == pytest.approx(0.47, abs=0.02)


def test_cli_solve_infeasible_exit(capsys):
    rc = main(["solve", "--strategy", "A", "--eta-ch", "1.0", "--xi", "0.0"])
    assert rc == 2
    assert "too transparent" in capsys.readouterr().err


def test_cli_solve_close_estimation_ratios(capsys):
    # needs D far above sqrt(3 N0) = 7071
    assert main(["solve", "--strategy", "A", "--r1", "0.9", "--r2", "1.0"]) == 0
    kv = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
    assert float(kv["amplification"]) == pytest.approx(24.99, abs=0.01)
    assert float(kv["displacement"]) == pytest.approx(21889.26, abs=0.01)


def test_cli_sweep_part1(tmp_path, capsys):
    rc = main(["sweep", "--variable", "eta_ch", "--start", "0.8", "--stop", "0.95",
               "--points", "20", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "zero_crossing = 0.857142857" in out
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert rows[1] == "variable,value,excess_noise_est"
    assert len(rows) == 22  # meta + header + 20 points


@pytest.mark.parametrize("start, stop, points", [("0", "0.9", "3"), ("0.5", "2", "4")],
                         ids=["zero", "above-one"])
@pytest.mark.parametrize("mode", [[], ["--mc", "--slots", "1000"]], ids=["analytic", "mc"])
def test_cli_sweep_part1_refuses_channel_outside_unit_interval(tmp_path, capsys, start, stop,
                                                               points, mode):
    rc = main(["sweep", "--variable", "eta_ch", "--start", start, "--stop", stop,
               "--points", points, *mode, "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: channel transmittance must be in (0, 1]")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_sweep_zero_crossing_does_not_depend_on_the_range(tmp_path, capsys):
    printed = []
    for start, stop in (("0.8", "0.95"), ("0.5", "1"), ("0.3", "1")):
        assert main(["sweep", "--variable", "eta_ch", "--start", start, "--stop", stop,
                     "--points", "4", "--out", str(tmp_path)]) == 0
        printed += [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("zero_crossing = ")]
    # (1 - 1/10)/(0.5 * 2.1) rounded once
    assert printed == ["zero_crossing = 0.8571428571428571"] * 3


def test_cli_sweep_mc_tracks_analytic(tmp_path):
    import csv
    import math

    from cvqkd.analysis import analytic_variance
    from cvqkd.attack import AttackPlan, StrategyA
    from cvqkd.protocol import AttenuationSchedule

    slots = 100_000
    rc = main(["sweep", "--variable", "eta_ch", "--start", "0.82", "--stop", "0.9",
               "--points", "3", "--mc", "--slots", str(slots), "--seed", "6",
               "--out", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "sweep.csv") as fh:
        fh.readline()  # metadata
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    for row in rows:
        eta_ch = float(row["value"])
        params = SystemParams(channel_transmittance=eta_ch,
                              schedule=AttenuationSchedule(((1.0, 1.0),)))
        plan = AttackPlan(StrategyA(10.0), None)
        v = analytic_variance(params, plan, 1.0)
        # the estimate is an affine map of the sampled variance at ratio 1
        sigma = v * math.sqrt(2.0 / slots) / (0.5 * eta_ch * 5e7)
        assert abs(float(row["excess_noise_mc"])
                   - float(row["excess_noise_est"])) < 3 * sigma


def test_cli_sweep_solved_mode_columns(tmp_path):
    rc = main(["sweep", "--variable", "eta_ch", "--start", "0.5", "--stop", "0.9",
               "--points", "3", "--mode", "solved", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[1] == "variable,value,eta_ch,xi,a,b,c,a_over_c,verdict"
    assert all(row.endswith(",true") for row in lines[2:])


def test_cli_sweep_single_point(tmp_path):
    rc = main(["sweep", "--variable", "xi", "--start", "0.1", "--stop", "0.1",
               "--points", "1", "--out", str(tmp_path)])
    assert rc == 0
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 3


def test_cli_sweep_empty_range_rejected(capsys):
    rc = main(["sweep", "--variable", "xi", "--start", "0.1", "--stop", "0.2",
               "--points", "0", "--out", "/tmp"])
    assert rc == 2
    assert "at least one grid point" in capsys.readouterr().err


def test_cli_detect_on_attacked_records(tmp_path, capsys):
    rc = main(["run", "--scenario", str(SCENARIOS / "attack_a.scenario"),
               "--out", str(tmp_path), "--slots", "100000"])
    assert rc == 0
    capsys.readouterr()
    rc = main(["detect", "--records", str(tmp_path / "records.csv")])
    assert rc == 0
    assert "attacked = true" in capsys.readouterr().out


def test_cli_run_plan_mode_replays_saved_plan(tmp_path, capsys):
    rc = main(["solve", "--strategy", "A", "--eta-ch", "0.9",
               "--out", str(tmp_path), "--plan-file", "a.plan"])
    assert rc == 0
    scenario = f"""\
[system]
channel_transmittance = 0.9
[schedule]
1.0 = 0.5
0.001 = 0.5
[attack]
strategy = A
mode = plan
plan = {tmp_path / 'a.plan'}
[run]
slots = 50000
master_seed = 4
[outputs]
report = report.txt
"""
    path = tmp_path / "replay.scenario"
    path.write_text(scenario)
    capsys.readouterr()
    rc = main(["run", "--scenario", str(path), "--out", str(tmp_path)])
    assert rc == 0
    kv = read_report(tmp_path / "report.txt")
    assert abs(float(kv["shot_noise_ratio"]) - 1.0) < 0.05


def test_cli_thread_count_does_not_change_bytes(tmp_path):
    out1, out8 = tmp_path / "t1", tmp_path / "t8"
    for out, threads in ((out1, "1"), (out8, "8")):
        rc = main(["run", "--scenario", str(SCENARIOS / "attack_a.scenario"),
                   "--out", str(out), "--slots", "40000", "--threads", threads])
        assert rc == 0
    for name in ("records.csv", "report.txt", "polynomial.txt", "verdict.txt", "plan.txt"):
        assert filecmp.cmp(out1 / name, out8 / name, shallow=False), name


@pytest.mark.parametrize("row", ["1,P,1.0",
                                 "0,Q,1.0,2.0,3.0",
                                 "0,X,1.0,abc,3.0",
                                 "1,X,nan,2.0,3.0",
                                 "1,X,1.0,2.0,inf",
                                 "1,XX,1.0,2.0,3.0",
                                 "1,x,1.0,2.0,3.0",
                                 "1,,1.0,2.0,3.0",
                                 "1, X,1.0,2.0,3.0"],
                         ids=["short-row", "unknown-quadrature", "non-numeric",
                              "nan-ratio", "inf-outcome", "doubled-quadrature",
                              "lower-case-quadrature", "empty-quadrature",
                              "padded-quadrature"])
def test_cli_detect_malformed_records_exit_2(tmp_path, capsys, row):
    path = tmp_path / "bad.csv"
    path.write_text("# format=records-v1 scenario=x seed=0\n"
                    "slot,quad,ratio,alice_x,bob_y\r\n"
                    "0,X,1.0,2.0,3.0\r\n" + row + "\r\n", newline="")
    rc = main(["detect", "--records", str(path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("flag", ["--threads", "--slots"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_cli_rejects_non_positive_threads_and_slots(tmp_path, capsys, command, flag, value):
    if command == "run":
        argv = ["run", "--scenario", str(SCENARIOS / "honest.scenario")]
    else:
        argv = ["sweep", "--variable", "N", "--start", "5", "--stop", "10",
                "--points", "2", "--mc"]
    rc = main(argv + ["--out", str(tmp_path), flag, value])
    assert rc == 2
    assert f"{flag} must be >= 1" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["run", "sweep", "detect"])
@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
def test_cli_rejects_bad_threshold_before_writing(tmp_path, capsys, command, value):
    argv = {"run": ["run", "--scenario", str(SCENARIOS / "honest.scenario"), "--slots", "1000"],
            "sweep": ["sweep", "--variable", "eta_ch", "--start", "0.5", "--stop", "0.9",
                      "--points", "2", "--mode", "solved"],
            "detect": ["detect", "--records", str(tmp_path / "missing.csv")]}[command]
    rc = main(argv + ["--out", str(tmp_path / "out"), "--threshold", value])
    assert rc == 2
    assert "--threshold must be finite and > 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_run_honest_scenario_with_plan_output_names_the_line(tmp_path, capsys):
    scen = tmp_path / "honest_plan.scenario"
    scen.write_text(MINIMAL + "[outputs]\nreport = report.txt\nplan = plan.txt\n")
    rc = main(["run", "--scenario", str(scen), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "line 11: a plan output needs an attack" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_run_that_cannot_fit_writes_nothing(tmp_path, capsys):
    # a two-ratio schedule has no polynomial; the run fails before any artifact
    scen = tmp_path / "two_ratio.scenario"
    scen.write_text(MINIMAL + "[outputs]\nrecords = records.csv\npolynomial = poly.txt\n")
    rc = main(["run", "--scenario", str(scen), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert ">= 3 distinct ratios" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["solve", "--strategy", "A", "--lo-intensity", "inf"],
     "lo_intensity must be finite and > 0, got inf"),
    (["solve", "--strategy", "B", "--eta-ch", "0.5", "--v-el", "nan"],
     "electronic_noise must be finite and >= 0, got nan"),
    (["solve", "--strategy", "A", "--r1", "nan"], "--r1 must be a finite"),
    (["sweep", "--variable", "xi", "--start", "nan", "--stop", "0.5", "--points", "3"],
     "--start must be a finite"),
    (["sweep", "--variable", "eta_ch", "--start", "0.5", "--stop", "inf", "--points", "3"],
     "--stop must be a finite"),
    (["sweep", "--variable", "eta_ch", "--start", "0.5", "--stop", "0.9", "--points", "3",
      "--n-amp", "nan"], "--n-amp must be a finite"),
], ids=["solve-lo-intensity-inf", "solve-v-el-nan", "solve-r1-nan", "sweep-start-nan",
        "sweep-stop-inf", "sweep-n-amp-nan"])
def test_cli_rejects_non_finite_numbers(tmp_path, capsys, argv, message):
    rc = main(argv + ["--out", str(tmp_path / "out")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_negative_master_seed_rejected_with_line():
    with pytest.raises(ConfigError, match="master_seed must be >= 0") as err:
        parse_scenario("[run]\nslots = 10\nmaster_seed = -5\n")
    assert err.value.line == 3


def test_cli_run_rejects_negative_scenario_seed_before_writing(tmp_path, capsys):
    scen = tmp_path / "neg.scenario"
    scen.write_text(MINIMAL.replace("master_seed = 3", "master_seed = -5"))
    rc = main(["run", "--scenario", str(scen), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "line 8: master_seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_cli_rejects_negative_seed_flag(tmp_path, capsys, command):
    if command == "run":
        argv = ["run", "--scenario", str(SCENARIOS / "honest.scenario")]
    else:
        argv = ["sweep", "--variable", "N", "--start", "5", "--stop", "10",
                "--points", "2", "--mc"]
    rc = main(argv + ["--out", str(tmp_path / "out"), "--seed", "-1"])
    assert rc == 2
    assert "--seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_run_with_malformed_curve_file_exits_2(tmp_path, capsys):
    curve = tmp_path / "short.txt"
    curve.write_text("wavelength_nm transmittance\n1300 0.49\n1400\n")
    scen = tmp_path / "bad_curve.scenario"
    scen.write_text(MINIMAL.replace("[system]\n", f"[system]\ncurve = {curve}\n"))
    rc = main(["run", "--scenario", str(scen), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 3: curve file ") and "short.txt" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [("modulation_variance", "nan"),
                                        ("lo_intensity", "inf"),
                                        ("excess_noise", "-inf")])
def test_non_finite_system_numbers_rejected_with_line(key, value):
    with pytest.raises(ConfigError, match="finite") as err:
        parse_scenario(f"[system]\ncurve = 50:50\n{key} = {value}\n")
    assert err.value.line == 3


def test_overflowing_integer_rejected_with_line():
    with pytest.raises(ConfigError, match="finite") as err:
        parse_scenario("[run]\nmaster_seed = 2\nslots = 1e400\n")
    assert err.value.line == 3


@pytest.mark.parametrize("section, key, first, second", [
    ("system", "excess_noise", "0.1", "0.2"),
    ("attack", "strategy", "A", "B"),
    ("run", "slots", "1000", "2000"),
    ("outputs", "records", "a.csv", "b.csv"),
])
def test_duplicate_key_names_key_and_both_lines(section, key, first, second):
    text = f"[{section}]\n{key} = {first}\n# comment\n{key} = {second}\n"
    with pytest.raises(ConfigError, match=f"duplicate \\[{section}\\] key '{key}'") as err:
        parse_scenario(text)
    assert err.value.line == 4
    assert "line 2" in str(err.value)


def test_duplicate_schedule_ratio_names_both_lines():
    with pytest.raises(ConfigError, match="duplicate schedule ratio 1.0") as err:
        parse_scenario("[schedule]\n1.0 = 0.5\n1 = 0.5\n")
    assert err.value.line == 3
    assert "line 2" in str(err.value)


def test_parameter_errors_carry_their_section_line():
    with pytest.raises(ConfigError, match="detector efficiency") as err:
        parse_scenario("[run]\nslots = 5\n[system]\ndetector_efficiency = 2\n")
    assert err.value.line == 3
    with pytest.raises(ConfigError, match="sum") as err:
        parse_scenario("[system]\n[schedule]\n1.0 = 0.5\n0.5 = 0.4\n")
    assert err.value.line == 2
    with pytest.raises(ConfigError, match="none/A/B") as err:
        parse_scenario("[attack]\nstrategy = C\n")
    assert err.value.line == 1


def _header(path: Path) -> str:
    return path.read_text().splitlines()[0]


def test_cli_headers_track_slots_and_seed_overrides(tmp_path):
    def run(name, *flags):
        assert main(["run", "--scenario", str(SCENARIOS / "honest.scenario"),
                     "--out", str(tmp_path / name), *flags]) == 0
        return _header(tmp_path / name / "report.txt")

    base = run("a", "--slots", "1000")
    assert run("a_again", "--slots", "1000") == base
    assert run("b", "--slots", "2000") != base
    assert run("c", "--slots", "1000", "--seed", "5") != base
    for name in ("records.csv", "polynomial.txt", "verdict.txt"):
        assert _header(tmp_path / "a" / name).split()[2] == base.split()[2]


def test_cli_sweep_header_tracks_monte_carlo_slots(tmp_path):
    def sweep(name, slots):
        assert main(["sweep", "--variable", "N", "--start", "5", "--stop", "10",
                     "--points", "2", "--mc", "--slots", slots,
                     "--out", str(tmp_path / name)]) == 0
        return _header(tmp_path / name / "sweep.csv")

    assert sweep("a", "1000") == sweep("a_again", "1000")
    assert sweep("b", "2000") != sweep("a", "1000")


def test_cli_detect_reproduces_the_run_a_over_c(tmp_path, capsys):
    # a batch read back from records is reduced chunk by chunk like the session
    rc = main(["run", "--scenario", str(SCENARIOS / "attack_a.scenario"),
               "--out", str(tmp_path), "--slots", "200000", "--threads", "2"])
    assert rc == 0
    capsys.readouterr()
    assert main(["detect", "--records", str(tmp_path / "records.csv")]) == 0
    detected = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("a_over_c = ")]
    assert detected[0] == f"a_over_c = {read_report(tmp_path / 'polynomial.txt')['a_over_c']}"


_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400", "0", "1", "0.5", "1e-3",
                     "1e8", "abc", "", "1_0", "0x10", "1e", "true", "A", "none"]),
)
_KEYS = sorted(_SYSTEM_KEYS | _ATTACK_KEYS | _RUN_KEYS | _OUTPUT_KEYS) + ["bogus"]
_LINES = st.one_of(
    st.sampled_from(["[system]", "[schedule]", "[attack]", "[run]", "[outputs]", "[nope]",
                     "[system", "", "# comment", "no equals sign"]),
    st.tuples(st.sampled_from(_KEYS), _NUMBERS).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.tuples(_NUMBERS, _NUMBERS).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.text(max_size=20),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(_LINES, max_size=14))
def test_parser_contract_finite_params_or_line_numbered_error(lines):
    text = "\n".join(lines)
    try:
        scen = parse_scenario(text)
    except ConfigError as exc:
        assert exc.line is not None, str(exc)
        return
    p = scen.params
    values = [p.modulation_variance, p.channel_transmittance, p.excess_noise,
              p.lo_intensity, p.detector.efficiency, p.detector.electronic_noise,
              *scen.wavelengths]
    values += [v for entry in p.schedule.entries for v in entry]
    if scen.fixed_amplification is not None:
        values.append(scen.fixed_amplification)
    assert all(math.isfinite(v) for v in values)
    assert scen.slots > 0
