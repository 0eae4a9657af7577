import dataclasses
import filecmp
import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqkd import analysis, attack, protocol
from cvqkd.analysis import schedule_key_rate_overhead
from cvqkd.cli import main
from cvqkd.errors import ConfigError, CountermeasureError
from cvqkd.rng import CHUNK_SLOTS
from cvqkd.scenario import _KEYS as _KEY_TABLE, Scenario, load_scenario, parse_scenario
from cvqkd.protocol import SystemParams
from cvqkd.serialize import read_meta, read_report, write_records_csv

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
    # the detector has no amplification gain; strategy A's N lives in a plan file
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
    with pytest.raises(ConfigError, match="plan"):
        parse_scenario("[attack]\nstrategy = A\nmode = plan\n")


def test_cli_fixed_mode_is_refused_naming_the_attack_line(tmp_path, capsys):
    # a plan is solved or replayed; the bare resend is a displacement = 0.0 plan file
    path = tmp_path / "fixed.scenario"
    path.write_text("[run]\nslots = 10\n[attack]\nstrategy = A\nmode = fixed\n")
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == ("error: line 3: attack mode must be solve/plan, "
                                       "got 'fixed'\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("strategy", ["A", "B", "none"])
def test_attack_amplification_key_is_refused_with_its_line(strategy):
    # honest scenarios included: no scenario key sets strategy A's N
    text = f"[run]\nslots = 10\n[attack]\nstrategy = {strategy}\namplification = 20\n"
    with pytest.raises(ConfigError, match="unknown \\[attack\\] key 'amplification'") as err:
        parse_scenario(text)
    assert err.value.line == 5


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
    # the canonical text keeps custom wavelengths, honest or attacked
    for text in (text, "[attack]\nset1_signal_nm = 1450\n"):
        scen = parse_scenario(text)
        assert parse_scenario(scen.canonical_text()).wavelengths == scen.wavelengths


def test_scenario_hash_tracks_content():
    a = parse_scenario(MINIMAL)
    b = parse_scenario(MINIMAL + "\n# trailing comment\n")
    assert a.scenario_hash() != b.scenario_hash()
    assert a.scenario_hash() == parse_scenario(MINIMAL).scenario_hash()


@pytest.mark.parametrize("name, digest", [("honest", "01ae2c3a03549da7"),
                                          ("attack_a", "02a90269f35bcc88"),
                                          ("attack_b", "01ac8ca84b273bd6"),
                                          (None, "519046875eae42ee")])
def test_scenario_hashes_are_pinned(name, digest):
    # the hash heads every artifact, so the canonical text must not drift
    scen = load_scenario(SCENARIOS / f"{name}.scenario") if name else parse_scenario("")
    assert scen.scenario_hash() == digest


def test_empty_scenario_takes_every_default_from_the_dataclasses():
    scen, default = parse_scenario(""), Scenario(params=SystemParams())
    for f in dataclasses.fields(Scenario):
        if f.name != "source_text":
            assert getattr(scen, f.name) == getattr(default, f.name), f.name
    with pytest.raises(dataclasses.FrozenInstanceError):
        scen.slots = 5  # type: ignore[misc]


def test_first_error_in_line_order_is_reported():
    # a bad value is found on its own line, before a later unknown key
    with pytest.raises(ConfigError, match="expected a number") as err:
        parse_scenario("[system]\nexcess_noise = abc\nbogus = 1\n")
    assert err.value.line == 2


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
        assert schedule_key_rate_overhead(scen.params.schedule) == pytest.approx(0.10)


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


@pytest.mark.parametrize("r1, r2", [("-0.5", "1"), ("-3", "-0.5"), ("0.5", "1.5")])
def test_cli_solve_refuses_ratios_outside_the_unit_interval(capsys, r1, r2):
    rc = main(["solve", "--strategy", "A", f"--r1={r1}", f"--r2={r2}"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: ")
    assert f"r1 = {float(r1)!r}, r2 = {float(r2)!r}" in captured.err
    assert "Traceback" not in captured.err


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


@pytest.mark.parametrize("strategy", ["A", "B"])
def test_cli_sweep_solved_mode_marks_a_transparent_channel_infeasible(tmp_path, strategy):
    rc = main(["sweep", "--mode", "solved", "--strategy", strategy, "--variable", "eta_ch",
               "--start", "0.2", "--stop", "1.0", "--points", "5", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 7
    assert lines[-1] == "eta_ch,1.0,1.0,0.1,,,,,infeasible"


def test_cli_sweep_solved_mode_refuses_n_and_writes_nothing(tmp_path, capsys):
    rc = main(["sweep", "--mode", "solved", "--variable", "N", "--start", "5", "--stop", "10",
               "--points", "2", "--out", str(tmp_path / "out")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: solved-mode sweeps vary eta_ch or xi; the solver fixes N\n"
    assert not (tmp_path / "out").exists()


def test_cli_sweep_single_point(tmp_path):
    rc = main(["sweep", "--variable", "xi", "--start", "0.1", "--stop", "0.1",
               "--points", "1", "--out", str(tmp_path)])
    assert rc == 0
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 3


def test_outputs_sweep_key_is_refused_and_sweep_file_names_the_grid(tmp_path, capsys):
    # the sweep's output path has one knob, --sweep-file; [outputs] sweep is unknown
    with pytest.raises(ConfigError, match="sweep") as err:
        parse_scenario(MINIMAL + "[outputs]\nsweep = grid.csv\n")
    assert err.value.line == 10
    scen = tmp_path / "s.scenario"
    scen.write_text(MINIMAL + "[outputs]\nsweep = grid.csv\n")
    argv = ["sweep", "--variable", "xi", "--start", "0.1", "--stop", "0.2", "--points", "2",
            "--out", str(tmp_path)]
    assert main(argv + ["--scenario", str(scen), "--sweep-file", "mine.csv"]) == 2
    assert "line 10" in capsys.readouterr().err
    assert main(argv + ["--sweep-file", "mine.csv"]) == 0
    assert (tmp_path / "mine.csv").exists() and not (tmp_path / "grid.csv").exists()


def test_cli_sweep_empty_range_rejected(capsys):
    rc = main(["sweep", "--variable", "xi", "--start", "0.1", "--stop", "0.2",
               "--points", "0", "--out", "/tmp"])
    assert rc == 2
    assert "--points must be >= 1, got 0" in capsys.readouterr().err


def test_cli_detect_on_attacked_records(tmp_path, capsys):
    rc = main(["run", "--scenario", str(SCENARIOS / "attack_a.scenario"),
               "--out", str(tmp_path), "--slots", "100000"])
    assert rc == 0
    capsys.readouterr()
    rc = main(["detect", "--records", str(tmp_path / "records.csv")])
    assert rc == 0
    assert "attacked = true" in capsys.readouterr().out


def test_cli_detect_out_writes_the_printed_verdict_under_the_records_header(tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["run", "--scenario", str(SCENARIOS / "attack_a.scenario"), "--slots", "20000",
                 "--seed", "9", "--out", str(run)]) == 0
    capsys.readouterr()
    assert main(["detect", "--records", str(run / "records.csv"),
                 "--out", str(tmp_path / "det")]) == 0
    printed = capsys.readouterr().out
    header, body = (tmp_path / "det" / "verdict.txt").read_text().split("\n", 1)
    meta = read_meta(run / "records.csv")
    assert meta["seed"] == "9"
    assert header == f"# format=report-v1 scenario={meta['scenario']} seed=9"
    assert body == printed
    assert "attacked = " in body


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
    # the same plan without its amplification is refused, naming the file and the key
    plan = tmp_path / "a.plan"
    plan.write_text("".join(line for line in plan.read_text().splitlines(keepends=True)
                            if not line.startswith("amplification")))
    capsys.readouterr()
    rc = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "a.plan has no 'amplification' key" in err
    assert not (tmp_path / "out").exists()


def _run_report(tmp_path, capsys, name: str, text: str) -> tuple[str, str]:
    """Run a scenario given as text; return its stdout and its report without the header."""
    path = tmp_path / f"{name}.scenario"
    path.write_text(text + "[outputs]\nreport = report.txt\n")
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / name)]) == 0
    return capsys.readouterr().out, (tmp_path / name / "report.txt").read_text().split("\n", 1)[1]


def test_cli_bare_resend_plan_replays_the_resend_alone(tmp_path, capsys):
    # displacement = 0.0 with no pulse lines is the intercept-resend at gain N alone
    plan = tmp_path / "zero.plan"
    plan.write_text("curve = 50:50\nstrategy = A\namplification = 10\ndisplacement = 0.0\n")
    text = MINIMAL + f"[attack]\nstrategy = A\nmode = plan\nplan = {plan}\n"
    printed, body = _run_report(tmp_path, capsys, "plan", text)
    assert printed == body
    assert "true_realistic_shot_noise = 5000000.0\n" in body  # N0 / 10
    scen = parse_scenario(MINIMAL)
    bare = attack.AttackPlan(attack.StrategyA(10.0), None)
    moments = attack.run_attacked_session(scen.params, bare, scen.slots, scen.master_seed,
                                          records=False)
    expected = [f"variance[r={r!r}] = {v!r}"
                for r, (v, _) in sorted(protocol.variances_by_ratio(moments).items())]
    assert [line for line in body.splitlines() if line.startswith("variance[")] == expected


def _plan_scenario(tmp_path, plan, strategy: str = "A") -> Path:
    path = tmp_path / "replay.scenario"
    path.write_text(MINIMAL + f"[attack]\nstrategy = {strategy}\nmode = plan\nplan = {plan}\n"
                    "[outputs]\nreport = report.txt\n")
    return path


_INFINITE_PULSES = "".join(f"{name}_wavelength_nm = {nm!r}\n{name}_intensity = inf\n"
                           for (name, _, _), nm in zip(attack.PULSES, attack.DEFAULT_WAVELENGTHS))


@pytest.mark.parametrize("body, message", [
    ("amplification = 10\namplification = 20\ndisplacement = 0.0\n",
     "line 3: duplicate key 'amplification'"),
    ("amplification = 10\ndisplacement = 0.0\nno equals sign\n",
     "line 4: expected key = value, got 'no equals sign'"),
    ("amplification = 10\ndisplacement = 0.0\nbogus_key = 3\n", "unknown key 'bogus_key'"),
    ("amplification = 10\ndisplacement = inf\n" + _INFINITE_PULSES,
     "'displacement': expected a finite number, got 'inf'"),
], ids=["repeated-key", "no-equals", "unknown-key", "infinite"])
def test_cli_plan_mode_refuses_a_malformed_plan_file(tmp_path, capsys, body, message):
    # a plan file gets the scenario file's input checks, and nothing is written
    plan = tmp_path / "bad.plan"
    plan.write_text("strategy = A\n" + body)
    scen = _plan_scenario(tmp_path, plan)
    assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(plan) in err and message in err
    assert not (tmp_path / "out").exists()


def test_cli_plan_mode_states_its_attack_once(tmp_path, capsys):
    # the plan's strategy must be the scenario's, and the header hash covers the plan's bytes
    plan = tmp_path / "b.plan"

    def run(strategy, slope, fake, out):
        plan.write_text(f"strategy = B\nslope_factor = {slope}\nfake_channel = {fake}\n"
                        "displacement = 0.0\n")
        scen = _plan_scenario(tmp_path, plan, strategy)
        return main(["run", "--scenario", str(scen), "--out", str(tmp_path / out)])

    assert run("A", 0.5, 1.6, "mismatch") == 2
    assert (f"plan file {plan} holds a strategy B plan, but the scenario names strategy A"
            in capsys.readouterr().err)
    assert not (tmp_path / "mismatch").exists()
    assert run("B", 0.5, 1.6, "half") == 0
    assert run("B", 0.25, 3.2, "quarter") == 0
    half, quarter = (read_report(tmp_path / out / "report.txt") for out in ("half", "quarter"))
    assert float(half["true_realistic_shot_noise"]) == 2 * float(
        quarter["true_realistic_shot_noise"])
    assert (read_meta(tmp_path / "half" / "report.txt")["scenario"]
            != read_meta(tmp_path / "quarter" / "report.txt")["scenario"])


def test_cli_single_ratio_schedule_reports_the_single_point_estimate(tmp_path, capsys):
    text = MINIMAL.replace("1.0 = 0.5\n0.001 = 0.5\n", "1.0 = 1.0\n")
    printed, body = _run_report(tmp_path, capsys, "single", text)
    assert printed == body
    keys = [line.split(" = ")[0] for line in body.splitlines()]
    assert keys == ["slots", "shot_noise_nominal", "variance[r=1.0]", "count[r=1.0]",
                    "excess_noise_single_point", "channel_transmittance_est"]


def test_cli_schedule_without_full_transmission_reports_no_channel_estimate(tmp_path, capsys):
    text = MINIMAL.replace("1.0 = 0.5\n", "0.5 = 0.5\n")
    printed, body = _run_report(tmp_path, capsys, "attenuated", text)
    assert printed == body
    assert "shot_noise_ratio = " in body
    assert "channel_transmittance_est" not in body
    assert "excess_noise_single_point" not in body


def test_cli_thread_count_does_not_change_bytes(tmp_path):
    out1, out8 = tmp_path / "t1", tmp_path / "t8"
    for out, threads in ((out1, "1"), (out8, "8")):
        rc = main(["run", "--scenario", str(SCENARIOS / "attack_a.scenario"),
                   "--out", str(out), "--slots", "40000", "--threads", threads])
        assert rc == 0
    for name in ("records.csv", "report.txt", "polynomial.txt", "verdict.txt", "plan.txt"):
        assert filecmp.cmp(out1 / name, out8 / name, shallow=False), name


@pytest.mark.parametrize("row, message", [("1,P,1.0", "columns"),
                                          ("0,Q,1.0,2.0,3.0", "quadrature"),
                                          ("0,X,1.0,abc,3.0", "abc"),
                                          ("1,X,nan,2.0,3.0", "data row 2: non-finite ratio"),
                                          ("1,X,1.0,nan,3.0", "data row 2: non-finite alice_x"),
                                          ("1,X,1.0,2.0,inf", "data row 2: non-finite bob_y"),
                                          ("1,XX,1.0,2.0,3.0", "quadrature"),
                                          ("1,x,1.0,2.0,3.0", "quadrature"),
                                          ("1,,1.0,2.0,3.0", "quadrature"),
                                          ("1, X,1.0,2.0,3.0", "quadrature"),
                                          ("5,X,1.0,2.0,3.0", "data row 2: slot 5"),
                                          ("0,X,1.0,2.0,3.0", "data row 2: slot 0"),
                                          ("1,X,-1.0,2.0,3.0", "data row 2: ratio -1.0 is"),
                                          ("1,P,7.5,2.0,3.0", "data row 2: ratio 7.5 is")],
                         ids=["short-row", "unknown-quadrature", "non-numeric",
                              "nan-ratio", "nan-alice-x", "inf-outcome", "doubled-quadrature",
                              "lower-case-quadrature", "empty-quadrature",
                              "padded-quadrature", "out-of-order-slot", "repeated-slot",
                              "negative-ratio", "ratio-above-one"])
def test_cli_detect_malformed_records_exit_2(tmp_path, capsys, row, message):
    path = tmp_path / "bad.csv"
    path.write_text("# format=records-v1 scenario=x seed=0\n"
                    "slot,quad,ratio,alice_x,bob_y\r\n"
                    "0,X,1.0,2.0,3.0\r\n" + row + "\r\n", newline="")
    rc = main(["detect", "--records", str(path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def _records_file(path, ratios, n=3000, seed=6):
    rng = np.random.default_rng(seed)
    batch = protocol.RecordBatch(rng.integers(0, 2, n), ratios,
                                 rng.integers(0, len(ratios), n),
                                 rng.normal(0.0, 3e4, n), rng.normal(0.0, 1e4, n))
    write_records_csv(path, batch, "x", 0)
    return batch


def test_cli_detect_refuses_a_file_of_another_format(tmp_path, capsys):
    path = tmp_path / "records.csv"
    _records_file(path, [1.0, 0.5, 0.001])
    meta, body = path.read_bytes().split(b"\n", 1)
    assert meta == b"# format=records-v1 scenario=x seed=0"
    path.write_bytes(b"# format=report-v1 scenario=x seed=0\n" + body)
    assert main(["detect", "--records", str(path)]) == 2
    assert capsys.readouterr().err == (f"error: {path} has format report-v1, "
                                       "not records-v1\n")
    path.write_bytes(body)  # a file without a metadata line is read
    assert main(["detect", "--records", str(path)]) == 0


def test_cli_detect_refuses_a_ratio_of_zero_variance_by_name(tmp_path, capfd):
    # weight n/(2v^2) of a zero variance is inf; LAPACK writes to C stdio, so use capfd
    path = tmp_path / "flat.csv"
    path.write_text("# format=records-v1 scenario=x seed=0\n"
                    "slot,quad,ratio,alice_x,bob_y\r\n"
                    "0,X,1.0,1.0,2.0\r\n1,P,1.0,3.0,2.0\r\n"
                    "2,X,0.5,1.0,2.0\r\n3,P,0.5,3.0,5.0\r\n"
                    "4,X,0.001,1.0,2.0\r\n5,P,0.001,3.0,7.0\r\n", newline="")
    assert main(["detect", "--records", str(path)]) == 2
    out, err = capfd.readouterr()
    assert out == ""
    assert err == ("error: the sample variance at ratio 1.0 must be finite and > 0, "
                   "got 0.0\n")


def test_cli_detect_out_refuses_a_bad_seed_before_any_row(tmp_path, capsys):
    path = tmp_path / "records.csv"
    _records_file(path, [1.0, 0.5, 0.001])
    path.write_bytes(path.read_bytes().replace(b" seed=0\n", b" seed=abc\n", 1))
    assert main(["detect", "--records", str(path), "--out", str(tmp_path / "det")]) == 2
    assert capsys.readouterr() == ("", f"error: records file {path}: seed=abc is not a "
                                       "non-negative integer\n")
    assert not (tmp_path / "det" / "verdict.txt").exists()
    assert main(["detect", "--records", str(path)]) == 0  # no verdict file, no header needed
    assert "attacked = " in capsys.readouterr().out


@pytest.mark.parametrize("ratios, zero_keys", [
    ([1.0, 0.5, -0.0], {"count[r=-0.0]"}),
    ([1.0, 0.5, -0.0, 0.0], {"count[r=-0.0]", "count[r=0.0]"}),
], ids=["negative-zero", "both-zeros"])
def test_cli_detect_groups_signed_zero_ratios(tmp_path, capsys, ratios, zero_keys):
    # -0.0 and 0.0 are one ratio; a file holding only -0.0 reports it as -0.0,
    # a file holding both may report the pair under either spelling
    path = tmp_path / "records.csv"
    batch = _records_file(path, ratios)
    assert main(["detect", "--records", str(path)]) == 0
    counts = {key: value for key, _, value in
              (line.partition(" = ") for line in capsys.readouterr().out.splitlines())
              if key.startswith("count[")}
    zeros = [key for key in counts if key in zero_keys]
    assert len(zeros) == 1 and len(counts) == 3
    expected = np.count_nonzero(batch.ratios[batch.ratio_index] == 0.0)
    assert float(counts[zeros[0]]) == expected


_FLAG_COMMANDS = {
    "run": ["run", "--scenario", str(SCENARIOS / "honest.scenario")],
    "sweep": ["sweep", "--variable", "N", "--start", "5", "--stop", "10", "--points", "2",
              "--mc"],
    "solve": ["solve", "--strategy", "A"],
}
_FLAG_REQUIREMENTS = {"--threads": ">= 1", "--slots": ">= 1", "--points": ">= 1",
                      "--seed": ">= 0", "--n-amp": "a finite number",
                      "--r2": "a finite number"}


@pytest.mark.parametrize("value, flag, command", [
    *((value, flag, command) for command in ("run", "sweep")
      for flag in ("--threads", "--slots") for value in ("0", "-1")),
    ("0", "--points", "sweep"), ("-1", "--seed", "run"), ("nan", "--n-amp", "sweep"),
    ("inf", "--r2", "solve"),
])
def test_cli_rejects_non_positive_threads_and_slots(tmp_path, capsys, value, flag, command):
    # every flag domain is checked before any work, so no output directory is made
    rc = main(_FLAG_COMMANDS[command] + ["--out", str(tmp_path / "out"), flag, value])
    assert rc == 2
    expected = f"error: {flag} must be {_FLAG_REQUIREMENTS[flag]}, got {value}\n"
    assert capsys.readouterr().err == expected
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
    expected = f"error: --threshold must be finite and > 0, got {float(value)!r}\n"
    assert capsys.readouterr().err == expected
    assert not (tmp_path / "out").exists()


def test_cli_os_errors_on_user_paths_exit_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    for argv in (["detect", "--records", str(tmp_path)],
                 ["run", "--scenario", str(SCENARIOS / "honest.scenario"), "--slots", "1000",
                  "--out", str(taken)],
                 ["run", "--scenario", str(tmp_path)]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: [Errno "), argv


def _sessions_raise(monkeypatch, error):
    """Make every session draw raise ``error`` instead of drawing."""
    def sample_session(*args, **kwargs):
        raise error
    for module in (protocol, attack):
        monkeypatch.setattr(module, "sample_session", sample_session)


_OUT_COMMANDS = {
    "run": ["run", "--scenario", str(SCENARIOS / "honest.scenario")],
    "sweep-mc": ["sweep", "--variable", "N", "--start", "5", "--stop", "10", "--points", "2",
                 "--mc"],
}


@pytest.mark.parametrize("command, below", [
    (command, below) for below in ("", "sub", "sub/deeper") for command in _OUT_COMMANDS
], ids=["run", "sweep-mc", "run-below", "sweep-mc-below", "run-deeper", "sweep-mc-deeper"])
def test_cli_refuses_an_existing_file_as_out_before_any_session(tmp_path, capsys,
                                                                monkeypatch, command, below):
    # an --out that is, or lies below, an existing file fails before any session
    _sessions_raise(monkeypatch, AssertionError("a session was drawn"))
    taken = tmp_path / "taken"
    taken.write_text("")
    out = str(taken / below)
    assert main(_OUT_COMMANDS[command] + ["--out", out]) == 2
    error = "[Errno 20] Not a directory" if below else "[Errno 17] File exists"
    assert capsys.readouterr() == ("", f"error: {error}: {out!r}\n")


def test_cli_allocation_failure_exits_2(tmp_path, capsys, monkeypatch):
    _sessions_raise(monkeypatch, MemoryError("Unable to allocate 931. GiB for an array"))
    rc = main(["run", "--scenario", str(SCENARIOS / "honest.scenario"),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert capsys.readouterr().err == "error: Unable to allocate 931. GiB for an array\n"
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


@pytest.mark.parametrize("older", [None, b"older records\r\n"], ids=["none", "older"])
def test_cli_run_that_fails_after_the_session_leaves_no_records(tmp_path, capsys, monkeypatch,
                                                                older):
    # records stream into a temporary file that replaces records.csv only
    # once the fit and the verdict are computed
    out = tmp_path / "out"
    if older is not None:
        out.mkdir()
        (out / "records.csv").write_bytes(older)
    seen = {}

    def fit(moments):
        seen.update((p.name, p.stat().st_size) for p in out.iterdir())
        raise CountermeasureError("the fit failed")

    monkeypatch.setattr(analysis, "fit_noise_polynomial", fit)
    rc = main(["run", "--scenario", str(SCENARIOS / "attack_a.scenario"),
               "--slots", str(CHUNK_SLOTS + 10), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: the fit failed\n"
    # by the fit, both chunks' rows (about 51 bytes each) were in the temporary file
    temp = f"records.csv.{os.getpid()}.tmp"
    assert seen.pop(temp) > 50 * (CHUNK_SLOTS + 10)
    if older is None:
        assert seen == {} and not out.exists()
    else:
        assert seen == {"records.csv": len(older)}
        assert [p.name for p in out.iterdir()] == ["records.csv"]
        assert (out / "records.csv").read_bytes() == older


def _traced_peak(argv) -> int:
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cli_run_and_detect_memory_does_not_grow_with_slots(tmp_path, capsys):
    # records stream chunk by chunk both ways. Holding every slot's columns
    # instead adds, from 2 to 8 chunks, 12.7 MiB to run's traced peak and
    # 19.5 MiB to detect's; streamed, both move by under 0.1 MiB. The margin
    # is one chunk's x, y, Eve's x and LO columns, 2 MiB.
    margin = CHUNK_SLOTS * 8 * 4

    def run(chunks):
        return ["run", "--scenario", str(SCENARIOS / "attack_a.scenario"),
                "--slots", str(chunks * CHUNK_SLOTS), "--out", str(tmp_path / str(chunks))]

    def detect(chunks):
        return ["detect", "--records", str(tmp_path / str(chunks) / "records.csv")]

    for argv in (run(1), detect(1)):  # first-use caches and imports
        assert main(argv) == 0
    for job in (run, detect):
        small, large = _traced_peak(job(2)), _traced_peak(job(8))
        assert abs(large - small) < margin, (job.__name__, small, large)


@pytest.mark.parametrize("data_row, old, new, message", [
    (65537, "65536,", "65535,", "data row 65537: slot 65535 is not the row number 65536"),
    (65538, ",0.5,", ",abc,", "data rows 65537 to 131072: could not convert string 'abc'"),
], ids=["repeated-slot", "non-numeric"])
def test_cli_detect_numbers_rows_across_chunks(tmp_path, capsys, data_row, old, new,
                                               message):
    # rows are read a chunk at a time, and errors give the row's number in the file
    n = CHUNK_SLOTS + 2
    batch = protocol.RecordBatch(np.zeros(n), [0.5], np.zeros(n, int), np.full(n, 0.5),
                                 np.full(n, 0.5))
    path = tmp_path / "records.csv"
    write_records_csv(path, batch, "x", 0)
    lines = path.read_bytes().split(b"\r\n")
    lines[data_row] = lines[data_row].replace(old.encode(), new.encode(), 1)
    path.write_bytes(b"\r\n".join(lines))
    assert main(["detect", "--records", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed records CSV ") and message in err


def test_cli_plan_mode_refuses_a_plan_for_another_curve(tmp_path, capsys):
    # a plan solved for the 50:50 coupler, replayed by a 10:90 scenario
    assert main(["solve", "--strategy", "A", "--out", str(tmp_path)]) == 0
    plan = tmp_path / "plan.txt"
    scen = tmp_path / "other_curve.scenario"
    scen.write_text(MINIMAL.replace("[system]\n", "[system]\ncurve = 10:90\n")
                    + f"[attack]\nstrategy = A\nmode = plan\nplan = {plan}\n"
                    "[outputs]\nreport = report.txt\n")
    capsys.readouterr()
    assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (f"error: plan file {plan} was written for curve "
                                       "50:50, but the scenario's curve is 10:90\n")
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
    # printed once, from the polynomial: the verdict repeats no key
    assert detected == [f"a_over_c = {read_report(tmp_path / 'polynomial.txt')['a_over_c']}"]


_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400", "0", "1", "0.5", "1e-3",
                     "1e8", "abc", "", "1_0", "0x10", "1e", "true", "A", "none"]),
)
_KEYS = sorted({key for keys in _KEY_TABLE.values() for key in keys}) + ["bogus"]
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
    assert all(math.isfinite(v) for v in values)
    assert scen.slots > 0
