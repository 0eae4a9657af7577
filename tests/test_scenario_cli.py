import concurrent.futures
import dataclasses
import filecmp
import fnmatch
import itertools
import math
import os
import re
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import cvqkd
from cvqkd import analysis, attack, protocol, serialize
from cvqkd.analysis import schedule_key_rate_overhead
from cvqkd.cli import main
from cvqkd.errors import DOMAINS, ConfigError, EstimationError, InfeasibleAttackError
from cvqkd.physics import DetectorConfig, builtin_curve
from cvqkd.rng import CHUNK_SLOTS
from cvqkd.scenario import KEYS, Scenario, load_scenario, parse_scenario
from cvqkd.protocol import SystemParams
from cvqkd.serialize import _READ_LINES, _RECORDS_BLOCK, read_meta, read_report, records_writer

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
    assert capsys.readouterr().err == ("error: line 5: attack mode must be solve/plan, "
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


# a value off its default and inside its domain, for each key of the table
_OFF_DEFAULT = {
    ("system", "modulation_variance"): "7.25", ("system", "detector_efficiency"): "0.375",
    ("system", "electronic_noise"): "0.01", ("system", "channel_transmittance"): "0.3",
    ("system", "excess_noise"): "0.02", ("system", "lo_intensity"): "3e7",
    ("system", "curve"): "10:90", ("attack", "strategy"): "B", ("attack", "mode"): "plan",
    ("attack", "plan"): "eve.plan", ("attack", "compensate_lo"): "false",
    ("attack", "set1_signal_nm"): "1450.5", ("attack", "set1_lo_nm"): "1390.25",
    ("attack", "set2_signal_nm"): "1570", ("attack", "set2_lo_nm"): "1610.75",
    ("run", "slots"): "1.2345e4", ("run", "master_seed"): "0",
    **{("outputs", key): f"{key}.out" for key in ("plan", "polynomial", "records", "report",
                                                   "verdict")},
}
# the keys an honest scenario refuses; mode = plan needs a plan, and a plan needs mode = plan
_NEEDS_AN_ATTACK = {("attack", "mode"), ("attack", "plan"), ("attack", "compensate_lo"),
                    ("outputs", "plan")}


def _off_default_text(rows) -> str:
    """Scenario text setting each (section, key) of ``rows`` off its default, in strategy B
    replaying a plan where a row needs an attack; each line under its own section header."""
    values = {row: _OFF_DEFAULT[row] for row in rows}
    if _NEEDS_AN_ATTACK & set(rows):
        values |= {row: _OFF_DEFAULT[row]
                   for row in (("attack", "strategy"), ("attack", "mode"), ("attack", "plan"))}
    return "".join(f"[{section}]\n{key} = {value}\n" for (section, key), value in values.items())


def test_canonical_text_round_trips():
    # each key of the table alone, then all at once, and a scenario built in code
    assert set(_OFF_DEFAULT) == set(KEYS)
    default = parse_scenario("").canonical_text()
    cases = [parse_scenario(_off_default_text([row])) for row in KEYS]
    cases += [parse_scenario(_off_default_text(KEYS)),
              Scenario(params=SystemParams(), attack_kind="A", attack_mode="solve")]
    for scen in cases:
        text = scen.canonical_text()
        assert text != default
        again = parse_scenario(text)
        for f in dataclasses.fields(Scenario):
            if f.name not in ("source_text", "directory"):
                assert getattr(again, f.name) == getattr(scen, f.name), (f.name, text)
        assert again.canonical_text() == text


def test_readme_domain_table_names_every_ranged_scenario_key():
    # the README's table of domains, against the table of keys and errors.DOMAINS
    readme = (SCENARIOS.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("| key | domain | unit |\n|---|---|---|\n", 1)[1].split("\n\n", 1)[0]
    # each key a row's first cell names; a `[schedule]` row names the section, parsed apart
    names = {name for row in table.splitlines()
             for name in re.findall(r"`([^`[][^`]*)`", row.split("|")[1])}
    keys = {key for _, key in KEYS}
    assert {key for key in keys if key in DOMAINS} <= names
    # a plan file's pulse intensities are named by their common suffix, `*_intensity`
    known = keys | set(DOMAINS) | {f"{name}_intensity" for name, _, _ in attack.PULSES}
    assert [name for name in names if not fnmatch.filter(known, name)] == []


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
    rc = main(["solve", "--scenario", str(SCENARIOS / "attack_b.scenario"),
               "--out", str(tmp_path), "--plan-file", "b.plan"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "slope_factor = 0.47" in out
    kv = read_report(tmp_path / "b.plan")
    assert float(kv["slope_factor"]) == pytest.approx(0.47, abs=0.02)


@pytest.mark.parametrize("system, levers", [
    ("channel_transmittance = 1.0\nexcess_noise = 0.0\n", "channel transmittance 1.0, N0 = 5e+07"),
    ("channel_transmittance = 0.05\nlo_intensity = 10\n", "channel transmittance 0.05, N0 = 5"),
], ids=["transparent", "faint-lo"])
def test_cli_solve_infeasible_exit(tmp_path, capsys, system, levers):
    # an opaque channel is infeasible too when the pulses' shot noise c_lo*D exceeds a faint
    # LO's N0: the error names both levers and their values, not a transparent channel
    scen = tmp_path / "infeasible.scenario"
    scen.write_text(f"[system]\n{system}[attack]\nstrategy = A\n")
    rc = main(["solve", "--scenario", str(scen)])
    assert rc == 2
    assert capsys.readouterr().err.endswith(
        f"; strategy A needs a more opaque channel or a brighter LO ({levers})\n")


def _schedule_scenario(tmp_path, r1: str, r2: str) -> Path:
    """A strategy A scenario file whose schedule holds the two estimation ratios r1 and r2."""
    path = tmp_path / f"ratios-{r1}-{r2}.scenario"
    path.write_text(f"[schedule]\n{r1} = 0.5\n{r2} = 0.5\n[attack]\nstrategy = A\n")
    return path


def test_cli_solve_close_estimation_ratios(tmp_path, capsys):
    # the solver reads the schedule's ratios; 0.9 and 1.0 need D far above sqrt(3 N0) = 7071
    scen = _schedule_scenario(tmp_path, "0.9", "1.0")
    assert main(["solve", "--scenario", str(scen), "--out", str(tmp_path / "close")]) == 0
    kv = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
    assert float(kv["amplification"]) == pytest.approx(24.99, abs=0.01)
    assert float(kv["displacement"]) == pytest.approx(21889.26, abs=0.01)
    # the plan header's hash covers the ratios it was solved at
    default = tmp_path / "default.scenario"
    default.write_text("[attack]\nstrategy = A\n")
    assert main(["solve", "--scenario", str(default), "--out", str(tmp_path / "default")]) == 0
    assert _header(tmp_path / "close" / "plan.txt") != _header(tmp_path / "default" / "plan.txt")


def test_cli_solve_has_no_ratio_flags(capsys):
    for flag in ("--r1", "--r2"):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--scenario", str(SCENARIOS / "attack_a.scenario"), flag, "0.9"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 0.9" in capsys.readouterr().err


@pytest.mark.parametrize("r1, r2, line, got", [("-0.5", "1", 2, "-0.5"), ("-3", "-0.5", 2, "-3.0"),
                                               ("0.5", "1.5", 3, "1.5")],
                         ids=["-0.5-1", "-3--0.5", "0.5-1.5"])
def test_cli_solve_refuses_ratios_outside_the_unit_interval(tmp_path, capsys, r1, r2, line, got):
    # the parser refuses the ratio at its line, before any solve
    scen = _schedule_scenario(tmp_path, r1, r2)
    rc = main(["solve", "--scenario", str(scen)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == f"error: line {line}: schedule ratio must be in [0, 1], got {got}\n"


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
    assert err.startswith("error: channel_transmittance must be in [1e-30, 1], got ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_sweep_zero_crossing_does_not_depend_on_the_range(tmp_path, capsys):
    # nor on its direction: --start may exceed --stop
    printed = []
    for start, stop in (("0.8", "0.95"), ("0.5", "1"), ("0.3", "1"), ("0.95", "0.8")):
        assert main(["sweep", "--variable", "eta_ch", "--start", start, "--stop", stop,
                     "--points", "4", "--out", str(tmp_path)]) == 0
        printed += [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("zero_crossing = ")]
    # (1 - 1/10)/(0.5 * 2.1) rounded once
    assert printed == ["zero_crossing = 0.8571428571428571"] * 4


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
    def rows(out, *scenario):
        assert main(["sweep", "--variable", "eta_ch", "--start", "0.5", "--stop", "0.9",
                     "--points", "3", "--mode", "solved", *scenario,
                     "--out", str(tmp_path / out)]) == 0
        return (tmp_path / out / "sweep.csv").read_text().splitlines()[1:]

    lines = rows("default")
    assert lines[0] == "variable,value,eta_ch,xi,a,b,c,a_over_c,verdict"
    assert all(row.endswith(",true") for row in lines[1:])
    # a solved sweep solves strategy A whatever the scenario's [attack] names
    assert rows("b", "--scenario", str(SCENARIOS / "attack_b.scenario")) == lines


def test_cli_sweep_solved_mode_marks_a_transparent_channel_infeasible(tmp_path):
    rc = main(["sweep", "--mode", "solved", "--variable", "eta_ch",
               "--start", "0.2", "--stop", "1.0", "--points", "5", "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 7
    assert lines[-1] == "eta_ch,1.0,1.0,0.1,,,,,infeasible"


def test_cli_sweep_takes_no_strategy(tmp_path, capsys):
    # a solved row is the same for strategies A and B, so the sweep solves A
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--mode", "solved", "--strategy", "B", "--variable", "eta_ch",
              "--start", "0.5", "--stop", "0.9", "--points", "2", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --strategy B" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_cli_sweep_solved_mode_refuses_n_and_writes_nothing(tmp_path, capsys):
    rc = main(["sweep", "--mode", "solved", "--variable", "N", "--start", "5", "--stop", "10",
               "--points", "2", "--out", str(tmp_path / "out")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: solved-mode sweeps vary eta_ch or xi; the solver fixes N\n"
    assert not (tmp_path / "out").exists()


def test_cli_sweep_solved_on_a_one_ratio_schedule_exits_2_as_solve_does(tmp_path, capsys):
    # one ratio is no two-point pair: a configuration error, not an infeasible row
    scen = tmp_path / "one.scenario"
    scen.write_text("[schedule]\n1.0 = 1.0\n[attack]\nstrategy = A\n")
    sweep = ["sweep", "--mode", "solved", "--variable", "eta_ch", "--start", "0.3",
             "--stop", "0.6", "--points", "2", "--out", str(tmp_path / "out")]
    for argv in (["solve"], sweep):
        assert main([*argv, "--scenario", str(scen)]) == 2
        assert capsys.readouterr() == (
            "", "error: two-point estimates need two ratios, got only 1.0\n")
    assert not (tmp_path / "out" / "sweep.csv").exists()


_OVERFLOW = "excess_noise = 1e300\nlo_intensity = 1e10\n"
_XI_ERROR = "excess_noise must be in [0, 1e3] shot-noise units, got 1e+300\n"
_CHANNEL_ERROR = "error: line 2: channel_transmittance must be in [1e-30, 1], got 1e-300\n"
_SOLVED_XI_SWEEP = ["sweep", "--mode", "solved", "--variable", "xi", "--start", "1e300",
                    "--stop", "1e300", "--points", "1"]


@pytest.mark.parametrize("argv, system, strategy, err", [
    (["solve"], _OVERFLOW, "A", "error: line 2: " + _XI_ERROR),
    (["solve"], _OVERFLOW, "B", "error: line 2: " + _XI_ERROR),
    (_SOLVED_XI_SWEEP, "lo_intensity = 1e10\n", "A", "error: " + _XI_ERROR),
    (["solve"], "channel_transmittance = 1e-300\n", "A", _CHANNEL_ERROR),
    (["solve"], "channel_transmittance = 1e-300\n", "B", _CHANNEL_ERROR),
    (["solve"], "lo_intensity = 1e-30\n", "A",
     "error: line 2: lo_intensity must be in [1, 1e15] photo-electrons, got 1e-30\n"),
], ids=["overflow-A", "overflow-B", "overflow-sweep", "opaque-channel-A", "opaque-channel-B",
        "faint-lo"])
def test_cli_solver_names_an_overflowing_law_and_finds_a_representable_root(
        tmp_path, capsys, argv, system, strategy, err):
    # a law that would overflow, or a root whose b^2 - 4ac would, needs a value outside its
    # physical range: refused by that value's key, at its line, before any solve or row
    scen = tmp_path / "extreme.scenario"
    scen.write_text(f"[system]\n{system}[schedule]\n1.0 = 0.9\n0.5 = 0.05\n0.001 = 0.05\n"
                    f"[attack]\nstrategy = {strategy}\n")
    rc = main([*argv, "--scenario", str(scen), "--out", str(tmp_path / "out")])
    assert (rc, *capsys.readouterr()) == (2, "", err)
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
    assert read_meta(run / "records.csv")["seed"] == "9"
    assert header == _header(run / "verdict.txt")
    assert header.startswith("# format=report-v1 scenario=") and header.endswith(" seed=9")
    assert body == printed
    assert "attacked = " in body


def test_cli_run_plan_mode_replays_saved_plan(tmp_path, capsys):
    rc = main(["solve", "--scenario", str(SCENARIOS / "attack_a.scenario"),
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


def test_cli_relative_plan_and_curve_paths_start_at_the_scenario_file(tmp_path, monkeypatch,
                                                                      capsys):
    # the paths are read from the scenario's directory and hashed as written, and
    # the files' bytes are hashed too
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "bs.txt").write_bytes((Path(attack.__file__).parent / "data" / "bs_50_50.txt")
                                 .read_bytes())
    (sub / "bare.plan").write_text("curve = bs.txt\nstrategy = A\namplification = 10\n"
                                   "displacement = 0.0\n")
    (sub / "bare.scenario").write_text(
        MINIMAL.replace("[system]\n", "[system]\ncurve = bs.txt\n")
        + "[attack]\nstrategy = A\nmode = plan\nplan = bare.plan\n"
        "[outputs]\nreport = report.txt\nplan = plan.txt\n")
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--scenario", "sub/bare.scenario", "--out", "from_parent"]) == 0
    monkeypatch.chdir(sub)
    assert main(["run", "--scenario", "bare.scenario", "--out", "../from_sub"]) == 0
    for name in ("report.txt", "plan.txt"):
        assert filecmp.cmp(tmp_path / "from_parent" / name, tmp_path / "from_sub" / name,
                           shallow=False), name
    assert "curve = bs.txt\n" in (tmp_path / "from_sub" / "plan.txt").read_text()
    assert "plan = bare.plan\n" in load_scenario(sub / "bare.scenario").canonical_text()


def _curve_file_copy(tmp_path, curve: str = "bs.txt") -> Path:
    """The shipped attack_a scenario at 20000 slots, on a copy of the builtin
    50:50 table at ``curve`` (relative to the scenario file)."""
    table = tmp_path / curve
    table.parent.mkdir(parents=True, exist_ok=True)
    table.write_bytes((Path(attack.__file__).parent / "data" / "bs_50_50.txt").read_bytes())
    text = (SCENARIOS / "attack_a.scenario").read_text()
    path = tmp_path / "attack_a.scenario"
    path.write_text(text.replace("slots = 1000000\n", "slots = 20000\n")
                    .replace("curve = 50:50\n", f"curve = {curve}\n"))
    return path


def test_cli_headers_cover_the_curve_table(tmp_path, capsys):
    # the curve table is the attack's central input: one edited row moves every header
    scen = _curve_file_copy(tmp_path)

    def headers(out):
        assert main(["run", "--scenario", str(scen), "--out", str(out / "run")]) == 0
        assert main(["solve", "--scenario", str(scen), "--out", str(out / "solve")]) == 0
        assert main(["sweep", "--mode", "solved", "--scenario", str(scen), "--variable",
                     "eta_ch", "--start", "0.3", "--stop", "0.7", "--points", "3",
                     "--out", str(out / "sweep")]) == 0
        # solve writes the plan the run writes, header and all
        assert filecmp.cmp(out / "run" / "plan.txt", out / "solve" / "plan.txt", shallow=False)
        return [_header(path) for path in sorted(out.glob("*/*"))]

    before = headers(tmp_path / "before")
    table = tmp_path / "bs.txt"
    assert table.read_text().count("\n1310 0.5144\n") == 1
    table.write_text(table.read_text().replace("\n1310 0.5144\n", "\n1310 0.5150\n"))
    after = headers(tmp_path / "after")
    assert len(before) == len(after) == 7  # 5 run artifacts, the solved plan, the sweep
    assert all(old != new for old, new in zip(before, after))


def test_cli_plan_mode_header_on_a_builtin_curve_is_pinned(tmp_path, monkeypatch, capsys):
    # a builtin curve adds no bytes: the plan's bytes after the texts, as before
    (tmp_path / "bare.plan").write_text("curve = 50:50\nstrategy = A\namplification = 10\n"
                                        "displacement = 0.0\n")
    (tmp_path / "bare.scenario").write_text("[attack]\nstrategy = A\nmode = plan\n"
                                            "plan = bare.plan\n[run]\nslots = 10000\n"
                                            "[outputs]\nreport = report.txt\n")
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--scenario", "bare.scenario", "--out", "bare"]) == 0
    assert _header(tmp_path / "bare" / "report.txt") == (
        "# format=report-v1 scenario=4c629572c30420f9 seed=1")


def test_cli_plan_on_a_curve_path_holding_an_equals_sign_replays(tmp_path, capsys):
    # the plan's line "curve = a=b/bs.txt" reads back as the scenario's curve
    scen = _curve_file_copy(tmp_path, "a=b/bs.txt")
    assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "solved")]) == 0
    assert "curve = a=b/bs.txt\n" in (tmp_path / "solved" / "plan.txt").read_text()
    text = scen.read_text().replace("mode = solve\n", "mode = plan\nplan = solved/plan.txt\n")
    replay = tmp_path / "replay.scenario"
    replay.write_text(text.replace("plan = plan.txt\n", ""))
    assert main(["run", "--scenario", str(replay), "--out", str(tmp_path / "replayed")]) == 0
    solved, replayed = ((tmp_path / d / "report.txt").read_text().split("\n", 1)[1]
                        for d in ("solved", "replayed"))
    assert replayed == solved


@pytest.mark.parametrize("attack_section, line", [
    ("strategy = A\nmode = solve\nplan = does_not_exist.plan\n", 12),
    ("strategy = B\nplan = does_not_exist.plan\n", 11),
    ("strategy = none\nmode = plan\nplan = does_not_exist.plan\n", 12),
], ids=["mode-solve", "mode-default", "honest"])
def test_cli_plan_key_needs_an_attack_in_plan_mode(tmp_path, capsys, attack_section, line):
    # a plan the run would not replay is refused at its line, not ignored and hashed
    scen = tmp_path / "stray.scenario"
    scen.write_text(MINIMAL + "[attack]\n" + attack_section)
    assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (f"error: line {line}: a plan = <path> entry needs "
                                       "strategy A or B and mode = plan\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("attack_section, key, line", [
    ("mode = solve\n", "mode", 10),
    ("strategy = none\ncompensate_lo = false\n", "compensate_lo", 11),
    ("compensate_lo = true\nstrategy = none\nmode = solve\n", "compensate_lo", 10),
], ids=["mode", "compensate_lo", "first-in-line-order"])
def test_cli_attack_keys_are_refused_in_an_honest_scenario(tmp_path, capsys, attack_section, key,
                                                           line):
    # an honest run would ignore them, yet hash them: refused at their line, as plan is
    scen = tmp_path / "stray.scenario"
    scen.write_text(MINIMAL + "[attack]\n" + attack_section + "[outputs]\nreport = report.txt\n")
    assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (f"error: line {line}: [attack] key {key!r} needs "
                                       "strategy A or B, but the scenario is honest\n")
    assert not (tmp_path / "out").exists()


def _plan_scenario(tmp_path, plan, strategy: str = "A") -> Path:
    path = tmp_path / "replay.scenario"
    path.write_text(MINIMAL + f"[attack]\nstrategy = {strategy}\nmode = plan\nplan = {plan}\n"
                    "[outputs]\nreport = report.txt\n")
    return path


_INFINITE_PULSES = "".join(f"{name}_wavelength_nm = {nm!r}\n{name}_intensity = inf\n"
                           for (name, _, _), nm in zip(attack.PULSES, attack.DEFAULT_WAVELENGTHS))
_DESIGN_5000 = attack.WavelengthPlan.design(builtin_curve("50:50"), DetectorConfig(), 5000.0)


def _pulse_lines(pulses) -> str:
    return "".join(f"{name}_wavelength_nm = {p.wavelength_nm!r}\n"
                   f"{name}_intensity = {p.intensity!r}\n"
                   for (name, _, _), p in zip(attack.PULSES, pulses))


# D = 5000 and the four pulses that realize it on the 50:50 curve, as repr writes them
_PULSES_5000 = "displacement = 5000.0\n" + _pulse_lines(_DESIGN_5000.pulses)


def _pulse_set(key: str, value: str) -> str:
    """``_PULSES_5000`` with ``key`` set to ``value``."""
    return "".join(f"{key} = {value}\n" if line.startswith(key + " ") else line
                   for line in _PULSES_5000.splitlines(keepends=True))


@pytest.mark.parametrize("body, message", [
    ("amplification = 10\namplification = 20\ndisplacement = 0.0\n",
     "line 3: duplicate key 'amplification'"),
    ("amplification = 10\ndisplacement = 0.0\nno equals sign\n",
     "line 4: expected key = value, got 'no equals sign'"),
    ("amplification = 10\ndisplacement = 0.0\nbogus_key = 3\n", "unknown key 'bogus_key'"),
    ("amplification = 10\ndisplacement = inf\n" + _INFINITE_PULSES,
     "'displacement': expected a finite number, got 'inf'"),
    # derived from the curve and the pulses, so a plan may not state them
    ("amplification = 20.0\n" + _PULSES_5000 + "shot_coeff_lo = abc\n",
     "unknown key 'shot_coeff_lo'"),
    # each pulse must land on its sign times D: the one place a plan is checked for it
    ("amplification = 20.0\n" + _PULSES_5000.replace("5000.0", "5001.0", 1),
     ": signal1 pulse produces displacement 5000.0, expected 5001.0"),
    # with the two sets swapped each pulse is its sign times D = -5000: refused by its key
    ("amplification = 20.0\ndisplacement = -5000.0\n"
     + _pulse_lines(_DESIGN_5000.pulses[2:] + _DESIGN_5000.pulses[:2]),
     "'displacement' must be finite and >= 0, got -5000.0\n"),
    # a pulse that ForeignPulse or the curve refuses is named with its plan file
    ("amplification = 20.0\n" + _pulse_set("lo2_intensity", "-1.0"),
     ": lo2 pulse: pulse intensity must be in [0, 1e15] photo-electrons, got -1.0\n"),
    ("amplification = 20.0\n" + _pulse_set("signal1_wavelength_nm", "1200.0"),
     ": signal1 pulse: wavelength 1200.0 nm outside the tabulated band [1270.0, 1610.0] nm of "
     "the 50:50 coupler\n"),
], ids=["repeated-key", "no-equals", "unknown-key", "infinite", "shot-coefficient",
        "displacement-mismatch", "negative-displacement", "negative-intensity",
        "wavelength-off-the-curve"])
def test_cli_plan_mode_refuses_a_malformed_plan_file(tmp_path, capsys, body, message):
    # a plan file gets the scenario file's input checks, and nothing is written
    plan = tmp_path / "bad.plan"
    plan.write_text("strategy = A\n" + body + "curve = 50:50\n")
    scen = _plan_scenario(tmp_path, plan)
    assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(plan) in err and message in err
    assert not (tmp_path / "out").exists()


def test_cli_plan_mode_states_its_attack_once(tmp_path, capsys):
    # the plan's strategy must be the scenario's, and the header hash covers the plan's bytes
    plan = tmp_path / "b.plan"

    def run(strategy, slope, out):
        plan.write_text(f"curve = 50:50\nstrategy = B\nslope_factor = {slope}\n"
                        "displacement = 0.0\n")
        scen = _plan_scenario(tmp_path, plan, strategy)
        return main(["run", "--scenario", str(scen), "--out", str(tmp_path / out)])

    assert run("A", 0.5, "mismatch") == 2
    assert (f"plan file {plan} holds a strategy B plan, but the scenario names strategy A"
            in capsys.readouterr().err)
    assert not (tmp_path / "mismatch").exists()
    assert run("B", 0.5, "half") == 0
    assert run("B", 0.25, "quarter") == 0
    half, quarter = (read_report(tmp_path / out / "report.txt") for out in ("half", "quarter"))
    assert float(half["true_realistic_shot_noise"]) == 2 * float(
        quarter["true_realistic_shot_noise"])
    assert (read_meta(tmp_path / "half" / "report.txt")["scenario"]
            != read_meta(tmp_path / "quarter" / "report.txt")["scenario"])


def test_cli_plan_mode_refuses_a_plan_of_another_format(tmp_path, capsys):
    plan = tmp_path / "old.plan"
    plan.write_text("# format=plan-v1 scenario=0123456789abcdef seed=1\n"
                    "curve = 50:50\nstrategy = A\namplification = 10\ndisplacement = 0.0\n")
    scen = _plan_scenario(tmp_path, plan)
    assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"error: plan file {plan} has format plan-v1, not plan-v2\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("strategy_lines", ["strategy = A\namplification = 20.0\n",
                                            "strategy = B\nslope_factor = 0.5\n"],
                         ids=["A", "B"])
def test_cli_plan_output_has_the_body_of_the_plan_it_replayed(tmp_path, capsys,
                                                              strategy_lines):
    # a plan file holds what a replay reads, so the replay writes it back unchanged
    plan = tmp_path / "in.plan"
    plan.write_text("# format=plan-v2 scenario=0123456789abcdef seed=1\ncurve = 50:50\n"
                    + strategy_lines + _PULSES_5000)
    kind = strategy_lines[len("strategy = ")]
    scen = tmp_path / "replay.scenario"
    scen.write_text(MINIMAL + f"[attack]\nstrategy = {kind}\nmode = plan\nplan = {plan}\n"
                    "[outputs]\nplan = plan.txt\n")
    assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "out")]) == 0
    written = (tmp_path / "out" / "plan.txt").read_text().split("\n", 1)
    assert written[0].startswith("# format=plan-v2 scenario=")
    assert written[1] == plan.read_text().split("\n", 1)[1]


def test_cli_strategy_b_plan_replays_against_the_scenarios_channel(tmp_path, capsys):
    # Eve's fake channel is eta_ch / gamma of the system she attacks, so the
    # shipped B plan replays at any channel transmittance, as an A plan does
    text = (SCENARIOS / "attack_b.scenario").read_text().replace("slots = 1000000\n",
                                                                "slots = 20000\n")
    solved = tmp_path / "attack_b.scenario"
    solved.write_text(text)
    assert main(["run", "--scenario", str(solved), "--out", str(tmp_path / "solved")]) == 0
    assert text.count("channel_transmittance = 0.5\n") == text.count("mode = solve\n") == 1
    replay = tmp_path / "replay.scenario"
    replay.write_text(text.replace("channel_transmittance = 0.5\n", "channel_transmittance = 0.8\n")
                      .replace("mode = solve\n", "mode = plan\nplan = solved/plan.txt\n"))
    assert main(["run", "--scenario", str(replay), "--out", str(tmp_path / "replayed")]) == 0
    solved_report, replayed_report = (read_report(tmp_path / d / "report.txt")
                                      for d in ("solved", "replayed"))
    # the same slope factor, so the same realistic shot noise gamma * N0
    assert (replayed_report["true_realistic_shot_noise"]
            == solved_report["true_realistic_shot_noise"])
    replayed_plan = (tmp_path / "replayed" / "plan.txt").read_text().split("\n", 1)[1]
    assert replayed_plan == (tmp_path / "solved" / "plan.txt").read_text().split("\n", 1)[1]


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


@pytest.mark.parametrize("name", ["honest", "attack_a", "attack_b"])
def test_cli_thread_count_does_not_change_bytes(tmp_path, monkeypatch, name):
    # three sampler chunks, the last one partial: --threads 2 runs them on a pool; on one CPU,
    # as a records run writes them in one range (forked ranges: the test after this one)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    pools = []
    pool = concurrent.futures.ThreadPoolExecutor  # imported by rng.run_chunked when it is used
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        lambda **kw: pools.append(kw) or pool(**kw))
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    for out, threads in ((out1, "1"), (out2, "2")):
        assert main(["run", "--scenario", str(SCENARIOS / f"{name}.scenario"),
                     "--out", str(out), "--slots", str(2 * CHUNK_SLOTS + 777),
                     "--threads", threads]) == 0
    assert pools == [{"max_workers": 2}]
    names = sorted(path.name for path in out1.iterdir())
    assert names == sorted(path.name for path in out2.iterdir())
    assert filecmp.cmpfiles(out1, out2, names, shallow=False)[0] == names


@pytest.mark.parametrize("name, slots, threads", [
    ("honest", CHUNK_SLOTS, "1"),               # one chunk is one range: no fork
    ("honest", 2 * CHUNK_SLOTS, "1"),           # an exact chunk multiple
    ("honest", CHUNK_SLOTS + 1, "1"),           # the child writes one row
    ("honest", 2 * CHUNK_SLOTS + 777, "1"),     # three chunks
    ("honest", 2 * CHUNK_SLOTS + 777, "2"),     # a 2-worker pool in one range only
    ("attack_a", 2 * CHUNK_SLOTS + 777, "1"),
    ("attack_a", 2 * CHUNK_SLOTS + 777, "2"),
], ids=["one-chunk", "chunk-multiple", "chunk-plus-one", "three-chunks", "three-chunks-2t",
        "attacked", "attacked-2t"])
def test_cli_records_run_in_ranges_writes_the_one_range_bytes(tmp_path, monkeypatch, capsys,
                                                              name, slots, threads):
    # written as one range, then in up to two and in up to three ranges of whole chunks
    forked, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forked.append(None) or fork())
    outs, printed = [tmp_path / f"cpus{cpus}" for cpus in (1, 2, 3)], []
    chunks = -(-slots // CHUNK_SLOTS)
    for cpus, out in enumerate(outs, 1):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert main(["run", "--scenario", str(SCENARIOS / f"{name}.scenario"), "--out", str(out),
                     "--slots", str(slots), "--threads", threads]) == 0
        printed.append(capsys.readouterr())
        assert len(forked) == sum(min(c, chunks) - 1 for c in range(1, cpus + 1))
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)
    names = sorted(path.name for path in outs[0].iterdir())
    assert "records.csv" in names and printed[0].err == ""
    for out, text in zip(outs[1:], printed[1:]):
        assert sorted(path.name for path in out.iterdir()) == names
        assert filecmp.cmpfiles(outs[0], out, names, shallow=False)[0] == names
        assert text == printed[0]
    assert main(["detect", "--records", str(outs[2] / "records.csv")]) == 0
    detected = [line for line in capsys.readouterr().out.splitlines() if "a_over_c" in line]
    assert detected == [f"a_over_c = {read_report(outs[0] / 'verdict.txt')['a_over_c']}"]


def _fail_in_range(monkeypatch, fail):
    """Sessions that call ``fail(first)`` before they draw the range from chunk ``first``."""
    for module, name in ((protocol, "run_honest_session"), (attack, "run_attacked_session")):
        def session(*args, chunks=None, run=getattr(module, name), **kwargs):
            fail(chunks.start)
            return run(*args, chunks=chunks, **kwargs)

        monkeypatch.setattr(module, name, session)


def _refuse_from(*firsts):
    def fail(first):
        if first in firsts:
            raise ValueError(f"chunk {first} refused")
    return fail


def _unfit(moments):
    raise EstimationError("the fit failed")


@pytest.mark.parametrize("cpus, fail, fit, message", [
    (3, _refuse_from(1, 2), None, "chunk 1 refused"),
    (2, lambda first: first and os.kill(os.getpid(), signal.SIGKILL), None,
     "the writer of data rows 65537 to 131849 ended without a result"),
    (3, _refuse_from(0, 2), None, "chunk 0 refused"),
    (3, lambda first: None, _unfit, "the fit failed"),
], ids=["children-raise", "child-killed", "parent-raises", "fit-fails"])
def test_cli_records_run_in_ranges_fails_leaving_no_file_and_no_child(
        tmp_path, monkeypatch, capsys, cpus, fail, fit, message):
    _fail_in_range(monkeypatch, fail)
    if fit is not None:
        monkeypatch.setattr(analysis, "fit_noise_polynomial", fit)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    for name in ("honest", "attack_a"):
        assert main(["run", "--scenario", str(SCENARIOS / f"{name}.scenario"),
                     "--out", str(tmp_path / "out" / name), "--slots",
                     str(2 * CHUNK_SLOTS + 777)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []  # no records, temporary or part file, no directory
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def test_cli_start_up_leaves_the_records_tables_and_the_thread_pool_to_their_commands(tmp_path):
    # a fresh interpreter: importing the CLI and building its parser neither imports
    # concurrent.futures or multiprocessing nor builds the records kernel's tables; a run
    # writing records of three chunks builds them once, and neither it, written in ranges by
    # forked children, nor a detect of its file, read in ranges, imports a process pool
    scen = tmp_path / "records.scenario"
    scen.write_text(MINIMAL.replace("0.001 = 0.5\n", "0.5 = 0.25\n0.001 = 0.25\n")
                    + "[outputs]\nrecords = records.csv\n")
    script = ("import sys\nfrom cvqkd import cli, serialize\ncli.build_parser()\n"
              "tables = serialize._repr_tables.cache_info\n"
              "pools = lambda: [m for m in ('concurrent.futures', 'multiprocessing')\n"
              "                 if m in sys.modules]\n"
              "print('@', pools(), tables().currsize)\n"
              "out = sys.argv[2]\n"
              "assert cli.main(['run', '--scenario', sys.argv[1], '--out', out,\n"
              "                 '--slots', '140000']) == 0\n"
              "print('@', pools(), tables().currsize)\n"
              "assert cli.main(['detect', '--records', out + '/records.csv']) == 0\n"
              "print('@', pools())\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cvqkd.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", script, str(scen), str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, check=True)
    lines = [line for line in done.stdout.splitlines() if line.startswith("@ ")]
    assert (lines, done.stderr) == (["@ [] 0", "@ [] 1", "@ []"], "")
    assert (tmp_path / "out" / "records.csv").is_file()


_HEAD = "# format=records-v1 scenario=x seed=0\nslot,quad,ratio,alice_x,bob_y\r\n"


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
                                          ("1,X,-1.0,2.0,3.0",
                                           "data row 2: ratio must be in [0, 1], got -1.0\n"),
                                          ("1,P,7.5,2.0,3.0",
                                           "data row 2: ratio must be in [0, 1], got 7.5\n"),
                                          ("\r\n1,P,0.5,2.0,3.0", "data row 2 is blank"),
                                          ("1,P,0.5,2.0", "data row 2 has 4 columns, not 5"),
                                          ("1,P,0.5,2.0,3.0,9", "data row 2 has 6 columns, not 5"),
                                          ("1,P,0.5,2.0,3.0\r\n2,X,0.001,2.0,abc",
                                           "data row 3, column 5 (bob_y): could not convert "
                                           "string 'abc' to float64\n")],
                         ids=["short-row", "unknown-quadrature", "non-numeric",
                              "nan-ratio", "nan-alice-x", "inf-outcome", "doubled-quadrature",
                              "lower-case-quadrature", "empty-quadrature",
                              "padded-quadrature", "out-of-order-slot", "repeated-slot",
                              "negative-ratio", "ratio-above-one", "blank-line", "four-cells",
                              "six-cells", "non-numeric-row-3"])
def test_cli_detect_malformed_records_exit_2(tmp_path, capsys, row, message):
    path = tmp_path / "bad.csv"
    path.write_text(_HEAD + "0,X,1.0,2.0,3.0\r\n" + row + "\r\n", newline="")
    rc = main(["detect", "--records", str(path)])
    assert rc == 2
    out, err = capsys.readouterr()
    # one error line: no numpy warning, and the data row counted from 1
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize("old, new, cells", [
    ("bob_y", "bob_y,extra", "['slot', 'quad', 'ratio', 'alice_x', 'bob_y', 'extra']"),
    ("slot", '"slot"', """['"slot"', 'quad', 'ratio', 'alice_x', 'bob_y']"""),
], ids=["sixth-column", "quoted-cell"])
def test_cli_detect_refuses_a_header_the_writer_does_not_write(tmp_path, capsys, old, new,
                                                               cells):
    path = tmp_path / "bad.csv"
    path.write_text(_HEAD.replace(old, new) + "0,X,1.0,2.0,3.0\r\n", newline="")
    assert main(["detect", "--records", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: unexpected records header {cells}\n")


@pytest.mark.parametrize("rows", [0, _READ_LINES])
def test_cli_detect_refuses_a_blank_line_that_starts_a_read(tmp_path, capsys, rows):
    # lines are parsed _READ_LINES at a time, and np.loadtxt warns when all it is given is blank
    batch = protocol.RecordBatch(np.zeros(rows), [0.5], np.zeros(rows, int), np.full(rows, 0.5),
                                 np.full(rows, 0.5))
    path = tmp_path / "blank.csv"
    with records_writer(path, "x", 0) as append:
        append(batch)
    path.write_bytes(path.read_bytes() + b"\r\n")
    assert main(["detect", "--records", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: malformed records CSV {path}: data row "
                                       f"{rows + 1} is blank\n")


def test_cli_detect_on_a_header_only_file_needs_three_ratios(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text(_HEAD, newline="")
    assert main(["detect", "--records", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: the quadratic countermeasure needs >= 3 distinct "
                                       "ratios, got 0; the ratios that drew slots: none\n")


def _records_file(path, ratios, n=3000, seed=6):
    rng = np.random.default_rng(seed)
    batch = protocol.RecordBatch(rng.integers(0, 2, n), ratios,
                                 rng.integers(0, len(ratios), n),
                                 rng.normal(0.0, 3e4, n), rng.normal(0.0, 1e4, n))
    with records_writer(path, "x", 0) as append:
        append(batch)
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
    # so is any number np.loadtxt reads, not only the writer's repr spelling
    header, _, _, rows = body.split(b"\r\n", 3)
    path.write_bytes(b"\r\n".join([header, b"0,X,1.0,+5.0,1e3", b"1,P,5e-1, 7 ,0005.00", rows]))
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


_FAINT = "[schedule]\n1.0 = 0.9\n0.5 = 0.05\n0.001 = 0.05\n[run]\nslots = 2000\n"
_FAINT_ERROR = ("error: the fit's weight count/(2*variance^2) at ratio 0.001 must be finite "
                "and > 0, got inf\n")


@pytest.mark.parametrize("system, attack", [
    ("detector_efficiency = 1e-300\n", ""),
    ("detector_efficiency = 1e-300\n", "[attack]\nstrategy = A\n"),
    ("detector_efficiency = 1e-300\n", "[attack]\nstrategy = B\n"),
    ("lo_intensity = 1e-300\n", ""),
], ids=["detector-honest", "detector-A", "detector-B", "lo-honest"])
def test_cli_run_refuses_a_fit_weight_that_underflows_naming_the_ratio(tmp_path, capfd, system,
                                                                       attack):
    # a session whose variances' squares underflow needs a value below its physical range:
    # refused by its key at its line, with no numpy warning and no LAPACK line (C stdio, so
    # capfd), and no artifact
    scen = tmp_path / "faint.scenario"
    scen.write_text(f"[system]\n{system}{_FAINT}{attack}"
                    "[outputs]\nrecords = records.csv\nverdict = verdict.txt\n")
    assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "out")]) == 2
    key, _, value = system.partition(" = ")
    row = {"detector_efficiency": "in [1e-6, 1]", "lo_intensity": "in [1, 1e15] photo-electrons"}
    assert capfd.readouterr() == ("", f"error: line 2: {key} must be {row[key]}, got {value}")
    assert not (tmp_path / "out").exists()


def test_cli_detect_refuses_a_fit_weight_that_underflows_naming_the_ratio(tmp_path, capfd):
    # records come from outside: at ratio 0.001 the variance 2e-170 is finite and > 0, but
    # its square underflows to 0
    path = tmp_path / "faint.csv"
    path.write_text("# format=records-v1 scenario=x seed=0\n"
                    "slot,quad,ratio,alice_x,bob_y\r\n"
                    "0,X,1.0,1.0,2.0\r\n1,P,1.0,3.0,5.0\r\n"
                    "2,X,0.5,1.0,2.0\r\n3,P,0.5,3.0,7.0\r\n"
                    "4,X,0.001,1.0,1e-85\r\n5,P,0.001,3.0,3e-85\r\n", newline="")
    argv = ["detect", "--records", str(path), "--out", str(tmp_path / "v")]
    assert main(argv) == 2
    assert capfd.readouterr() == ("", _FAINT_ERROR)
    assert not (tmp_path / "v").exists()


def test_cli_detect_refuses_two_ratios_nearer_than_the_schedule_span(tmp_path, capfd):
    # a schedule with ratios 0.0 and 1e-300 is refused; records holding them came from
    # outside, and fitted to a degenerate polynomial that read "attacked = true"
    rng = np.random.default_rng(6)
    index = np.repeat(np.arange(3), 1000)
    bob_sd = np.sqrt([1e8, 1.21e8, 9e8])[index]
    path = tmp_path / "records.csv"
    with records_writer(path, "x", 0) as append:
        append(protocol.RecordBatch(rng.integers(0, 2, 3000), [0.0, 1e-300, 1.0], index,
                                    rng.normal(0.0, 3e4, 3000), rng.normal(0.0, bob_sd)))
    assert main(["detect", "--records", str(path), "--out", str(tmp_path / "v")]) == 2
    assert capfd.readouterr() == ("", "error: the gap between ratios 0.0 and 1e-300 must be "
                                      ">= 1e-6 between every two ratios, got 1e-300\n")
    assert not (tmp_path / "v").exists()


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


def test_cli_detect_out_names_no_scenario_for_records_without_one(tmp_path):
    # only a records file's scenario= is hashed into the verdict's header
    path = tmp_path / "records.csv"
    _records_file(path, [1.0, 0.5, 0.001])
    path.write_bytes(path.read_bytes().replace(b" scenario=x", b"", 1))
    assert main(["detect", "--records", str(path), "--out", str(tmp_path / "det")]) == 0
    assert _header(tmp_path / "det" / "verdict.txt") == "# format=report-v1 scenario=unknown seed=0"


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
}
_FLAG_REQUIREMENTS = {"--threads": ">= 1", "--slots": "> 0", "--points": ">= 1",
                      "--seed": ">= 0", "--n-amp": "finite and >= 1"}


@pytest.mark.parametrize("value, flag, command", [
    *((value, flag, command) for command in ("run", "sweep")
      for flag in ("--threads", "--slots") for value in ("0", "-1")),
    ("0", "--points", "sweep"), ("-1", "--seed", "run"), ("nan", "--n-amp", "sweep"),
    ("0.5", "--n-amp", "sweep"),
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


@pytest.mark.parametrize("system, refusal", [
    ("modulation_variance = 1e5\nlo_intensity = 1e305\n",
     "modulation_variance must be in [0, 1e3] shot-noise units, got 100000.0"),
    ("excess_noise = 1e300\nlo_intensity = 1e10\n",
     "excess_noise must be in [0, 1e3] shot-noise units, got 1e+300"),
    ("lo_intensity = 1e160\n", "lo_intensity must be in [1, 1e15] photo-electrons, got 1e+160"),
], ids=["sig-x", "variance", "fourth-moment"])
def test_cli_run_refuses_a_noise_law_that_overflows(tmp_path, capsys, system, refusal):
    # each parameter is finite, but a law built from them would not be: the first value
    # outside its physical range is refused at its line, before any draw
    scen = tmp_path / "overflow.scenario"
    scen.write_text(MINIMAL.replace("[system]\n", "[system]\n" + system)
                    + "[outputs]\nrecords = records.csv\nreport = report.txt\n")
    assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr() == ("", f"error: line 2: {refusal}\n")
    assert not (tmp_path / "out").exists()


_EXTREME = "channel_transmittance = 1e-300\nexcess_noise = 1e200\nlo_intensity = 2e150\n"
_SPAN = "schedule span must be >= 1e-6 between every two ratios, got 1e-300"


@pytest.mark.parametrize("command, system, extra, err", [
    ("solve", _EXTREME, "[attack]\nstrategy = A\n",
     "line 2: channel_transmittance must be in [1e-30, 1], got 1e-300"),
    ("run", "detector_efficiency = 1e-200\nlo_intensity = 1e-200\n", "",
     "line 2: detector_efficiency must be in [1e-6, 1], got 1e-200"),
    ("solve", "detector_efficiency = 1e-200\nchannel_transmittance = 1e-200\n",
     "[attack]\nstrategy = A\n", "line 2: detector_efficiency must be in [1e-6, 1], got 1e-200"),
    ("run", _EXTREME, "[schedule]\n1.0 = 0.9\n0.5 = 0.05\n0.001 = 0.05\n",
     "line 2: channel_transmittance must be in [1e-30, 1], got 1e-300"),
    ("run", "lo_intensity = -1\ndetector_efficiency = 2\n", "",
     "line 2: lo_intensity must be in [1, 1e15] photo-electrons, got -1.0"),
    ("run", "detector_efficiency = 1e-6\nchannel_transmittance = 1e-30\n",
     "[schedule]\n0 = 0.5\n1e-300 = 0.5\n", f"line 4: {_SPAN}"),
    ("run", "", "[schedule]\n0 = 0.5\n1e-300 = 0.5\n", f"line 2: {_SPAN}"),
    ("solve", "", "[schedule]\n0 = 0.5\n1e-300 = 0.5\n[attack]\nstrategy = A\n",
     f"line 2: {_SPAN}"),
    ("run", "detector_efficiency = 1e-6\nchannel_transmittance = 1e-30\n",
     "[schedule]\n1.0 = 0.0\n0 = 0.5\n1e-300 = 0.5\n", f"line 4: {_SPAN}"),
], ids=["solver-constant-overflows", "shot-noise-unit-underflows", "eta-eta-ch-underflows",
        "excess-estimate-inf", "two-errors", "span-divides-by-zero", "span-estimate-overflows",
        "span-solve", "span-of-the-ratios-that-draw"])
def test_cli_refuses_a_value_outside_its_domain_at_its_line(tmp_path, capsys, command, system,
                                                             extra, err):
    # outside the ranges the solver's (2 + xi)*N0 overflows, N0 = eta*I_LO or eta*eta_ch
    # underflows to a zero divisor, or a run's excess estimate is inf; each such value is
    # refused by its key at its line, and of two errors the first in line order. Two ratios
    # 1e-300 apart divide the estimate by (r2 - r1)*eta*eta_ch: the schedule is refused at
    # its header, also when a third ratio that draws no slot widens it
    scen = tmp_path / "extreme.scenario"
    scen.write_text(f"[system]\n{system}{extra}[run]\nslots = 2000\n"
                    "[outputs]\nreport = report.txt\n")
    rc = main([command, "--scenario", str(scen), "--out", str(tmp_path / "out")])
    assert (rc, *capsys.readouterr()) == (2, "", f"error: {err}\n")
    assert not (tmp_path / "out").exists()


def test_cli_run_that_cannot_fit_writes_nothing(tmp_path, capsys):
    # a two-ratio schedule has no polynomial; the run fails before any artifact
    scen = tmp_path / "two_ratio.scenario"
    scen.write_text(MINIMAL + "[outputs]\nrecords = records.csv\npolynomial = poly.txt\n")
    rc = main(["run", "--scenario", str(scen), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert ">= 3 distinct ratios" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_run_whose_verdict_fails_prints_only_its_error(tmp_path, capsys):
    # a three-ratio schedule whose middle ratio draws no slot: no report reaches stdout
    scen = tmp_path / "unseen_ratio.scenario"
    scen.write_text("[schedule]\n1.0 = 0.95\n0.5 = 0.0\n0.001 = 0.05\n[attack]\nstrategy = A\n"
                    "[run]\nslots = 20000\n[outputs]\nreport = report.txt\nverdict = verdict.txt\n")
    assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr() == ("", "error: the quadratic countermeasure needs >= 3 distinct "
                                       "ratios, got 2; the ratios that drew slots: 0.001, 1.0\n")
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
        raise EstimationError("the fit failed")

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
    (65538, ",0.5,", ",abc,", "data row 65538, column 3 (ratio): could not convert string 'abc'"),
    (65541, ",0.5,0.5", ",0.5,abc",
     "data row 65541, column 4 (alice_x): could not convert string 'abc' to float64\n"),
], ids=["repeated-slot", "non-numeric", "non-numeric-fifth-row-of-a-chunk"])
def test_cli_detect_numbers_rows_across_chunks(tmp_path, capsys, data_row, old, new,
                                               message):
    # rows are read a chunk at a time, and errors give the row's number in the file
    n = CHUNK_SLOTS + 8
    batch = protocol.RecordBatch(np.zeros(n), [0.5], np.zeros(n, int), np.full(n, 0.5),
                                 np.full(n, 0.5))
    path = tmp_path / "records.csv"
    with records_writer(path, "x", 0) as append:
        append(batch)
    lines = path.read_bytes().split(b"\r\n")
    lines[data_row] = lines[data_row].replace(old.encode(), new.encode(), 1)
    path.write_bytes(b"\r\n".join(lines))
    assert main(["detect", "--records", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed records CSV ") and message in err


def _ranged_records(tmp_path, monkeypatch, cpus, fail):
    """A records file of three ratios over four chunks, read as ``cpus`` ranges (two: chunks
    0-1 and 2-3; three: 0, 1 and 2-3) by a range worker that calls ``fail(first)`` before it
    reads the range from data row ``first``."""
    rng = np.random.default_rng(3)
    n = 4 * CHUNK_SLOTS - 9
    path = tmp_path / "records.csv"
    with records_writer(path, "x", 0) as append:
        append(protocol.RecordBatch(rng.integers(0, 2, n), [1.0, 0.5, 0.001],
                                    rng.integers(0, 3, n), rng.normal(0.0, 3e4, n),
                                    rng.normal(0.0, 1e4, n)))
    worker = serialize._record_chunks

    def record_chunks(path, start, first, stop):
        fail(first)
        return worker(path, start, first, stop)

    monkeypatch.setattr(serialize, "_record_chunks", record_chunks)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    return path


def _raise_from(*firsts):
    def fail(first):
        if first in firsts:
            raise ValueError(f"range from data row {first + 1} refused")
    return fail


@pytest.mark.parametrize("cpus, fail, message", [
    (2, _raise_from(2 * CHUNK_SLOTS), "range from data row 131073 refused"),
    (3, _raise_from(CHUNK_SLOTS, 2 * CHUNK_SLOTS), "range from data row 65537 refused"),
    (3, _raise_from(0, 2 * CHUNK_SLOTS), "range from data row 1 refused"),
    (3, lambda first: first and os._exit(3),
     "the reader of data rows 65537 to 131072 of {path} ended without a result"),
    (2, lambda first: first and os.kill(os.getpid(), signal.SIGKILL),
     "the reader of data rows 131073 to the end of {path} ended without a result"),
], ids=["child-raises", "earlier-child-first", "parent-first", "child-exits", "child-killed"])
def test_cli_detect_reports_the_earliest_failed_range_and_reaps_every_child(
        tmp_path, monkeypatch, capsys, cpus, fail, message):
    path = _ranged_records(tmp_path, monkeypatch, cpus, fail)
    assert main(["detect", "--records", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message.format(path=path)}\n")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_cli_detect_reads_ranges_in_children_and_reaps_them(tmp_path, monkeypatch, capsys):
    seen = []
    path = _ranged_records(tmp_path, monkeypatch, 3, lambda first: seen.append(os.getpid()))
    assert main(["detect", "--records", str(path)]) == 0
    assert seen == [os.getpid()]  # the other two ranges were read in children
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    out = capsys.readouterr().out
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert main(["detect", "--records", str(path)]) == 0
    assert capsys.readouterr().out == out and len(seen) == 2


def test_cli_plan_mode_refuses_a_plan_for_another_curve(tmp_path, capsys):
    # a plan solved for the 50:50 coupler, replayed by a 10:90 scenario
    assert main(["solve", "--scenario", str(SCENARIOS / "attack_a.scenario"),
                 "--out", str(tmp_path)]) == 0
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


@pytest.mark.parametrize("pulses", [True, False], ids=["pulses", "bare"])
def test_cli_plan_mode_refuses_a_plan_without_its_curve(tmp_path, capsys, pulses):
    # without its curve line a plan could be replayed on a coupler it was not solved for
    plan = tmp_path / "plan.txt"
    if pulses:
        assert main(["solve", "--scenario", str(SCENARIOS / "attack_a.scenario"),
                     "--out", str(tmp_path)]) == 0
        plan.write_text("".join(line for line in plan.read_text().splitlines(keepends=True)
                                if not line.startswith("curve = ")))
    else:
        plan.write_text("strategy = A\namplification = 10\ndisplacement = 0.0\n")
    scen = tmp_path / "other_curve.scenario"
    scen.write_text(MINIMAL.replace("[system]\n", "[system]\ncurve = 10:90\n")
                    + f"[attack]\nstrategy = A\nmode = plan\nplan = {plan}\n"
                    "[outputs]\nreport = report.txt\n")
    capsys.readouterr()
    assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: plan file {plan} has no 'curve' key\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--variable", "xi", "--start", "nan", "--stop", "0.5", "--points", "3"],
     "--start must be a finite"),
    (["sweep", "--variable", "eta_ch", "--start", "0.5", "--stop", "inf", "--points", "3"],
     "--stop must be a finite"),
    (["sweep", "--variable", "eta_ch", "--start", "0.5", "--stop", "0.9", "--points", "3",
      "--n-amp", "nan"], "--n-amp must be finite"),
], ids=["sweep-start-nan", "sweep-stop-inf", "sweep-n-amp-nan"])
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


def test_cli_run_with_a_headerless_curve_file_exits_2(tmp_path, capsys):
    # a table without its header line would otherwise lose its first row
    curve = tmp_path / "headerless.txt"
    curve.write_text("1270 0.5327\n1290 0.5253\n1310 0.5144\n")
    scen = tmp_path / "headerless.scenario"
    scen.write_text(MINIMAL.replace("[system]\n", f"[system]\ncurve = {curve}\n"))
    assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr() == ("", f"error: line 1: curve file {curve}: expected the header "
                                       "'wavelength_nm transmittance', got '1270 0.5327'\n")
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


def test_integers_parse_exactly_or_are_refused_with_their_line():
    assert parse_scenario("[run]\nmaster_seed = 9007199254740993\n").master_seed == 2 ** 53 + 1
    assert parse_scenario("[run]\nslots = 1e6\n").slots == 1_000_000
    assert parse_scenario("[run]\nmaster_seed = 9007199254740993.0\n").master_seed == 2 ** 53 + 1
    for value in ("9007199254740993.5", "1e-400", "1e-99999999999999999999"):
        with pytest.raises(ConfigError, match="expected an integer") as err:
            parse_scenario(f"[run]\nslots = 5\nmaster_seed = {value}\n")
        assert err.value.line == 3, value


def test_cli_scenario_seed_runs_the_session_of_the_same_seed_flag(tmp_path, capsys):
    # 2**53 + 1 is no float: the scenario seed and --seed must still name one session
    seed = "9007199254740993"
    bodies = []
    for name, text, flags in (("scenario", MINIMAL.replace("master_seed = 3\n",
                                                           f"master_seed = {seed}\n"), []),
                              ("flag", MINIMAL, ["--seed", seed])):
        scen = tmp_path / f"{name}.scenario"
        scen.write_text(text + "[outputs]\nreport = report.txt\n")
        assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / name), *flags]) == 0
        header, body = (tmp_path / name / "report.txt").read_text().split("\n", 1)
        assert header.endswith(f" seed={seed}")
        bodies.append(body)
    assert bodies[0] == bodies[1]


@pytest.mark.parametrize("first, second, where", [
    ("polynomial = verdict.txt", "verdict = verdict.txt", "as line 10 does"),
    ("records = report.txt", "report = ./report.txt", "as line 10 does"),
    ("records = a/records.csv", "report = a", "a directory of line 10's file"),
    ("report = a", "records = ./a/records.csv", "below line 10's file"),
], ids=["same-name", "normalized-name", "directory-after-file", "file-after-directory"])
def test_cli_two_outputs_naming_one_file_are_refused(tmp_path, capsys, first, second, where):
    # one artifact would overwrite the other, or need it as a directory: refused as a
    # duplicate key is, naming both lines
    scen = tmp_path / "clash.scenario"
    scen.write_text(MINIMAL + f"[outputs]\n{first}\n# comment\n{second}\n")
    assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "out")]) == 2
    key, name = second.split(" = ")
    assert capsys.readouterr() == (
        "", f"error: line 12: [outputs] key {key!r} names file {name!r}, {where}\n")
    assert not (tmp_path / "out").exists()
    # a name that only starts with the same letters is another path
    assert parse_scenario(MINIMAL + "[outputs]\nreport = a\nrecords = ab/records.csv\n").outputs


@pytest.mark.parametrize("command", ["run", "solve", "sweep"])
def test_cli_artifact_names_with_a_directory_part_are_written(tmp_path, capsys, command):
    # every artifact writer makes the directories its name holds
    out = tmp_path / "out"
    if command == "run":
        scen = tmp_path / "sub.scenario"
        scen.write_text(MINIMAL + "[outputs]\nrecords = records.csv\nreport = sub/report.txt\n")
        argv, written = ["run", "--scenario", str(scen)], ["records.csv", "sub/report.txt"]
    elif command == "solve":
        argv = ["solve", "--scenario", str(SCENARIOS / "attack_a.scenario"),
                "--plan-file", "sub/plan.txt"]
        written = ["sub/plan.txt"]
    else:
        argv = ["sweep", "--variable", "eta_ch", "--start", "0.5", "--stop", "0.95",
                "--points", "3", "--sweep-file", "sub/s.csv"]
        written = ["sub/s.csv"]
    assert main(argv + ["--out", str(out)]) == 0
    assert sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()) == written


@pytest.mark.parametrize("command, name, named", [
    ("run", "", "line 11: report"), ("run", ".", "line 11: report"),
    ("run", "{tmp}/abs.txt", "line 11: report"), ("run", "../x", "line 11: report"),
    ("solve", "../p.txt", "--plan-file"), ("solve", "sub/../..", "--plan-file"),
    ("sweep", "{tmp}/s.csv", "--sweep-file"), ("sweep", "", "--sweep-file"),
], ids=["run-empty", "run-out", "run-absolute", "run-parent", "solve-parent", "solve-out",
        "sweep-absolute", "sweep-empty"])
def test_cli_artifact_names_outside_out_are_refused_before_any_work(tmp_path, capsys, command,
                                                                     name, named):
    # an artifact lands below --out: an empty name, --out itself, an absolute path and
    # one that climbs out with '..' are refused at their line or flag, and nothing is written
    name = name.format(tmp=tmp_path)
    if command == "run":
        scen = tmp_path / "names.scenario"
        scen.write_text(MINIMAL + f"[outputs]\nrecords = records.csv\nreport = {name}\n")
        argv = ["run", "--scenario", str(scen)]
    elif command == "solve":
        argv = ["solve", "--scenario", str(SCENARIOS / "attack_a.scenario"), "--plan-file", name]
    else:
        argv = ["sweep", "--variable", "eta_ch", "--start", "0.5", "--stop", "0.95",
                "--points", "3", "--sweep-file", name]
    before = sorted(tmp_path.rglob("*"))
    assert main(argv + ["--out", str(tmp_path / "a" / "out")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {named}") and err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == before


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


def test_empty_schedule_section_is_refused_at_its_header(tmp_path, capsys):
    # a [schedule] header with no entry is no request for the default schedule
    with pytest.raises(ConfigError, match="at least one") as err:
        parse_scenario("[system]\n[schedule]\n# none\n[run]\nslots = 1000\n")
    assert err.value.line == 2
    scen = tmp_path / "empty.scenario"
    scen.write_text("[schedule]\n[attack]\nstrategy = A\n")
    for command in (["run", "--out", str(tmp_path / "o")], ["solve"]):
        assert main([*command, "--scenario", str(scen)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: line 1: schedule needs at least one (ratio, probability) entry"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text, line", [
    ("[system]\ncurve =\n", 2),
    ("[attack]\nstrategy = A\nmode = plan\nplan =\n", 4),
], ids=["curve", "plan"])
def test_empty_curve_or_plan_is_refused_at_its_line(tmp_path, capsys, text, line):
    key = text.splitlines()[line - 1].split()[0]
    scen = tmp_path / "empty.scenario"
    scen.write_text(text)
    assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: line {line}: {key}: expected a name, got an empty value"]


def test_parameter_errors_carry_their_section_line():
    # a value outside its domain is refused at its own line, errors joining values at the
    # line of their section
    with pytest.raises(ConfigError, match="detector_efficiency must be in") as err:
        parse_scenario("[run]\nslots = 5\n[system]\ndetector_efficiency = 2\n")
    assert err.value.line == 4
    with pytest.raises(ConfigError, match="sum") as err:
        parse_scenario("[system]\n[schedule]\n1.0 = 0.5\n0.5 = 0.4\n")
    assert err.value.line == 2
    with pytest.raises(ConfigError, match="none/A/B") as err:
        parse_scenario("[attack]\nstrategy = C\n")
    assert err.value.line == 2
    with pytest.raises(ConfigError, match="needs a plan = <path> entry") as err:
        parse_scenario("[run]\nslots = 5\n[attack]\nstrategy = A\nmode = plan\n")
    assert err.value.line == 3


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
    for name in ("records.csv", "polynomial.txt"):
        assert _header(tmp_path / "a" / name).split()[2] == base.split()[2]


def test_cli_sweep_header_tracks_monte_carlo_slots(tmp_path):
    # Monte-Carlo rows read --slots and --seed
    def sweep(name, slots, *seed):
        assert main(["sweep", "--variable", "N", "--start", "5", "--stop", "10",
                     "--points", "2", "--mc", "--slots", slots, *seed,
                     "--out", str(tmp_path / name)]) == 0
        return _header(tmp_path / name / "sweep.csv")

    assert sweep("a", "1000") == sweep("a_again", "1000")
    assert sweep("b", "2000") != sweep("a", "1000")
    assert sweep("c", "1000", "--seed", "5") != sweep("a", "1000")


@pytest.mark.parametrize("mode, flags", [
    ("part1", ["--n-amp", "7"]),
    ("solved", ["--threshold", "0.2"]),
], ids=["part1-n-amp", "solved-threshold"])
def test_cli_sweep_header_tracks_the_flags_that_shape_the_rows(tmp_path, mode, flags):
    def sweep(name, *extra):
        assert main(["sweep", "--variable", "eta_ch", "--start", "0.5", "--stop", "0.9",
                     "--points", "2", "--mode", mode, *extra,
                     "--out", str(tmp_path / name)]) == 0
        return _header(tmp_path / name / "sweep.csv")

    assert sweep("a", *flags) == sweep("a_again", *flags)
    assert sweep("a", *flags) != sweep("default")


@pytest.mark.parametrize("variable, mode, flags", [
    ("eta_ch", "part1", ["--threshold", "0.2"]),
    ("eta_ch", "solved", ["--n-amp", "7"]),
    ("eta_ch", "part1", ["--seed", "5"]),
    ("eta_ch", "solved", ["--seed", "5"]),
    ("N", "part1", ["--n-amp", "7"]),
], ids=["part1-threshold", "solved-n-amp", "part1-seed", "solved-seed", "N-n-amp"])
def test_cli_sweep_header_ignores_the_flags_its_rows_do_not_read(tmp_path, variable, mode,
                                                                 flags):
    # without --mc no row reads --seed; an N grid gives each row its N
    start, stop = ("2", "20") if variable == "N" else ("0.5", "0.9")

    def sweep(name, *extra):
        assert main(["sweep", "--variable", variable, "--start", start, "--stop", stop,
                     "--points", "2", "--mode", mode, *extra,
                     "--out", str(tmp_path / name)]) == 0
        return (tmp_path / name / "sweep.csv").read_text()

    assert sweep("a", *flags) == sweep("default")


def _shipped_20000(tmp_path, name: str) -> Path:
    """A shipped scenario at 20000 slots that writes its records."""
    text = (SCENARIOS / f"{name}.scenario").read_text()
    assert text.count("slots = 1000000\n") == 1
    text = text.replace("slots = 1000000\n", "slots = 20000\n")
    if "records = " not in text:  # [outputs] is the last section
        text += "records = records.csv\n"
    path = tmp_path / f"{name}.scenario"
    path.write_text(text)
    return path


@pytest.fixture
def honest_20000(tmp_path):
    """The shipped honest scenario at 20000 slots."""
    return _shipped_20000(tmp_path, "honest")


def _run_headers(scenario: Path, out: Path, *flags) -> dict[str, str]:
    assert main(["run", "--scenario", str(scenario), "--out", str(out), *flags]) == 0
    return {path.name: _header(path) for path in out.iterdir()}


def test_cli_run_verdict_header_covers_the_threshold(tmp_path, honest_20000):
    low = _run_headers(honest_20000, tmp_path / "low", "--threshold", "0.01")
    high = _run_headers(honest_20000, tmp_path / "high", "--threshold", "5")
    assert low.keys() == high.keys() and "verdict.txt" in low
    assert low.pop("verdict.txt") != high.pop("verdict.txt")
    assert low == high


def test_cli_detect_verdict_header_covers_the_threshold(tmp_path, honest_20000):
    _run_headers(honest_20000, tmp_path / "run")

    def detect(threshold):
        out = tmp_path / f"det{threshold}"
        assert main(["detect", "--records", str(tmp_path / "run" / "records.csv"),
                     "--threshold", threshold, "--out", str(out)]) == 0
        return _header(out / "verdict.txt")

    assert detect("0.1") != detect("5")


@pytest.mark.parametrize("threshold", ["0.1", "5"])
def test_cli_run_and_detect_write_one_verdict_header(tmp_path, honest_20000, threshold):
    # a verdict's header names the run and the threshold, whichever command wrote it
    run = _run_headers(honest_20000, tmp_path / "run", "--threshold", threshold)
    assert main(["detect", "--records", str(tmp_path / "run" / "records.csv"),
                 "--threshold", threshold, "--out", str(tmp_path / "det")]) == 0
    assert _header(tmp_path / "det" / "verdict.txt") == run["verdict.txt"]


@pytest.mark.parametrize("name", ["honest", "attack_a", "attack_b"])
def test_cli_run_and_detect_write_one_verdict(tmp_path, capsys, name):
    # one verdict: detect writes run's, less the LO flag its records cannot carry
    assert main(["run", "--scenario", str(_shipped_20000(tmp_path, name)), "--seed", "1",
                 "--out", str(tmp_path / "run")]) == 0
    assert main(["detect", "--records", str(tmp_path / "run" / "records.csv"),
                 "--out", str(tmp_path / "det")]) == 0
    capsys.readouterr()
    run = (tmp_path / "run" / "verdict.txt").read_text().splitlines(keepends=True)
    detected = (tmp_path / "det" / "verdict.txt").read_text().splitlines(keepends=True)
    assert [line for line in run if not line.startswith("lo_intensity_anomaly = ")] == detected
    # the verdict states its polynomial: the lines of polynomial.txt below its header
    polynomial = (tmp_path / "run" / "polynomial.txt").read_text().splitlines(keepends=True)
    assert run[1:len(polynomial)] == polynomial[1:]
    assert [line.split(" = ")[0] for line in run[len(polynomial):]] == [
        "threshold", "attacked", "lo_intensity_anomaly"]


@pytest.mark.parametrize("strategy, compensate, anomaly", [
    ("A", "true", "true"), ("A", "false", "true"),
    ("B", "true", "false"), ("B", "false", "true"),
])
def test_cli_run_monitor_reads_the_scenario_compensation(tmp_path, capsys, strategy,
                                                         compensate, anomaly):
    # strategy A divides the LO by N, so its monitor fires either way; strategy B's
    # fires only when the attacker does not lower her LO by the injected intensity.
    # The flag is a property of the attack's table, the same at any seed.
    name = {"A": "attack_a", "B": "attack_b"}[strategy]
    text = (SCENARIOS / f"{name}.scenario").read_text()
    assert text.count("compensate_lo = true\n") == 1
    scen = tmp_path / "s.scenario"
    scen.write_text(text.replace("slots = 1000000\n", "slots = 20000\n")
                    .replace("compensate_lo = true\n", f"compensate_lo = {compensate}\n"))
    for seed in ("1", "2"):
        out = tmp_path / seed
        assert main(["run", "--scenario", str(scen), "--seed", seed, "--out", str(out)]) == 0
        assert read_report(out / "verdict.txt")["lo_intensity_anomaly"] == anomaly
    capsys.readouterr()


def test_cli_detect_claims_no_lo_reading(tmp_path, capsys):
    # records-v1 hold no LO column: detect judges a/c alone and writes no LO flag
    assert main(["run", "--scenario", str(_shipped_20000(tmp_path, "attack_a")),
                 "--out", str(tmp_path / "run")]) == 0
    assert read_report(tmp_path / "run" / "verdict.txt")["lo_intensity_anomaly"] == "true"
    capsys.readouterr()
    assert main(["detect", "--records", str(tmp_path / "run" / "records.csv"),
                 "--out", str(tmp_path / "det")]) == 0
    assert "lo_intensity_anomaly" not in capsys.readouterr().out
    verdict = read_report(tmp_path / "det" / "verdict.txt")
    assert "lo_intensity_anomaly" not in verdict
    cut = float(verdict["a_over_c"]) > float(verdict["threshold"])
    assert verdict["attacked"] == str(cut).lower()


@pytest.mark.parametrize("name", ["attack_a", "attack_b"])
def test_cli_solve_writes_the_plan_run_writes(tmp_path, capsys, name):
    # solve states the attacked system once, in the scenario: its plan file is
    # the run's, header included, and its stdout is that file's body
    text = (SCENARIOS / f"{name}.scenario").read_text()
    scen = tmp_path / f"{name}.scenario"
    scen.write_text(text.replace("slots = 1000000\n", "slots = 20000\n"))
    assert main(["run", "--scenario", str(scen), "--out", str(tmp_path / "r")]) == 0
    capsys.readouterr()
    assert main(["solve", "--scenario", str(scen), "--out", str(tmp_path / "s")]) == 0
    solved = (tmp_path / "s" / "plan.txt").read_bytes()
    assert solved == (tmp_path / "r" / "plan.txt").read_bytes()
    assert solved.decode().split("\n", 1)[1] == capsys.readouterr().out


@pytest.mark.parametrize("attack_section", [
    "strategy = none\n",
    "strategy = A\nmode = plan\nplan = a.plan\n",
], ids=["honest", "mode-plan"])
def test_cli_solve_refuses_a_scenario_without_an_attack_to_solve(tmp_path, capsys,
                                                                  attack_section):
    # an honest scenario has no plan, and a replayed one was not solved
    scen = tmp_path / "nothing_to_solve.scenario"
    scen.write_text(MINIMAL + "[attack]\n" + attack_section)
    assert main(["solve", "--scenario", str(scen), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: solve needs [attack] strategy = A or B with mode = solve\n"
    assert not (tmp_path / "out").exists()


def test_cli_solve_takes_the_system_from_the_scenario_alone(capsys):
    flags = [("--strategy", "A"), ("--eta-ch", "0.5"), ("--xi", "0.1"), ("--eta", "0.5"),
             ("--v-el", "0.1"), ("--lo-intensity", "1e8")]
    for flag, value in flags:
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--scenario", str(SCENARIOS / "attack_a.scenario"), flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    options = {word.rstrip(",") for word in capsys.readouterr().out.split()
               if word.startswith("--")}
    assert options == {"--help", "--scenario", "--out", "--plan-file"}


def test_cli_sweep_refuses_monte_carlo_in_solved_mode(tmp_path, capsys):
    # solved mode has no Monte Carlo, so --mc there would only change the header
    rc = main(["sweep", "--variable", "eta_ch", "--start", "0.5", "--stop", "0.9",
               "--points", "2", "--mode", "solved", "--mc", "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "--mc" in captured.err and "--mode solved" in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("slots", [200000, _RECORDS_BLOCK - 1, _RECORDS_BLOCK + 1,
                                   CHUNK_SLOTS + 1])
def test_cli_detect_reproduces_the_run_a_over_c(tmp_path, capsys, slots):
    # a batch read back from records is reduced chunk by chunk like the session,
    # on both sides of a records write block and of a sampler chunk
    rc = main(["run", "--scenario", str(SCENARIOS / "attack_a.scenario"),
               "--out", str(tmp_path), "--slots", str(slots), "--threads", "2"])
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
_KEY_NAMES = sorted({key for _, key in KEYS}) + ["bogus"]
_LINES = st.one_of(
    st.sampled_from(["[system]", "[schedule]", "[attack]", "[run]", "[outputs]", "[nope]",
                     "[system", "", "# comment", "no equals sign"]),
    st.tuples(st.sampled_from(_KEY_NAMES), _NUMBERS).map(lambda kv: f"{kv[0]} = {kv[1]}"),
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


_CURVE = builtin_curve("50:50")
# the system rows of errors.DOMAINS: (lowest positive draw, high end, whether 0 is drawn too)
_RANGES = {"modulation_variance": (1e-300, 1e3, True), "excess_noise": (1e-300, 1e3, True),
           "electronic_noise": (1e-300, 1e3, True),  # in units of N0
           "detector_efficiency": (1e-6, 1.0, False), "channel_transmittance": (1e-30, 1.0, False),
           "lo_intensity": (1.0, 1e15, False)}


def _log_uniform(lo, hi, zero):
    """Draws over [lo, hi], log-uniform inside, each end (and 0 if ``zero``) drawn as itself."""
    inside = st.floats(math.log10(lo), math.log10(hi)).map(lambda e: min(max(10.0 ** e, lo), hi))
    return st.one_of(st.sampled_from([lo, hi, *[0.0] * zero]), inside)


_RATIO = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def _ratios(draw):
    """2 or 3 distinct ratios in [0, 1]: its ends, values between, and two a tiny gap apart."""
    first = draw(_RATIO)
    gap = draw(st.sampled_from([5e-324, 1e-300, 5e-7, 1e-6, 2e-6]))
    near = first + gap if first + gap <= 1.0 else first - gap
    ratios = [first, draw(st.one_of(_RATIO, st.just(near))), *draw(st.lists(_RATIO, max_size=1))]
    ratios = sorted(set(ratios))
    assume(len(ratios) >= 2)
    return ratios


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.fixed_dictionaries({key: _log_uniform(*ends) for key, ends in _RANGES.items()}),
       _ratios())
def test_library_contract_finite_values_or_a_project_error_inside_the_domains(values, ratios):
    # every system and schedule the table accepts runs the library path to finite values or
    # an InfeasibleAttackError or EstimationError; numpy warnings are errors here. Any two
    # ratios can be the extremes that drew slots, so each pair is estimated from
    try:
        schedule = protocol.AttenuationSchedule(tuple((r, 1 / len(ratios)) for r in ratios))
    except ConfigError:
        assert min(b - a for a, b in itertools.pairwise(ratios)) < 1e-6
        return
    eta, eta_ch, v_a = (values[k] for k in ("detector_efficiency", "channel_transmittance",
                                            "modulation_variance"))
    v_el = values["electronic_noise"] * (eta * values["lo_intensity"])
    params = SystemParams(modulation_variance=v_a, channel_transmittance=eta_ch,
                          excess_noise=values["excess_noise"], lo_intensity=values["lo_intensity"],
                          detector=DetectorConfig(eta, v_el), schedule=schedule)

    def finite(*values):
        assert all(np.isfinite(v).all() for v in values), values

    def estimates(plan):
        v = {r: analysis.analytic_variance(params, plan, r) for r in ratios}
        return [protocol.two_point_from_variances(v[r1], v[r2], r1, r2, eta, eta_ch, v_el, v_a)
                for r1, r2 in itertools.combinations(ratios, 2)]

    finite(*protocol.honest_noise_table(params).outcome_moments(), *estimates(None))
    for kind in attack.STRATEGIES:
        try:
            plan = attack.solve_attack_parameters(kind, params, _CURVE)
            table = attack.noise_table(params, plan)
            poly = analysis.analytic_noise_polynomial(params, plan)
            finite(table.sig_x, *table.outcome_moments(), poly.a, poly.b, poly.c,
                   *estimates(plan))
        except (InfeasibleAttackError, EstimationError):
            pass
