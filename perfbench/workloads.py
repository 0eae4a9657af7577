"""The benchmark's workloads: which `cvqkd` CLI ops each one runs, and what they must produce.

Every op is plain data (a dict) so it can be handed to a fresh child process
as JSON. The program only ever sees scenario files and `--seed`; all seeds
are derived from the benchmark seed.

Fields of an op:
  name       label; (name, seed) identifies the op for the repeat check
  args       argv for `cvqkd.cli.main`, without `--out`
  out        directory passed as `--out`
  seed       the `--seed` given to the program
  slots      slots the op simulates (`run`) or replays (`detect`)
  threads    the `--threads` in effect
  expect     files the op must write into `out`
  attacked   expected verdict, or None where the verdict is not gated
  ac_from    name of the `run` op whose polynomial a/c this op must reproduce
  keep       keep `out` after the op (records that a later op of the pass reads)
"""

from __future__ import annotations

import hashlib
from pathlib import Path

WORKLOADS = ("scenario_run", "separation")
SHIPPED = ("honest", "attack_a", "attack_b")
TOY_SLOTS = 10_000
# separation passes cycle through this many seeds, so timed passes also repeat ops
SEPARATION_SEEDS = 5
SEPARATION_HONEST_SLOTS = 20_000_000
SEPARATION_ATTACK_SLOTS = 2_000_000
SEPARATION_THREADS = 2

_SEPARATION_SCENARIO = """\
# Generated by perfbench: acceptance criterion 7, {label}.
[system]
modulation_variance = 5.0
detector_efficiency = 0.5
electronic_noise = 0.0
channel_transmittance = 0.9
excess_noise = 0.1
lo_intensity = 1e8
curve = 50:50

[schedule]
1.0 = 0.90
0.5 = 0.05
0.001 = 0.05

[attack]
{attack}

[run]
slots = {slots}
master_seed = 1

[outputs]
polynomial = polynomial.txt
verdict = verdict.txt
"""


def derive_seed(seed: int, workload: str, index: int) -> int:
    """Program seed number ``index`` of one workload, a pure function of the benchmark seed."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def scenario_section(text: str, section: str) -> dict[str, str]:
    """The ``key = value`` entries of one ``[section]`` of a scenario file."""
    out: dict[str, str] = {}
    current = None
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
        elif current == section and "=" in line:
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def _run_op(name, scenario: Path, out: Path, seed, threads, toy, attacked, keep=False):
    text = scenario.read_text(encoding="utf-8")
    args = ["run", "--scenario", str(scenario), "--seed", str(seed)]
    if threads != 1:
        args += ["--threads", str(threads)]
    slots = int(scenario_section(text, "run")["slots"])
    if toy and slots > TOY_SLOTS:
        args += ["--slots", str(TOY_SLOTS)]
        slots = TOY_SLOTS
    return {"name": name, "args": args, "out": str(out), "seed": seed, "slots": slots,
            "threads": threads, "expect": sorted(scenario_section(text, "outputs").values()),
            "attacked": None if toy else attacked, "ac_from": None, "keep": keep}


def _detect_op(name, run_op, out: Path, toy, attacked):
    records = Path(run_op["out"]) / "records.csv"
    return {"name": name, "args": ["detect", "--records", str(records)], "out": str(out),
            "seed": run_op["seed"], "slots": run_op["slots"], "threads": 1,
            "expect": ["verdict.txt"], "attacked": None if toy else attacked,
            "ac_from": run_op["name"], "keep": False}


def build(workload: str, seed: int, root: Path, work: Path, toy: bool = False) -> dict:
    """Ops of one workload run: timed ``passes``; ``extra`` and ``memory`` for the traced run.

    ``reference`` names the ``reference.py`` job whose kind of work the
    workload's time goes to: interpreter loops over CSV rows, or numpy arrays.

    ``passes`` is long enough for any run length; the runner stops after the
    pass that crosses the time limit. ``memory`` is the part of the first pass
    that the tracemalloc pass repeats: one op per distinct memory measurement.
    ``toy`` shrinks every op to about 1e4 slots and ungates the verdicts,
    whose false-failure rates are only known at full size.
    """
    shipped = root / "scenarios"
    out = work / "out"
    if workload == "scenario_run":
        # honest.scenario at 1e6 slots is ungated: its a/c has sd 0.054 against the 0.05 cut
        s = derive_seed(seed, workload, 0)
        runs = [_run_op(f"run:{name}", shipped / f"{name}.scenario", out / name, s, 1, toy,
                        None if name == "honest" else True, keep=name != "attack_b")
                for name in SHIPPED]
        # then replay the two records CSVs this pass wrote
        detects = [_detect_op("detect:honest", runs[0], out / "detect_honest", toy, None),
                   _detect_op("detect:attack_a", runs[1], out / "detect_attack_a", toy, True)]
        # both CSVs have 1e6 slots, so reading one gives the reader's peak
        return {"passes": [runs + detects] * 64, "extra": [],
                "memory": [runs[0], runs[1], detects[0]], "reference": "python"}
    if workload == "separation":
        scen_dir = work / "scenarios"
        scen_dir.mkdir(parents=True, exist_ok=True)
        honest = scen_dir / "honest_2e7.scenario"
        honest.write_text(_SEPARATION_SCENARIO.format(
            label="honest", attack="strategy = none", slots=SEPARATION_HONEST_SLOTS),
            encoding="utf-8")
        attacked = scen_dir / "attack_a_2e6.scenario"
        attacked.write_text(_SEPARATION_SCENARIO.format(
            label="strategy A, solved parameters",
            attack="strategy = A\nmode = solve\ncompensate_lo = true",
            slots=SEPARATION_ATTACK_SLOTS), encoding="utf-8")
        passes = []
        for k in range(64):
            s = derive_seed(seed, workload, k % SEPARATION_SEEDS)
            passes.append([
                _run_op("run:honest_2e7", honest, out / "honest", s, SEPARATION_THREADS, toy,
                        False),
                _run_op("run:attack_a_2e6", attacked, out / "attack", s, SEPARATION_THREADS,
                        toy, True),
            ])
        # the first honest op at 1 and then 2 threads, back to back: speedup_2t
        s0 = passes[0][0]["seed"]
        extra = [_run_op("run:honest_2e7", honest, out / f"honest_{t}t", s0, t, toy, False)
                 for t in (1, SEPARATION_THREADS)]
        return {"passes": passes, "extra": extra, "memory": passes[0], "reference": "numpy"}
    raise ValueError(f"unknown workload {workload!r}; have {', '.join(WORKLOADS)}")
