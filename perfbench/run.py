"""cvqkd benchmark: one workload run through the CLI, checked, with its metrics.

    python3 perfbench/run.py --workload {scenario_run,separation}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it builds nothing and imports ``cvqkd``
from ``src/``. One run:

1. starts 3 fresh processes that only import ``cvqkd`` and build the CLI
   parser, for ``setup_s``, each followed by one that only imports numpy;
2. runs the workload in one fresh process as a closed loop: each op starts
   when the previous one returns, passes repeat until ``--seconds`` is
   crossed; a fixed reference job (``reference.py``) runs before every op
   and after the last;
3. starts 3 more pairs of set-up and numpy-import processes; ``setup_s`` is
   the median of the six rescaled set-up times;
4. with ``--trace 1``, also runs one pass (plus the workload's extra ops) in
   another fresh process with spans around every layer function;
5. checks every artifact (see ``checks.py``), prints each metric with its
   unit, and as its last line one JSON object: end-to-end metrics with
   ``--trace 0``, per-layer metrics with ``--trace 1``.

The end-to-end times are rescaled to a reference host speed: measured time
x ``reference.NOMINAL_S`` / reference time, where a pass's reference time is
the mean of the jobs around its ops and a set-up's is the numpy import
after it. The shared host's speed drifts by tens of percent over minutes;
the reference jobs see the same drift and cancel it. The measured times are
printed next to the rescaled ones.

Spans, the run record and all checks go to ``.perfbench/<workload>-seed<N>-trace<T>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import reference
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
SETUP_PROBES = 6
RUN_LIMIT_S = 170.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "slots_per_s": "1/s", "peak_rss_mb": "MiB"}

_SESSION = {"ns_per_slot": "ns", "cpu_s": "s", "peak_mb": "MiB", "bytes_per_slot_computed": "B"}
PER_LAYER = {
    **{f"{fn}.{q}": u for fn in spans.TRACED for q, u in (("self_s", "s"), ("calls", "count"))},
    "serialize.write_records_csv.ns_per_slot": "ns",
    "serialize.write_records_csv.bytes_per_slot": "B",
    "serialize.read_records_csv.ns_per_slot": "ns",
    "serialize.read_records_csv.peak_mb": "MiB",
    "rng.run_chunked.draw_ns_per_slot": "ns",
    "rng.run_chunked.calls": "count",
    "rng.chunks": "count",
    **{f"protocol.run_honest_session.{q}": u for q, u in _SESSION.items()},
    "protocol.run_honest_session.speedup_2t": "ratio",
    **{f"attack.run_attacked_session.{q}": u for q, u in _SESSION.items()},
    "protocol.variances_by_ratio.peak_mb": "MiB",
    "bench.trace_overhead": "ratio",
    "bench.slots_per_pass": "count",
    "bench.error_rate": "fraction",
}

# ROADMAP re-anchor baseline rows: (row, workload, value, unit); reproduced within 25 %
BASELINE = (
    ("records CSV write", "scenario_run", 4.6, "us/slot"),
    ("records CSV read", "scenario_run", 2.9, "us/slot"),
    ("honest session 2e7 slots, 1 thread", "separation", 2.3, "s"),
    ("honest session 2e7 slots, 2 threads", "separation", 1.75, "s"),
    ("raw draws for 2e7 slots", "separation", 1.0, "s"),
    ("variances_by_ratio on 2e7 slots", "separation", 0.43, "s"),
    ("peak RSS with a 2e7-slot honest session", "separation", 823.0, "MiB"),
)
BASELINE_TOLERANCE = 0.25


class BenchError(RuntimeError):
    """The benchmark could not produce a result (missing program, child crash, timeout)."""


def _child(args: list[str], deadline: float, log: Path) -> str:
    """Run child.py to completion; return its stdout."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child process")
    with open(log, "ab") as err:
        try:
            proc = subprocess.run([sys.executable, str(CHILD), *args], cwd=ROOT,
                                  stdout=subprocess.PIPE, stderr=err, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"child {args} exceeded the run's time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"child {args} exited with {proc.returncode}; see {log}")
    return proc.stdout.decode()


def _run_plan(run_dir: Path, tag: str, plan: dict, deadline: float) -> dict:
    plan_path = run_dir / f"plan-{tag}.json"
    result_path = run_dir / f"result-{tag}.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    _child([str(plan_path), str(result_path)], deadline, run_dir / f"child-{tag}.log")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result_path.unlink()
    for rec in result["records"]:
        rec["child"] = tag
    return result


def _probe_setup(run_dir: Path, deadline: float) -> list[dict]:
    """Set-up times of SETUP_PROBES / 2 fresh processes, each followed by a reference import."""
    log = run_dir / "child-setup.log"
    return [dict(json.loads(_child(["--setup-only"], deadline, log)),
                 **json.loads(_child(["--reference-import"], deadline, log)))
            for _ in range(SETUP_PROBES // 2)]


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _sum(values) -> float:
    return float(sum(values))


def layer_metrics(traced: dict, untraced: dict, error_rate: float) -> tuple[dict, list, dict]:
    """Per-layer metrics of the traced pass; also the names absent and baseline inputs.

    Times and counts come from the timing pass (ops ``0:*``), peaks from the
    memory ops (``memory:*``), the 1- and 2-thread repeat from ``extra:*``.
    """
    def spans_of(prefix: str) -> dict[str, list[dict]]:
        by_fn: dict[str, list[dict]] = {}
        for s in traced["spans"]:
            if str(s["op"]).startswith(prefix):
                by_fn.setdefault(s["name"], []).append(s)
        return by_fn

    timing, memory, extra = spans_of("0:"), spans_of("memory:"), spans_of("extra:")
    m = {name: 0.0 for name in PER_LAYER}
    for fn in spans.TRACED:
        ss = timing.get(fn, [])
        m[f"{fn}.calls"] = float(len(ss))
        m[f"{fn}.self_s"] = _sum(s["self_s"] for s in ss)
        slots = _sum(s["slots"] or 0 for s in ss)
        if f"{fn}.ns_per_slot" in m and slots:
            m[f"{fn}.ns_per_slot"] = m[f"{fn}.self_s"] / slots * 1e9
        if f"{fn}.cpu_s" in m:
            m[f"{fn}.cpu_s"] = _sum(s["cpu_s"] for s in ss)
        if f"{fn}.bytes_per_slot_computed" in m and slots:
            m[f"{fn}.bytes_per_slot_computed"] = _sum(s.get("out_bytes", 0) for s in ss) / slots
        peaks = [s["peak_mb"] for s in memory.get(fn, []) if s["peak_mb"] is not None]
        if f"{fn}.peak_mb" in m and peaks:
            m[f"{fn}.peak_mb"] = max(peaks)
    writes = timing.get("serialize.write_records_csv", [])
    if writes:
        m["serialize.write_records_csv.bytes_per_slot"] = (
            _sum(s.get("bytes", 0) for s in writes) / _sum(s["slots"] or 0 for s in writes))
    chunk_calls = [c for c in traced["chunk_calls"] if str(c["op"]).startswith("0:")]
    m["rng.run_chunked.calls"] = float(len(chunk_calls))
    m["rng.chunks"] = _sum(c["chunks"] or 0 for c in chunk_calls)
    m["rng.run_chunked.draw_ns_per_slot"] = traced["draw_ns_per_slot"] or 0.0

    # speedup_2t: the honest sampler at --threads 1 against 2, back to back on one seed
    honest = "protocol.run_honest_session"
    threads = {r["label"]: r["threads"] for r in traced["records"]}
    single = [s["self_s"] for s in extra.get(honest, []) if threads[s["op"]] == 1]
    double = [s["self_s"] for s in extra.get(honest, []) if threads[s["op"]] == 2]
    if single and double:
        m[f"{honest}.speedup_2t"] = _sum(single) / _sum(double)

    timed = [r for r in traced["records"] if r["pass"] == 0]
    # both are the first pass of a fresh process, on the same seeds
    m["bench.trace_overhead"] = _sum(r["wall_s"] for r in timed) / untraced["pass_walls"][0]
    m["bench.slots_per_pass"] = _sum(r["slots"] for r in timed)
    m["bench.error_rate"] = error_rate

    absent = sorted(n for n in PER_LAYER for a in traced["absent"]
                    if n == a or n.startswith(a + "."))
    big_vbr = [s["self_s"] for s in timing.get("protocol.variances_by_ratio", [])
               if s["slots"] == workloads.SEPARATION_HONEST_SLOTS]
    inputs = {
        "records CSV write": m["serialize.write_records_csv.ns_per_slot"] / 1e3,
        "records CSV read": m["serialize.read_records_csv.ns_per_slot"] / 1e3,
        "honest session 2e7 slots, 1 thread": _sum(single) if single else None,
        "honest session 2e7 slots, 2 threads": _sum(double) if double else None,
        "raw draws for 2e7 slots": m["rng.run_chunked.draw_ns_per_slot"]
        * workloads.SEPARATION_HONEST_SLOTS / 1e9,
        "variances_by_ratio on 2e7 slots": statistics.mean(big_vbr) if big_vbr else None,
        "peak RSS with a 2e7-slot honest session": untraced["peak_rss_mb"],
    }
    return m, absent, inputs


def baseline_rows(workload: str, inputs: dict) -> list[dict]:
    rows = []
    for row, wl, value, unit in BASELINE:
        measured = inputs.get(row)
        if wl != workload or measured is None:
            continue
        ok = abs(measured / value - 1.0) <= BASELINE_TOLERANCE
        rows.append({"row": row, "roadmap": value, "measured": measured, "unit": unit,
                     "reproduced": ok})
    return rows


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 toy: bool = False) -> dict:
    """One benchmark run; returns the result line plus everything behind it."""
    if workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}")
    missing = [p for p in ("src/cvqkd/__init__.py", "src/cvqkd/cli.py",
                           *(f"scenarios/{n}.scenario" for n in workloads.SHIPPED))
               if not (ROOT / p).is_file()]
    if missing:
        raise BenchError(f"not a cvqkd checkout, missing {', '.join(missing)}")
    deadline = time.monotonic() + RUN_LIMIT_S
    tag = f"{workload}-seed{seed}-trace{int(trace)}" + ("-toy" if toy else "")
    run_dir = ROOT / ".perfbench" / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    work = run_dir / "work"
    work.mkdir(parents=True)
    plan = {"seconds": 0, "trace": False, "repeat": False, "extra": [], "memory": []}
    records, traced = [], None
    try:
        ops = workloads.build(workload, seed, ROOT, work, toy)
        setups = _probe_setup(run_dir, deadline)
        untraced = _run_plan(run_dir, "untraced", dict(plan, passes=ops["passes"],
                                                       seconds=seconds, repeat=True,
                                                       reference=ops["reference"]), deadline)
        setups += _probe_setup(run_dir, deadline)
        records += untraced["records"]
        if trace:
            traced = _run_plan(run_dir, "traced", dict(plan, passes=ops["passes"][:1],
                                                       trace=True, extra=ops["extra"],
                                                       memory=ops["memory"]), deadline)
            records += traced["records"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    results = checks.check_records(records)
    failed = [name for name, ok in results if not ok]
    error_rate = len(failed) / len(results)
    slots_per_pass = _sum(r["slots"] for r in untraced["records"] if r["pass"] == 0)
    # each set-up time is rescaled by the bare numpy import timed right after it
    setup_s = statistics.median(p["setup_s"] / p["import_s"] * reference.NOMINAL_S["import"]
                                for p in setups)
    measured_setup_s = statistics.median(p["setup_s"] for p in setups)
    measured_wall_s = statistics.median(untraced["pass_walls"])
    # a pass's slowdown against the reference host (> 1: slower) is the mean time of the
    # reference jobs around its ops over their nominal time
    per, refs = len(ops["passes"][0]), untraced["ref_walls"]
    nominal = reference.NOMINAL_S[ops["reference"]]
    slowdowns = [statistics.mean(refs[k * per:(k + 1) * per + 1]) / nominal
                 for k in range(len(untraced["pass_walls"]))]
    wall_s = statistics.median(w / d for w, d in zip(untraced["pass_walls"], slowdowns))
    e2e = {"setup_s": setup_s, "wall_s": wall_s,
           "slots_per_s": slots_per_pass / wall_s, "peak_rss_mb": untraced["peak_rss_mb"]}
    measured = {"setup_s": measured_setup_s, "wall_s": measured_wall_s,
                "slots_per_s": slots_per_pass / measured_wall_s}
    out = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
           "toy": toy, "git_sha": git_sha(), **untraced["versions"],
           "nproc": len(os.sched_getaffinity(0)),
           "threads": sorted({r["threads"] for r in records}),
           "passes": len(untraced["pass_walls"]), "pass_walls_s": untraced["pass_walls"],
           "setup_samples": setups,
           "slots_per_pass": slots_per_pass,
           "reference": {"kind": ops["reference"], "walls_s": refs, "nominal_s": nominal,
                         "pass_slowdowns": slowdowns},
           "measured": measured,
           "ops": [{k: r[k] for k in ("child", "pass", "name", "seed", "threads", "slots",
                                       "wall_s", "rc", "error")} for r in records],
           "checks": {"attempted": len(results), "failed": failed},
           "observations": checks.observations(records), "end_to_end": e2e}
    if traced is not None:
        layers, absent, inputs = layer_metrics(traced, untraced, error_rate)
        out.update(per_layer=layers, absent=absent,
                   baseline=[] if toy else baseline_rows(workload, inputs))
        with open(run_dir / "spans.jsonl", "w", encoding="utf-8") as fh:
            for s in traced["spans"]:
                fh.write(json.dumps(s) + "\n")
    metrics = out["per_layer"] if trace else e2e
    units = PER_LAYER if trace else END_TO_END
    out["result"] = {"correct": not failed, "attempted": len(results), "failed": len(failed),
                     "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    (run_dir / "record.json").write_text(json.dumps(out, indent=1), encoding="utf-8")
    return out


def print_run(out: dict) -> None:
    run_keys = ("workload", "seed", "seconds", "trace", "git_sha", "python", "numpy", "nproc",
                "threads", "passes", "slots_per_pass")
    print("run: " + json.dumps({k: out[k] for k in run_keys}))
    ref = out["reference"]
    print(f"host slowdown per pass = {' '.join(f'{d:.4g}' for d in ref['pass_slowdowns'])} "
          f"({len(ref['walls_s'])} {ref['kind']} reference jobs against their nominal "
          f"{ref['nominal_s']:g} s)")
    for name, value in out["end_to_end"].items():
        note = ""
        if name == "setup_s":
            note = (f"  (each sample rescaled by the numpy import timed after it; "
                    f"measured {out['measured'][name]:.6g})")
        elif name in out["measured"]:
            note = f"  (passes rescaled by their slowdown; measured {out['measured'][name]:.6g})"
        print(f"{name} = {value:.6g} {END_TO_END[name]}{note}")
    attempted, failed = out["checks"]["attempted"], out["checks"]["failed"]
    print(f"error_rate = {len(failed) / attempted:.6g} fraction "
          f"({len(failed)} of {attempted} checks failed)")
    for name in failed:
        print(f"FAILED check: {name}")
    for line in out["observations"]:
        print(f"observed (not a check unless marked gated): {line}")
    if "per_layer" in out:
        for name, value in out["per_layer"].items():
            note = "  (absent)" if name in out["absent"] else ""
            print(f"{name} = {value:.6g} {PER_LAYER[name]}{note}")
        for row in out["baseline"]:
            print(f"baseline {row['row']}: ROADMAP {row['roadmap']:g} {row['unit']}, measured "
                  f"{row['measured']:.3g} {row['unit']}: "
                  f"{'reproduced' if row['reproduced'] else 'NOT reproduced'} "
                  f"(within {BASELINE_TOLERANCE:.0%})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print_run(out)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
