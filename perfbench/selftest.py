"""Self-test of the benchmark at toy size (about 1e4 slots, one seed); runs in seconds.

    python3 perfbench/selftest.py

1. Every workload runs traced at toy size: all ops, their checks, the traced
   run and its byte-identity check pass, and the metric names match
   BENCHMARK.json exactly.
2. Negative cases: a corrupted artifact, a flipped verdict and a changed byte
   between two runs of one op must each raise the error rate above 0.

Verdicts are not gated at toy size (their false-failure rates hold only at
full size); the flipped-verdict case sets the expectation to the verdict
the op actually wrote, so it tests the check, not the statistics.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import checks
import child
import run
import workloads


def _error_rate(records) -> float:
    results = checks.check_records(records)
    return sum(not ok for _, ok in results) / len(results)


def _rewrite(path, old: str, new: str) -> None:
    text = path.read_text(encoding="utf-8")
    if old not in text:
        raise AssertionError(f"{old!r} not in {path}")
    path.write_text(text.replace(old, new, 1), encoding="utf-8")


def check_workloads() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}
    problems = []
    for workload in workloads.WORKLOADS:
        out = run.run_workload(workload, seed=1, seconds=0, trace=True, toy=True)
        result = out["result"]
        if not result["correct"] or result["attempted"] < 1:
            problems.append(f"{workload}: failed checks {out['checks']['failed']}")
        if not any(r["child"] == "traced" for r in out["ops"]):
            problems.append(f"{workload}: no traced ops")
        if set(out["end_to_end"]) != e2e_names:
            problems.append(f"{workload}: end-to-end names differ from BENCHMARK.json")
        if set(result["metrics"]) != layer_names:
            problems.append(f"{workload}: per-layer names differ from BENCHMARK.json: "
                            f"{sorted(set(result['metrics']) ^ layer_names)}")
        print(f"selftest {workload}: {result['attempted']} checks, "
              f"{result['failed']} failed, {out['passes']} pass(es)")
    return problems


def check_negative_cases() -> list[str]:
    sys.path.insert(0, str(run.ROOT / "src"))
    import cvqkd.cli

    work = run.ROOT / ".perfbench" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        op = workloads.build("scenario_run", 1, run.ROOT, work, toy=True)["passes"][0][1]
        op = dict(op, keep=True)
        with contextlib.redirect_stdout(io.StringIO()):
            rec = dict(child.execute(op, cvqkd.cli), **{"pass": 0})
            repeat = dict(child.execute(dict(op, out=op["out"] + "-repeat"), cvqkd.cli),
                          **{"pass": 1})
        wrote = checks.report_values(rec["artifacts"]["verdict.txt"]["text"], "attacked")
        op["attacked"] = rec["attacked"] = wrote == ["true"]
        problems = []
        if _error_rate([rec]) != 0.0:
            problems.append("unmodified toy op does not pass its checks")

        out = Path(op["out"])
        flipped = "false" if op["attacked"] else "true"
        _rewrite(out / "verdict.txt", f"attacked = {wrote[0]}", f"attacked = {flipped}")
        bad = dict(rec, artifacts=child.summarize(out))
        if not _error_rate([bad]) > 0.0:
            problems.append("a flipped verdict did not raise the error rate")

        _rewrite(out / "verdict.txt", f"attacked = {flipped}", f"attacked = {wrote[0]}")
        (out / "polynomial.txt").write_text("a = 1.0\n", encoding="utf-8")
        bad = dict(rec, artifacts=child.summarize(out))
        if not _error_rate([bad]) > 0.0:
            problems.append("a corrupted artifact header did not raise the error rate")

        repeat_out = Path(repeat["out"])
        with open(repeat_out / "records.csv", "r+b") as fh:
            fh.seek(-3, 2)
            last = fh.read(1)
            fh.seek(-3, 2)
            fh.write(b"7" if last != b"7" else b"8")
        if _error_rate([rec, repeat]) != 0.0:
            problems.append("an unmodified repeat does not pass its checks")
        repeat = dict(repeat, artifacts=child.summarize(repeat_out))
        if not _error_rate([rec, repeat]) > 0.0:
            problems.append("a changed byte between repeats did not raise the error rate")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"selftest negative cases: {len(problems)} problem(s)")
    return problems


def main() -> int:
    problems = check_workloads() + check_negative_cases()
    for p in problems:
        print(f"selftest FAILED: {p}")
    print("selftest ok" if not problems else "selftest failed")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
