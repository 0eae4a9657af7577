"""One fresh process of a workload run: time the set-up, then run ops in a closed loop.

    python3 perfbench/child.py --setup-only
    python3 perfbench/child.py --reference-import
    python3 perfbench/child.py PLAN.json RESULT.json

Set-up is the time to import ``cvqkd`` and build the CLI parser, measured
from before the import; only ``sys`` and ``time`` are imported ahead of it.
``--reference-import`` times a bare ``import numpy`` the same way: the fixed
job of the same kind (loading shared libraries and modules) that each set-up
time is rescaled by (see ``run.py``).
Each op is one call of ``cvqkd.cli.main(argv)``; the next op starts when the
previous one returns. Passes run until the plan's time limit is crossed, at
least one. Hashing and removing an op's artifacts happen outside its timing.
With a ``reference`` kind in the plan, a reference job (``reference.py``)
runs before every timed op and after the last one, outside the ops' timing.
"""

import sys
import time


def main(argv: list[str]) -> int:
    t0 = time.perf_counter()
    if argv == ["--reference-import"]:
        import numpy  # noqa: F401
        import_s = time.perf_counter() - t0
        import json
        print(json.dumps({"import_s": import_s}))
        return 0
    from pathlib import Path
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    sys.path.insert(0, str(src))
    import cvqkd.cli
    cvqkd.cli.build_parser()
    setup_s = time.perf_counter() - t0

    import json
    if Path(cvqkd.__file__).resolve().parent != src / "cvqkd":
        print(f"cvqkd was imported from {cvqkd.__file__}, not from {src}", file=sys.stderr)
        return 3
    if argv == ["--setup-only"]:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    plan_path, result_path = argv
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    result = run_plan(plan, cvqkd.cli)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


def summarize(out) -> dict:
    """sha256, size and first two lines of every file under ``out``; full text if small."""
    import hashlib
    from pathlib import Path
    summary = {}
    out = Path(out)
    if not out.is_dir():
        return summary
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            head = [fh.readline(4096).rstrip("\n") for _ in range(2)]
        entry = {"sha256": digest.hexdigest(), "size": path.stat().st_size, "head": head}
        if entry["size"] <= 65536:
            entry["text"] = path.read_text(encoding="utf-8", errors="replace")
        summary[str(path.relative_to(out))] = entry
    return summary


def execute(op: dict, cli, tracer=None, label=None) -> dict:
    """Run one op; return it with its wall time, exit status and artifact summary."""
    import shutil
    out = op["out"]
    shutil.rmtree(out, ignore_errors=True)
    argv = op["args"] + ["--out", out]
    if tracer is not None:
        tracer.op = label
    error = None
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects argv this way
        rc = exc.code
    except Exception as exc:  # an op failure is a failed check, not a crash of the benchmark
        rc, error = None, f"{type(exc).__name__}: {exc}"
    wall_s = time.perf_counter() - t0
    record = dict(op, wall_s=wall_s, rc=rc, error=error, artifacts=summarize(out))
    if not op["keep"]:
        shutil.rmtree(out, ignore_errors=True)
    return record


def run_plan(plan: dict, cli) -> dict:
    """Timed passes until ``seconds`` is crossed, then the untimed repeat, extra and memory ops.

    Timed ops are bracketed by reference jobs when the plan names a kind;
    one untimed job warms the reference up first.

    A traced plan runs its one pass with spans for timing, the extra ops, and
    then its memory ops with tracemalloc inside the memory spans.
    """
    import resource
    tracer = None
    if plan["trace"]:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    records = []
    ref_kind, ref_walls = plan.get("reference"), []
    if ref_kind:
        import reference
        reference.run(ref_kind)

    def run_ops(ops, tag, bracket=False) -> float:
        done = []
        for i, op in enumerate(ops):
            if bracket and ref_kind:
                ref_walls.append(reference.run(ref_kind))
            label = f"{tag}:{i}"
            done.append(dict(execute(op, cli, tracer, label), **{"pass": tag, "label": label}))
        records.extend(done)
        return sum(rec["wall_s"] for rec in done)

    pass_walls = []
    start = time.perf_counter()
    for k, ops in enumerate(plan["passes"]):
        if k > 0 and time.perf_counter() - start >= plan["seconds"]:
            break
        pass_walls.append(run_ops(ops, k, bracket=True))
    if ref_kind:
        ref_walls.append(reference.run(ref_kind))
    seen = [(rec["name"], rec["seed"]) for rec in records]
    if plan["repeat"] and len(set(seen)) == len(seen):
        # no timed op ran twice: repeat the first pass, untimed, for the determinism check
        run_ops(plan["passes"][0], "repeat")
    run_ops(plan["extra"], "extra")
    result = {"records": records, "pass_walls": pass_walls, "ref_walls": ref_walls,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        tracer.memory = True
        run_ops(plan["memory"], "memory")
        tracer.uninstall()
        draw_ns_per_slot = tracer.probe_draws("0:")
        result.update(spans=tracer.spans, chunk_calls=tracer.chunk_calls, absent=tracer.absent,
                      draw_ns_per_slot=draw_ns_per_slot)
    import numpy
    result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__}
    return result


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
