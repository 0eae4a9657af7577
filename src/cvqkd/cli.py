"""Batch front end: honest/attacked runs, parameter solving, sweeps, detection.

Everything user-visible is a pure function of (scenario file, master seed);
``--threads`` only reschedules work. Numeric flags, artifact names
(``_FLAG_DOMAINS``) and ``--out`` are checked before any work. Exit status is
0 on success and 2 on configuration, feasibility, file or memory errors, with
a diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import functools
import hashlib
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, attack, protocol, serialize
from .errors import ConfigError, EstimationError, InfeasibleAttackError, check
from .physics import BeamSplitterCurve
from .scenario import Scenario, load_scenario, parse_scenario
from .protocol import AttenuationSchedule, SystemParams


def _report_items(scen: Scenario, moments, plan) -> list[tuple[str, object]]:
    params = scen.params
    n0 = params.shot_noise_unit
    items: list[tuple[str, object]] = [("slots", scen.slots),
                                       ("shot_noise_nominal", n0)]
    per_ratio = protocol.variances_by_ratio(moments)
    for r, (v, n) in sorted(per_ratio.items()):
        items += [(f"variance[r={r!r}]", v), (f"count[r={r!r}]", float(n))]
    if len(per_ratio) >= 2:
        report = protocol.estimate_two_point(moments, params)
        items += report.as_items()
        items.append(("shot_noise_ratio", report.shot_noise_est / n0))
    elif 1.0 in per_ratio:
        items.append(("excess_noise_single_point",
                      analysis.single_point_excess_estimate(per_ratio[1.0][0], params)))
    try:
        items.append(("channel_transmittance_est",
                      protocol.estimate_covariance_transmittance(moments, params)))
    except EstimationError:
        pass
    if plan is not None:
        items.append(("true_realistic_shot_noise", attack.realistic_shot_noise(params, plan)))
    return items


def _replaced(obj, **overrides):
    """``obj`` rebuilt, and so validated again, with each override that is not None."""
    return dataclasses.replace(obj, **{k: v for k, v in overrides.items() if v is not None})


def _scenario(args, **overrides) -> Scenario:
    """The ``--scenario`` file, or the defaults without one, with the flag overrides given."""
    scen = load_scenario(args.scenario) if args.scenario else parse_scenario("")
    return _replaced(scen, **overrides)


def _header_hash(base: str | None, *flags) -> str:
    """``base``, a scenario hash if any, hashed with each flag that shaped the artifact."""
    return (hashlib.sha256(" ".join([base, *map(repr, flags)]).encode()).hexdigest()[:16]
            if base else "unknown")


def cmd_run(args) -> int:
    scen = _scenario(args, master_seed=args.seed, slots=args.slots)
    curve = scen.load_curve()
    shash = scen.scenario_hash()
    seed = scen.master_seed

    outputs = scen.outputs
    outdir = Path(args.out)
    plan = None
    if scen.plan_path:  # the parser allows a plan only for an attacked mode = plan replay
        plan = serialize.load_plan(scen.directory / scen.plan_path, curve, scen.params.detector,
                                   scen.attack_kind)
    elif scen.attack_kind != "none":
        plan = attack.solve_attack_parameters(scen.attack_kind, scen.params, curve,
                                              scen.wavelengths)
    session = (functools.partial(protocol.run_honest_session, scen.params) if plan is None
               else functools.partial(attack.run_attacked_session, scen.params, plan))
    session = functools.partial(session, master_seed=seed, threads=args.threads)
    # records stream into a file that replaces the target once nothing can fail
    writer = (serialize.records_writer(outdir / outputs["records"], shash, seed)
              if "records" in outputs else contextlib.nullcontext())
    with writer as records:
        moments = (records.draw(session, scen.slots) if records
                   else session(scen.slots, records=False))
        items = _report_items(scen, moments, plan)
        if "polynomial" in outputs or "verdict" in outputs:
            table = (protocol.honest_noise_table(scen.params) if plan is None
                     else attack.noise_table(scen.params, plan, scen.compensate_lo))
            verdict = analysis.detect(
                analysis.fit_noise_polynomial(moments), threshold=args.threshold,
                lo_anomaly=analysis.monitor_lo_intensity(table, scen.params.lo_intensity))

    sys.stdout.write(serialize.report_text(items))  # once nothing before it can fail
    if "report" in outputs:
        serialize.write_report(outdir / outputs["report"], items, shash, seed)
    if "polynomial" in outputs:
        serialize.write_report(outdir / outputs["polynomial"], verdict.polynomial.as_items(),
                               shash, seed)
    if "verdict" in outputs:
        serialize.write_report(outdir / outputs["verdict"], verdict.as_items(),
                               _header_hash(shash, args.threshold), seed)
        print(f"attacked = {str(verdict.attacked).lower()}")
    if "plan" in outputs:  # the parser refuses a plan output for an honest scenario
        serialize.write_plan(outdir / outputs["plan"], plan, scen.curve_name, shash, seed)
    return 0


def cmd_solve(args) -> int:
    scen = load_scenario(args.scenario)
    if scen.attack_kind == "none" or scen.attack_mode != "solve":
        raise ConfigError("solve needs [attack] strategy = A or B with mode = solve")
    plan = attack.solve_attack_parameters(scen.attack_kind, scen.params, scen.load_curve(),
                                          scen.wavelengths)
    sys.stdout.write(serialize.report_text(serialize.plan_items(plan, scen.curve_name)))
    if args.out is not None:
        # the plan a run of this scenario writes, header and all
        serialize.write_plan(Path(args.out, args.plan_file), plan, scen.curve_name,
                             scen.scenario_hash(), scen.master_seed)
    return 0


def _grid(args, params: SystemParams):
    """Each grid value, with the system it sweeps: ``params`` with the value
    as eta_ch or xi, or ``params`` itself when the value is N."""
    swept = {"eta_ch": "channel_transmittance", "xi": "excess_noise"}.get(args.variable)
    for value in np.linspace(args.start, args.stop, args.points):
        value = float(value)
        yield value, dataclasses.replace(params, **{swept: value}) if swept else params


def _part1_row(args, scen: Scenario, value: float, point: SystemParams) -> list:
    point = dataclasses.replace(point, schedule=AttenuationSchedule(((1.0, 1.0),)))
    n_amp = value if args.variable == "N" else args.n_amp
    plan = attack.AttackPlan(attack.StrategyA(n_amp), None)
    variance = analysis.analytic_variance(point, plan, 1.0)
    row = [args.variable, value, analysis.single_point_excess_estimate(variance, point)]
    if args.mc:
        moments = attack.run_attacked_session(point, plan, args.slots,
                                              scen.master_seed, threads=args.threads,
                                              records=False)
        var1 = protocol.variances_by_ratio(moments)[1.0][0]
        row.append(analysis.single_point_excess_estimate(var1, point))
    return row


def _solved_row(curve: BeamSplitterCurve, args, scen: Scenario, value: float,
                point: SystemParams) -> list:
    row = [args.variable, value, point.channel_transmittance, point.excess_noise]
    try:
        plan = attack.solve_attack_parameters("A", point, curve, scen.wavelengths)
    except InfeasibleAttackError:
        return row + ["", "", "", "", "infeasible"]
    poly = analysis.analytic_noise_polynomial(point, plan)
    verdict = analysis.detect(poly, threshold=args.threshold)
    return row + [poly.a, poly.b, poly.c, poly.ratio_a_over_c, str(verdict.attacked).lower()]


def cmd_sweep(args) -> int:
    if args.mc and args.mode == "solved":
        raise ConfigError("--mc simulates the part-1 resend; --mode solved has no Monte Carlo")
    # only Monte-Carlo rows read --seed and --slots
    scen = _scenario(args, **dict(master_seed=args.seed, slots=args.slots) if args.mc else {})
    curve = scen.load_curve()
    if args.mode == "part1":
        header = ["variable", "value", "excess_noise_est"]
        if args.mc:
            header.append("excess_noise_mc")
        # each mode's rows, and the flags they read: --n-amp unless the grid is N
        row_of, flags = _part1_row, () if args.variable == "N" else (args.n_amp,)
    elif args.variable == "N":
        raise ConfigError("solved-mode sweeps vary eta_ch or xi; the solver fixes N")
    else:
        header = ["variable", "value", "eta_ch", "xi", "a", "b", "c", "a_over_c", "verdict"]
        row_of, flags = functools.partial(_solved_row, curve), (args.threshold,)
    rows = [row_of(args, scen, value, point) for value, point in _grid(args, scen.params)]
    if args.mode == "part1" and args.variable == "eta_ch":
        try:
            crossing = analysis.part1_zero_crossing(
                args.n_amp, scen.params.detector.efficiency,
                scen.params.excess_noise, *sorted((args.start, args.stop)))
            print(f"zero_crossing = {crossing!r}")
        except ValueError:
            pass
    text = serialize.csv_text(rows, header, _header_hash(scen.scenario_hash(), *flags),
                              scen.master_seed)
    path = Path(args.out, args.sweep_file)
    serialize.write_text(path, text)
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def cmd_detect(args) -> int:
    # the verdict file's header repeats the records' seed: refuse a bad one before any row
    meta = serialize.read_meta(args.records) if args.out is not None else {}
    seed = meta.get("seed", "0")
    if not (seed.isascii() and seed.isdigit()):
        raise ValueError(f"records file {args.records}: seed={seed} is not a non-negative integer")
    moments = serialize.read_records_csv(args.records)  # no LO column: the verdict reads no LO
    verdict = analysis.detect(analysis.fit_noise_polynomial(moments), threshold=args.threshold)
    sys.stdout.write(serialize.report_text(verdict.as_items()))
    if args.out is not None:
        serialize.write_report(Path(args.out, "verdict.txt"), verdict.as_items(),
                               _header_hash(meta.get("scenario"), args.threshold), int(seed))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvqkd",
        description="Wavelength-attack simulator for homodyne-detection CV-QKD")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an honest or attacked session")
    p_run.add_argument("--scenario", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--slots", type=int, default=None)
    p_run.add_argument("--out", default=".")
    p_run.add_argument("--threads", type=int, default=1)
    p_run.add_argument("--threshold", type=float,
                       default=analysis.DEFAULT_DETECTION_THRESHOLD)
    p_run.set_defaults(func=cmd_run)

    p_solve = sub.add_parser("solve", help="solve a scenario's attack plan")
    p_solve.add_argument("--scenario", required=True)
    p_solve.add_argument("--out", default=None)
    p_solve.add_argument("--plan-file", default="plan.txt")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="grid scan of attack observables")
    p_sweep.add_argument("--variable", choices=("eta_ch", "xi", "N"), required=True)
    p_sweep.add_argument("--start", type=float, required=True)
    p_sweep.add_argument("--stop", type=float, required=True)
    p_sweep.add_argument("--points", type=int, required=True)
    p_sweep.add_argument("--mode", choices=("part1", "solved"), default="part1")
    p_sweep.add_argument("--n-amp", dest="n_amp", type=float, default=10.0)
    p_sweep.add_argument("--mc", action="store_true")
    p_sweep.add_argument("--slots", type=int, default=100_000)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--threads", type=int, default=1)
    p_sweep.add_argument("--scenario", default=None)
    p_sweep.add_argument("--threshold", type=float,
                         default=analysis.DEFAULT_DETECTION_THRESHOLD)
    p_sweep.add_argument("--out", default=".")
    p_sweep.add_argument("--sweep-file", default="sweep.csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_detect = sub.add_parser("detect", help="countermeasure verdict for a records CSV")
    p_detect.add_argument("--records", required=True)
    p_detect.add_argument("--threshold", type=float,
                          default=analysis.DEFAULT_DETECTION_THRESHOLD)
    p_detect.add_argument("--out", default=None)
    p_detect.set_defaults(func=cmd_detect)
    return parser


# each flag's row of DOMAINS: main checks each flag a command has and was given before any work
_FLAG_DOMAINS = {"threads": "threads", "slots": "slots", "points": "points", "seed": "master_seed",
                 "start": "grid bound", "stop": "grid bound", "n_amp": "amplification",
                 "threshold": "threshold", "plan_file": "output name", "sweep_file": "output name"}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag, row in _FLAG_DOMAINS.items():
            if getattr(args, flag, None) is not None:
                check(row, getattr(args, flag), name=f"--{flag.replace('_', '-')}")
        if args.out is not None:
            # mkdir would fail only after the work unless the nearest existing
            # path among --out and its parents is a directory
            out = Path(args.out)
            found = next(p for p in (out, *out.parents) if p.exists())
            if not found.is_dir():
                code = errno.EEXIST if found == out else errno.ENOTDIR
                raise OSError(code, os.strerror(code), args.out)
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:  # every project error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
