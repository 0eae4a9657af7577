"""Batch front end: honest/attacked runs, parameter solving, sweeps, detection.

Everything user-visible is a pure function of (scenario file, master seed);
``--threads`` only reschedules work. Numeric flags (``_FLAG_DOMAINS``) and
``--out`` are checked before any work. Exit status is 0 on success and 2 on
configuration, feasibility, file or memory errors, with a diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, attack, protocol, serialize
from .errors import ConfigError, EstimationError, InfeasibleAttackError
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


def cmd_run(args) -> int:
    scen = _scenario(args, master_seed=args.seed, slots=args.slots)
    curve = scen.load_curve()
    replay = scen.attack_kind != "none" and scen.attack_mode == "plan"
    shash = scen.scenario_hash(Path(scen.plan_path).read_bytes() if replay else b"")
    seed = scen.master_seed

    outputs = scen.outputs
    outdir = Path(args.out)
    plan = None
    if replay:
        plan = serialize.load_plan(scen.plan_path, curve, scen.params.detector, scen.attack_kind)
    elif scen.attack_kind != "none":
        plan = attack.solve_attack_parameters(scen.attack_kind, scen.params, curve,
                                              scen.wavelengths)
    # records stream into a file that replaces the target once nothing can fail
    writer = (serialize.records_writer(outdir / outputs["records"], shash, seed)
              if "records" in outputs else contextlib.nullcontext(False))
    with writer as records:
        if plan is None:
            moments = protocol.run_honest_session(scen.params, scen.slots, seed,
                                                  threads=args.threads, records=records)
        else:
            moments = attack.run_attacked_session(scen.params, plan, scen.slots, seed,
                                                  threads=args.threads,
                                                  compensate_lo=scen.compensate_lo,
                                                  records=records)
        items = _report_items(scen, moments, plan)
        sys.stdout.write(serialize.report_text(items))
        poly = verdict = None
        if "polynomial" in outputs or "verdict" in outputs:
            poly = analysis.fit_noise_polynomial(moments)
        if "verdict" in outputs:
            lo_anomaly = analysis.monitor_lo_intensity(moments, scen.params.lo_intensity)
            verdict = analysis.detect(poly, threshold=args.threshold, lo_anomaly=lo_anomaly)

    outdir.mkdir(parents=True, exist_ok=True)
    if "report" in outputs:
        serialize.write_report(outdir / outputs["report"], items, shash, seed)
    if "polynomial" in outputs:
        serialize.write_report(outdir / outputs["polynomial"], poly.as_items(), shash, seed)
    if verdict is not None:
        serialize.write_report(outdir / outputs["verdict"], verdict.as_items(), shash, seed)
        print(f"attacked = {str(verdict.attacked).lower()}")
    if "plan" in outputs:  # the parser refuses a plan output for an honest scenario
        serialize.write_plan(outdir / outputs["plan"], plan, scen.curve_name, shash, seed)
    return 0


def cmd_solve(args) -> int:
    scen = _scenario(args)
    detector = _replaced(scen.params.detector, efficiency=args.eta, electronic_noise=args.v_el)
    scen = dataclasses.replace(scen, params=_replaced(
        scen.params, detector=detector, channel_transmittance=args.eta_ch, excess_noise=args.xi,
        lo_intensity=args.lo_intensity))
    curve = scen.load_curve()
    plan = attack.solve_attack_parameters(args.strategy, scen.params, curve,
                                          scen.wavelengths, r1=args.r1, r2=args.r2)
    sys.stdout.write(serialize.report_text(serialize.plan_items(plan, scen.curve_name)))
    if args.out is not None:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        serialize.write_plan(outdir / args.plan_file, plan, scen.curve_name,
                             scen.scenario_hash(), scen.master_seed)
    return 0


def _grid(args, params: SystemParams):
    """Each grid value, with the system it sweeps: ``params`` with the value
    as eta_ch or xi, or ``params`` itself when the value is N."""
    swept = {"eta_ch": "channel_transmittance", "xi": "excess_noise"}.get(args.variable)
    for value in np.linspace(args.start, args.stop, args.points):
        value = float(value)
        yield value, dataclasses.replace(params, **{swept: value}) if swept else params


def _part1_row(args, scen: Scenario, curve: BeamSplitterCurve, value: float,
               point: SystemParams) -> list:
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


def _solved_row(args, scen: Scenario, curve: BeamSplitterCurve, value: float,
                point: SystemParams) -> list:
    row = [args.variable, value, point.channel_transmittance, point.excess_noise]
    try:
        plan = attack.solve_attack_parameters(args.strategy, point, curve, scen.wavelengths)
    except InfeasibleAttackError:
        return row + ["", "", "", "", "infeasible"]
    poly = analysis.analytic_noise_polynomial(point, plan)
    verdict = analysis.detect(poly, threshold=args.threshold)
    return row + [poly.a, poly.b, poly.c, poly.ratio_a_over_c, str(verdict.attacked).lower()]


def cmd_sweep(args) -> int:
    # with --mc the header names the Monte-Carlo slot count
    scen = _scenario(args, master_seed=args.seed, slots=args.slots if args.mc else None)
    curve = scen.load_curve()
    if args.mode == "part1":
        header = ["variable", "value", "excess_noise_est"]
        if args.mc:
            header.append("excess_noise_mc")
        row_of = _part1_row
    elif args.variable == "N":
        raise ConfigError("solved-mode sweeps vary eta_ch or xi; the solver fixes N")
    else:
        header = ["variable", "value", "eta_ch", "xi", "a", "b", "c", "a_over_c", "verdict"]
        row_of = _solved_row
    rows = [row_of(args, scen, curve, value, point)
            for value, point in _grid(args, scen.params)]
    if args.mode == "part1" and args.variable == "eta_ch":
        try:
            crossing = analysis.part1_zero_crossing(
                args.n_amp, scen.params.detector.efficiency,
                scen.params.excess_noise, args.start, args.stop)
            print(f"zero_crossing = {crossing!r}")
        except ValueError:
            pass
    text = serialize.csv_text(rows, header, scen.scenario_hash(), scen.master_seed)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / args.sweep_file
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def cmd_detect(args) -> int:
    # the verdict file's header repeats the records' seed: refuse a bad one before any row
    meta = serialize.read_meta(args.records) if args.out is not None else {}
    seed = meta.get("seed", "0")
    if not (seed.isascii() and seed.isdigit()):
        raise ValueError(f"records file {args.records}: seed={seed} is not a non-negative integer")
    moments = serialize.read_records_csv(args.records, records=False)
    poly = analysis.fit_noise_polynomial(moments)
    verdict = analysis.detect(poly, threshold=args.threshold)
    items = list((dict(poly.as_items()) | dict(verdict.as_items())).items())  # a_over_c once
    sys.stdout.write(serialize.report_text(items))
    if args.out is not None:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        serialize.write_report(outdir / "verdict.txt", items,
                               meta.get("scenario", "unknown"), int(seed))
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

    p_solve = sub.add_parser("solve", help="derive attack parameters")
    p_solve.add_argument("--strategy", choices=attack.STRATEGIES, required=True)
    p_solve.add_argument("--scenario", default=None)
    p_solve.add_argument("--eta-ch", dest="eta_ch", type=float, default=None)
    p_solve.add_argument("--xi", type=float, default=None)
    p_solve.add_argument("--eta", type=float, default=None)
    p_solve.add_argument("--v-el", dest="v_el", type=float, default=None)
    p_solve.add_argument("--lo-intensity", dest="lo_intensity", type=float, default=None)
    p_solve.add_argument("--r1", type=float, default=None)
    p_solve.add_argument("--r2", type=float, default=None)
    p_solve.add_argument("--out", default=None)
    p_solve.add_argument("--plan-file", default="plan.txt")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="grid scan of attack observables")
    p_sweep.add_argument("--variable", choices=("eta_ch", "xi", "N"), required=True)
    p_sweep.add_argument("--start", type=float, required=True)
    p_sweep.add_argument("--stop", type=float, required=True)
    p_sweep.add_argument("--points", type=int, required=True)
    p_sweep.add_argument("--mode", choices=("part1", "solved"), default="part1")
    p_sweep.add_argument("--strategy", choices=attack.STRATEGIES, default="A")
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


# (flags, predicate, requirement): each named flag a command has and was
# given must satisfy the predicate; main checks them before any work
_FLAG_DOMAINS = (
    (("threads", "slots", "points"), lambda v: v >= 1, ">= 1"),
    (("seed",), lambda v: v >= 0, ">= 0"),
    (("r1", "r2", "start", "stop", "n_amp"), math.isfinite, "a finite number"),
    (("threshold",), lambda v: 0.0 < v < math.inf, "finite and > 0"),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for names, ok, requirement in _FLAG_DOMAINS:
            for name in names:
                value = getattr(args, name, None)
                if value is not None and not ok(value):
                    raise ConfigError(f"--{name.replace('_', '-')} must be {requirement}, "
                                      f"got {value!r}")
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
