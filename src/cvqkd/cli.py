"""Batch front end: honest/attacked runs, parameter solving, sweeps, detection.

Everything user-visible is a pure function of (scenario file, master seed);
``--threads`` only reschedules work. Exit status is 0 on success and 2 on
configuration or feasibility errors, with a diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, attack, protocol, serialize
from .errors import ConfigError, CountermeasureError, EstimationError, InfeasibleAttackError
from .physics import BeamSplitterCurve, DetectorConfig
from .scenario import Scenario, load_scenario
from .protocol import AttenuationSchedule, SystemParams


def _resolve_plan(scen: Scenario, curve: BeamSplitterCurve) -> attack.AttackPlan:
    if scen.attack_mode == "solve":
        return attack.solve_attack_parameters(
            scen.attack_kind, scen.params, curve, scen.wavelengths)
    if scen.attack_mode == "plan":
        return serialize.load_plan(scen.plan_path, curve, scen.params.detector)
    if scen.attack_kind != "A":
        raise ConfigError("fixed-amplification mode only applies to strategy A")
    return attack.AttackPlan(attack.StrategyA(scen.fixed_amplification), None)


def _report_items(scen: Scenario, moments, plan) -> list[tuple[str, object]]:
    params = scen.params
    n0 = params.shot_noise_unit
    items: list[tuple[str, object]] = [("slots", scen.slots),
                                       ("shot_noise_nominal", n0)]
    try:
        report = protocol.estimate_two_point(moments, params)
        items += report.as_items()
        items.append(("shot_noise_ratio", report.shot_noise_est / n0))
    except EstimationError:
        per_ratio = protocol.variances_by_ratio(moments)
        for r in sorted(per_ratio):
            v, n = per_ratio[r]
            items += [(f"variance[r={r!r}]", v), (f"count[r={r!r}]", float(n))]
        if 1.0 in per_ratio:
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


def _require_at_least(args, minimum: int, *names: str) -> None:
    for name in names:
        value = getattr(args, name)
        if value is not None and value < minimum:
            raise ConfigError(f"--{name} must be >= {minimum}, got {value}")


def _require_finite(args, *names: str) -> None:
    for name in names:
        value = getattr(args, name)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"--{name.replace('_', '-')} must be a finite number, got {value!r}")


def _check_run_flags(args) -> None:
    _require_at_least(args, 1, "threads", "slots")
    _require_at_least(args, 0, "seed")
    _check_threshold(args)


def _check_threshold(args) -> None:
    if not 0.0 < args.threshold < math.inf:
        raise ConfigError(f"--threshold must be finite and > 0, got {args.threshold!r}")


def cmd_run(args) -> int:
    _check_run_flags(args)
    scen = load_scenario(args.scenario)
    if args.seed is not None:
        scen.master_seed = args.seed
    if args.slots is not None:
        scen.slots = args.slots
    curve = scen.load_curve()
    shash = scen.scenario_hash()
    seed = scen.master_seed

    outputs = scen.outputs
    records = "records" in outputs
    plan = None
    if scen.attack_kind == "none":
        session = protocol.run_honest_session(scen.params, scen.slots, seed,
                                              threads=args.threads, records=records)
    else:
        plan = _resolve_plan(scen, curve)
        session = attack.run_attacked_session(scen.params, plan, scen.slots, seed,
                                              threads=args.threads,
                                              compensate_lo=scen.compensate_lo,
                                              records=records)
    moments = protocol.ratio_moments(session)

    items = _report_items(scen, moments, plan)
    for key, value in items:
        print(f"{key} = {serialize.fmt_value(value)}")
    # everything that can fail is computed before the first artifact is written
    poly = verdict = None
    if "polynomial" in outputs or "verdict" in outputs:
        poly = analysis.fit_noise_polynomial(moments)
    if "verdict" in outputs:
        lo_monitor = None
        if moments.lo_sum is not None:
            lo_monitor = analysis.LoMonitorInput(moments, scen.params.lo_intensity)
        verdict = analysis.detect(poly, threshold=args.threshold, lo_monitor=lo_monitor)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    if records:
        serialize.write_records_csv(outdir / outputs["records"], session, shash, seed)
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


def _scenario_or_default(args) -> Scenario:
    return load_scenario(args.scenario) if args.scenario else Scenario(params=SystemParams())


def _params_from_flags(args) -> tuple[Scenario, SystemParams]:
    scen = _scenario_or_default(args)
    p = scen.params
    det = p.detector
    eta = args.eta if args.eta is not None else det.efficiency
    v_el = args.v_el if args.v_el is not None else det.electronic_noise
    params = dataclasses.replace(
        p,
        channel_transmittance=args.eta_ch if args.eta_ch is not None else p.channel_transmittance,
        excess_noise=args.xi if args.xi is not None else p.excess_noise,
        detector=DetectorConfig(eta, v_el),
        lo_intensity=args.lo_intensity if args.lo_intensity is not None else p.lo_intensity,
    )
    scen.params = params
    return scen, params


def cmd_solve(args) -> int:
    _require_finite(args, "r1", "r2")
    scen, params = _params_from_flags(args)
    curve = scen.load_curve()
    plan = attack.solve_attack_parameters(args.strategy, params, curve,
                                          scen.wavelengths, r1=args.r1, r2=args.r2)
    for key, value in serialize.plan_items(plan, scen.curve_name):
        print(f"{key} = {serialize.fmt_value(value)}")
    if args.out is not None:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        serialize.write_plan(outdir / args.plan_file, plan, scen.curve_name,
                             scen.scenario_hash(), scen.master_seed)
    return 0


def _sweep_rows_part1(args, scen: Scenario):
    params = scen.params
    values = np.linspace(args.start, args.stop, args.points)
    rows = []
    for value in values:
        eta_ch = float(value) if args.variable == "eta_ch" else params.channel_transmittance
        xi = float(value) if args.variable == "xi" else params.excess_noise
        n_amp = float(value) if args.variable == "N" else args.n_amp
        point = dataclasses.replace(params, channel_transmittance=eta_ch, excess_noise=xi,
                                    schedule=AttenuationSchedule(((1.0, 1.0),)))
        plan = attack.AttackPlan(attack.StrategyA(n_amp), None)
        variance = analysis.analytic_variance(point, plan, 1.0)
        row = [args.variable, float(value), analysis.single_point_excess_estimate(variance, point)]
        if args.mc:
            moments = attack.run_attacked_session(point, plan, args.slots,
                                                  scen.master_seed, threads=args.threads,
                                                  records=False)
            var1 = protocol.variances_by_ratio(moments)[1.0][0]
            row.append(analysis.single_point_excess_estimate(var1, point))
        rows.append(row)
    header = ["variable", "value", "excess_noise_est"]
    if args.mc:
        header.append("excess_noise_mc")
    return rows, header


def _sweep_rows_solved(args, scen: Scenario, curve: BeamSplitterCurve):
    if args.variable == "N":
        raise ConfigError("solved-mode sweeps vary eta_ch or xi; the solver fixes N")
    params = scen.params
    values = np.linspace(args.start, args.stop, args.points)
    rows = []
    for value in values:
        eta_ch = float(value) if args.variable == "eta_ch" else params.channel_transmittance
        xi = float(value) if args.variable == "xi" else params.excess_noise
        point = dataclasses.replace(params, channel_transmittance=eta_ch, excess_noise=xi)
        try:
            plan = attack.solve_attack_parameters(args.strategy, point, curve,
                                                  scen.wavelengths)
        except InfeasibleAttackError:
            rows.append([args.variable, float(value), eta_ch, xi,
                         "", "", "", "", "infeasible"])
            continue
        poly = analysis.analytic_noise_polynomial(point, plan)
        verdict = analysis.detect(poly, threshold=args.threshold)
        rows.append([args.variable, float(value), eta_ch, xi, poly.a, poly.b, poly.c,
                     poly.ratio_a_over_c, str(verdict.attacked).lower()])
    header = ["variable", "value", "eta_ch", "xi", "a", "b", "c", "a_over_c", "verdict"]
    return rows, header


def cmd_sweep(args) -> int:
    _check_run_flags(args)
    _require_finite(args, "start", "stop", "n_amp")
    if args.points < 1:
        raise ConfigError("sweep needs at least one grid point")
    scen = _scenario_or_default(args)
    if args.seed is not None:
        scen.master_seed = args.seed
    if args.mc:
        scen.slots = args.slots  # the header then names the Monte-Carlo slot count
    curve = scen.load_curve()
    if args.mode == "part1":
        rows, header = _sweep_rows_part1(args, scen)
        if args.variable == "eta_ch":
            try:
                crossing = analysis.part1_zero_crossing(
                    args.n_amp, scen.params.detector.efficiency,
                    scen.params.excess_noise, args.start, args.stop)
                print(f"zero_crossing = {crossing!r}")
            except ValueError:
                pass
    else:
        rows, header = _sweep_rows_solved(args, scen, curve)
    text = serialize.csv_text(rows, header, scen.scenario_hash(), scen.master_seed)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / scen.outputs.get("sweep", args.sweep_file)
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path} ({len(rows)} rows)")
    return 0


def cmd_detect(args) -> int:
    _check_threshold(args)
    batch = serialize.read_records_csv(args.records)
    poly = analysis.fit_noise_polynomial(batch)
    verdict = analysis.detect(poly, threshold=args.threshold)
    for key, value in poly.as_items() + verdict.as_items():
        print(f"{key} = {serialize.fmt_value(value)}")
    if args.out is not None:
        meta = serialize.read_meta(args.records)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        serialize.write_report(outdir / "verdict.txt",
                               poly.as_items() + verdict.as_items(),
                               meta.get("scenario", "unknown"),
                               int(meta.get("seed", 0)))
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
    p_solve.add_argument("--strategy", choices=("A", "B"), required=True)
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
    p_sweep.add_argument("--strategy", choices=("A", "B"), default="A")
    p_sweep.add_argument("--n-amp", dest="n_amp", type=float, default=10.0)
    p_sweep.add_argument("--mc", action="store_true")
    p_sweep.add_argument("--analytic", dest="mc", action="store_false")
    p_sweep.add_argument("--slots", type=int, default=100_000)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--threads", type=int, default=1)
    p_sweep.add_argument("--scenario", default=None)
    p_sweep.add_argument("--threshold", type=float,
                         default=analysis.DEFAULT_DETECTION_THRESHOLD)
    p_sweep.add_argument("--out", default=".")
    p_sweep.add_argument("--sweep-file", default="sweep.csv")
    p_sweep.set_defaults(func=cmd_sweep, mc=False)

    p_detect = sub.add_parser("detect", help="countermeasure verdict for a records CSV")
    p_detect.add_argument("--records", required=True)
    p_detect.add_argument("--threshold", type=float,
                          default=analysis.DEFAULT_DETECTION_THRESHOLD)
    p_detect.add_argument("--out", default=None)
    p_detect.set_defaults(func=cmd_detect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, InfeasibleAttackError, EstimationError, CountermeasureError,
            FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
