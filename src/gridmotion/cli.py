"""Command line interface.

Subcommands: generate, validate, solve, score, render, features, select.
Exit codes: 0 success (and: schedule feasible), 1 infeasible schedule or
solver/generation failure, 2 malformed input or bad configuration.
The GRIDMOTION_SEED environment variable supplies the default seed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
from pathlib import Path

from .evaluate import instance_report, score_suites
from .formats import (
    FormatError,
    emit_instance,
    emit_solution,
    parse_generator_grid,
    parse_instance,
    parse_objective,
    parse_solution,
    parse_solver_config,
)
from .generate import GenerationError, InstanceFeatures, generate, select_diverse
from .model import Objective
from .render import render_svg
from .solve import SolverConfig, solve
from .validate import validate_schedule

SEED_ENV = "GRIDMOTION_SEED"

_FEATURE_COLUMNS = ("name", "n_robots", "density", "n_clusters",
                    "n_clustered_robots", "volume", "free_area",
                    "cluster_info_known")


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise FormatError(f"{SEED_ENV} must be an integer, got {raw!r}") from None


def _read(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _features_csv(rows: list[tuple[str, InstanceFeatures]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_FEATURE_COLUMNS)
    for name, f in rows:
        writer.writerow([name, f.n_robots, repr(f.density), f.n_clusters,
                         f.n_clustered_robots, f.volume, f.free_area,
                         int(f.cluster_info_known)])
    return buf.getvalue()


def _parse_features_csv(text: str) -> list[tuple[str, InstanceFeatures]]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != list(_FEATURE_COLUMNS):
        raise FormatError("features CSV: unexpected header")
    out = []
    try:
        for row in reader:
            if not row:
                continue
            name = row[0]
            out.append((name, InstanceFeatures(
                n_robots=int(row[1]), density=float(row[2]), n_clusters=int(row[3]),
                n_clustered_robots=int(row[4]), volume=int(row[5]),
                free_area=int(row[6]), cluster_info_known=bool(int(row[7])))))
    except (ValueError, IndexError) as err:
        raise FormatError(f"features CSV: bad row: {err}") from None
    return out


def cmd_generate(args) -> int:
    text = _read(args.config)
    combos = parse_generator_grid(text, strict=args.strict,
                                  default_seed=_default_seed())
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    base_dir = str(Path(args.config).parent)
    feature_rows = []
    names = []
    for params in combos:
        result = generate(params, base_dir=base_dir)
        name = result.instance.name
        if name in names:
            raise FormatError(f"generator config: duplicate parameter combination {name}")
        names.append(name)
        _write(outdir / f"{name}.instance.json", emit_instance(result.instance))
        feature_rows.append((name, result.features))
    _write(outdir / "features.csv", _features_csv(feature_rows))
    print(f"generated {len(names)} instance(s) in {outdir}")
    if args.select is not None:
        picks = select_diverse([f for _, f in feature_rows], args.select)
        manifest = "\n".join(names[i] for i in picks) + "\n"
        _write(outdir / "selected.txt", manifest)
        print(f"selected {len(picks)} diverse instance(s) -> selected.txt")
    return 0


def cmd_validate(args) -> int:
    instance = parse_instance(_read(args.instance), strict=args.strict)
    schedule = parse_solution(_read(args.solution), instance.n_robots,
                              strict=args.strict)
    if schedule.instance_name != instance.name:
        print(f"warning: solution names instance {schedule.instance_name!r}, "
              f"validating against {instance.name!r}", file=sys.stderr)
    import warnings as _warnings
    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore")
        report = validate_schedule(instance, schedule)
    print(f"feasible: {report.feasible}")
    print(f"makespan: {report.makespan}  total_distance: {report.total_distance}")
    if args.objective:
        value = (report.makespan if parse_objective(args.objective) is Objective.MAX
                 else report.total_distance)
        print(f"objective ({args.objective}): {value}")
    if report.lb_makespan is not None:
        print(f"lb_makespan: {report.lb_makespan}  lb_total: {report.lb_total}")
        if report.stretch_max is not None:
            print(f"stretch_max: {report.stretch_max:.4f}  "
                  f"stretch_sum: {report.stretch_sum:.4f}")
    if report.first_violation is not None:
        v = report.first_violation
        print(f"violation: step {v.step} rule {v.rule} robots {list(v.robots)}")
    return 0 if report.feasible else 1


def cmd_solve(args) -> int:
    instance = parse_instance(_read(args.instance), strict=args.strict)
    if args.config:
        config = parse_solver_config(_read(args.config), strict=args.strict)
    else:
        config = SolverConfig()
    overrides = {}
    if args.objective:
        overrides["objective"] = parse_objective(args.objective)
    if args.time_limit is not None:
        overrides["time_limit"] = args.time_limit or None
    if args.seed is not None:
        overrides["seed"] = args.seed
    elif os.environ.get(SEED_ENV) is not None:
        overrides["seed"] = _default_seed()
    if args.restarts is not None:
        overrides["restarts"] = args.restarts
    if args.anneal_iterations is not None:
        overrides["anneal_iterations"] = args.anneal_iterations
    try:
        config = dataclasses.replace(config, **overrides)
    except ValueError as err:
        raise FormatError(f"solver config: {err}") from None

    result = solve(instance, config)
    if args.telemetry:
        lines = [json.dumps({"time": round(rec.time, 6), "objective": rec.objective,
                             "phase": rec.phase}) for rec in result.telemetry]
        _write(args.telemetry, "\n".join(lines) + ("\n" if lines else ""))
    if not result.success:
        print(f"no schedule found: {result.failure_reason}", file=sys.stderr)
        return 1
    _write(args.output, emit_solution(result.schedule))
    rep = result.report
    print(f"solved {instance.name}: {config.objective.value} objective "
          f"{result.value} (makespan {rep.makespan}, total {rep.total_distance})")
    if rep.stretch_max is not None:
        print(f"stretch_max: {rep.stretch_max:.4f}  stretch_sum: {rep.stretch_sum:.4f}")
    return 0


def _load_instances_dir(path, strict: bool):
    files = sorted(Path(path).glob("*.instance.json"))
    if not files:
        raise FormatError(f"no *.instance.json files in {path}")
    instances = {}
    for f in files:
        inst = parse_instance(_read(f), strict=strict)
        instances[inst.name] = inst
    return instances


def cmd_score(args) -> int:
    instances = _load_instances_dir(args.instances, args.strict)
    suites = {}
    for team_dir in args.suites:
        team = Path(team_dir).name
        schedules = []
        for f in sorted(Path(team_dir).glob("*.solution.json")):
            data = json.loads(_read(f))
            if not isinstance(data, dict) or not isinstance(data.get("instance"), str):
                raise FormatError(f"{f}: solution file must name its instance")
            inst = instances.get(data["instance"])
            if inst is None:
                raise FormatError(f"{f}: unknown instance {data['instance']!r}")
            schedules.append(parse_solution(_read(f), inst.n_robots, strict=args.strict))
        suites[team] = schedules
    objective = parse_objective(args.objective)

    import warnings as _warnings
    with _warnings.catch_warnings():
        _warnings.simplefilter("ignore")
        if args.instance_report:
            report, summaries = instance_report(instances, suites, objective)
        else:
            report = score_suites(instances, suites, objective)
            summaries = None

    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["objective", "instance", "team", "value", "best_value", "score"])
    for row in report.rows:
        writer.writerow([objective.value, row.instance, row.team,
                         "" if row.value is None else row.value,
                         "" if row.best_value is None else row.best_value,
                         f"{row.score:.6f}"])
    _write(outdir / "scores.csv", buf.getvalue())
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["team", "total", "instances"])
    for team in sorted(report.totals):
        writer.writerow([team, f"{report.totals[team]:.6f}", report.instance_count])
    _write(outdir / "totals.csv", buf.getvalue())
    if summaries is not None:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["instance", "average_score", "best_value", "lb_makespan",
                         "lb_total", "n_robots", "density", "free_area"])
        for s in summaries:
            writer.writerow([s.instance, f"{s.average_score:.6f}",
                             "" if s.best_value is None else s.best_value,
                             "" if s.lb_makespan is None else s.lb_makespan,
                             "" if s.lb_total is None else s.lb_total,
                             s.features.n_robots, repr(s.features.density),
                             s.features.free_area])
        _write(outdir / "instances.csv", buf.getvalue())

    for team in sorted(report.totals):
        print(f"{team}: {report.totals[team]:.4f} / {report.instance_count}")
    for group in report.tied_teams:
        print(f"tie on total: {', '.join(group)}")
    return 0


def cmd_render(args) -> int:
    instance = parse_instance(_read(args.instance), strict=args.strict)
    schedule = None
    violation = None
    if args.solution:
        schedule = parse_solution(_read(args.solution), instance.n_robots,
                                  strict=args.strict)
        import warnings as _warnings
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore")
            report = validate_schedule(instance, schedule)
        violation = report.first_violation
        if violation is not None:
            print(f"rendering infeasible schedule (step {violation.step} "
                  f"rule {violation.rule})", file=sys.stderr)
    svg = render_svg(instance, schedule, frame_every=args.frame_every,
                     violation=violation)
    _write(args.output, svg)
    print(f"wrote {args.output}")
    return 0


def cmd_features(args) -> int:
    from .generate import extract_features
    rows = []
    for path in args.instances:
        inst = parse_instance(_read(path), strict=args.strict)
        rows.append((inst.name, extract_features(inst)))
    text = _features_csv(rows)
    if args.output:
        _write(args.output, text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_select(args) -> int:
    rows = _parse_features_csv(_read(args.features))
    if args.k > len(rows):
        raise FormatError(f"cannot select {args.k} from {len(rows)} candidates")
    picks = select_diverse([f for _, f in rows], args.k)
    manifest = "\n".join(rows[i][0] for i in picks) + "\n"
    if args.output:
        _write(args.output, manifest)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(manifest)
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridmotion",
        description="Coordinated grid motion planning: generate, solve, "
                    "validate, score and render.")
    parser.add_argument("--strict", action="store_true",
                        help="reject unknown keys in input files")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate an instance batch from a config")
    p.add_argument("config")
    p.add_argument("outdir")
    p.add_argument("--select", type=int, default=None, metavar="K",
                   help="also write a manifest of K diverse instances")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("validate", help="validate a solution against an instance")
    p.add_argument("instance")
    p.add_argument("solution")
    p.add_argument("--objective", choices=("max", "sum"), default=None,
                   help="also print the value under this objective")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="compute a schedule for an instance")
    p.add_argument("instance")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--objective", choices=("max", "sum"), default=None)
    p.add_argument("--time-limit", type=float, default=None,
                   help="seconds; 0 lifts a limit set by --config")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--restarts", type=int, default=None)
    p.add_argument("--anneal-iterations", type=int, default=None)
    p.add_argument("--config", default=None, help="solver config file")
    p.add_argument("--telemetry", default=None,
                   help="write improvement records as JSON lines")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("score", help="score solution suites against instances")
    p.add_argument("--instances", required=True, help="directory of *.instance.json")
    p.add_argument("suites", nargs="+", help="one directory of *.solution.json per team")
    p.add_argument("--objective", choices=("max", "sum"), required=True)
    p.add_argument("--output", required=True, help="directory for CSV reports")
    p.add_argument("--instance-report", action="store_true",
                   help="also write per-instance difficulty summary")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("render", help="render instance and schedule to SVG")
    p.add_argument("instance")
    p.add_argument("output")
    p.add_argument("--solution", default=None)
    p.add_argument("--frame-every", type=_positive_int, default=1)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("features", help="compute features of instance files")
    p.add_argument("instances", nargs="+")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("select", help="pick k diverse instances from a features CSV")
    p.add_argument("features")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_select)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except GenerationError as err:
        print(f"generation failed: {err}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())
