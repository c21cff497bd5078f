"""Command line interface.

Subcommands: generate, validate, solve, score, render, features, select.
Exit codes: 0 success (and: schedule feasible), 1 infeasible schedule or
solver/generation failure, 2 malformed input or bad configuration.
The GRIDMOTION_SEED environment variable supplies the default seed.
"""

from __future__ import annotations

import argparse
import collections
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys
import typing
import warnings
from pathlib import Path

from .evaluate import extract_features, instance_report, score_suites
from .formats import (
    SOLVER_FIELDS,
    FormatError,
    apply_solver_settings,
    emit_instance,
    emit_solution,
    parse_generator_grid,
    parse_instance,
    parse_objective,
    parse_solution,
    parse_solver_config,
)
from .generate import GenerationError, WeightMapError, generate, select_diverse
from .model import InstanceFeatures, params_slug
from .render import render_svg
from .solve import solve
from .validate import UnreachableTargetError, lower_bounds, validate_schedule

SEED_ENV = "GRIDMOTION_SEED"

# feature name -> type, in declaration order; the CSV writes bools as 0/1
_FEATURE_TYPES = typing.get_type_hints(InstanceFeatures)
_FEATURE_COLUMNS = ("name", *_FEATURE_TYPES)


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise FormatError(f"{SEED_ENV} must be an integer, got {raw!r}") from None


def _load(path, parse, *args, **kwargs):
    """``parse`` applied to the text of the file at ``path``. A file that is
    not UTF-8 text, or that ``parse`` rejects, raises FormatError with the
    path in front of the message; each warning the parse raises is printed
    to stderr as ``warning: <path>: <message>``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = parse(text, *args, **kwargs)
    except (UnicodeDecodeError, FormatError) as err:
        raise FormatError(f"{path}: {err}") from None
    for warning in caught:
        print(f"warning: {path}: {warning.message}", file=sys.stderr)
    return value


def _write(path, text: str) -> None:
    _check_output(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _output(path, text: str) -> None:
    """Write ``text`` to the file ``path`` and say so, or else to stdout."""
    if path:
        _write(path, text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)


def _make_dir(path) -> Path:
    """``path`` made a directory, parents too; FormatError when a file is in the way."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise FormatError(f"{path}: not a directory") from None
    return Path(path)


def _check_output(path) -> None:
    """Raise FormatError unless ``path`` can name a file to write: it is not
    a directory, and its parent directory exists."""
    target = Path(path)
    if target.is_dir():
        raise FormatError(f"{path}: is a directory")
    if not target.parent.is_dir():
        raise FormatError(f"{path}: no such directory: {target.parent}")


def _csv(header, rows) -> str:
    """CSV text with "\n" line ends; None cells are written empty."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _features_csv(rows: list[tuple[str, InstanceFeatures]]) -> str:
    return _csv(_FEATURE_COLUMNS, (
        [name, *(int(v) if isinstance(v, bool) else v for v in dataclasses.astuple(f))]
        for name, f in rows))


def _feature_value(key: str, kind, cell: str):
    """A features CSV cell: a flag is 0 or 1, a number must be finite."""
    if kind is bool:
        if cell not in ("0", "1"):
            raise ValueError(f"{key} must be 0 or 1, got {cell!r}")
        return cell == "1"
    value = kind(cell)
    if not math.isfinite(value):
        raise ValueError(f"{key} must be finite, got {cell!r}")
    return value


def _parse_features_csv(text: str) -> list[tuple[str, InstanceFeatures]]:
    try:
        rows = list(csv.reader(io.StringIO(text)))
    except csv.Error as err:   # e.g. a cell over the field size limit
        raise FormatError(f"features CSV: {err}") from None
    if rows[:1] != [list(_FEATURE_COLUMNS)]:
        raise FormatError("features CSV: unexpected header")
    out = []
    for row in filter(None, rows[1:]):   # skip blank lines
        try:
            if len(row) != len(_FEATURE_COLUMNS):
                raise ValueError(f"{len(row)} cells, expected {len(_FEATURE_COLUMNS)}")
            out.append((row[0], InstanceFeatures(*(
                _feature_value(key, kind, cell)
                for (key, kind), cell in zip(_FEATURE_TYPES.items(), row[1:])))))
        except ValueError as err:
            raise FormatError(f"features CSV: bad row: {err}") from None
    return out


def _manifest(names) -> str:
    """A selection manifest: one instance name per line, and no line at all
    when nothing is selected."""
    return "".join(f"{name}\n" for name in names)


def _check_select_count(k: int, candidates: int) -> None:
    if not 0 <= k <= candidates:
        raise FormatError(f"cannot select {k} from {candidates} candidates")


def cmd_generate(args) -> int:
    combos = _load(args.config, parse_generator_grid, strict=args.strict,
                   default_seed=_default_seed)
    if args.select is not None:
        _check_select_count(args.select, len(combos))
    names = [params_slug(params) for params in combos]
    dups = [name for name, count in collections.Counter(names).items() if count > 1]
    if dups:
        raise FormatError(f"generator config: duplicate parameter combination {dups[0]}")
    base_dir = str(Path(args.config).parent)
    try:
        results = [generate(params, base_dir=base_dir) for params in combos]
    except WeightMapError as err:
        raise FormatError(f"generator config: {err}") from None
    except MemoryError:
        raise GenerationError("out of memory") from None
    outdir = _make_dir(args.outdir)
    feature_rows = []
    for name, result in zip(names, results):
        _write(outdir / f"{name}.instance.json", emit_instance(result.instance))
        feature_rows.append((name, result.features))
    _write(outdir / "features.csv", _features_csv(feature_rows))
    print(f"generated {len(names)} instance(s) in {outdir}")
    if args.select is not None:
        picks = select_diverse([f for _, f in feature_rows], args.select)
        _write(outdir / "selected.txt", _manifest(names[i] for i in picks))
        print(f"selected {len(picks)} diverse instance(s) -> selected.txt")
    return 0


def cmd_validate(args) -> int:
    objective = None if args.objective is None else parse_objective(args.objective)
    instance = _load(args.instance, parse_instance, strict=args.strict)
    schedule = _load(args.solution, parse_solution, instance.n_robots, strict=args.strict)
    if schedule.instance_name != instance.name:
        print(f"warning: solution names instance {schedule.instance_name!r}, "
              f"validating against {instance.name!r}", file=sys.stderr)
    report = validate_schedule(instance, schedule)
    print(f"feasible: {report.feasible}")
    print(f"makespan: {report.makespan}  total_distance: {report.total_distance}")
    if objective is not None:
        value = objective.of(report.makespan, report.total_distance)
        print(f"objective ({objective.value}): {value}")
    try:
        lb_makespan, lb_total, _ = lower_bounds(instance)
    except UnreachableTargetError:
        pass
    else:
        print(f"lb_makespan: {lb_makespan}  lb_total: {lb_total}")
        _print_stretch(report.makespan, report.total_distance, lb_makespan, lb_total)
    if report.first_violation is not None:
        v = report.first_violation
        print(f"violation: step {v.step} rule {v.rule} robots {list(v.robots)}")
    return 0 if report.feasible else 1


def _print_stretch(makespan: int, total: int, lb_makespan: int, lb_total: int) -> None:
    # both bounds are 0 exactly when every robot starts on its target
    if lb_makespan:
        print(f"stretch_max: {makespan / lb_makespan:.4f}  "
              f"stretch_sum: {total / lb_total:.4f}")


def cmd_solve(args) -> int:
    instance = _load(args.instance, parse_instance, strict=args.strict)
    base = _load(args.config, parse_solver_config, strict=args.strict) if args.config else None
    # precedence: flags, then GRIDMOTION_SEED for the seed, then the file
    settings = {key: getattr(args, key) for key in SOLVER_FIELDS
                if getattr(args, key) is not None}
    if "seed" not in settings and SEED_ENV in os.environ:
        settings["seed"] = str(_default_seed())
    config = apply_solver_settings(settings, base)
    # a bad output path fails now, not after the search and a telemetry write
    for path in (args.output, args.telemetry):
        if path:
            _check_output(path)
    if args.telemetry and Path(args.telemetry).resolve() == Path(args.output).resolve():
        raise FormatError(f"{args.output}: named by both -o and --telemetry")

    try:
        result = solve(instance, config)
    except MemoryError:
        print(f"no schedule found: out of memory on {instance.name}", file=sys.stderr)
        return 1
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
    _print_stretch(rep.makespan, rep.total_distance, *result.bounds)
    return 0


def _load_instances_dir(path, strict: bool):
    files = sorted(Path(path).glob("*.instance.json"))
    if not files:
        raise FormatError(f"no *.instance.json files in {path}")
    instances, paths = {}, {}
    for f in files:
        inst = _load(f, parse_instance, strict=strict)
        if inst.name in instances:
            raise FormatError(f"duplicate instance name {inst.name!r} in {paths[inst.name]} "
                              f"and {f}")
        instances[inst.name], paths[inst.name] = inst, f
    return instances


def cmd_score(args) -> int:
    instances = _load_instances_dir(args.instances, args.strict)
    robots = {name: inst.n_robots for name, inst in instances.items()}
    suites, team_dirs = {}, {}
    for team_dir in args.suites:
        team = Path(team_dir).name
        if not Path(team_dir).is_dir():
            raise FormatError(f"{team_dir}: not a directory")
        if team in team_dirs:
            raise FormatError(f"duplicate team name {team!r} in {team_dirs[team]} "
                              f"and {team_dir}")
        team_dirs[team] = team_dir
        suites[team] = [_load(f, parse_solution, robots, strict=args.strict)
                        for f in sorted(Path(team_dir).glob("*.solution.json"))]
    objective = parse_objective(args.objective)

    if args.instance_report:
        report, summaries = instance_report(instances, suites, objective)
    else:
        report = score_suites(instances, suites, objective)
        summaries = None

    outdir = _make_dir(args.output)
    _write(outdir / "scores.csv", _csv(
        ["objective", "instance", "team", "value", "best_value", "score"],
        ([objective.value, row.instance, row.team, row.value, row.best_value,
          f"{row.score:.6f}"] for row in report.rows)))
    _write(outdir / "totals.csv", _csv(
        ["team", "total", "instances"],
        ([team, f"{report.totals[team]:.6f}", report.instance_count]
         for team in sorted(report.totals))))
    if summaries is not None:
        _write(outdir / "instances.csv", _csv(
            ["instance", "average_score", "best_value", "lb_makespan", "lb_total",
             "n_robots", "density", "free_area"],
            ([s.instance, f"{s.average_score:.6f}", s.best_value, s.lb_makespan,
              s.lb_total, s.features.n_robots, s.features.density, s.features.free_area]
             for s in summaries)))

    for team in sorted(report.totals):
        print(f"{team}: {report.totals[team]:.4f} / {report.instance_count}")
    for group in report.tied_teams:
        print(f"tie on total: {', '.join(group)}")
    return 0


def cmd_render(args) -> int:
    instance = _load(args.instance, parse_instance, strict=args.strict)
    schedule = violation = None
    if args.solution:
        schedule = _load(args.solution, parse_solution, instance.n_robots,
                         strict=args.strict)
        violation = validate_schedule(instance, schedule).first_violation
        if violation is not None:
            print(f"rendering infeasible schedule (step {violation.step} "
                  f"rule {violation.rule})", file=sys.stderr)
    svg = render_svg(instance, schedule, frame_every=args.frame_every,
                     violation=violation)
    _output(args.output, svg)
    return 0


def cmd_features(args) -> int:
    rows = []
    for path in args.instances:
        inst = _load(path, parse_instance, strict=args.strict)
        rows.append((inst.name, extract_features(inst)))
    _output(args.output, _features_csv(rows))
    return 0


def cmd_select(args) -> int:
    rows = _load(args.features, _parse_features_csv)
    _check_select_count(args.k, len(rows))
    picks = select_diverse([f for _, f in rows], args.k)
    _output(args.output, _manifest(rows[i][0] for i in picks))
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, with all seven subcommands. It is built once
    per process: argparse keeps no state between ``parse_args`` calls, and
    writes help and errors to ``sys.stdout``/``sys.stderr`` as they are when
    it writes."""
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
    p.add_argument("--objective", default=None,
                   help="max or sum: also print the value under this objective")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "solve", help="compute a schedule for an instance",
        description="Each solver flag takes a value as the solver config key of its "
                    "name does (docs/FORMATS.md) and overrides --config: --time-limit "
                    "none lifts its limit.")
    p.add_argument("instance")
    p.add_argument("-o", "--output", required=True)
    for key in SOLVER_FIELDS:
        p.add_argument("--" + key.replace("_", "-"), help=f"as '{key} = ...' in --config")
    p.add_argument("--config", default=None, help="solver config file")
    p.add_argument("--telemetry", default=None,
                   help="write improvement records as JSON lines")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("score", help="score solution suites against instances")
    p.add_argument("--instances", required=True, help="directory of *.instance.json")
    p.add_argument("suites", nargs="+", help="one directory of *.solution.json per team")
    p.add_argument("--objective", required=True, help="max or sum")
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
    """Run one command line (``sys.argv[1:]`` when ``argv`` is None)."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except GenerationError as err:
        print(f"generation failed: {err}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
