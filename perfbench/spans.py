"""Spans around gridmotion's public functions, for the traced run.

`Tracer.install()` replaces each traced function, in every gridmotion module
that binds it by name, with a wrapper that records a span: name, start, end,
parent span and a small measurement of the call (robots, cells, bytes...).
Modules are reached through `sys.modules`, because `gridmotion/__init__`
re-exports `solve` and `generate` and so shadows those submodules. Spans
stay in memory; `per_layer` turns them into per-layer metrics and `dump`
writes them out when the run ends. `wrapper_cost` measures what one span
adds to a call, on a no-op function.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict


def _plan_single(args, kwargs, result):
    horizon = args[4] if len(args) > 4 else kwargs.get("horizon")
    if horizon is None:
        horizon = args[2].horizon
    return [result is not None, horizon]


def _text_len(args, kwargs, result):
    return len(args[0]) if args and isinstance(args[0], str) else 0


def _window_cells(args, kwargs, result):
    x0, y0, x1, y1 = result
    return (x1 - x0 + 1) * (y1 - y0 + 1)


# (module, function, what to note about one call)
TARGETS = (
    ("gridmotion.cli", "main", None),
    ("gridmotion.solve", "solve", None),
    ("gridmotion.solve", "plan_single", _plan_single),
    ("gridmotion.solve", "distance_map", lambda a, k, r: len(r)),
    ("gridmotion.validate", "validate_schedule",
     lambda a, k, r: a[0].n_robots * len(a[1].steps)),
    ("gridmotion.validate", "lower_bounds", lambda a, k, r: a[0].name),
    ("gridmotion.validate", "search_window", _window_cells),
    ("gridmotion.evaluate", "score_suites",
     lambda a, k, r: sum(len(s) for s in a[1].values())),
    ("gridmotion.evaluate", "instance_report", None),
    ("gridmotion.render", "render_svg", lambda a, k, r: [r.count(">t="), len(r)]),
    ("gridmotion.generate", "generate", lambda a, k, r: r.instance.n_robots),
    ("gridmotion.formats", "parse_instance", _text_len),
    ("gridmotion.formats", "parse_solution", _text_len),
    ("gridmotion.formats", "parse_generator_grid", _text_len),
    ("gridmotion.formats", "parse_solver_config", _text_len),
    ("gridmotion.formats", "parse_objective", _text_len),
    ("gridmotion.formats", "emit_instance", lambda a, k, r: len(r)),
    ("gridmotion.formats", "emit_solution", lambda a, k, r: len(r)),
)


UNITS = {
    "solve.calls": "count",
    "solve.s": "s",
    "solve.self_s": "s",
    "solve.plan_single.calls": "count",
    "solve.plan_single.s": "s",
    "solve.plan_single.ok_ratio": "ratio",
    "solve.horizon.levels": "count",
    "solve.horizon.max": "steps",
    "solve.distance_map.calls": "count",
    "solve.distance_map.s": "s",
    "solve.distance_map.cells": "count",
    "solve.anneal_s": "s",
    "solve.improvements": "count",
    "validate.validate_schedule.calls": "count",
    "validate.validate_schedule.s": "s",
    "validate.robot_steps": "count",
    "validate.robot_steps_per_s": "1/s",
    "validate.lower_bounds.calls": "count",
    "validate.lower_bounds.s": "s",
    "validate.lower_bounds.per_instance": "ratio",
    "validate.window_cells": "count",
    "evaluate.score_suites.s": "s",
    "evaluate.instance_report.s": "s",
    "evaluate.schedules": "count",
    "render.render_svg.s": "s",
    "render.frames": "count",
    "render.bytes": "bytes",
    "formats.parse_s": "s",
    "formats.emit_s": "s",
    "formats.bytes": "bytes",
    "cli.s": "s",
    "cli.self_s": "s",
    "generate.s": "s",
    "generate.robots": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, note]
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn, note):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "gridmotion" or name.startswith("gridmotion.")]
        for module_name, func_name, note in TARGETS:
            original = getattr(sys.modules[module_name], func_name)
            wrapper = self._wrap(f"{module_name[len('gridmotion.'):]}.{func_name}",
                                 original, note)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def remove(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, note in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "note": note}) + "\n")


def wrapper_cost(batches: int = 9, calls: int = 20000) -> float:
    """Seconds a wrapper adds to one call: the median over batches of the
    time of `calls` wrapped calls to a no-op, with a note, less the time of
    as many plain calls."""
    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer._wrap("noop", noop, lambda a, k, r: 0)
    clock = time.perf_counter
    costs = []
    for _ in range(batches):
        tracer.spans.clear()
        start = clock()
        for _ in range(calls):
            noop()
        plain = clock() - start
        start = clock()
        for _ in range(calls):
            wrapped()
        costs.append((clock() - start - plain) / calls)
    return max(statistics.median(costs), 0.0)


def per_layer(spans: list[list], rounds: int) -> dict[str, float]:
    """Per-layer metrics from the spans of `rounds` traced rounds, per round.

    A span's self time is its duration minus the durations of the spans it
    called directly.
    """
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    for k, (name, start, end, parent, _) in enumerate(spans):
        total[name] += end - start
        self_time[name] += end - start - child[k]
        calls[name] += 1

    def notes(name):
        return [s[4] for s in spans if s[0] == name]

    plans = notes("solve.plan_single")
    levels = defaultdict(set)
    for name, _, _, parent, note in spans:
        if name == "solve.plan_single":
            levels[parent].add(note[1])
    lb_instances = set(notes("validate.lower_bounds"))
    renders = notes("render.render_svg")
    parse_names = [n for n in total if n.startswith("formats.parse_")]
    emit_names = [n for n in total if n.startswith("formats.emit_")]
    robot_steps = sum(notes("validate.validate_schedule"))
    out = {
        "solve.calls": calls["solve.solve"],
        "solve.s": total["solve.solve"],
        "solve.self_s": self_time["solve.solve"],
        "solve.plan_single.calls": calls["solve.plan_single"],
        "solve.plan_single.s": total["solve.plan_single"],
        "solve.plan_single.ok_ratio": (sum(1 for ok, _ in plans if ok) / len(plans)
                                       if plans else 1.0),
        "solve.horizon.levels": sum(len(v) for v in levels.values()),
        "solve.horizon.max": max((h for _, h in plans), default=0),
        "solve.distance_map.calls": calls["solve.distance_map"],
        "solve.distance_map.s": total["solve.distance_map"],
        "solve.distance_map.cells": sum(notes("solve.distance_map")),
        "validate.validate_schedule.calls": calls["validate.validate_schedule"],
        "validate.validate_schedule.s": total["validate.validate_schedule"],
        "validate.robot_steps": robot_steps,
        "validate.robot_steps_per_s": (robot_steps / self_time["validate.validate_schedule"]
                                       if robot_steps else 0.0),
        "validate.lower_bounds.calls": calls["validate.lower_bounds"],
        "validate.lower_bounds.s": total["validate.lower_bounds"],
        "validate.lower_bounds.per_instance": (calls["validate.lower_bounds"]
                                               / max(len(lb_instances), 1)),
        "validate.window_cells": sum(notes("validate.search_window")),
        "evaluate.score_suites.s": total["evaluate.score_suites"],
        "evaluate.instance_report.s": total["evaluate.instance_report"],
        "evaluate.schedules": sum(notes("evaluate.score_suites")),
        "render.render_svg.s": total["render.render_svg"],
        "render.frames": sum(f for f, _ in renders),
        "render.bytes": sum(b for _, b in renders),
        "formats.parse_s": sum(total[n] for n in parse_names),
        "formats.emit_s": sum(total[n] for n in emit_names),
        "formats.bytes": sum(sum(notes(n)) for n in parse_names + emit_names),
        "cli.s": total["cli.main"],
        "cli.self_s": self_time["cli.main"],
    }
    # ratios and maxima are not summed over rounds
    per_round = {k: v / rounds for k, v in out.items()}
    for key in ("solve.plan_single.ok_ratio", "solve.horizon.max",
                "validate.robot_steps_per_s"):
        per_round[key] = out[key]
    return per_round
