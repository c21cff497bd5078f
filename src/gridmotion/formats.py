"""Wire formats: instance and solution files (JSON), generator grid configs
and solver configs (key-value text), each parsed from its text. A solution
file is parsed for a robot count, or for a map from instance name to robot
count. See docs/FORMATS.md for the grammar.

Parsing has two modes. Strict mode rejects unknown keys and any structural
irregularity with FormatError; lenient mode (the default) downgrades unknown
keys to warnings but still rejects structural damage. Emission is
deterministic: the same object always serializes to the same bytes.
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import MISSING, fields, replace
from typing import Any, Callable, Mapping, Optional, get_type_hints

from .model import Direction, GeneratorParams, Instance, Objective, Schedule
from .solve import SolverConfig

_INSTANCE_KEYS = ("name", "starts", "targets", "obstacles")
_SOLUTION_KEYS = ("instance", "steps")
# a solution file names each move by one letter; WAIT is encoded by omission
_FROM_LETTER = {"N": Direction.NORTH, "S": Direction.SOUTH, "E": Direction.EAST,
                "W": Direction.WEST}
# keyed by displacement, so writing a file hashes no Direction
_LETTER = {d.value: letter for letter, d in _FROM_LETTER.items()}


class FormatError(ValueError):
    """Structurally invalid file content."""


def _check_unknown_keys(obj: Mapping[str, Any], allowed, what: str, strict: bool):
    unknown = sorted(set(obj) - set(allowed))
    if not unknown:
        return
    message = f"{what}: unknown key(s) {', '.join(map(repr, unknown))}"
    if strict:
        raise FormatError(message)
    warnings.warn(message, stacklevel=4)


def _read_object(text: str, what: str, keys, strict: bool) -> dict:
    """The JSON object in ``text``, with all of ``keys``; a decode failure is a FormatError."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as err:
        raise FormatError(f"{what} is not valid JSON: {err}") from None
    if not isinstance(data, dict):
        raise FormatError(f"{what} must be a JSON object")
    _check_unknown_keys(data, keys, what, strict)
    for key in keys:
        if key not in data:
            raise FormatError(f"{what}: missing key {key!r}")
    return data


def parse_instance(text: str, strict: bool = False) -> Instance:
    data = _read_object(text, "instance file", _INSTANCE_KEYS, strict)
    for key in ("starts", "targets", "obstacles"):
        if not isinstance(data[key], list):
            raise FormatError(f"instance file: {key}: expected a list of [x, y] pairs")
    try:
        return Instance(data["name"], data["starts"], data["targets"], data["obstacles"])
    except ValueError as err:
        raise FormatError(f"instance file: {err}") from None


def _coord_array(pixels) -> str:
    return "[" + ", ".join(f"[{p.x}, {p.y}]" for p in pixels) + "]"


def emit_instance(instance: Instance) -> str:
    # hand-rolled layout keeps each coordinate list on one line
    return (
        "{\n"
        f'  "name": {json.dumps(instance.name)},\n'
        f'  "starts": {_coord_array(instance.starts)},\n'
        f'  "targets": {_coord_array(instance.targets)},\n'
        f'  "obstacles": {_coord_array(sorted(instance.obstacles))}\n'
        "}\n"
    )


def parse_solution(text: str, n_robots: int | Mapping[str, int],
                   strict: bool = False) -> Schedule:
    """Parse a solution file's text for ``n_robots`` robots or, given a map
    from instance name to robot count, for the instance the file names (a
    name not in the map is an error). Robots absent from a step wait."""
    data = _read_object(text, "solution file", _SOLUTION_KEYS, strict)
    if not isinstance(data["instance"], str):
        raise FormatError("solution file: instance must be a string")
    if not isinstance(data["steps"], list):
        raise FormatError("solution file: steps must be a list")
    if isinstance(n_robots, Mapping):
        if data["instance"] not in n_robots:
            raise FormatError(f"unknown instance {data['instance']!r}")
        n_robots = n_robots[data["instance"]]
    robot_of = {str(i): i for i in range(n_robots)}   # the canonical keys
    idle = (Direction.WAIT,) * n_robots   # every empty step shares it
    steps = []
    for idx, raw in enumerate(data["steps"]):
        if not isinstance(raw, dict):
            raise FormatError(f"solution file: step {idx} must be an object")
        if not raw:
            steps.append(idle)
            continue
        moves = list(idle)
        try:
            for key, letter in raw.items():
                moves[robot_of[key]] = _FROM_LETTER[letter]
        except (KeyError, TypeError):   # TypeError: an unhashable letter
            raise _entry_error(idx, key, letter, n_robots) from None
        steps.append(tuple(moves))
    # every entry came from _FROM_LETTER or is WAIT, and every step is n_robots wide
    return Schedule._trusted(data["instance"], tuple(steps))


def _entry_error(idx: int, key: str, letter, n_robots: int) -> FormatError:
    """The error for the entry ``key: letter`` of step ``idx``, the first of
    that step whose robot key is not a canonical decimal below ``n_robots``
    or whose move is not a direction letter; the key is checked first."""
    if not key.isdecimal() or str(int(key)) != key:
        return FormatError(f"solution file: step {idx}: robot index {key!r} is not a "
                           f"canonical decimal string")
    if int(key) >= n_robots:
        return FormatError(f"solution file: step {idx}: robot index {key} out of range "
                           f"(instance has {n_robots} robots)")
    if not isinstance(letter, str):
        return FormatError(f"solution file: step {idx}: move must be a string")
    return FormatError(f"solution file: step {idx}: unknown direction letter: {letter!r}")


def emit_solution(schedule: Schedule) -> str:
    wait = Direction.WAIT
    lines = ["{", f'  "instance": {json.dumps(schedule.instance_name)},']
    if not schedule.steps:
        lines.append('  "steps": []')
    else:
        lines.append('  "steps": [')
        for si, step in enumerate(schedule.steps):
            body = ", ".join([f'"{i}": "{_LETTER[m._value_]}"'
                              for i, m in enumerate(step) if m is not wait])
            comma = "," if si + 1 < len(schedule.steps) else ""
            lines.append("    {" + body + "}" + comma)
        lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# key-value config files


def _parse_kv_lines(text: str, what: str, allowed, strict: bool) -> dict[str, list[str]]:
    """The values of the keys of ``text`` in ``allowed``; others warn, or raise if strict."""
    out: dict[str, list[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"{what} line {lineno}: expected 'key = value ...'")
        key, _, rest = line.partition("=")
        key = key.strip()
        values = rest.split()
        if not key or not values:
            raise FormatError(f"{what} line {lineno}: empty key or value list")
        if key in out:
            raise FormatError(f"{what} line {lineno}: duplicate key {key!r}")
        out[key] = values
    _check_unknown_keys(out, allowed, what, strict)
    return {key: values for key, values in out.items() if key in allowed}


def _read_value(kind, key: str, text: str, what: str):
    """``text`` read as the value of the field ``key`` of type ``kind``: int,
    float and str by the type, an Objective in any case, and "none" (any
    case) for None where the type is Optional[float]."""
    if kind == Optional[float]:
        if text.lower() == "none":
            return None
        kind = float
    try:
        return parse_objective(text) if kind is Objective else kind(text)
    except ValueError:
        raise FormatError(f"{what}: bad {kind.__name__.lower()} value for {key!r}: "
                          f"{text!r}") from None


# field name -> type, in declaration order
_GRID_FIELDS = get_type_hints(GeneratorParams)
_GRID_REQUIRED = [f.name for f in fields(GeneratorParams) if f.default is MISSING]


def parse_generator_grid(text: str, strict: bool = False,
                         default_seed: Callable[[], int] = lambda: 0) -> list[GeneratorParams]:
    """Expand a generator config into the Cartesian product of its value
    lists. Every GeneratorParams field accepts a list of values; ``seed``
    participates in the product like any other field, and when it is
    omitted ``default_seed()``, called only then, gives the single seed.
    Expansion order follows the field order of GeneratorParams, last field
    varying fastest."""
    raw = _parse_kv_lines(text, "generator config", _GRID_FIELDS, strict)
    missing = [key for key in _GRID_REQUIRED if key not in raw]
    if missing:
        raise FormatError(
            f"generator config: missing required key(s) {', '.join(map(repr, missing))}")
    grids = []
    for key, kind in _GRID_FIELDS.items():
        if key in raw:
            grids.append([(key, _read_value(kind, key, v, "generator config"))
                          for v in raw[key]])
        elif key == "seed":
            grids.append([("seed", default_seed())])
    combos = []
    for combo in itertools.product(*grids):
        try:
            combos.append(GeneratorParams(**dict(combo)))
        except ValueError as err:
            raise FormatError(f"generator config: {err}") from None
    return combos


# the solver settings, each read from one text value: field name -> type
SOLVER_FIELDS = get_type_hints(SolverConfig)


def apply_solver_settings(settings: Mapping[str, str],
                          base: Optional[SolverConfig] = None) -> SolverConfig:
    """``base`` (the defaults when None) with each ``{key: text}`` setting
    read as the value of its SolverConfig field."""
    values = {key: _read_value(SOLVER_FIELDS[key], key, text, "solver config")
              for key, text in settings.items()}
    try:
        return replace(base or SolverConfig(), **values)
    except ValueError as err:
        raise FormatError(f"solver config: {err}") from None


def parse_solver_config(text: str, strict: bool = False) -> SolverConfig:
    """Single-valued key-value solver config, each value read by
    ``apply_solver_settings``."""
    raw = _parse_kv_lines(text, "solver config", SOLVER_FIELDS, strict)
    for key, values in raw.items():
        if len(values) != 1:
            raise FormatError(f"solver config: {key!r} takes a single value")
    return apply_solver_settings({key: values[0] for key, values in raw.items()})


def parse_objective(value: str) -> Objective:
    try:
        return Objective(value.lower())
    except ValueError:
        raise FormatError(f"objective must be 'max' or 'sum', got {value!r}") from None
