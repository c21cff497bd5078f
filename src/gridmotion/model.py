"""Core domain types: pixels, directions, instances, schedules, and the
generator's parameter and feature records.

A configuration, the positions of all robots at one instant, is a plain
tuple of pixels indexed by robot; a step, one synchronous time unit, is a
plain tuple of directions indexed by robot. Everything in this module is an
immutable value, and every function is pure. Motion legality is deliberately
*not* checked here. The validator and the renderer replay a schedule in
place, one moving robot at a time, translating each mover by its
displacement. See :mod:`gridmotion.validate` for the rules.

Loops that run once per robot per step (in the validator, the renderer and
the solution-file reader and writer) do no Enum attribute or hash work:
they tell WAIT apart by identity (``m is Direction.WAIT``) and read a
move's displacement from the member's ``_value_``. Direction keeps Enum's
own hash and equality, so set and dict order, and with it every output
byte, stays the same from run to run.

``GeneratorParams``, ``InstanceFeatures`` and ``params_slug`` live here, not
in :mod:`gridmotion.generate`, so that reading, scoring and reporting need
no numpy.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import astuple, dataclass, fields
from enum import Enum
from typing import Iterable, NamedTuple, Sequence


class Pixel(NamedTuple):
    """Unit grid cell at an integer x and y. Negatives are allowed;
    the workspace is unbounded."""

    x: int
    y: int


class Direction(Enum):
    """One robot action per unit of time: a unit move along an axis, or WAIT.

    The enum value is the (dx, dy) displacement, so ``Direction((0, 1))`` is a
    valid lookup. NORTH is +y, EAST is +x.
    """

    NORTH = (0, 1)
    SOUTH = (0, -1)
    EAST = (1, 0)
    WEST = (-1, 0)
    WAIT = (0, 0)


# every coordinate of an instance lies strictly between -_COORD_BOUND and
# _COORD_BOUND, so the difference of two fits a C ssize_t, as the range
# lengths and list sizes of the solver's distance tables need
_COORD_BOUND = 2 ** 62


def _as_pixels(points: Iterable[Sequence[int]], what: str) -> tuple[Pixel, ...]:
    """``points`` as Pixels, checked as :class:`Instance` says; ``what`` names the field."""
    pixels = []
    for p in points:
        if not (isinstance(p, (list, tuple)) and len(p) == 2
                and type(p[0]) is int and type(p[1]) is int):
            raise ValueError(f"{what}: expected [x, y] with integer coordinates, got {p!r}")
        x, y = p
        if not (-_COORD_BOUND < x < _COORD_BOUND and -_COORD_BOUND < y < _COORD_BOUND):
            raise ValueError("pixel coordinates must be below 2**62 in absolute value")
        pixels.append(Pixel(x, y))
    return tuple(pixels)


@dataclass(frozen=True)
class Instance:
    """A planning problem: n labeled robots with start and target pixels, plus
    a finite obstacle set. Robot i goes from ``starts[i]`` to ``targets[i]``.

    Starts are pairwise distinct, targets are pairwise distinct, and neither
    may sit on an obstacle. Each point is a list or tuple of two ``int``s
    (no bool or numpy int) with |c| < 2**62, checked here once per point for
    files and Python callers alike. A robot may pass through another robot's
    target pixel mid-schedule; targets only constrain the final configuration.
    """

    name: str
    starts: tuple[Pixel, ...]
    targets: tuple[Pixel, ...]
    obstacles: frozenset[Pixel]

    def __post_init__(self):
        object.__setattr__(self, "starts", _as_pixels(self.starts, "starts"))
        object.__setattr__(self, "targets", _as_pixels(self.targets, "targets"))
        object.__setattr__(self, "obstacles",
                           frozenset(_as_pixels(self.obstacles, "obstacles")))
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("instance name must be a non-empty string")
        if len(self.starts) != len(self.targets):
            raise ValueError("starts and targets must have equal length")
        if not self.starts:
            raise ValueError("instance needs at least one robot")
        if len(set(self.starts)) != len(self.starts):
            raise ValueError("start pixels must be pairwise distinct")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError("target pixels must be pairwise distinct")
        for label, pts in (("start", self.starts), ("target", self.targets)):
            for p in pts:
                if p in self.obstacles:
                    raise ValueError(f"{label} pixel {tuple(p)} lies on an obstacle")

    @property
    def n_robots(self) -> int:
        return len(self.starts)


@dataclass(frozen=True)
class Schedule:
    """A sequence of steps for one instance, referenced by name. A step is a
    tuple with one Direction (possibly WAIT) per robot.

    Steps all have the same width. Trailing all-WAIT steps are legal; they do
    not change the objectives (see :func:`schedule_objectives`).
    """

    instance_name: str
    steps: tuple[tuple[Direction, ...], ...]

    def __post_init__(self):
        steps = tuple(map(tuple, self.steps))
        object.__setattr__(self, "steps", steps)
        if len({len(s) for s in steps}) > 1:
            raise ValueError("all steps of a schedule must have the same width")
        for s in steps:
            check_moves(s)

    @classmethod
    def _trusted(cls, instance_name: str, steps: tuple) -> Schedule:
        """``steps``, a tuple of equal-width tuples of Directions, stored unchecked."""
        schedule = object.__new__(cls)
        schedule.__dict__.update(instance_name=instance_name, steps=steps)
        return schedule

    @property
    def width(self) -> int | None:
        """Number of robots per step, or None for an empty schedule."""
        return len(self.steps[0]) if self.steps else None


class Objective(Enum):
    """Optimization target: makespan (MAX) or total number of moves (SUM)."""

    MAX = "max"
    SUM = "sum"

    def of(self, makespan: int, total: int) -> int:
        """This objective's number for a schedule with that makespan and total."""
        return makespan if self is Objective.MAX else total


def check_moves(step: Sequence[Direction]) -> None:
    """Raise ValueError unless every entry of ``step`` is a Direction."""
    for m in step:
        if not isinstance(m, Direction):
            raise ValueError(f"step entries must be Direction, got {m!r}")


def schedule_objectives(schedule: Schedule) -> tuple[int, int]:
    """Return (makespan, total_distance).

    makespan is the number of steps after trimming trailing all-WAIT steps,
    i.e. the time at which the last robot stops moving. total_distance counts
    every non-WAIT move of every robot. An empty schedule scores (0, 0).
    """
    makespan = 0
    total = 0
    idle = None   # the last step with no move; parse_solution shares one across empty steps
    for idx, step in enumerate(schedule.steps):
        if step is idle:
            continue
        active = len(step) - step.count(Direction.WAIT)
        total += active
        if active:
            makespan = idx + 1
        else:
            idle = step
    return makespan, total


UNIFORM = "uniform"
WEIGHT_PREFIX = "weights:"
# GeneratorParams' float fields; an int there means the same float
_FLOAT_FIELDS = ("density", "obstacle_size_mean", "obstacle_size_stddev",
                 "cluster_size_mean", "cluster_size_stddev")


@dataclass(frozen=True)
class GeneratorParams:
    """Knobs for one generated instance.

    density is the fraction of free pixels occupied by robots (0 < d <= 1).
    Distributions are either "uniform" or "weights:<path>" naming a grayscale
    raster whose values weight the map pixels. Obstacle side lengths and
    cluster sizes are truncated normals; obstacle sides truncate to
    [1, map dimension], cluster sizes to [1, n_robots]. Dimensions, counts and
    the seed must be ints (not bools), and the seed >= 0, as numpy takes no
    negative seed. Density, means and stddevs must be finite ints or floats
    (not bools), and the distributions strs.
    """

    map_width: int
    map_height: int
    density: float
    start_distribution: str = UNIFORM
    target_distribution: str = UNIFORM
    obstacle_count: int = 0
    obstacle_size_mean: float = 3.0
    obstacle_size_stddev: float = 1.0
    cluster_count: int = 0
    cluster_size_mean: float = 4.0
    cluster_size_stddev: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("map_width", "map_height", "obstacle_count", "cluster_count", "seed"):
            if type(getattr(self, name)) is not int:   # as SolverConfig's counts: no bool
                raise ValueError(f"{name} must be an int, got {getattr(self, name)!r}")
        if self.map_width < 1 or self.map_height < 1:
            raise ValueError("map dimensions must be >= 1")
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not (0.0 < self.density <= 1.0):
            raise ValueError("density must be in (0, 1]")
        if self.obstacle_count < 0 or self.cluster_count < 0:
            raise ValueError("counts must be >= 0")
        if self.obstacle_size_stddev < 0 or self.cluster_size_stddev < 0:
            raise ValueError("stddevs must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.obstacle_count and self.obstacle_size_mean <= 0:
            raise ValueError("obstacle_size_mean must be > 0")
        if self.cluster_count and self.cluster_size_mean <= 0:
            raise ValueError("cluster_size_mean must be > 0")
        for name in ("start_distribution", "target_distribution"):
            spec = getattr(self, name)
            if not isinstance(spec, str):
                raise ValueError(f"{name} must be a str, got {spec!r}")
            if spec != UNIFORM and not spec.startswith(WEIGHT_PREFIX):
                raise ValueError(f"unknown distribution spec: {spec!r}")


@dataclass(frozen=True)
class InstanceFeatures:
    """Measured properties used for reporting and diverse selection.

    ``vector()`` fixes the feature order for distance computations:
    (n_robots, density, n_clusters, n_clustered_robots, volume, free_area).
    ``cluster_info_known`` is False for instances without generator
    provenance; their cluster fields are reported as 0.
    """

    n_robots: int
    density: float
    n_clusters: int
    n_clustered_robots: int
    volume: int
    free_area: int
    cluster_info_known: bool = True

    def vector(self) -> tuple[float, ...]:
        return (
            float(self.n_robots),
            float(self.density),
            float(self.n_clusters),
            float(self.n_clustered_robots),
            float(self.volume),
            float(self.free_area),
        )


def params_slug(params: GeneratorParams) -> str:
    """Deterministic, filesystem-friendly instance name for a parameter set.
    Equal parameter sets get one name: float fields are hashed as floats, so
    a density of 1 names the instance a density of 1.0 does."""
    values = tuple(float(v) if f.name in _FLOAT_FIELDS else v
                   for f, v in zip(fields(params), astuple(params)))
    digest = hashlib.sha1(repr(values).encode()).hexdigest()[:6]
    return (f"g{params.map_width}x{params.map_height}"
            f"-d{params.density:g}-o{params.obstacle_count}"
            f"-c{params.cluster_count}-s{params.seed}-{digest}")
