"""Core domain types: pixels, directions, instances, schedules.

A configuration, the positions of all robots at one instant, is a plain
tuple of pixels indexed by robot; a step, one synchronous time unit, is a
plain tuple of directions indexed by robot. Everything in this module is an
immutable value, and every function is pure. Motion legality is deliberately
*not* checked here; ``apply_step`` performs a plain translation so that a
caller can also step through illegal schedules. The validator and the
renderer replay a schedule in place instead, one moving robot at a time,
with the same translation. See :mod:`gridmotion.validate` for the rules.

Loops that run once per robot per step (here, in the validator, the
renderer and the solution-file reader and writer) do no Enum attribute or
hash work: they tell WAIT apart by identity (``m is Direction.WAIT``) and
read a move's displacement from the member's ``_value_``. Direction keeps
Enum's own hash and equality, so set and dict order, and with it every
output byte, stays the same from run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Sequence


class Pixel(NamedTuple):
    """Unit grid cell addressed by integer coordinates. Negatives are allowed;
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


def _as_pixels(points: Iterable[Sequence[int]]) -> tuple[Pixel, ...]:
    return tuple(Pixel(int(p[0]), int(p[1])) for p in points)


@dataclass(frozen=True)
class Instance:
    """A planning problem: n labeled robots with start and target pixels, plus
    a finite obstacle set. Robot i goes from ``starts[i]`` to ``targets[i]``.

    Starts are pairwise distinct, targets are pairwise distinct, and neither
    may sit on an obstacle. A robot may pass through another robot's target
    pixel mid-schedule; targets only constrain the final configuration.
    """

    name: str
    starts: tuple[Pixel, ...]
    targets: tuple[Pixel, ...]
    obstacles: frozenset[Pixel]

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("instance name must be a non-empty string")
        object.__setattr__(self, "starts", _as_pixels(self.starts))
        object.__setattr__(self, "targets", _as_pixels(self.targets))
        object.__setattr__(self, "obstacles", frozenset(_as_pixels(self.obstacles)))
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


def apply_step(positions: Sequence[Pixel], step: Sequence[Direction]) -> tuple[Pixel, ...]:
    """Translate every robot by its move. No legality checking on purpose,
    not even distinctness: after a colliding step two robots share a pixel.

    Only moving robots get a new Pixel; a waiting robot keeps the one it
    has. Per robot the work is an identity test against WAIT and, for a
    mover, a read of its displacement off ``_value_`` and a Pixel built by
    ``tuple.__new__``, which skips NamedTuple's Python-level constructor."""
    if len(positions) != len(step):
        raise ValueError(f"step width {len(step)} != configuration size {len(positions)}")
    wait, new = Direction.WAIT, tuple.__new__
    return tuple([p if m is wait else new(Pixel, (p[0] + m._value_[0], p[1] + m._value_[1]))
                  for p, m in zip(positions, step)])


def schedule_objectives(schedule: Schedule) -> tuple[int, int]:
    """Return (makespan, total_distance).

    makespan is the number of steps after trimming trailing all-WAIT steps,
    i.e. the time at which the last robot stops moving. total_distance counts
    every non-WAIT move of every robot. An empty schedule scores (0, 0).
    """
    makespan = 0
    total = 0
    for idx, step in enumerate(schedule.steps):
        active = len(step) - step.count(Direction.WAIT)
        total += active
        if active:
            makespan = idx + 1
    return makespan, total
