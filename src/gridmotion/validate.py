"""Exact feasibility checking, objective evaluation and distance lower bounds.

Legality of one synchronous step is defined by three rules:

  R1  no robot's destination pixel is an obstacle;
  R2  destination pixels are pairwise distinct;
  R3  a robot may move into a pixel currently occupied by another robot only
      if the occupant moves in the same direction during the same time unit.

R2 and R3 together forbid swaps and perpendicular "follow-in" moves while
allowing same-direction chains, which is exactly continuous disjointness of
the moving unit squares (squares that merely touch along an edge are fine).

A schedule is feasible when every step is legal and the final configuration
equals the instance targets index for index. All functions are pure.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

from .model import (
    Configuration,
    Direction,
    Instance,
    Pixel,
    Schedule,
    Step,
    schedule_objectives,
)

RULE_OBSTACLE = "R1"
RULE_OVERLAP = "R2"
RULE_TRAIN = "R3"
RULE_TARGET = "target"

_RULE_RANK = {RULE_OBSTACLE: 0, RULE_OVERLAP: 1, RULE_TRAIN: 2, RULE_TARGET: 3}


class UnreachableTargetError(ValueError):
    """Some robot's target lies in a different free-space component than its start."""

    def __init__(self, robot: int, message: str):
        super().__init__(message)
        self.robot = robot


@dataclass(frozen=True)
class Violation:
    """First rule breach of a schedule: the step index, the rule identifier
    (R1, R2, R3 or "target" for a final-configuration mismatch) and the robots
    involved, lowest index first."""

    step: int
    rule: str
    robots: tuple[int, ...]


@dataclass(frozen=True)
class ValidationReport:
    feasible: bool
    first_violation: Optional[Violation]
    makespan: int
    total_distance: int
    lb_makespan: Optional[int]
    lb_total: Optional[int]
    stretch_max: Optional[float]
    stretch_sum: Optional[float]


def check_step(instance: Instance, config: Configuration, step: Step,
               step_index: int = 0) -> Optional[Violation]:
    """Check one synchronous step against rules R1, R2, R3.

    Returns None when the step is legal, otherwise the violation that ranks
    first under the deterministic order: lowest robot index involved, then
    rule identifier (R1 < R2 < R3), then the full robot index tuple.

    Raises ValueError when the step width does not match the configuration or
    when the configuration itself is invalid for this instance (overlapping
    robots, robot on an obstacle).
    """
    positions = tuple(config)
    moves = tuple(step)
    if len(positions) != len(moves):
        raise ValueError(f"step width {len(moves)} != configuration size {len(positions)}")
    if len(set(positions)) != len(positions):
        raise ValueError("configuration has overlapping robots")
    obstacles = instance.obstacles
    for p in positions:
        if p in obstacles:
            raise ValueError(f"configuration places a robot on obstacle {tuple(p)}")

    dests = [p.translated(m) for p, m in zip(positions, moves)]
    found: list[tuple[int, int, tuple[int, ...], str]] = []

    for i, d in enumerate(dests):
        if d in obstacles:
            found.append((i, _RULE_RANK[RULE_OBSTACLE], (i,), RULE_OBSTACLE))

    by_dest: dict[Pixel, list[int]] = {}
    for i, d in enumerate(dests):
        by_dest.setdefault(d, []).append(i)
    for group in by_dest.values():
        if len(group) > 1:
            robots = tuple(sorted(group))
            found.append((robots[0], _RULE_RANK[RULE_OVERLAP], robots, RULE_OVERLAP))

    occupant = {p: i for i, p in enumerate(positions)}
    for i, (d, m) in enumerate(zip(dests, moves)):
        if not m.is_move:
            continue
        j = occupant.get(d)
        if j is not None and j != i and moves[j] is not m:
            robots = tuple(sorted((i, j)))
            found.append((robots[0], _RULE_RANK[RULE_TRAIN], robots, RULE_TRAIN))

    if not found:
        return None
    found.sort()
    _, _, robots, rule = found[0]
    return Violation(step=step_index, rule=rule, robots=robots)


def search_window(instance: Instance, margin: int = 1) -> tuple[int, int, int, int]:
    """Inclusive rectangle (x0, y0, x1, y1) that provably contains some
    shortest obstacle-avoiding path for every robot.

    The rectangle is the bounding box of obstacles, starts and targets,
    inflated by ``margin``. Any walk can be clamped coordinate-wise onto the
    box inflated by 1: clamping never lengthens the walk, keeps consecutive
    cells adjacent (the unclamped coordinate is shared, the clamped one moves
    by at most 1) and relocates cells only into the obstacle-free ring just
    outside the box. The default margin of 1 therefore suffices; the test
    suite cross-checks it against a margin of 60.
    """
    xs = [p.x for p in instance.starts] + [p.x for p in instance.targets]
    ys = [p.y for p in instance.starts] + [p.y for p in instance.targets]
    xs += [p.x for p in instance.obstacles]
    ys += [p.y for p in instance.obstacles]
    return (min(xs) - margin, min(ys) - margin, max(xs) + margin, max(ys) + margin)


def distance_map(obstacles: frozenset, window: tuple[int, int, int, int],
                 target: Pixel) -> dict:
    """Grid distances to ``target`` for every free pixel of the window that
    reaches it, keyed by (x, y); paths stay inside the inclusive window."""
    x0, y0, x1, y1 = window
    dist = {(target.x, target.y): 0}
    queue = deque(((target.x, target.y),))
    while queue:
        p = queue.popleft()
        d = dist[p] + 1
        px, py = p
        for q in ((px, py + 1), (px, py - 1), (px + 1, py), (px - 1, py)):
            if (x0 <= q[0] <= x1 and y0 <= q[1] <= y1
                    and q not in dist and q not in obstacles):
                dist[q] = d
                queue.append(q)
    return dist


def bounds_from_maps(instance: Instance,
                     maps: Iterable[dict]) -> tuple[int, int, tuple[int, ...]]:
    """(lb_makespan, lb_total, per_robot) read off each robot's distance map
    to its target, ``maps`` in robot order. Raises UnreachableTargetError
    when some start is missing from its map."""
    per_robot: list[int] = []
    for i, (s, t, dist) in enumerate(zip(instance.starts, instance.targets, maps)):
        d = dist.get(s)
        if d is None:
            raise UnreachableTargetError(
                i, f"robot {i}: target {tuple(t)} unreachable from start {tuple(s)}")
        per_robot.append(d)
    return max(per_robot), sum(per_robot), tuple(per_robot)


def lower_bounds(instance: Instance, margin: int = 1) -> tuple[int, int, tuple[int, ...]]:
    """Per-robot shortest obstacle-avoiding path lengths, ignoring all other
    robots. Returns (lb_makespan, lb_total, per_robot) where lb_makespan is
    the maximum and lb_total the sum.

    Raises UnreachableTargetError when some target cannot be reached at all;
    such an instance has no feasible schedule. ``margin`` overrides the search
    window inflation (testing hook; any value >= 1 gives identical results).
    """
    if not instance.obstacles:
        per_robot = tuple(abs(s.x - t.x) + abs(s.y - t.y)
                          for s, t in zip(instance.starts, instance.targets))
        return max(per_robot), sum(per_robot), per_robot
    window = search_window(instance, margin)
    return bounds_from_maps(instance, (distance_map(instance.obstacles, window, t)
                                       for t in instance.targets))


def validate_schedule(instance: Instance, schedule: Schedule) -> ValidationReport:
    """Replay a schedule from the instance starts and report feasibility,
    objectives, lower bounds and stretch factors.

    The schedule is feasible iff every step passes :func:`check_step` and the
    final configuration equals the targets index for index. Objectives are
    reported even for infeasible schedules. A name mismatch between schedule
    and instance is a warning only, so schedules can be replayed against
    compatible instances on purpose.
    """
    if schedule.width is not None and schedule.width != instance.n_robots:
        raise ValueError(
            f"schedule width {schedule.width} != instance robot count {instance.n_robots}")
    if schedule.instance_name != instance.name:
        warnings.warn(
            f"schedule names instance {schedule.instance_name!r}, "
            f"validating against {instance.name!r}",
            stacklevel=2,
        )

    violation: Optional[Violation] = None
    config = Configuration(instance.starts)
    for idx, step in enumerate(schedule.steps):
        violation = check_step(instance, config, step, step_index=idx)
        if violation is not None:
            break
        config = _apply(config, step)
    if violation is None:
        mismatched = tuple(i for i, (p, t) in enumerate(zip(config.positions, instance.targets))
                           if p != t)
        if mismatched:
            violation = Violation(step=len(schedule.steps), rule=RULE_TARGET, robots=mismatched)

    makespan, total = schedule_objectives(schedule)
    try:
        lb_makespan, lb_total, _ = lower_bounds(instance)
    except UnreachableTargetError:
        lb_makespan = lb_total = None
    stretch_max = makespan / lb_makespan if lb_makespan else None
    stretch_sum = total / lb_total if lb_total else None

    return ValidationReport(
        feasible=violation is None,
        first_violation=violation,
        makespan=makespan,
        total_distance=total,
        lb_makespan=lb_makespan,
        lb_total=lb_total,
        stretch_max=stretch_max,
        stretch_sum=stretch_sum,
    )


def _apply(config: Configuration, step: Step) -> Configuration:
    # local clone of model.apply_step that skips the distinctness re-check:
    # the step was just proven legal, so destinations are pairwise distinct
    positions = tuple(p.translated(m) for p, m in zip(config.positions, step.moves))
    out = object.__new__(Configuration)
    object.__setattr__(out, "positions", positions)
    return out
