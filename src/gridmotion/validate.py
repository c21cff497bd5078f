"""Exact feasibility checking, objective evaluation and distance lower bounds.

Legality of one synchronous step is defined by three rules:

  R1  no robot's destination pixel is an obstacle;
  R2  destination pixels are pairwise distinct;
  R3  a robot may move into a pixel currently occupied by another robot only
      if the occupant moves in the same direction during the same time unit.

R2 and R3 together forbid swaps and perpendicular "follow-in" moves while
allowing same-direction chains, which is exactly continuous disjointness of
the moving unit squares (squares that merely touch along an edge are fine).

A configuration is a tuple of pixels and a step a tuple of directions, both
indexed by robot (see :mod:`gridmotion.model`). A schedule is feasible when
every step is legal and the final configuration equals the instance targets
index for index. All functions are pure.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .model import (
    Direction,
    Instance,
    Pixel,
    Schedule,
    check_moves,
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


def check_step(instance: Instance, positions: Sequence[Pixel], step: Sequence[Direction],
               step_index: int = 0) -> Optional[Violation]:
    """Check one synchronous step from the configuration ``positions``
    against rules R1, R2, R3.

    Returns None when the step is legal, otherwise the violation that ranks
    first under the deterministic order: lowest robot index involved, then
    rule identifier (R1 < R2 < R3), then the full robot index tuple.

    Raises ValueError when the step width does not match the configuration,
    when an entry of the step is not a Direction, or when the configuration
    itself is invalid for this instance (overlapping robots, robot on an
    obstacle).
    """
    check_moves(step)
    if len(positions) != len(step):
        raise ValueError(f"step width {len(step)} != configuration size {len(positions)}")
    occupant = dict(zip(positions, range(len(positions))))
    if len(occupant) != len(positions):
        raise ValueError("configuration has overlapping robots")
    for p in positions:
        if p in instance.obstacles:
            raise ValueError(f"configuration places a robot on obstacle {tuple(p)}")
    return _step_violation(instance.obstacles, list(positions), occupant, step, step_index)


def _step_violation(obstacles: frozenset, positions: list, occupant: dict,
                    step: Sequence[Direction], step_index: int) -> Optional[Violation]:
    """R1, R2 and R3 for ``step`` from a valid configuration: ``positions``
    holds each robot's pixel and ``occupant`` maps each of those pixels back
    to its robot. A legal step is applied to both in place and None is
    returned; otherwise both are left alone and the violation that ranks
    first, as :func:`check_step` says, is returned.

    Only robots that move are looked at. A waiting robot breaks a rule only
    when a mover enters its pixel, and that mover's own check sees it: its
    destination is occupied by a robot that does not move the same way (R3)
    and is shared with that robot (R2). So the rules reduce to, per mover:
    the destination is no obstacle, no other mover claims it, and whoever
    stands on it moves the same way. ``found`` and ``shared`` fill only
    when a rule breaks, so a legal step costs the three look-ups per mover
    and nothing per waiting robot but an identity test.
    """
    wait = Direction.WAIT
    claimed = {}   # destination -> the first mover that claims it
    found = []     # (lowest robot, rule rank, robots, rule), one per breach
    shared = {}    # destination -> robots ending on it, once two do
    for i, m in enumerate(step):
        if m is wait:
            continue
        x, y = positions[i]
        dx, dy = m._value_
        d = (x + dx, y + dy)
        if d in obstacles:
            found.append((i, _RULE_RANK[RULE_OBSTACLE], (i,), RULE_OBSTACLE))
        j = occupant.get(d)
        if j is not None and step[j] is not m:
            robots = (i, j) if i < j else (j, i)
            found.append((robots[0], _RULE_RANK[RULE_TRAIN], robots, RULE_TRAIN))
            if step[j] is wait:   # j stays put, so its destination is d too
                shared.setdefault(d, {i}).add(j)
        k = claimed.setdefault(d, i)
        if k != i:
            shared.setdefault(d, {k}).add(i)
    if not found and not shared:   # every mover claimed its own destination
        for i in claimed.values():
            del occupant[positions[i]]
        occupant.update(claimed)
        for d, i in claimed.items():
            positions[i] = d
        return None
    for group in shared.values():
        robots = tuple(sorted(group))
        found.append((robots[0], _RULE_RANK[RULE_OVERLAP], robots, RULE_OVERLAP))
    _, _, robots, rule = min(found)
    return Violation(step=step_index, rule=rule, robots=robots)


def search_window(instance: Instance) -> tuple[int, int, int, int]:
    """Inclusive rectangle (x0, y0, x1, y1) that provably contains some
    shortest obstacle-avoiding path for every robot.

    The rectangle is the bounding box of obstacles, starts and targets,
    inflated by 1. Any walk can be clamped coordinate-wise onto it:
    clamping never lengthens the walk, keeps consecutive cells adjacent (the
    unclamped coordinate is shared, the clamped one moves by at most 1) and
    relocates cells only into the obstacle-free ring just outside the box.
    The test suite cross-checks it against a box inflated by 60.
    """
    xs = [p.x for p in instance.starts] + [p.x for p in instance.targets]
    ys = [p.y for p in instance.starts] + [p.y for p in instance.targets]
    xs += [p.x for p in instance.obstacles]
    ys += [p.y for p in instance.obstacles]
    return (min(xs) - 1, min(ys) - 1, max(xs) + 1, max(ys) + 1)


def cell_id(window: tuple[int, int, int, int], pixel) -> int:
    """Id of ``pixel`` in the window padded by a one-cell ring, by column:
    id ``c`` has neighbours ``c + 1`` (N), ``c - 1`` (S), ``c + stride`` (E)
    and ``c - stride`` (W), where ``stride = y1 - y0 + 3``."""
    x0, y0, _, y1 = window
    return (pixel[0] - x0 + 1) * (y1 - y0 + 3) + pixel[1] - y0 + 1


def distance_map(obstacles: frozenset, window: tuple[int, int, int, int],
                 target: Pixel) -> list:
    """Grid distances to ``target`` over the window's padded frame, indexed
    by :func:`cell_id`; paths stay inside the inclusive window. The ring,
    obstacles and cells that cannot reach the target read -1, so a search
    over ids needs no bounds test: a negative entry is a wall."""
    x0, y0, x1, y1 = window
    stride = y1 - y0 + 3
    field = [-1] * ((x1 - x0 + 3) * stride)
    inner = [None] * (stride - 2)   # None: free, not reached yet
    for c in range(stride, len(field) - stride, stride):
        field[c + 1:c + stride - 1] = inner
    for p in obstacles:
        if x0 <= p[0] <= x1 and y0 <= p[1] <= y1:
            field[cell_id(window, p)] = -1
    frontier = [cell_id(window, target)]
    field[frontier[0]] = d = 0
    while frontier:
        d += 1
        reached = []
        for c in frontier:
            for q in (c + 1, c - 1, c + stride, c - stride):
                if field[q] is None:
                    field[q] = d
                    reached.append(q)
        frontier = reached
    return [-1 if v is None else v for v in field] if None in field else field


def _grid_distance(obstacles: frozenset, window: tuple[int, int, int, int],
                   start: Pixel, target: Pixel) -> int:
    """Length of a shortest path from ``start`` to ``target`` that avoids
    ``obstacles`` and stays inside the inclusive window; -1 when there is
    none, as in :func:`distance_map`.

    This is A* with the Manhattan heuristic ``h``. The heap orders cells by
    ``g + h``, then by ``h`` (nearer the target first), then by (x, y), so
    the search is deterministic and, where nothing blocks the way, expands
    little more than one shortest path instead of the window. ``h`` is
    consistent, so a cell's first expansion is final and the target's is its
    distance. It agrees with :func:`distance_map`, which floods the window.
    """
    x0, y0, x1, y1 = window
    tx, ty = target
    sx, sy = start
    h = abs(sx - tx) + abs(sy - ty)
    g = {(sx, sy): 0}
    heap = [(h, h, sx, sy)]
    while heap:
        f, h, px, py = heapq.heappop(heap)
        if h == 0:
            return f
        gp = g[(px, py)]
        if gp + h < f:
            continue   # stale entry: the cell was reached more cheaply since
        d = gp + 1
        for qx, qy in ((px, py + 1), (px, py - 1), (px + 1, py), (px - 1, py)):
            q = (qx, qy)
            if not (x0 <= qx <= x1 and y0 <= qy <= y1) or q in obstacles:
                continue
            old = g.get(q)
            if old is None or old > d:
                g[q] = d
                hq = abs(qx - tx) + abs(qy - ty)
                heapq.heappush(heap, (d + hq, hq, qx, qy))
    return -1


def _bounds(instance: Instance,
            distances: Iterable[int]) -> tuple[int, int, tuple[int, ...]]:
    per_robot: list[int] = []
    for i, (s, t, d) in enumerate(zip(instance.starts, instance.targets, distances)):
        if d < 0:
            raise UnreachableTargetError(
                i, f"robot {i}: target {tuple(t)} unreachable from start {tuple(s)}")
        per_robot.append(d)
    return max(per_robot), sum(per_robot), tuple(per_robot)


def bounds_from_maps(instance: Instance, window: tuple[int, int, int, int],
                     maps: Iterable[list]) -> tuple[int, int, tuple[int, ...]]:
    """(lb_makespan, lb_total, per_robot) read off each robot's distance map
    to its target over ``window``, ``maps`` in robot order. Raises
    UnreachableTargetError when some start reads -1 in its map."""
    return _bounds(instance, (m[cell_id(window, s)] for s, m in zip(instance.starts, maps)))


def lower_bounds(instance: Instance) -> tuple[int, int, tuple[int, ...]]:
    """Per-robot shortest obstacle-avoiding path lengths, ignoring all other
    robots. Returns (lb_makespan, lb_total, per_robot) where lb_makespan is
    the maximum and lb_total the sum. Each length is one
    :func:`_grid_distance` search from start to target over the
    :func:`search_window`, or plain Manhattan distance when there are no
    obstacles.

    Raises UnreachableTargetError when some target cannot be reached at all;
    such an instance has no feasible schedule.
    """
    if not instance.obstacles:
        per_robot = tuple(abs(s.x - t.x) + abs(s.y - t.y)
                          for s, t in zip(instance.starts, instance.targets))
        return max(per_robot), sum(per_robot), per_robot
    window = search_window(instance)
    return _bounds(instance, (_grid_distance(instance.obstacles, window, s, t)
                              for s, t in zip(instance.starts, instance.targets)))


def validate_schedule(instance: Instance, schedule: Schedule) -> ValidationReport:
    """Replay a schedule from the instance starts and report feasibility and
    objectives.

    The schedule is feasible iff every step passes the rules of
    :func:`check_step` and the final configuration equals the targets index
    for index. Objectives are reported even for infeasible schedules. The
    schedule's instance name is not compared, so schedules can be replayed
    against compatible instances on purpose. Lower bounds are
    :func:`lower_bounds`' job.

    The replay keeps each robot's pixel and a map from pixel to robot, and
    updates both in place, so a step's work follows the robots that move:
    a waiting robot costs one identity test against WAIT, and no loop reads
    ``Direction.value`` or hashes a Direction (see :mod:`gridmotion.model`).
    """
    if schedule.width is not None and schedule.width != instance.n_robots:
        raise ValueError(
            f"schedule width {schedule.width} != instance robot count {instance.n_robots}")
    violation: Optional[Violation] = None
    # Instance checked the starts, and R1 + R2 guard every configuration a legal step reaches
    positions = list(instance.starts)
    occupant = dict(zip(positions, range(len(positions))))
    for idx, step in enumerate(schedule.steps):
        violation = _step_violation(instance.obstacles, positions, occupant, step, idx)
        if violation is not None:
            break
    if violation is None:
        mismatched = tuple(i for i, (p, t) in enumerate(zip(positions, instance.targets))
                           if p != t)
        if mismatched:
            violation = Violation(step=len(schedule.steps), rule=RULE_TARGET, robots=mismatched)

    makespan, total = schedule_objectives(schedule)
    return ValidationReport(
        feasible=violation is None,
        first_violation=violation,
        makespan=makespan,
        total_distance=total,
    )
