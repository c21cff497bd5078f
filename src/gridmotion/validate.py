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

import functools
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
    if len(set(positions)) != len(positions):
        raise ValueError("configuration has overlapping robots")
    for p in positions:
        if p in instance.obstacles:
            raise ValueError(f"configuration places a robot on obstacle {tuple(p)}")
    return _replay(instance.obstacles, list(positions), (step,), step_index)


def _replay(obstacles: frozenset, positions: list,
            steps: Iterable[Sequence[Direction]], first_index: int) -> Optional[Violation]:
    """Replay ``steps``, numbered from ``first_index``, from the valid
    configuration ``positions``: the one statement of R1, R2 and R3. Each
    legal step is applied to ``positions`` in place, and None is returned
    when every step is. At the first step that breaks a rule ``positions``
    is left as that step found it, and the violation that ranks first, as
    :func:`check_step` says, is returned.

    Only robots that move are looked at. A waiting robot breaks a rule only
    when a mover enters its pixel, and that mover's own check sees it: its
    destination is occupied by a robot that does not move the same way (R3)
    and is shared with that robot (R2). So the rules reduce to, per mover:
    the destination is no obstacle, no other mover claims it, and whoever
    stands on it moves the same way. ``found`` and ``shared``, made once,
    fill only when a rule breaks, so a legal step costs one dict, the three
    look-ups per mover and nothing per waiting robot but an identity test."""
    wait = Direction.WAIT
    occupant = dict(zip(positions, range(len(positions))))   # pixel -> robot, kept in step
    found = []     # (lowest robot, rule rank, robots, rule), one per breach
    shared = {}    # destination -> robots ending on it, once two do
    for idx, step in enumerate(steps, first_index):
        claimed = {}   # destination -> the first mover that claims it
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
        if found or shared:
            for group in shared.values():
                robots = tuple(sorted(group))
                found.append((robots[0], _RULE_RANK[RULE_OVERLAP], robots, RULE_OVERLAP))
            _, _, robots, rule = min(found)
            return Violation(step=idx, rule=rule, robots=robots)
        for d, i in claimed.items():   # every mover claimed its own destination
            del occupant[positions[i]]
            positions[i] = d
        occupant.update(claimed)
    return None


def search_window(instance: Instance) -> tuple[int, int, int, int]:
    """Inclusive rectangle (x0, y0, x1, y1) that provably contains some
    shortest obstacle-avoiding path for every robot.

    The rectangle is the bounding box of obstacles, starts and targets,
    inflated by 1. Any walk can be clamped coordinate-wise onto it:
    clamping never lengthens the walk, keeps consecutive cells adjacent (the
    unclamped coordinate is shared, the clamped one moves by at most 1) and
    relocates cells only into the obstacle-free ring just outside the box.
    So a :func:`distance_map` over it is exact inside it; the tests
    cross-check it against a box inflated by 60.
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


def cell_pixel(window: tuple[int, int, int, int], cell: int) -> Pixel:
    """The pixel whose :func:`cell_id` in ``window``'s frame is ``cell``."""
    x0, y0, _, y1 = window
    x, y = divmod(cell, y1 - y0 + 3)
    return Pixel(x + x0 - 1, y + y0 - 1)


@functools.lru_cache(maxsize=1)
def _walls(obstacles: frozenset, window: tuple[int, int, int, int]) -> tuple:
    """What every :func:`distance_map` over ``window`` shares: the ids of the
    obstacles inside it, and each free inner cell beside one as ``(id,
    column, row, walled)``, bits 1, 2, 4 and 8 of ``walled`` set for a wall
    east, west, north and south, keyed by ``(0, row)`` when walled only east
    or west, ``(1, column)`` when only north or south, else ``(2, 0)``."""
    x0, y0, x1, y1 = window
    stride = y1 - y0 + 3
    walls = frozenset(cell_id(window, p) for p in obstacles
                      if x0 <= p[0] <= x1 and y0 <= p[1] <= y1)
    beside: dict[tuple, list] = {}
    for c in {q for c in walls for q in (c + 1, c - 1, c + stride, c - stride)} - walls:
        col, row = divmod(c, stride)
        if 0 < col <= x1 - x0 + 1 and 0 < row < stride - 1:
            walled = ((c + stride in walls) | (c - stride in walls) << 1
                      | (c + 1 in walls) << 2 | (c - 1 in walls) << 3)
            key = (0, row) if walled < 4 else (1, col) if walled & 3 == 0 else (2, 0)
            beside.setdefault(key, []).append((c, col, row, walled))
    return walls, beside


@dataclass(frozen=True, slots=True, eq=False)
class DistanceMap:
    """Grid distances to ``target``: ``map[pixel]`` is exact inside
    ``window``, over paths that stay in it, and -1 on an obstacle or a cell
    cut off from the target; outside the window, where no obstacle lies, it
    is Manhattan distance, a lower bound. ``shadow`` maps the :func:`cell_id`
    of each cell whose distance is not Manhattan distance to it, and
    ``walls``, shared by every map over the window, holds the obstacles' ids.
    ``len`` counts the shadow's entries."""

    window: tuple[int, int, int, int]
    target: Pixel
    shadow: dict
    walls: frozenset

    def __len__(self) -> int:
        return len(self.shadow)

    def __getitem__(self, pixel) -> int:
        x, y = pixel
        x0, y0, x1, y1 = self.window
        if x0 <= x <= x1 and y0 <= y <= y1:
            c = (x - x0 + 1) * (y1 - y0 + 3) + y - y0 + 1
            if c in self.shadow:
                return self.shadow[c]
            if c in self.walls:
                return -1
        return abs(x - self.target[0]) + abs(y - self.target[1])


def distance_map(obstacles: frozenset, window: tuple[int, int, int, int],
                 target: Pixel) -> DistanceMap:
    """The :class:`DistanceMap` to ``target`` over ``window``. A target on an
    obstacle reads 0 and is passable; one outside the window raises
    ValueError.

    A free cell other than the target is at its Manhattan distance ``M``
    exactly when a neighbour one step nearer the target (there is at most
    one along each axis) is. So the shadow walk visits cells in increasing
    ``M`` and marks each whose nearer neighbours are all walls or marked:
    it starts from the cells whose nearer neighbours are all walls, and a
    cell it marks queues its farther neighbours. A shortest path from a
    marked cell runs among marked cells up to a kept one, so a flood through
    them, seeded from each kept cell beside one, gives their distances;
    those it does not reach are cut off. Work and memory follow the
    obstacles and their shadows, not the window's area, but a long wall
    facing a far target casts a shadow out to the window's edge."""
    x0, y0, x1, y1 = window
    if not (x0 <= target[0] <= x1 and y0 <= target[1] <= y1):
        raise ValueError(f"target {tuple(target)} lies outside window {window}")
    walls, beside = _walls(obstacles, window)
    stride = y1 - y0 + 3
    right, top = x1 - x0 + 1, stride - 2   # the last inner column and row
    goal = cell_id(window, target)
    tc, tr = divmod(goal, stride)
    # pending[v]: cells of Manhattan distance v to decide, nearest first; a
    # cell walled on one axis only starts the walk only in line with the target
    pending: dict[int, list] = {}
    for c, col, row, walled in (*beside.get((0, tr), ()), *beside.get((1, tc), ()),
                                *beside.get((2, 0), ())):
        nearer = (col < tc) | (col > tc) << 1 | (row < tr) << 2 | (row > tr) << 3
        if nearer and not nearer & ~walled:
            pending.setdefault(abs(col - tc) + abs(row - tr), []).append(c)
    shadow: dict[int, int] = {}
    seeds: dict[int, list] = {}   # flood value -> marked cells a kept cell reaches
    later = []
    while pending:
        v = v + 1 if later else min(pending)   # the least key: where later went, if any
        later = []
        for c in pending.pop(v):
            if c in shadow:
                continue
            col, row = divmod(c, stride)
            nx = c + stride if col < tc else c - stride if col > tc else None
            ny = c + 1 if row < tr else c - 1 if row > tr else None
            if (nx is not None and nx not in shadow and (nx not in walls or nx == goal)
                    or ny is not None and ny not in shadow and (ny not in walls or ny == goal)):
                for n in (nx, ny):   # c keeps M = v, so a marked n is v + 1 at most
                    if n in shadow:
                        seeds.setdefault(v + 1, []).append(n)
                continue
            shadow[c] = -1
            if tc <= col < right and c + stride not in walls:
                later.append(c + stride)
            if 1 < col <= tc and c - stride not in walls:
                later.append(c - stride)
            if tr <= row < top and c + 1 not in walls:
                later.append(c + 1)
            if 1 < row <= tr and c - 1 not in walls:
                later.append(c - 1)
        if later:
            pending.setdefault(v + 1, []).extend(later)
    # the flood, level by level
    frontier: list = []
    while frontier or seeds:
        if not frontier:
            v = min(seeds)
        for c in seeds.pop(v, ()):
            if shadow[c] < 0:
                shadow[c] = v
                frontier.append(c)
        v += 1
        reached = []
        for c in frontier:
            for q in (c + 1, c - 1, c + stride, c - stride):
                if q in shadow and shadow[q] < 0:
                    shadow[q] = v
                    reached.append(q)
        frontier = reached
    if goal in walls:
        shadow[goal] = 0
    return DistanceMap(window, target, shadow, walls)


def bounds_from_maps(instance: Instance,
                     maps: Iterable[DistanceMap]) -> tuple[int, int, tuple[int, ...]]:
    """(lb_makespan, lb_total, per_robot) read off each robot's
    :func:`distance_map` to its target, ``maps`` in robot order. Raises
    UnreachableTargetError when some start reads -1 in its map."""
    per_robot: list[int] = []
    for i, (s, t, m) in enumerate(zip(instance.starts, instance.targets, maps)):
        d = m[s]
        if d < 0:
            raise UnreachableTargetError(
                i, f"robot {i}: target {tuple(t)} unreachable from start {tuple(s)}")
        per_robot.append(d)
    return max(per_robot), sum(per_robot), tuple(per_robot)


def lower_bounds(instance: Instance) -> tuple[int, int, tuple[int, ...]]:
    """Per-robot shortest obstacle-avoiding path lengths, ignoring all other
    robots. Returns (lb_makespan, lb_total, per_robot) where lb_makespan is
    the maximum and lb_total the sum, read off each target's
    :func:`distance_map` over the :func:`search_window`, one at a time.

    Raises UnreachableTargetError when some target cannot be reached at all;
    such an instance has no feasible schedule.
    """
    window = search_window(instance)
    return bounds_from_maps(instance, (distance_map(instance.obstacles, window, t)
                                       for t in instance.targets))


def validate_schedule(instance: Instance, schedule: Schedule) -> ValidationReport:
    """Replay a schedule from the instance starts and report feasibility and
    objectives.

    The schedule is feasible iff every step passes the rules of
    :func:`check_step` and the final configuration equals the targets index
    for index. Objectives are reported even for infeasible schedules. The
    schedule's instance name is not compared, so schedules can be replayed
    against compatible instances on purpose. Lower bounds are
    :func:`lower_bounds`' job.

    The replay, one :func:`_replay` call, keeps each robot's pixel and a map
    from pixel to robot and updates both in place, so a step's work follows
    the robots that move: a waiting robot costs one identity test, and no loop reads
    ``Direction.value`` or hashes a Direction (see :mod:`gridmotion.model`).
    """
    if schedule.width is not None and schedule.width != instance.n_robots:
        raise ValueError(
            f"schedule width {schedule.width} != instance robot count {instance.n_robots}")
    # Instance checked the starts, and R1 + R2 guard every configuration a legal step reaches
    positions = list(instance.starts)
    violation = _replay(instance.obstacles, positions, schedule.steps, 0)
    if violation is None:
        mismatched = tuple(i for i, (p, t) in enumerate(zip(positions, instance.targets))
                           if p != t)
        if mismatched:
            violation = Violation(step=len(schedule.steps), rule=RULE_TARGET, robots=mismatched)

    makespan, total = schedule_objectives(schedule)
    return ValidationReport(feasible=violation is None, first_violation=violation,
                            makespan=makespan, total_distance=total)
