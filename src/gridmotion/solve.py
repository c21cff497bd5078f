"""Heuristic schedule construction: prioritized space-time planning with
restarts, followed by simulated-annealing improvement over two-robot replans.

An initial feasible schedule is built by planning robots one at a time
against a reservation table, one map from (cell, time) to the cell its
occupant held a step before. The single-robot search lifts the step rules
into space-time and reads each of them off that map: a move into a pixel
that is occupied at departure time is legal only when the committed occupant
leaves it in the same direction at the same time (chain moves behind
committed paths), and a robot being planned must vacate a pixel in the
direction of any committed robot entering it. A robot cannot recruit
not-yet-planned robots to move in concert; each holds its start pixel at
time 0 with no departure recorded, so no one enters it at time 1. The search
has no time horizon: once every committed path has arrived the table stops
changing, so it prunes what can no longer pay and ends on its own. Each
priority order is planned in one pass. A planned path ends on its last move,
so the table's last arrival is the makespan; SUM counts moves per robot.

Local search then repeatedly erases two robots, replans them in
random order, and accepts the result by a simulated-annealing criterion
(improvements always, worsenings with probability exp(-delta/T), geometric
cooling on acceptance). Robot choice is biased toward makespan-critical
robots for MAX and toward robots with the most moves above their individual
lower bound for SUM. Construction and annealing replan through one step,
:func:`_plan_robots`: plan a list of robots, in order, against the paths
left in the table, and take back what was added when one of them fails.

For MAX, annealing does not start when a small exact search proves the
incumbent optimal: some 2 or 3 robots, with every other robot removed,
cannot all reach their targets one step sooner
(:func:`_makespan_is_optimal`). Annealing replaces the incumbent only with a
better schedule, so skipping it changes the time a solve takes, not its
result. The proof may try ``_PROOF_STEPS`` joint steps per anneal iteration.

Every schedule returned by :func:`solve` is validated in-process first; the
solver reports an explicit failure rather than emitting an invalid schedule.
With ``time_limit`` unset, results are deterministic for a fixed seed.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from .model import Direction, Instance, Objective, Schedule
from .validate import (
    UnreachableTargetError,
    ValidationReport,
    _step_violation,
    bounds_from_maps,
    cell_id,
    distance_map,
    search_window,
    validate_schedule,
)

_CRITICAL_WEIGHT = 4.0   # sampling weight of makespan-critical robots (MAX)
_AUTO_TEMP_FACTOR = 0.1  # initial temperature as a fraction of the start value
_COOLING = 0.995         # temperature factor per accepted move
_K_REPLAN = 2            # robots erased and replanned per annealing move
_PROOF_STEPS = 2         # joint steps a makespan proof may try per anneal iteration
_DIRECTIONS = tuple(Direction)   # iterating the Enum class itself is slow


@dataclass
class SolverConfig:
    """Solver knobs. ``time_limit`` None disables the wall clock and makes
    the run deterministic; the iteration caps still bound the work."""

    objective: Objective = Objective.MAX
    time_limit: Optional[float] = None
    restarts: int = 4
    anneal_iterations: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.objective, str):
            self.objective = Objective(self.objective)
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.anneal_iterations < 0:
            raise ValueError("anneal_iterations must be >= 0")
        # written as "not > 0" so that NaN is rejected too
        if self.time_limit is not None and not self.time_limit > 0:
            raise ValueError("time_limit must be positive or None")


@dataclass(frozen=True)
class TelemetryRecord:
    time: float
    objective: int
    phase: str


@dataclass
class SolveResult:
    """Outcome of a solver run. ``schedule`` is None exactly when no feasible
    schedule was found; such a failure is explicit, never a bogus schedule.
    ``bounds`` is (lb_makespan, lb_total) as
    :func:`gridmotion.validate.lower_bounds` gives them, read off the solver's
    own distance maps; None when some target is unreachable."""

    objective: Objective
    schedule: Optional[Schedule]
    value: Optional[int]
    report: Optional[ValidationReport]
    telemetry: list[TelemetryRecord]
    failure_reason: Optional[str] = None
    bounds: Optional[tuple[int, int]] = None

    @property
    def success(self) -> bool:
        return self.schedule is not None


def _move_offsets(window: tuple[int, int, int, int]) -> dict[int, Direction]:
    """The cell-id offset of each move in ``window``'s frame (see
    :func:`gridmotion.validate.cell_id`), in the order N, S, E, W."""
    stride = window[3] - window[1] + 3
    return {1: Direction.NORTH, -1: Direction.SOUTH,
            stride: Direction.EAST, -stride: Direction.WEST}


class ReservationTable:
    """Space-time bookkeeping of committed robot paths, one per robot, keyed
    by cell ids (:func:`gridmotion.validate.cell_id`) of ``window``'s frame.

    A path is the list of cell ids a robot occupies at integer times 0..T;
    from T on the robot rests on its final cell (open-ended "parked"
    reservation). ``paths`` maps each committed robot to its path, the one
    copy of it the solver keeps.
    One map holds who stands where: ``vertex[(cell, t)]`` is the cell its
    occupant held at ``t - 1``, or ``cell`` itself at ``t = 0``. Every step
    rule reads it: a robot at ``(q, t)`` leaves with displacement ``d``
    exactly when ``vertex[(q + d, t + 1)] == q``. A robot not planned yet may
    hold its start at time 0 with ``vertex[(start, 0)] = start`` and no
    path; no entry at ``t = 1`` points back to it, so no one may enter it at
    time 1. ``parked`` maps each final cell to its arrival time, and
    ``horizon`` is the last arrival of any committed path (0 when there is
    none): from then on only parked robots hold cells, and nothing in the
    table changes with time. Paths from :func:`plan_single` end on their
    last move, so ``horizon`` is also the makespan of the committed paths.
    """

    def __init__(self, window: tuple[int, int, int, int]):
        self.window = window
        self.horizon = 0
        self.vertex: dict = {}   # (cell, t) -> the occupant's cell at t-1
        self.parked: dict = {}   # cell -> arrival time
        self.paths: dict = {}    # robot -> its committed cells

    def add_path(self, robot: int, cells: list[int]) -> None:
        # check everything before the first write, so a rejected path
        # leaves the table as it was
        for t, c in enumerate(cells):
            if self.blocked_at(c, t):
                raise ValueError(f"cell {c} already reserved at t={t}")
        end = len(cells) - 1
        if self.last_visit(cells[end]) >= end:
            raise ValueError(f"cell {cells[end]} reserved at or after t={end}")
        for t, c in enumerate(cells):
            self.vertex[(c, t)] = cells[t - 1] if t else c
        self.parked[cells[end]] = end
        self.paths[robot] = cells
        self.horizon = max(self.horizon, end)

    def remove_path(self, robot: int) -> None:
        path = self.paths.pop(robot)
        for t, c in enumerate(path):
            del self.vertex[(c, t)]
        del self.parked[path[-1]]
        if len(path) - 1 == self.horizon:
            self.horizon = max((len(p) - 1 for p in self.paths.values()), default=0)

    def blocked_at(self, cell: int, t: int) -> bool:
        if (cell, t) in self.vertex:
            return True
        arrival = self.parked.get(cell)
        return arrival is not None and t >= arrival

    def last_visit(self, cell: int) -> float:
        """Last time any committed robot occupies the cell; -1 when never,
        +inf for parked cells."""
        if cell in self.parked:
            return math.inf
        return max((len(cells) - 1 - cells[::-1].index(cell)
                    for cells in self.paths.values() if cell in cells), default=-1)


def plan_single(instance: Instance, robot: int, table: ReservationTable,
                objective: Objective, *, field: list) -> Optional[list[int]]:
    """Cheapest space-time path for one robot against committed reservations.

    Path cost is (arrival, moves) for MAX and (moves, arrival) for SUM,
    compared lexicographically. Returns the cell ids of ``table.window``'s
    frame occupied at times 0..T, ready for :meth:`ReservationTable.add_path`,
    or None when no path reaches the target at any time. The robot may
    end only at a time after which no committed path visits the target
    again, because arrival parks it there forever; a target parked on for
    good fails at once. A returned path longer than one cell ends on a
    move: waiting into the target at ``t`` would mean holding it at
    ``t - 1``, the last time a committed robot visits it.

    The search runs over the cell ids of ``table.window``; ``field`` is the
    robot's :func:`distance_map` there, negative on walls. The heap orders
    states by the two cost keys, each plus the field's distance ``h`` to the
    target, then by ``h``: among states of equal cost the one nearest the
    target is expanded first, so on an open grid the search follows one
    shortest path instead of sweeping every tied one. An insertion counter
    settles the rest, so results are deterministic.

    No horizon is needed. Let ``still`` be the later of ``table.horizon``
    and the first time the target stays free, and at least 1 (unplanned
    robots hold their starts at time 0). From ``still`` on nothing in the
    table changes with time, so a state there is worse than one on the same
    cell at an earlier or equal time with no more moves, under either cost.
    Hence a wait, the offset 0 tried after N, S, E and W, is offered only
    before ``still``, and a move into a cell at or after ``still`` is
    dropped when such a state was already expanded there. Each cell is then
    entered a bounded number of times, and the search ends: None means that
    no path exists at any time.
    """
    window = table.window
    start = cell_id(window, instance.starts[robot])
    goal = cell_id(window, instance.targets[robot])
    if table.blocked_at(start, 0):
        raise ValueError(f"start of robot {robot} is reserved at time 0")
    moves = tuple(_move_offsets(window))
    moves_or_wait = moves + (0,)
    vertex = table.vertex
    parked = table.parked
    sum_objective = Objective(objective) is Objective.SUM

    h0 = field[start]
    goal_free_from = table.last_visit(goal) + 1
    if h0 < 0 or goal_free_from == math.inf:
        return None
    still = max(table.horizon, goal_free_from, 1)

    # one dict per time step, keyed by cell: a single dict keyed by (cell, t)
    # grows to multi-megabyte tables on wide windows, and their
    # reallocations made peak memory differ from run to run
    best = [{start: 0}]   # fewest moves to a cell at t
    parent = [{}]         # cell at t -> cell at t-1
    settled: dict = {}    # cell -> (moves, t) of its first expansion at or after still
    counter = itertools.count()
    heap = [(h0, h0, h0, next(counter), start, 0, 0)]
    while heap:
        _, _, _, _, p, t, moves_in = heapq.heappop(heap)
        if best[t].get(p) != moves_in:
            continue   # stale heap entry
        if p == goal and t >= goal_free_from:
            path = [p]
            for k in range(t, 0, -1):
                p = parent[k][p]
                path.append(p)
            return path[::-1]
        nt = t + 1
        late = nt >= still
        if t >= still and p not in settled:
            settled[p] = (moves_in, t)
        if nt == len(best):
            best.append({})
            parent.append({})
        best_next = best[nt]
        parent_next = parent[nt]
        # (p, t) is free, so an entry at (p, t+1) is a robot entering from
        # a neighbour
        incoming = vertex.get((p, nt))
        for d in (moves_or_wait if t < still else moves):
            q = p + d
            h = field[q]
            if h < 0:
                continue   # ring, obstacle or cut off from the target
            if (q, nt) in vertex:
                continue
            arrival = parked.get(q)
            if arrival is not None and nt >= arrival:
                continue
            # R3 against committed paths: entering an occupied cell requires
            # the occupant to leave it with the same displacement now; only
            # the occupant of (q, t) can have come from q at t+1
            if (q, t) in vertex and vertex.get((q + d, nt)) != q:
                continue
            # and symmetrically: if a committed robot enters our cell now,
            # we must vacate it in that robot's direction
            if incoming is not None and p - incoming != d:
                continue
            nmoves = moves_in + (d != 0)
            old = best_next.get(q)
            if old is not None and old <= nmoves:
                continue
            if late:
                done = settled.get(q)
                if done is not None and done[0] <= nmoves and done[1] <= nt:
                    continue
            best_next[q] = nmoves
            parent_next[q] = p
            if sum_objective:
                f1, f2 = nmoves + h, nt + h
            else:
                f1, f2 = nt + h, nmoves + h
            heapq.heappush(heap, (f1, f2, h, next(counter), q, nt, nmoves))
    return None


class _SolveContext:
    """Shared immutable data for one solver run: its start time and deadline,
    the window, each robot's start cell id and distance field to its target,
    and the lower bounds read off those fields. Raises UnreachableTargetError
    like :func:`lower_bounds`."""

    def __init__(self, instance: Instance, time_limit: Optional[float] = None):
        self.started = time.monotonic()
        self.deadline = None if time_limit is None else self.started + time_limit
        self.instance = instance
        self.window = search_window(instance)
        self.start_cells = [cell_id(self.window, s) for s in instance.starts]
        self.fields = [distance_map(instance.obstacles, self.window, t)
                       for t in instance.targets]
        self.lb_makespan, self.lb_total, self.per_robot = bounds_from_maps(
            instance, self.window, self.fields)

    def out_of_time(self) -> bool:
        return self.deadline is not None and time.monotonic() >= self.deadline


def _plan_robots(ctx: _SolveContext, table: ReservationTable, robots: Sequence[int],
                 objective: Objective, check_deadline: bool) -> Optional[int]:
    """Plan ``robots`` one at a time, in order, into ``table``; robots not
    planned yet hold their start cells at time 0.

    Returns None with every path committed. Otherwise the table is left
    exactly as it was, and the result is the robot it stopped at: the one
    that found no path or, when ``check_deadline`` is set and the deadline
    passed, the one it did not try."""
    vertex = table.vertex
    starts = ctx.start_cells
    for i in robots:
        vertex[(starts[i], 0)] = starts[i]
    for k, robot in enumerate(robots):
        if check_deadline and ctx.out_of_time():
            break
        del vertex[(starts[robot], 0)]
        path = plan_single(ctx.instance, robot, table, objective, field=ctx.fields[robot])
        if path is None:
            break
        table.add_path(robot, path)
    else:
        return None
    for i in robots[:k]:
        table.remove_path(i)
    for i in robots[k:]:   # the start entries of robots never reached
        vertex.pop((starts[i], 0), None)
    return robot


def paths_to_schedule(instance: Instance, window: tuple[int, int, int, int],
                      paths: dict[int, list[int]]) -> Schedule:
    """Assemble per-robot paths, the cell ids of ``window``'s frame at times
    0..T_i, into a schedule: each move is read off the difference of two
    consecutive ids, and finished robots are padded with WAIT. The schedule
    is as long as the longest path, so paths that end on their last move,
    as :func:`plan_single` returns them, give no trailing all-WAIT step."""
    step_of = {0: Direction.WAIT, **_move_offsets(window)}
    moves = [[step_of[b - a] for a, b in zip(paths[i], paths[i][1:])]
             for i in range(instance.n_robots)]
    steps = [tuple(m[t] if t < len(m) else Direction.WAIT for m in moves)
             for t in range(max(map(len, moves)))]
    return Schedule(instance_name=instance.name, steps=tuple(steps))


def _moves(path: Sequence[int]) -> int:
    """Moves along a path of cell ids: its steps that change cell."""
    return sum(a != b for a, b in zip(path, path[1:]))


def _pick_robots(rng: random.Random, paths: dict[int, list[int]], moves: dict[int, int],
                 per_robot_lb: Sequence[int], objective: Objective,
                 current_value: int) -> list[int]:
    indices = sorted(paths)
    if objective is Objective.MAX:
        weights = [
            _CRITICAL_WEIGHT if len(paths[i]) - 1 == current_value else 1.0
            for i in indices
        ]
    else:
        weights = [1.0 + max(0, moves[i] - per_robot_lb[i]) for i in indices]
    chosen: list[int] = []
    for _ in range(min(_K_REPLAN, len(indices))):
        pick = rng.choices(range(len(indices)), weights)[0]
        chosen.append(indices.pop(pick))
        weights.pop(pick)
    return chosen


def _joint_search(ctx: _SolveContext, robots: Sequence[int], deadline: int,
                  max_steps: int) -> tuple[Optional[bool], int]:
    """Whether ``robots``, with every other robot removed, can all stand on
    their targets at time ``deadline``.

    The search is layered by time over the joint configurations of
    ``robots``, from their starts. A robot may stand on pixel ``c`` at time
    ``t`` only when ``t`` plus its distance from ``c`` to its target is at
    most ``deadline``. Inside the window that distance is read off the
    robot's field, which is exact there (see :func:`search_window`); a
    negative entry is an obstacle or a cell cut off from the target. On the
    frame's ring and beyond, where no obstacle lies, it is Manhattan
    distance, so robots may step out of the window. Each joint step is judged
    by :func:`gridmotion.validate._step_violation`, the one statement of
    R1-R3. The robots make it exactly when layer ``deadline`` holds their
    targets, the only configuration it can hold; waiting on a target is
    always legal when no one enters it.

    Returns the verdict and the number of joint steps generated. The verdict
    is None when ``max_steps`` steps did not settle it or the solve's time
    limit ran out first.
    """
    instance = ctx.instance
    window = ctx.window
    x0, y0, x1, y1 = window
    fields = [ctx.fields[i] for i in robots]
    targets = [instance.targets[i] for i in robots]
    obstacles = instance.obstacles

    def distance(j: int, x: int, y: int) -> float:
        if x0 <= x <= x1 and y0 <= y <= y1:
            d = fields[j][cell_id(window, (x, y))]
            return d if d >= 0 else math.inf
        tx, ty = targets[j]
        return abs(x - tx) + abs(y - ty)

    layer = {tuple(instance.starts[i] for i in robots)}
    steps = 0
    for t in range(1, deadline + 1):
        reached = set()
        allowed = [{} for _ in robots]   # per robot: pixel -> moves that keep it in time
        for config in layer:
            if ctx.out_of_time():
                return None, steps
            options = []
            for j, (x, y) in enumerate(config):
                moves = allowed[j].get((x, y))
                if moves is None:
                    moves = allowed[j][(x, y)] = [
                        m for m in _DIRECTIONS
                        if t + distance(j, x + m._value_[0], y + m._value_[1]) <= deadline]
                options.append(moves)
            for step in itertools.product(*options):
                if steps == max_steps:
                    return None, steps
                steps += 1
                positions = list(config)
                occupant = dict(zip(config, range(len(config))))
                if _step_violation(obstacles, positions, occupant, step, t - 1) is None:
                    reached.add(tuple(positions))
        if not reached:
            return False, steps
        layer = reached
    return tuple(targets) in layer, steps


def _makespan_is_optimal(ctx: _SolveContext, order: Sequence[int], makespan: int,
                         max_steps: int) -> bool:
    """True when no schedule finishes by time ``makespan - 1`` because some
    2 or 3 robots, with every other robot removed, cannot all reach their
    targets by then. Removing robots makes no legal step illegal, so a subset's
    optimum bounds the instance's.

    ``order`` lists the robots by slack, least first: by descending
    individual lower bound, then by index. Pairs of them are tried, then
    triples, in that order. The search stops at the first proof, after
    ``max_steps`` joint steps in all, or when the solve's time limit runs
    out."""
    subsets = itertools.chain(itertools.combinations(order, 2),
                              itertools.combinations(order, 3))
    for robots in subsets:
        reachable, steps = _joint_search(ctx, robots, makespan - 1, max_steps)
        if reachable is None:
            return False
        if not reachable:
            return True
        max_steps -= steps
    return False


def solve(instance: Instance, config: Optional[SolverConfig] = None) -> SolveResult:
    """Best-effort schedule for the configured objective.

    Restarts run prioritized planning over several priority orders (first by
    descending individual lower bound, then seeded random permutations), then
    simulated annealing improves the best plan by replanning small robot
    subsets. Each priority order is planned in one pass into an empty table; a
    robot that finds no path is lifted to the front of its order, once. For
    MAX, annealing is skipped when the incumbent meets ``lb_makespan`` or
    when a joint search over 2 or 3 robots proves that no schedule is one
    step shorter. The incumbent is returned when the time limit expires,
    which is checked between lifts, restarts, annealing moves, joint
    configurations of that proof and, in every priority order but the
    first, between robots. Telemetry records every improvement, so
    the objective column is non-increasing.
    """
    config = config or SolverConfig()
    objective = config.objective
    rng = random.Random(config.seed)
    try:
        ctx = _SolveContext(instance, config.time_limit)
    except UnreachableTargetError as err:
        return SolveResult(objective, None, None, None, [],
                           failure_reason=f"instance infeasible: {err}")
    telemetry: list[TelemetryRecord] = []
    bounds = (ctx.lb_makespan, ctx.lb_total)
    n = instance.n_robots
    lb_value = ctx.lb_makespan if objective is Objective.MAX else ctx.lb_total

    best_table: Optional[ReservationTable] = None
    best_value: Optional[int] = None

    base_order = sorted(range(n), key=lambda i: (-ctx.per_robot[i], i))
    for attempt in range(config.restarts):
        if attempt > 0 and ctx.out_of_time():
            break
        order = list(base_order)
        if attempt > 0:
            rng.shuffle(order)
        # When a robot cannot plan against earlier commitments (its target has
        # been walled in by parked robots, say), lift it to the front and try
        # again. Each robot is lifted at most once per restart so alternating
        # failures cannot loop forever. The first order runs in full.
        table = ReservationTable(ctx.window)
        lifted: set[int] = set()
        while True:
            stopped = _plan_robots(ctx, table, order, objective,
                                   attempt > 0 or bool(lifted))
            if stopped is None or stopped in lifted or ctx.out_of_time():
                break
            lifted.add(stopped)
            order.remove(stopped)
            order.insert(0, stopped)
        if stopped is not None:
            continue
        value = (table.horizon if objective is Objective.MAX
                 else sum(map(_moves, table.paths.values())))
        if best_value is None or value < best_value:
            best_table, best_value = table, value
            telemetry.append(TelemetryRecord(time.monotonic() - ctx.started, value,
                                             "restart"))
        if best_value == lb_value:
            break

    if best_table is None:
        limits = (f"before the {config.time_limit} s time limit" if ctx.out_of_time()
                  else "within restart limits")
        return SolveResult(objective, None, None, None, telemetry,
                           failure_reason=f"no feasible schedule {limits}", bounds=bounds)

    best_paths = best_table.paths
    # annealing replaces the incumbent only with a better schedule, so for
    # MAX it is skipped once a small joint search proves that none exists
    if (best_value > lb_value and config.anneal_iterations > 0 and not ctx.out_of_time()
            and not (objective is Objective.MAX and _makespan_is_optimal(
                ctx, base_order, best_value, _PROOF_STEPS * config.anneal_iterations))):
        best_paths, best_value = _anneal(ctx, config, rng, best_table, best_value,
                                         lb_value, telemetry)

    schedule = paths_to_schedule(instance, ctx.window, best_paths)
    report = validate_schedule(instance, schedule)
    if not report.feasible:
        raise RuntimeError(
            f"internal error: solver assembled an invalid schedule "
            f"({report.first_violation})")
    value = report.makespan if objective is Objective.MAX else report.total_distance
    telemetry.append(TelemetryRecord(time.monotonic() - ctx.started, value, "final"))
    return SolveResult(objective, schedule, value, report, telemetry, bounds=bounds)


def _anneal(ctx: _SolveContext, config: SolverConfig, rng: random.Random,
            table: ReservationTable, value: int, lb_value: int,
            telemetry: list[TelemetryRecord]) -> tuple[dict, int]:
    """Improve the paths committed in ``table``, whose objective is
    ``value``, by replanning ``_K_REPLAN`` robots at a time; returns the best
    paths and their value. A failed or rejected move puts the old paths
    back."""
    objective = config.objective
    moves = {i: _moves(p) for i, p in table.paths.items()}
    cur_value = best_value = value
    best_paths = dict(table.paths)

    temp = _AUTO_TEMP_FACTOR * value
    for _ in range(config.anneal_iterations):
        if ctx.out_of_time():
            break
        chosen = _pick_robots(rng, table.paths, moves, ctx.per_robot, objective, cur_value)
        old_paths = {i: table.paths[i] for i in chosen}
        for i in chosen:
            table.remove_path(i)
        rng.shuffle(chosen)
        if _plan_robots(ctx, table, chosen, objective, False) is None:
            new_moves = {i: _moves(table.paths[i]) for i in chosen}
            new_value = (table.horizon if objective is Objective.MAX
                         else cur_value + sum(new_moves[i] - moves[i] for i in chosen))
            delta = new_value - cur_value
            if delta <= 0 or rng.random() < math.exp(-delta / temp):
                moves.update(new_moves)
                cur_value = new_value
                temp *= _COOLING
                if cur_value < best_value:
                    best_value = cur_value
                    best_paths = dict(table.paths)
                    telemetry.append(TelemetryRecord(time.monotonic() - ctx.started,
                                                     best_value, "anneal"))
                    if best_value == lb_value:
                        break
                continue
            for i in chosen:
                table.remove_path(i)
        for i in chosen:
            table.add_path(i, old_paths[i])
    return best_paths, best_value
