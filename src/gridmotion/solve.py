"""Heuristic schedule construction: prioritized space-time planning with
restarts, followed by local search over two-robot replans.

An initial feasible schedule is built by planning robots one at a time
against a reservation table: one map from (cell, time) to the cell its
occupant held a step before, and per cell the sorted times it is held. The
single-robot search runs over safe intervals, the runs of time between a
cell's holds, so a wait of any length is one edge, and reads each step rule
off the table: a move into a pixel that is occupied at departure time is
legal only when the committed occupant leaves it in the same direction at
the same time (chain moves behind committed paths), and a robot being
planned must vacate a pixel in the direction of any committed robot
entering it. A robot cannot recruit not-yet-planned robots to move in
concert; each holds its start pixel at time 0 with no departure recorded,
so no one enters it at time 1. The search has no time horizon and ends on
its own. A robot that finds no path is lifted to the front of its priority
order, and the next pass keeps each path of the failed one that the table
still admits, searching only the others; a lifted robot that fails again
ends this reuse, and the lifts start over in passes that search every
robot. A planned path ends on its last move, so the table's last arrival is
the makespan; it counts moves per robot for SUM.

Local search then repeatedly erases two robots, replans them in random
order, and keeps the result when it is no worse; a worse or failed replan
puts the old paths back, so the reservation table always holds the
incumbent. Robot choice is biased toward makespan-critical robots for MAX
and toward robots with the most moves above their individual lower bound
for SUM. Construction and improvement replan through one step,
:func:`_plan_robots`: plan a list of robots, in order, against the paths
left in the table, and take back what was added when one of them fails.

For MAX, improvement does not start when a small exact search proves the
incumbent optimal: some 2 or 3 robots, with every other robot removed,
cannot all reach their targets one step sooner
(:func:`_makespan_is_optimal`). Improvement never worsens the incumbent, so
skipping it changes the time a solve takes, not its value. The proof may
try ``_PROOF_STEPS`` joint steps per improvement iteration.

Every schedule returned by :func:`solve` is validated in-process first; the
solver reports an explicit failure rather than emitting an invalid schedule.
With ``time_limit`` unset, results are deterministic for a fixed seed.
"""

from __future__ import annotations

from bisect import bisect_left, insort
import heapq
import itertools
import math
import random
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from .model import Direction, Instance, Objective, Schedule
from .validate import (
    DistanceMap,
    UnreachableTargetError,
    ValidationReport,
    _replay,
    bounds_from_maps,
    cell_id,
    distance_map,
    search_window,
    validate_schedule,
)

_CRITICAL_WEIGHT = 4.0   # MAX pick weight of makespan-critical robots; at 1, 20% more excess
_K_REPLAN = 2            # robots replanned per move; 1 improves far less, 3 costs ~1.4x CPU
_PROOF_STEPS = 2         # joint steps a makespan proof may try per improvement iteration
_DIRECTIONS = tuple(Direction)   # iterating the Enum class itself is slow


@dataclass
class SolverConfig:
    """Solver knobs. ``time_limit`` None disables the wall clock and makes
    the run deterministic; the iteration caps still bound the work.
    ``objective`` is an Objective or its value ("max" or "sum"); the counts
    and the seed are ints (not bools), and ``time_limit`` an int or a float
    (not a bool) or None."""

    objective: Objective = Objective.MAX
    time_limit: Optional[float] = None
    restarts: int = 4
    anneal_iterations: int = 100_000
    seed: int = 0

    def __post_init__(self):
        try:
            self.objective = Objective(self.objective)
        except ValueError:
            raise ValueError(f"objective must be 'max' or 'sum', "
                             f"got {self.objective!r}") from None
        # as Instance's points: no bool; a seed of None would seed from the OS
        for name in ("restarts", "anneal_iterations", "seed"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an int, got {getattr(self, name)!r}")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.anneal_iterations < 0:
            raise ValueError("anneal_iterations must be >= 0")
        if self.time_limit is not None:
            if isinstance(self.time_limit, bool) or not isinstance(self.time_limit,
                                                                   (int, float)):
                raise ValueError(f"time_limit must be a number or None, "
                                 f"got {self.time_limit!r}")
            # written as "not > 0" so that NaN is rejected too
            if not self.time_limit > 0:
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


def _move_offsets(window: tuple[int, int, int, int]) -> tuple[tuple[int, int, int], ...]:
    """Each move in ``window``'s frame as its cell-id offset (see
    :func:`gridmotion.validate.cell_id`) and its (dx, dy), in the order N, S,
    E, W."""
    stride = window[3] - window[1] + 3
    return ((1, 0, 1), (-1, 0, -1), (stride, 1, 0), (-stride, -1, 0))


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
    exactly when ``vertex[(q + d, t + 1)] == q``. ``busy[cell]`` lists the
    times at which ``vertex`` holds the cell, sorted. A robot not planned
    yet may :meth:`hold` its start at time 0 with no path; no entry at
    ``t = 1`` points back to it, so no one may enter it at time 1.
    ``parked`` maps each final cell to its arrival time, and
    ``horizon`` is the last arrival of any committed path (0 when there is
    none): from then on only parked robots hold cells, and nothing in the
    table changes with time. Paths from :func:`plan_single` end on their
    last move, so ``horizon`` is also the makespan of the committed paths.
    ``moves`` maps each committed robot to its path's moves (steps that change
    cell), and :meth:`value` reads either objective off the table.
    :meth:`add_path`, :meth:`remove_path`, :meth:`hold` and :meth:`release`
    are the only writers, and each writes ``vertex`` and ``busy`` itself;
    :meth:`add_path` counts the moves as it writes. It admits a path only when
    it keeps every step rule against the table, and a refused path raises
    ValueError and leaves the table as it was.
    """

    def __init__(self, window: tuple[int, int, int, int]):
        self.window = window
        self.horizon = 0
        self.vertex: dict = {}   # (cell, t) -> the occupant's cell at t-1
        self.busy: dict = {}     # cell -> sorted times t with (cell, t) in vertex
        self.parked: dict = {}   # cell -> arrival time
        self.paths: dict = {}    # robot -> its committed cells
        self.moves: dict = {}    # robot -> moves along its path

    def add_path(self, robot: int, cells: list[int]) -> None:
        vertex, busy, parked = self.vertex, self.busy, self.parked
        # check everything before the first write, so a rejected path
        # leaves the table as it was
        p = cells[0]
        for t, c in enumerate(cells):
            if (c, t) in vertex or parked.get(c, math.inf) <= t:
                raise ValueError(f"cell {c} already reserved at t={t}")
            d = c - p
            if d:   # R3, as plan_single reads it: enter behind an occupant
                # leaving the same way (a hold never leaves), and leave a cell
                # a committed robot enters only in its direction
                entered_from = vertex.get((p, t))
                if ((c, t - 1) in vertex and vertex.get((c + d, t)) != c
                        or entered_from is not None and p - entered_from != d):
                    raise ValueError(f"move {p} -> {c} at t={t} breaks R3")
                p = c
        end = len(cells) - 1
        if self.last_visit(cells[end]) >= end:
            raise ValueError(f"cell {cells[end]} reserved at or after t={end}")
        came_from, moves = cells[0], 0
        for t, c in enumerate(cells):
            vertex[(c, t)] = came_from
            insort(busy.setdefault(c, []), t)
            moves += c != came_from
            came_from = c
        parked[cells[end]] = end
        self.paths[robot] = cells
        self.moves[robot] = moves
        self.horizon = max(self.horizon, end)

    def remove_path(self, robot: int) -> None:
        path = self.paths.pop(robot)
        del self.moves[robot]
        vertex, busy = self.vertex, self.busy
        for t, c in enumerate(path):
            del vertex[(c, t)]
            times = busy[c]
            times.remove(t)
            if not times:
                del busy[c]
        del self.parked[path[-1]]
        if len(path) - 1 == self.horizon:
            self.horizon = max((len(p) - 1 for p in self.paths.values()), default=0)

    def hold(self, cell: int) -> None:
        """Hold ``cell`` at time 0 for a robot not planned yet."""
        self.vertex[(cell, 0)] = cell
        insort(self.busy.setdefault(cell, []), 0)

    def release(self, cell: int) -> None:
        """Take back a :meth:`hold`."""
        del self.vertex[(cell, 0)]
        times = self.busy[cell]
        times.remove(0)
        if not times:
            del self.busy[cell]

    def blocked_at(self, cell: int, t: int) -> bool:
        if (cell, t) in self.vertex:
            return True
        arrival = self.parked.get(cell)
        return arrival is not None and t >= arrival

    def last_visit(self, cell: int) -> float:
        """Last time ``vertex`` holds the cell, a :meth:`hold` included; -1
        when never, +inf for parked cells."""
        if cell in self.parked:
            return math.inf
        times = self.busy.get(cell)
        return times[-1] if times else -1

    def value(self, objective: Objective) -> int:
        """The committed paths' makespan (MAX) or total moves (SUM)."""
        return objective.of(self.horizon, sum(self.moves.values()))


def plan_single(instance: Instance, robot: int, table: ReservationTable,
                objective: Objective, *, field: DistanceMap) -> Optional[list[int]]:
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

    The search runs over safe intervals (Phillips and Likhachev, ICRA 2011):
    interval ``j`` of a cell is the run of times, between the holds in
    ``table.busy[cell]``, that ends just before hold ``j``. A label
    ``(cell, arrival, moves, parent, interval)`` may wait on its cell to its
    interval's last time ``b``, so a wait of any length is one edge. Moving
    to a neighbour ``q``, it arrives in ``[arrival + 1, b + 1]``; in each
    interval of ``q`` met there, only the earliest legal arrival ``s`` is
    generated, as waiting in ``q`` reaches the later ones. R3 cuts two
    edges at interval ends:

    - ``q`` held at ``s - 1``: the robot enters behind that occupant only
      when it leaves with the same displacement at ``s`` (a train), else at
      ``s + 1`` at the earliest;
    - arriving at ``b + 1`` means leaving as a committed robot enters the
      cell, which is legal only in that robot's direction.

    The heap orders labels by the two cost keys, each plus ``h``, the
    distance to the target on ``field``, the robot's :func:`distance_map`
    over ``table.window`` (its shadow entry, else -1 on an obstacle or the
    frame's ring, else Manhattan distance from the popped cell's column and
    row), then by ``h``: among labels of equal cost the one nearest the
    target goes first, so on an open grid the search follows one shortest
    path instead of sweeping every tied one. An insertion counter settles
    the rest, so results are deterministic.

    Labels of one cell and interval share ``h``, so they pop by first cost,
    then second cost (moves for MAX, arrival for SUM). Each interval keeps
    one number, the least second cost of a label expanded there, and a label
    not below it is neither pushed nor expanded: one expanded before it costs
    no more on either key. A label carries its interval's index, so a pop
    reads the table only when it expands. No horizon is needed: the table
    has finitely many intervals, and each expands labels of strictly falling
    non-negative second cost, so the search ends; None means no path exists
    at any time.
    """
    window = table.window
    start = cell_id(window, instance.starts[robot])
    goal = cell_id(window, instance.targets[robot])
    if table.blocked_at(start, 0):
        raise ValueError(f"start of robot {robot} is reserved at time 0")
    stride = window[3] - window[1] + 3
    tc, tr = divmod(goal, stride)
    # Manhattan distance by column and by row; -inf on the ring, a wall
    hx = [-math.inf, *range(tc - 1, 0, -1), *range(window[2] - window[0] + 2 - tc), -math.inf]
    hy = [-math.inf, *range(tr - 1, 0, -1), *range(stride - 1 - tr), -math.inf]
    moves = _move_offsets(window)
    walls, vertex, parked = field.walls, table.vertex, table.parked
    shadow_get, busy_get, vertex_get = field.shadow.get, table.busy.get, vertex.get
    heappush, heappop, inf = heapq.heappush, heapq.heappop, math.inf
    sum_objective = Objective(objective) is Objective.SUM

    h0 = field[instance.starts[robot]]
    goal_free_from = table.last_visit(goal) + 1
    if h0 < 0 or goal_free_from == inf:
        return None

    least = {}   # (cell, interval index) -> least second cost expanded there
    least_get = least.get
    count = 0    # insertion counter, the last tie-break
    heap = [(h0, h0, h0, count, (start, 0, 0, None, 0))]
    while heap:
        _, f2, h, _, label = heappop(heap)
        p, t, m, _, k = label
        key = (p, k)
        if least_get(key, inf) <= f2 - h:
            continue   # a label expanded here before costs no more
        least[key] = f2 - h
        if p == goal and t >= goal_free_from:
            path = [p]
            while label[3] is not None:
                parent = label[3]
                path += [parent[0]] * (label[1] - parent[1])
                label = parent
            return path[::-1]
        # gone by the next hold, if any, moving as the robot that enters p then
        holds = busy_get(p, ())
        if k < len(holds):
            end = holds[k]
            along = p - vertex[(p, end)]
        else:
            end, along = inf, None
        nm = m + 1
        col, row = divmod(p, stride)
        for d, dx, dy in moves:
            q = p + d
            h = shadow_get(q)
            if h is None:
                h = -1 if q in walls else hx[col + dx] + hy[row + dy]
            if h < 0:
                continue   # obstacle, ring or cut off from the target
            last = end if along is None or d == along else end - 1
            qh = busy_get(q)
            if qh is None:   # a cell never held has one interval, from time 0 on
                if t < last:
                    s = t + 1
                    if sum_objective:
                        if s < least_get((q, 0), inf):
                            count += 1
                            heappush(heap, (nm + h, s + h, h, count, (q, s, nm, label, 0)))
                    elif nm < least_get((q, 0), inf):
                        count += 1
                        heappush(heap, (s + h, nm + h, h, count, (q, s, nm, label, 0)))
                continue
            n = len(qh)
            for j in range(bisect_left(qh, t + 1), n + (q not in parked)):
                s = qh[j - 1] + 1 if j else 0   # where interval j opens
                if s <= t:
                    s = t + 1
                elif vertex_get((q + d, s)) != q:
                    s += 1   # enter only behind an occupant leaving the same way
                if s > last:
                    break
                if j < n and s >= qh[j]:
                    continue   # interval j closes first
                if sum_objective:
                    if s < least_get((q, j), inf):
                        count += 1
                        heappush(heap, (nm + h, s + h, h, count, (q, s, nm, label, j)))
                elif nm < least_get((q, j), inf):
                    count += 1
                    heappush(heap, (s + h, nm + h, h, count, (q, s, nm, label, j)))
    return None


class _SolveContext:
    """Shared data for one solver run: its start time, the window, each
    robot's start cell id and :func:`distance_map` to its target, and the
    lower bounds read off those maps. ``deadline`` is None, so the clock is
    ignored, until :func:`solve` sets it. Raises UnreachableTargetError like
    :func:`lower_bounds`."""

    def __init__(self, instance: Instance):
        self.started = time.monotonic()
        self.deadline: Optional[float] = None
        self.instance = instance
        self.window = search_window(instance)
        self.start_cells = [cell_id(self.window, s) for s in instance.starts]
        self.fields = [distance_map(instance.obstacles, self.window, t)
                       for t in instance.targets]
        self.lb_makespan, self.lb_total, self.per_robot = bounds_from_maps(
            instance, self.fields)

    def out_of_time(self) -> bool:
        return self.deadline is not None and time.monotonic() >= self.deadline


def _plan_robots(ctx: _SolveContext, table: ReservationTable, robots: Sequence[int],
                 objective: Objective, kept: Optional[dict] = None) -> Optional[int]:
    """Plan ``robots`` one at a time, in order, into ``table``; robots not
    planned yet hold their start cells at time 0. With ``kept``, a map from
    robot to path, a robot whose path there the table admits keeps it
    unsearched.

    Returns None with every path committed. Otherwise the table is left
    exactly as it was, ``kept`` holds the paths this call had committed, and
    the result is the robot it stopped at: the one that found no path or,
    when the deadline passed, the one it did not try."""
    starts = ctx.start_cells
    for i in robots:
        table.hold(starts[i])
    for k, robot in enumerate(robots):
        if ctx.out_of_time():
            break
        table.release(starts[robot])
        if kept is not None and robot in kept:
            try:
                table.add_path(robot, kept[robot])
                continue
            except ValueError:
                pass   # it no longer fits: search
        path = plan_single(ctx.instance, robot, table, objective, field=ctx.fields[robot])
        if path is None:
            table.hold(starts[robot])   # released below with the robots after it
            break
        table.add_path(robot, path)
    else:
        return None
    if kept is not None:
        kept.clear()
        kept.update((i, table.paths[i]) for i in robots[:k])
    for i in robots[:k]:
        table.remove_path(i)
    for i in robots[k:]:
        table.release(starts[i])
    return robot


def paths_to_schedule(instance: Instance, window: tuple[int, int, int, int],
                      paths: dict[int, list[int]]) -> Schedule:
    """Assemble per-robot paths, the cell ids of ``window``'s frame at times
    0..T_i, into a schedule: each move is read off the difference of two
    consecutive ids, finished robots are padded with WAIT, and the steps are
    stored unchecked. It is as long as the longest path, so paths that end on
    their last move, as :func:`plan_single` returns them, give no trailing
    all-WAIT step."""
    step_of = {d: Direction((dx, dy)) for d, dx, dy in _move_offsets(window)}
    step_of[0] = Direction.WAIT
    moves = [[step_of[b - a] for a, b in zip(paths[i], paths[i][1:])]
             for i in range(instance.n_robots)]
    length = max(map(len, moves))
    steps = zip(*(m + [Direction.WAIT] * (length - len(m)) for m in moves))
    return Schedule._trusted(instance.name, tuple(steps))


def _pick_robots(rng: random.Random, table: ReservationTable,
                 per_robot_lb: Sequence[int], objective: Objective) -> list[int]:
    indices = sorted(table.paths)
    if objective is Objective.MAX:
        weights = [
            _CRITICAL_WEIGHT if len(table.paths[i]) - 1 == table.horizon else 1.0
            for i in indices
        ]
    else:
        weights = [1.0 + max(0, table.moves[i] - per_robot_lb[i]) for i in indices]
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
    most ``deadline``. That distance is read off the robot's
    :class:`DistanceMap`: exact inside the window (see :func:`search_window`),
    negative on an obstacle or a cell cut off from the target, and
    Manhattan distance, a lower bound, outside it, where no obstacle lies, so
    robots may step out of the window. Each joint step is judged by
    :func:`gridmotion.validate._replay`, the one statement of R1-R3. The
    robots make it exactly when layer ``deadline`` holds their targets, the
    only configuration it can hold; waiting on a target is always legal when
    no one enters it.

    Returns the verdict and the number of joint steps generated. The verdict
    is None when ``max_steps`` steps did not settle it or the solve's time
    limit ran out first.
    """
    instance = ctx.instance
    fields = [ctx.fields[i] for i in robots]
    targets = [instance.targets[i] for i in robots]
    obstacles = instance.obstacles
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
                        if 0 <= fields[j][x + m._value_[0], y + m._value_[1]] <= deadline - t]
                options.append(moves)
            for step in itertools.product(*options):
                if steps == max_steps:
                    return None, steps
                steps += 1
                positions = list(config)
                if _replay(obstacles, positions, (step,), t - 1) is None:
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
    local search improves the best plan by replanning small robot subsets and
    keeping each replan that is no worse. Each priority order is planned into
    an empty table; a robot that finds no path is lifted to the front of its
    order, and the next pass keeps every path of the failed pass that the
    table still admits. A lifted robot that fails again starts a fresh phase
    with no reuse, in which a robot is lifted at most once; failing again
    there ends the order. For MAX, improvement is skipped when the
    incumbent meets ``lb_makespan`` or when a joint search over 2 or 3 robots
    proves that no schedule is one step shorter. The incumbent is returned
    when the time limit expires, which is checked between lifts, restarts,
    improvement moves, joint configurations of that proof and, in every
    pass but the first pass of the first order, between robots; an
    improvement move that the deadline cuts short is rolled back. Telemetry
    records every improvement, so the objective column is non-increasing.
    """
    config = config or SolverConfig()
    objective = config.objective
    rng = random.Random(config.seed)
    try:
        ctx = _SolveContext(instance)
    except UnreachableTargetError as err:
        return SolveResult(objective, None, None, None, [],
                           failure_reason=f"instance infeasible: {err}")
    telemetry: list[TelemetryRecord] = []
    bounds = (ctx.lb_makespan, ctx.lb_total)
    n = instance.n_robots
    lb_value = objective.of(ctx.lb_makespan, ctx.lb_total)

    best: Optional[ReservationTable] = None
    deadline = None if config.time_limit is None else ctx.started + config.time_limit

    base_order = sorted(range(n), key=lambda i: (-ctx.per_robot[i], i))
    for attempt in range(config.restarts):
        if ctx.out_of_time():
            break
        order = list(base_order)
        if attempt > 0:
            rng.shuffle(order)
        # When a robot cannot plan against earlier commitments (its target has
        # been walled in by parked robots, say), lift it to the front and try
        # again, keeping each path of the failed pass that the table still
        # admits. A lifted robot that fails again ends the reuse: the lifts
        # start over and every pass searches every robot, and a robot lifted
        # twice in this fresh phase ends the order, so neither phase can
        # loop forever. The first pass of the first order runs in full: the
        # deadline applies only after it.
        table = ReservationTable(ctx.window)
        lifted: set[int] = set()
        kept: Optional[dict] = {}
        while True:
            stopped = _plan_robots(ctx, table, order, objective, kept)
            ctx.deadline = deadline
            if stopped is None or ctx.out_of_time():
                break
            if stopped in lifted:
                if kept is None:
                    break
                kept, lifted = None, set()
            lifted.add(stopped)
            order.remove(stopped)
            order.insert(0, stopped)
        if stopped is not None:
            continue
        value = table.value(objective)
        if best is None or value < best.value(objective):
            best = table
            telemetry.append(TelemetryRecord(time.monotonic() - ctx.started, value,
                                             "restart"))
        if best.value(objective) == lb_value:
            break

    if best is None:
        limits = (f"before the {config.time_limit} s time limit" if ctx.out_of_time()
                  else "within restart limits")
        return SolveResult(objective, None, None, None, telemetry,
                           failure_reason=f"no feasible schedule {limits}", bounds=bounds)

    # improvement never worsens the incumbent, so for MAX it is skipped once
    # a small joint search proves that no better schedule exists
    value = best.value(objective)
    if (value > lb_value and config.anneal_iterations > 0 and not ctx.out_of_time()
            and not (objective is Objective.MAX and _makespan_is_optimal(
                ctx, base_order, value, _PROOF_STEPS * config.anneal_iterations))):
        _anneal(ctx, config, rng, best, lb_value, telemetry)

    schedule = paths_to_schedule(instance, ctx.window, best.paths)
    report = validate_schedule(instance, schedule)
    if not report.feasible:
        raise RuntimeError(
            f"internal error: solver assembled an invalid schedule "
            f"({report.first_violation})")
    value = objective.of(report.makespan, report.total_distance)
    telemetry.append(TelemetryRecord(time.monotonic() - ctx.started, value, "final"))
    return SolveResult(objective, schedule, value, report, telemetry, bounds=bounds)


def _anneal(ctx: _SolveContext, config: SolverConfig, rng: random.Random,
            table: ReservationTable, lb_value: int,
            telemetry: list[TelemetryRecord]) -> None:
    """Improve the paths committed in ``table`` by replanning ``_K_REPLAN``
    robots at a time; :meth:`ReservationTable.value` gives their objective.
    A move is kept when it is no worse; a worse or failed one puts the old
    paths back, so the table always holds the best schedule."""
    objective = config.objective
    for _ in range(config.anneal_iterations):
        value = table.value(objective)
        if value == lb_value or ctx.out_of_time():
            break
        chosen = _pick_robots(rng, table, ctx.per_robot, objective)
        old_paths = {i: table.paths[i] for i in chosen}
        for i in chosen:
            table.remove_path(i)
        rng.shuffle(chosen)
        if _plan_robots(ctx, table, chosen, objective) is None:
            new_value = table.value(objective)
            if new_value <= value:
                if new_value < value:
                    telemetry.append(TelemetryRecord(time.monotonic() - ctx.started,
                                                     new_value, "anneal"))
                continue
            for i in chosen:
                table.remove_path(i)
        for i in chosen:
            table.add_path(i, old_paths[i])
