"""Heuristic schedule construction: prioritized space-time planning with
restarts, followed by simulated-annealing improvement over k-robot replans.

An initial feasible schedule is built by planning robots one at a time
against a reservation table. The single-robot search lifts the step rules
into space-time: a move into a pixel that is occupied at departure time is
legal only when the committed occupant leaves it in the same direction at the
same time (chain moves behind committed paths), and a robot being planned
must vacate a pixel in the direction of any committed robot entering it.
A robot cannot recruit not-yet-planned robots to move in concert; their start
pixels are treated as occupied, with unknown departure, at time 0.

Local search then repeatedly erases ``k_replan`` robots, replans them in
random order, and accepts the result by a simulated-annealing criterion
(improvements always, worsenings with probability exp(-delta/T), geometric
cooling on acceptance). Robot choice is biased toward makespan-critical
robots for MAX and toward robots with the most moves above their individual
lower bound for SUM.

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
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .model import Direction, Instance, Objective, Pixel, Schedule, Step
from .validate import (
    UnreachableTargetError,
    ValidationReport,
    bounds_from_maps,
    distance_map,
    search_window,
    validate_schedule,
)

_HORIZON_GROWTH = 1.5
_HORIZON_CAP_FACTOR = 10
_CRITICAL_WEIGHT = 4.0   # sampling weight of makespan-critical robots (MAX)
_AUTO_TEMP_FACTOR = 0.1  # initial temperature as a fraction of the start value

_MOVES = (Direction.NORTH, Direction.SOUTH, Direction.EAST, Direction.WEST)


@dataclass
class SolverConfig:
    """Solver knobs. ``anneal_initial_temp`` None means 10% of the first
    feasible objective value. ``time_limit`` None disables the wall clock and
    makes the run deterministic; the iteration caps still bound the work."""

    objective: Objective = Objective.MAX
    time_limit: Optional[float] = None
    restarts: int = 4
    horizon_factor: float = 2.0
    anneal_initial_temp: Optional[float] = None
    anneal_cooling: float = 0.995
    anneal_iterations: int = 100_000
    k_replan: int = 2
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.objective, str):
            self.objective = Objective(self.objective)
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.horizon_factor < 1.0:
            raise ValueError("horizon_factor must be >= 1")
        if not (0.0 < self.anneal_cooling <= 1.0):
            raise ValueError("anneal_cooling must be in (0, 1]")
        if self.anneal_iterations < 0:
            raise ValueError("anneal_iterations must be >= 0")
        if self.k_replan < 1:
            raise ValueError("k_replan must be >= 1")
        if self.time_limit is not None and self.time_limit <= 0:
            raise ValueError("time_limit must be positive or None")


@dataclass(frozen=True)
class TelemetryRecord:
    time: float
    objective: int
    phase: str


@dataclass
class SolveResult:
    """Outcome of a solver run. ``schedule`` is None exactly when no feasible
    schedule was found; such a failure is explicit, never a bogus schedule."""

    objective: Objective
    schedule: Optional[Schedule]
    value: Optional[int]
    report: Optional[ValidationReport]
    telemetry: list[TelemetryRecord]
    failure_reason: Optional[str] = None

    @property
    def success(self) -> bool:
        return self.schedule is not None


class ReservationTable:
    """Space-time bookkeeping of committed robot paths.

    A path is the pixel sequence a robot occupies at integer times 0..T; from
    T on the robot rests on its final pixel (open-ended "parked" reservation).
    ``static_at_zero`` holds start pixels of robots that are not planned yet:
    they occupy those pixels at time 0 and their departure is unknown, so no
    one may move into them at time 1.
    """

    def __init__(self, horizon: int):
        self.horizon = horizon
        self.vertex: dict = {}      # (pixel, t) -> robot
        self.edge_from: dict = {}   # (pixel, t) -> pixel the occupant moves to at t+1
        self.edge_into: dict = {}   # (pixel, t) -> pixel the robot arriving at t+1 comes from
        self.parked: dict = {}      # pixel -> (robot, arrival time)
        self.static_at_zero: set = set()
        self._times: dict = {}      # pixel -> set of reserved times

    def add_path(self, robot: int, path: Sequence[Pixel]) -> None:
        for t, p in enumerate(path):
            key = (p, t)
            if key in self.vertex:
                raise ValueError(f"pixel {tuple(p)} already reserved at t={t}")
            self.vertex[key] = robot
            self._times.setdefault(p, set()).add(t)
        for t in range(len(path) - 1):
            a, b = path[t], path[t + 1]
            if a != b:
                self.edge_from[(a, t)] = b
                self.edge_into[(b, t)] = a
        end = path[-1]
        if end in self.parked:
            raise ValueError(f"pixel {tuple(end)} already parked on")
        self.parked[end] = (robot, len(path) - 1)

    def remove_path(self, robot: int, path: Sequence[Pixel]) -> None:
        for t, p in enumerate(path):
            del self.vertex[(p, t)]
            times = self._times[p]
            times.discard(t)
            if not times:
                del self._times[p]
        for t in range(len(path) - 1):
            a, b = path[t], path[t + 1]
            if a != b:
                del self.edge_from[(a, t)]
                del self.edge_into[(b, t)]
        del self.parked[path[-1]]

    def blocked_at(self, pixel, t: int) -> bool:
        if (pixel, t) in self.vertex:
            return True
        rec = self.parked.get(pixel)
        if rec is not None and t >= rec[1]:
            return True
        return t == 0 and pixel in self.static_at_zero

    def last_visit(self, pixel) -> float:
        """Last time any committed robot occupies the pixel; -1 when never,
        +inf for parked pixels."""
        if pixel in self.parked:
            return math.inf
        times = self._times.get(pixel)
        return max(times) if times else -1


def plan_single(instance: Instance, robot: int, table: ReservationTable,
                objective: Objective, horizon: Optional[int] = None,
                window: Optional[tuple[int, int, int, int]] = None,
                dist_map: Optional[dict] = None) -> Optional[list[Pixel]]:
    """Cheapest space-time path for one robot against committed reservations.

    Path cost is (arrival, moves) for MAX and (moves, arrival) for SUM,
    compared lexicographically. Returns the pixel sequence occupied at times
    0..T, or None when no path reaches the target within the horizon. The
    robot may end only at a time after which no committed path visits the
    target again, because arrival parks it there forever.
    """
    start = instance.starts[robot]
    target = instance.targets[robot]
    if window is None:
        window = search_window(instance)
    if horizon is None:
        horizon = table.horizon
    if table.blocked_at(start, 0):
        raise ValueError(f"start of robot {robot} is reserved at time 0")
    if dist_map is None:
        dist_map = distance_map(instance.obstacles, window, target)
    x0, y0, x1, y1 = window
    obstacles = instance.obstacles
    vertex = table.vertex
    edge_from = table.edge_from
    edge_into = table.edge_into
    parked = table.parked
    static0 = table.static_at_zero
    sum_objective = objective is Objective.SUM

    h0 = dist_map.get((start.x, start.y))
    if h0 is None:
        return None
    goal_free_from = table.last_visit(target) + 1
    if goal_free_from > horizon:
        return None

    # one dict per time step, keyed by (x, y): a single dict keyed by
    # (x, y, t) grows to multi-megabyte tables on wide windows, and their
    # reallocations made peak memory differ from run to run
    p0 = (start.x, start.y)
    best = [{} for _ in range(horizon + 1)]     # fewest moves to (x, y) at t
    parent = [{} for _ in range(horizon + 1)]   # (x, y) at t -> (x, y) at t-1
    best[0][p0] = 0
    counter = itertools.count()
    heap = [(h0, h0, next(counter), p0, 0, 0)]
    while heap:
        f1, _, _, p, t, moves_in = heapq.heappop(heap)
        if best[t].get(p) != moves_in:
            continue   # stale heap entry
        px, py = p
        if px == target.x and py == target.y and t >= goal_free_from:
            path = [Pixel(px, py)]
            for k in range(t, 0, -1):
                p = parent[k][p]
                path.append(Pixel(p[0], p[1]))
            path.reverse()
            return path
        nt = t + 1
        if nt > horizon:
            continue
        best_next = best[nt]
        parent_next = parent[nt]
        incoming = edge_into.get((p, t))
        for d in _MOVES:
            dx, dy = d.value
            qx, qy = px + dx, py + dy
            if qx < x0 or qx > x1 or qy < y0 or qy > y1:
                continue
            q = (qx, qy)
            if q in obstacles:
                continue
            if (q, nt) in vertex:
                continue
            rec = parked.get(q)
            if rec is not None and nt >= rec[1]:
                continue
            # R3 against committed paths: entering an occupied pixel requires
            # the occupant to leave it with the same displacement now
            if (q, t) in vertex:
                if edge_from.get((q, t)) != (qx + dx, qy + dy):
                    continue
            elif (rec is not None and t >= rec[1]) or (t == 0 and q in static0):
                continue   # parked or unplanned occupant never departs
            # and symmetrically: if a committed robot enters our pixel now,
            # we must vacate it in that robot's direction
            if incoming is not None and (px - incoming[0], py - incoming[1]) != (dx, dy):
                continue
            h = dist_map.get(q)
            if h is None:
                continue
            nmoves = moves_in + 1
            old = best_next.get(q)
            if old is not None and old <= nmoves:
                continue
            best_next[q] = nmoves
            parent_next[q] = p
            if sum_objective:
                key = (nmoves + h, nt + h)
            else:
                key = (nt + h, nmoves + h)
            heapq.heappush(heap, (key[0], key[1], next(counter), q, nt, nmoves))
        # waiting in place
        if not table.blocked_at(p, nt) and incoming is None:
            old = best_next.get(p)
            if old is None or old > moves_in:
                best_next[p] = moves_in
                parent_next[p] = p
                h = dist_map[p]
                if sum_objective:
                    key = (moves_in + h, nt + h)
                else:
                    key = (nt + h, moves_in + h)
                heapq.heappush(heap, (key[0], key[1], next(counter), p, nt, moves_in))
    return None


def _initial_horizon(lb_makespan: int, n_robots: int, horizon_factor: float) -> int:
    return max(math.ceil(horizon_factor * lb_makespan), lb_makespan + n_robots)


def _horizon_cap(lb_makespan: int, n_robots: int) -> int:
    return _HORIZON_CAP_FACTOR * lb_makespan + n_robots


class _SolveContext:
    """Shared immutable data for one solver run: its start time, the window,
    each robot's distance map to its target and the lower bounds read off
    those maps. Raises UnreachableTargetError like :func:`lower_bounds`."""

    def __init__(self, instance: Instance):
        self.started = time.monotonic()
        self.instance = instance
        self.window = search_window(instance)
        self.dist_maps = [distance_map(instance.obstacles, self.window, t)
                          for t in instance.targets]
        self.lb_makespan, self.lb_total, self.per_robot = bounds_from_maps(
            instance, self.dist_maps)

    def deadline(self, config: SolverConfig) -> Optional[float]:
        if config.time_limit is None:
            return None
        return self.started + config.time_limit


def _plan_order(ctx: _SolveContext, order: Sequence[int], objective: Objective,
                horizon: int) -> tuple[Optional[tuple[dict, ReservationTable]], Optional[int]]:
    """Plan all robots in the given priority order at a fixed horizon.

    Returns ((paths, table), None) on success, (None, failed robot) when some
    robot finds no path against the commitments made before it."""
    instance = ctx.instance
    table = ReservationTable(horizon)
    table.static_at_zero = set(instance.starts)
    paths: dict[int, list[Pixel]] = {}
    for robot in order:
        table.static_at_zero.discard(instance.starts[robot])
        path = plan_single(instance, robot, table, objective, horizon,
                           ctx.window, ctx.dist_maps[robot])
        if path is None:
            return None, robot
        table.add_path(robot, path)
        paths[robot] = path
    return (paths, table), None


def prioritized_plan(instance: Instance, order: Sequence[int],
                     config: Optional[SolverConfig] = None) -> Optional[Schedule]:
    """Plan robots one at a time in the given order, growing the horizon
    geometrically on failure up to a cap, or until ``config.time_limit`` has
    passed. Returns None when no horizon tried admits a full plan (the
    caller may retry with another order)."""
    config = config or SolverConfig()
    if sorted(order) != list(range(instance.n_robots)):
        raise ValueError("order must be a permutation of all robot indices")
    ctx = _SolveContext(instance)
    planned, _ = _plan_with_growth(ctx, order, config)
    if planned is None:
        return None
    return paths_to_schedule(instance, planned[0])


def _plan_with_growth(ctx: _SolveContext, order: Sequence[int],
                      config: SolverConfig
                      ) -> tuple[Optional[tuple[dict, ReservationTable]], Optional[int]]:
    n = ctx.instance.n_robots
    horizon = _initial_horizon(ctx.lb_makespan, n, config.horizon_factor)
    cap = max(_horizon_cap(ctx.lb_makespan, n), horizon)
    deadline = ctx.deadline(config)
    while True:
        planned, failed = _plan_order(ctx, order, config.objective, horizon)
        if planned is not None:
            return planned, None
        if horizon >= cap or (deadline is not None and time.monotonic() >= deadline):
            return None, failed
        horizon = min(cap, math.ceil(horizon * _HORIZON_GROWTH))


def paths_to_schedule(instance: Instance, paths: dict[int, Sequence[Pixel]]) -> Schedule:
    """Assemble per-robot paths (positions at times 0..T_i) into a schedule,
    padding finished robots with WAIT and trimming trailing all-WAIT steps."""
    n = instance.n_robots
    length = max(len(paths[i]) for i in range(n)) - 1
    steps = []
    for t in range(length):
        moves = []
        for i in range(n):
            path = paths[i]
            if t + 1 < len(path):
                moves.append(Direction.between(path[t], path[t + 1]))
            else:
                moves.append(Direction.WAIT)
        steps.append(Step(tuple(moves)))
    while steps and all(not m.is_move for m in steps[-1].moves):
        steps.pop()
    return Schedule(instance_name=instance.name, steps=tuple(steps))


def _path_stats(path: Sequence[Pixel]) -> tuple[int, int]:
    """(moves, last active time) of one path."""
    moves = 0
    last = 0
    for t in range(1, len(path)):
        if path[t] != path[t - 1]:
            moves += 1
            last = t
    return moves, last


def _value_from_stats(stats: dict[int, tuple[int, int]], objective: Objective) -> int:
    if objective is Objective.MAX:
        return max((s[1] for s in stats.values()), default=0)
    return sum(s[0] for s in stats.values())


def _pick_robots(rng: random.Random, stats: dict[int, tuple[int, int]],
                 per_robot_lb: Sequence[int], objective: Objective,
                 k: int, current_value: int) -> list[int]:
    indices = sorted(stats)
    if objective is Objective.MAX:
        weights = [
            _CRITICAL_WEIGHT if stats[i][1] == current_value else 1.0
            for i in indices
        ]
    else:
        weights = [1.0 + max(0, stats[i][0] - per_robot_lb[i]) for i in indices]
    chosen: list[int] = []
    pool = list(indices)
    w = list(weights)
    for _ in range(min(k, len(pool))):
        total = sum(w)
        r = rng.random() * total
        acc = 0.0
        pick = len(pool) - 1
        for j, wj in enumerate(w):
            acc += wj
            if r < acc:
                pick = j
                break
        chosen.append(pool.pop(pick))
        w.pop(pick)
    return chosen


def solve(instance: Instance, config: Optional[SolverConfig] = None) -> SolveResult:
    """Best-effort schedule for the configured objective.

    Restarts run prioritized planning over several priority orders (first by
    descending individual lower bound, then seeded random permutations), then
    simulated annealing improves the best plan by replanning small robot
    subsets. The incumbent is returned when the time limit expires; the
    limit is checked between horizon levels, priority lifts, restarts and
    annealing moves, so the first horizon level always runs. Telemetry
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
    t_start = ctx.started
    deadline = ctx.deadline(config)
    telemetry: list[TelemetryRecord] = []

    def out_of_time() -> bool:
        return deadline is not None and time.monotonic() >= deadline
    n = instance.n_robots
    lb_value = ctx.lb_makespan if objective is Objective.MAX else ctx.lb_total

    best_paths: Optional[dict] = None
    best_value: Optional[int] = None
    best_horizon = 0

    base_order = sorted(range(n), key=lambda i: (-ctx.per_robot[i], i))
    for attempt in range(config.restarts):
        if attempt > 0 and out_of_time():
            break
        order = list(base_order)
        if attempt > 0:
            rng.shuffle(order)
        # When a robot cannot plan against earlier commitments (its target has
        # been walled in by parked robots, say), lift it to the front and try
        # again. Each robot is lifted at most once per restart so alternating
        # failures cannot loop forever.
        lifted: set[int] = set()
        while True:
            planned, failed = _plan_with_growth(ctx, order, config)
            if planned is not None or failed is None or failed in lifted:
                break
            if out_of_time():
                break
            lifted.add(failed)
            order.remove(failed)
            order.insert(0, failed)
        if planned is None:
            continue
        paths, table = planned
        stats = {i: _path_stats(paths[i]) for i in paths}
        value = _value_from_stats(stats, objective)
        if best_value is None or value < best_value:
            best_paths, best_value, best_horizon = paths, value, table.horizon
            telemetry.append(TelemetryRecord(time.monotonic() - t_start, value, "restart"))
        if best_value == lb_value:
            break

    if best_paths is None:
        return SolveResult(objective, None, None, None, telemetry,
                           failure_reason="no feasible schedule within restart and horizon limits")

    if best_value > lb_value and config.anneal_iterations > 0 and not out_of_time():
        best_paths, best_value = _anneal(ctx, config, rng, best_paths, best_value,
                                         best_horizon, lb_value, telemetry,
                                         t_start, deadline)

    schedule = paths_to_schedule(instance, best_paths)
    report = validate_schedule(instance, schedule)
    if not report.feasible:
        raise RuntimeError(
            f"internal error: solver assembled an invalid schedule "
            f"({report.first_violation})")
    value = report.makespan if objective is Objective.MAX else report.total_distance
    telemetry.append(TelemetryRecord(time.monotonic() - t_start, value, "final"))
    return SolveResult(objective, schedule, value, report, telemetry)


def _anneal(ctx: _SolveContext, config: SolverConfig, rng: random.Random,
            start_paths: dict, start_value: int, horizon: int, lb_value: int,
            telemetry: list[TelemetryRecord], t_start: float,
            deadline: Optional[float]) -> tuple[dict, int]:
    instance = ctx.instance
    objective = config.objective
    table = ReservationTable(horizon)
    current = dict(start_paths)
    for i, path in current.items():
        table.add_path(i, path)
    stats = {i: _path_stats(p) for i, p in current.items()}
    cur_value = start_value
    best_paths = dict(current)
    best_value = cur_value

    temp = config.anneal_initial_temp
    if temp is None:
        temp = _AUTO_TEMP_FACTOR * start_value
    if temp <= 0:
        return best_paths, best_value

    for _ in range(config.anneal_iterations):
        if deadline is not None and time.monotonic() >= deadline:
            break
        chosen = _pick_robots(rng, stats, ctx.per_robot, objective,
                              config.k_replan, cur_value)
        old_paths = {i: current[i] for i in chosen}
        old_stats = {i: stats[i] for i in chosen}
        for i in chosen:
            table.remove_path(i, current[i])
        replan_order = list(chosen)
        rng.shuffle(replan_order)
        table.static_at_zero = {instance.starts[i] for i in replan_order}
        new_paths: dict[int, list[Pixel]] = {}
        ok = True
        for i in replan_order:
            table.static_at_zero.discard(instance.starts[i])
            path = plan_single(instance, i, table, objective, horizon,
                               ctx.window, ctx.dist_maps[i])
            if path is None:
                ok = False
                break
            table.add_path(i, path)
            new_paths[i] = path
        table.static_at_zero = set()
        if not ok:
            for i in new_paths:
                table.remove_path(i, new_paths[i])
            for i in chosen:
                table.add_path(i, old_paths[i])
            continue
        for i in chosen:
            current[i] = new_paths[i]
            stats[i] = _path_stats(new_paths[i])
        new_value = _value_from_stats(stats, objective)
        delta = new_value - cur_value
        if delta <= 0 or rng.random() < math.exp(-delta / temp):
            cur_value = new_value
            temp *= config.anneal_cooling
            if cur_value < best_value:
                best_value = cur_value
                best_paths = dict(current)
                telemetry.append(TelemetryRecord(time.monotonic() - t_start,
                                                 best_value, "anneal"))
                if best_value == lb_value:
                    break
        else:
            for i in chosen:
                table.remove_path(i, current[i])
            for i in chosen:
                table.add_path(i, old_paths[i])
                current[i] = old_paths[i]
                stats[i] = old_stats[i]
    return best_paths, best_value
