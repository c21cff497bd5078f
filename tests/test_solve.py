"""Solver tests: reservation-table bookkeeping, single-robot space-time
search, prioritized planning against the exhaustive joint optimum of
``oracles.joint_optimal``, and the full solve() entry point with its
telemetry, deadline and failure contracts."""

import collections
import hashlib
import heapq
import itertools
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from conftest import apply_step, make_instance, seal
import gridmotion.solve as solve_module
from gridmotion.formats import emit_solution
from gridmotion.generate import GeneratorParams, generate
from gridmotion.model import Direction, Objective, schedule_objectives
from gridmotion.solve import (
    ReservationTable,
    SolverConfig,
    SolveResult,
    paths_to_schedule,
    plan_single,
    solve,
)
from gridmotion.validate import (
    cell_id,
    cell_pixel,
    distance_map,
    lower_bounds,
    search_window,
    validate_schedule,
)


def ids(window, *coords):
    """The cell ids of ``coords`` in ``window``'s frame: a path as the
    solver holds it."""
    return [cell_id(window, c) for c in coords]


def as_tuples(window, path):
    """A path of cell ids as (x, y) tuples."""
    return [cell_pixel(window, c) for c in path]


def plan(inst, robot, table, objective):
    """plan_single with the robot's distance map over the table's window,
    as the solver builds it once per run."""
    field = distance_map(inst.obstacles, table.window, inst.targets[robot])
    return plan_single(inst, robot, table, objective, field=field)


# ---------------------------------------------------------------- rooms

def build_room(seed):
    """Small sealed room with 2-3 robots, or None when the draw is unusable.

    The free region must be connected so the joint oracle and the planner
    agree on reachability.
    """
    rng = random.Random(seed)
    w = rng.randint(3, 5)
    h = rng.randint(3, 5)
    cells = [(x, y) for x in range(w) for y in range(h)]
    obstacles = {c for c in cells if rng.random() < 0.15}
    free = [c for c in cells if c not in obstacles]
    n = rng.randint(2, 3)
    if len(free) < n + 2:
        return None
    comp = {free[0]}
    stack = [free[0]]
    fs = set(free)
    while stack:
        x, y = stack.pop()
        for q in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if q in fs and q not in comp:
                comp.add(q)
                stack.append(q)
    if comp != fs:
        return None
    starts = rng.sample(free, n)
    targets = rng.sample(free, n)
    ring = set(seal(free)) | obstacles
    inst = make_instance(starts, targets, sorted(ring), name=f"room{seed}")
    return inst, (0, 0, w - 1, h - 1)


def exact_optimum(inst, window):
    """Optimal makespan of a room instance by exhaustive joint search."""
    optimum, _ = oracles.joint_optimal([tuple(p) for p in inst.starts],
                                       [tuple(p) for p in inst.targets],
                                       inst.obstacles, window)
    return optimum


def rooms(count, first_seed=0):
    out = []
    seed = first_seed
    while len(out) < count and seed < first_seed + 300:
        built = build_room(seed)
        seed += 1
        if built is not None:
            out.append(built)
    assert len(out) == count
    return out


# ----------------------------------------------------- reservation table

WINDOW = (0, 0, 9, 9)


def cell(x, y):
    return cell_id(WINDOW, (x, y))


def path(*coords):
    return ids(WINDOW, *coords)


def table_state(table):
    """Copies of every reservation and record a table holds."""
    return (dict(table.vertex), {c: list(times) for c, times in table.busy.items()},
            dict(table.parked), {r: list(cells) for r, cells in table.paths.items()},
            table.horizon, dict(table.moves))


def test_table_records_vertices_edges_and_parking():
    table = ReservationTable(WINDOW)
    table.add_path(3, path((0, 0), (1, 0), (1, 0), (2, 0)))

    assert table.blocked_at(cell(0, 0), 0)
    assert not table.blocked_at(cell(0, 0), 1)
    assert table.blocked_at(cell(1, 0), 1)
    assert table.blocked_at(cell(1, 0), 2)
    assert not table.blocked_at(cell(1, 0), 3)
    # parked on the final pixel from arrival onward
    assert table.blocked_at(cell(2, 0), 3)
    assert table.blocked_at(cell(2, 0), 99)
    assert not table.blocked_at(cell(2, 0), 2)

    # each entry holds the cell its occupant came from; a wait points at
    # its own cell, and so does the start
    assert table.vertex == {(cell(0, 0), 0): cell(0, 0), (cell(1, 0), 1): cell(0, 0),
                            (cell(1, 0), 2): cell(1, 0), (cell(2, 0), 3): cell(1, 0)}
    assert table.parked == {cell(2, 0): 3}

    assert table.last_visit(cell(0, 0)) == 0
    assert table.last_visit(cell(1, 0)) == 2
    assert table.last_visit(cell(2, 0)) == math.inf
    assert table.last_visit(cell(9, 9)) == -1


def test_table_remove_restores_empty_state():
    table = ReservationTable(WINDOW)
    keep = path((5, 5), (5, 6))
    gone = path((0, 0), (1, 0), (2, 0))
    table.add_path(0, keep)
    table.add_path(1, gone)
    table.remove_path(1)

    assert not table.blocked_at(cell(0, 0), 0)
    assert not table.blocked_at(cell(2, 0), 5)
    assert table.last_visit(cell(1, 0)) == -1
    assert table.last_visit(cell(5, 6)) == math.inf
    assert cell(2, 0) not in table.parked

    # the slot is reusable after removal
    table.add_path(2, gone)
    assert table.blocked_at(cell(1, 0), 1)


def test_table_rejects_conflicting_reservations():
    table = ReservationTable(WINDOW)
    table.add_path(0, path((0, 0), (1, 0)))
    with pytest.raises(ValueError):
        table.add_path(1, path((2, 0), (1, 0)))   # same pixel, same time
    table2 = ReservationTable(WINDOW)
    table2.add_path(0, path((0, 0), (1, 0)))
    with pytest.raises(ValueError):
        table2.add_path(1, path((1, 1), (1, 0), (1, 0)))  # parks on a parked pixel


def test_table_rejected_path_writes_nothing():
    table = ReservationTable(WINDOW)
    table.add_path(0, path((1, 0), (2, 0)))
    before = table_state(table)
    with pytest.raises(ValueError, match="t=1"):
        table.add_path(1, path((0, 0), (2, 0)))   # (0, 0) is free at t=0
    # through the pixel robot 0 is parked on from t=1
    with pytest.raises(ValueError, match="t=2"):
        table.add_path(1, path((0, 0), (1, 0), (2, 0), (3, 0)))
    assert table_state(table) == before
    assert len(table.vertex) == 2


def test_table_rejects_parking_where_a_later_path_passes():
    table = ReservationTable(WINDOW)
    table.add_path(0, path((3, 0), (2, 0), (1, 0), (0, 0)))
    with pytest.raises(ValueError, match="after t=1"):
        table.add_path(1, path((1, 1), (1, 0)))
    assert table.last_visit(cell(1, 1)) == -1


def test_table_horizon_is_the_last_arrival():
    table = ReservationTable(WINDOW)
    assert table.horizon == 0
    table.add_path(0, path((0, 0), (1, 0), (2, 0)))
    table.add_path(1, path((5, 5), (5, 6), (5, 7), (5, 8), (5, 9)))
    table.add_path(2, path((9, 0), (9, 1)))
    assert table.horizon == 4
    table.remove_path(2)
    assert table.horizon == 4
    table.remove_path(1)
    assert table.horizon == 2
    table.remove_path(0)
    assert table.horizon == 0


def test_table_static_starts_block_time_zero_only():
    # an unplanned robot's start: held at time 0, with no path behind it
    table = ReservationTable(WINDOW)
    table.hold(cell(4, 4))
    assert table.blocked_at(cell(4, 4), 0)
    assert not table.blocked_at(cell(4, 4), 1)
    # last_visit reads the table, so the hold counts; the solver never asks:
    # a robot's own hold is gone before it plans, and it enters another
    # robot's start at t >= 1 anyway
    assert table.last_visit(cell(4, 4)) == 0


# --------------------------------------------------------- plan_single

def test_plan_single_straight_line_both_objectives():
    inst = make_instance([(0, 0)], [(2, 0)])
    for objective in (Objective.MAX, Objective.SUM):
        table = ReservationTable(search_window(inst))
        path = plan(inst, 0, table, objective)
        assert as_tuples(table.window, path) == [(0, 0), (1, 0), (2, 0)]


def test_plan_single_rejects_reserved_start():
    inst = make_instance([(0, 0)], [(2, 0)])
    table = ReservationTable(search_window(inst))
    table.add_path(5, ids(table.window, (0, 0)))
    with pytest.raises(ValueError):
        plan(inst, 0, table, Objective.MAX)


def test_plan_single_lands_after_the_last_visit_to_its_target():
    # the committed robot crosses the target at t=3 and leaves it north, so
    # the robot parks there at t=4 at the earliest, stepping aside to the
    # south and entering behind it (MAX), or at t=5 with its single move (SUM)
    inst = make_instance([(0, 0), (4, 0)], [(1, 0), (1, 1)])
    window = search_window(inst)
    committed = ids(window, (4, 0), (3, 0), (2, 0), (1, 0), (1, 1))
    expected = {Objective.MAX: [(0, 0), (1, 0), (1, -1), (1, -1), (1, 0)],
                Objective.SUM: [(0, 0)] * 5 + [(1, 0)]}
    for objective, cells in expected.items():
        table = ReservationTable(window)
        table.add_path(1, committed)
        path = plan(inst, 0, table, objective)
        assert as_tuples(window, path) == cells
        report = validate_schedule(
            inst, paths_to_schedule(inst, window, {0: path, 1: committed}))
        assert report.feasible


def test_plan_single_boxed_in_start_fails():
    # walls on three sides; the committed robot takes the fourth neighbour
    # at t=1 and enters the start at t=2, so the robot can neither leave nor
    # stay
    inst = make_instance([(0, 0), (2, 0)], [(3, 0), (0, 0)], [(0, 1), (0, -1), (-1, 0)])
    table = ReservationTable(search_window(inst))
    table.add_path(1, ids(table.window, (2, 0), (1, 0), (0, 0)))
    assert plan(inst, 0, table, Objective.MAX) is None


def count_pushes(monkeypatch, limit=math.inf):
    """Route plan_single's heap pushes through a counter; returns the
    one-element list that holds the count. A search that pushes more than
    ``limit`` times fails at once instead of running on."""
    pushes = [0]

    def counting_push(heap, item):
        pushes[0] += 1
        assert pushes[0] <= limit, "the search does not end"
        heapq.heappush(heap, item)

    monkeypatch.setattr(solve_module, "heapq",
                        SimpleNamespace(heappush=counting_push, heappop=heapq.heappop))
    return pushes


def test_plan_single_walled_in_by_parked_robots_returns_none(monkeypatch):
    # the robot starts in a 3x3 pocket whose 12 neighbours are held by parked
    # robots; the last of them closes the pocket at t=2, too soon to slip
    # out. With no horizon the search must still end, after entering each
    # pocket cell a bounded number of times, however long it could wander.
    pushes = count_pushes(monkeypatch, limit=10_000)
    pocket = [(x, y) for x in (1, 2, 3) for y in (1, 2, 3)]
    wall = sorted(set(seal(pocket)) - {(0, 0), (0, 4), (4, 0), (4, 4)})
    walls_in = {cell: [cell] for cell in wall}
    walls_in[(4, 2)] = [(6, 2), (5, 2), (4, 2)]
    inst = make_instance([(2, 2)] + [p[0] for p in walls_in.values()],
                         [(8, 2)] + wall)
    for objective in Objective:
        table = ReservationTable(search_window(inst))
        for robot, path in enumerate(walls_in.values(), start=1):
            table.add_path(robot, ids(table.window, *path))
        pushes[0] = 0
        assert plan(inst, 0, table, objective) is None
        assert 0 < pushes[0] <= 10 * len(pocket)


def test_plan_single_search_does_not_grow_with_a_wait(monkeypatch):
    # the target frees only after a committed robot, idle for a while,
    # crosses it southward; a wait of any length is one edge, so neither
    # the search nor the arrival's lateness grows with the idle time
    pushes = count_pushes(monkeypatch)
    inst = make_instance([(0, 0), (3, 2)], [(3, 0), (3, -2)])
    window = search_window(inst)
    for objective in Objective:
        seen = set()
        for idle in (10, 40, 160):
            table = ReservationTable(window)
            table.add_path(1, ids(window, *[(3, 2)] * (idle + 1), (3, 1), (3, 0), (3, -1),
                                  (3, -2)))
            pushes[0] = 0
            path = plan(inst, 0, table, objective)
            seen.add((len(path) - 1 - idle, pushes[0]))
        assert len(seen) == 1, (objective, seen)


def random_committed_case(seed, side=5, n_walks=4, steps=8):
    """A one-robot instance on a map of at most ``side`` x ``side`` cells
    and up to ``n_walks`` random walks of up to ``steps`` steps committed
    around it, none of which starts on the robot's start; None when the map
    has fewer than two open cells."""
    rng = random.Random(seed)
    w, h = rng.randint(2, side), rng.randint(2, side)
    cells = [(x, y) for x in range(w) for y in range(h)]
    obstacles = [c for c in cells if rng.random() < 0.15]
    open_cells = [c for c in cells if c not in obstacles]
    if len(open_cells) < 2:
        return None
    start, goal = rng.sample(open_cells, 2)
    inst = make_instance([start], [goal], obstacles)
    x0, y0, x1, y1 = window = search_window(inst)
    free = {(x, y) for x in range(x0, x1 + 1) for y in range(y0, y1 + 1)} - set(obstacles)
    table = ReservationTable(window)
    walks = []
    for robot in range(1, rng.randint(2, n_walks + 1)):
        walk = [rng.choice(sorted(free - {start}))]
        for _ in range(rng.randint(0, steps)):
            x, y = walk[-1]
            options = [c for c in ((x, y), (x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1))
                       if c in free]
            walk.append(rng.choice(options))
        try:
            table.add_path(robot, ids(window, *walk))
        except ValueError:
            continue
        walks.append(walk)
    return inst, table, free, walks


def test_plan_single_cost_matches_a_time_expanded_search():
    # the search has no horizon, so it must find the cost of the reference
    # search, which runs long enough to see every cheapest path; the second
    # case set's longer walks give cells more safe intervals to search, and
    # the third's crowded tables give one interval several labels that
    # neither beats on both arrival and moves
    case_sets = [(300, {}, 500, 400), (50, dict(side=6, n_walks=6, steps=16), 80, 70),
                 (30, dict(side=8, n_walks=10, steps=24), 60, 58)]
    for seeds, shape, least_compared, least_found in case_sets:
        compared = found = 0
        for seed in range(seeds):
            case = random_committed_case(seed, **shape)
            if case is None:
                continue
            inst, table, free, walks = case
            for objective in Objective:
                path = plan(inst, 0, table, objective)
                expected = oracles.single_robot_optimum(
                    inst.starts[0], inst.targets[0], free, walks, objective.value)
                compared += 1
                if path is None:
                    assert expected is None, (seed, shape, objective)
                    continue
                found += 1
                # the solver reads the makespan off the table's last arrival,
                # which holds only when no path ends on a wait
                assert len(path) == 1 or path[-1] != path[-2], (seed, shape, objective)
                moves = sum(a != b for a, b in zip(path, path[1:]))
                assert (len(path) - 1, moves) == expected, (seed, shape, objective)
                assert (path[0], path[-1]) == tuple(ids(table.window, inst.starts[0],
                                                        inst.targets[0]))
        assert compared >= least_compared and found >= least_found, shape


def count_heap_calls(monkeypatch, module):
    """Route ``module``'s heap pushes and pops through a counter, which is
    returned."""
    counts = collections.Counter()

    def push(heap, item):
        counts["push"] += 1
        heapq.heappush(heap, item)

    def pop(heap):
        counts["pop"] += 1
        return heapq.heappop(heap)

    monkeypatch.setattr(module, "heapq", SimpleNamespace(heappush=push, heappop=pop))
    return counts


def test_plan_single_matches_the_reference_search(monkeypatch):
    # plan_single's inner loop was rewritten for speed; every path it
    # returns, ties included, and its numbers of heap pushes and pops must
    # be those of the search it replaced: on random tables, sparse and
    # crowded with many intervals, and on every table that solves of
    # crowded maps plan against
    ours, theirs = (count_heap_calls(monkeypatch, m) for m in (solve_module, oracles))
    real_plan_single = solve_module.plan_single

    def both(instance, robot, table, objective, field):
        ours.clear()
        theirs.clear()
        path = real_plan_single(instance, robot, table, objective, field=field)
        expected = oracles.reference_plan_single(
            instance.starts[robot], instance.targets[robot], table,
            Objective(objective).value, field)
        return (path, dict(ours)), (expected, dict(theirs))

    case_sets = [(300, {}), (50, dict(side=6, n_walks=6, steps=16)),
                 (60, dict(side=8, n_walks=10, steps=24))]
    found = 0
    for seeds, shape in case_sets:
        for seed in range(seeds):
            case = random_committed_case(seed, **shape)
            if case is None:
                continue
            inst, table, _, _ = case
            field = distance_map(inst.obstacles, table.window, inst.targets[0])
            for objective in Objective:
                got, expected = both(inst, 0, table, objective, field)
                assert got == expected, (seed, shape, objective)
                found += got[0] is not None
    assert found >= 700

    calls = []

    def checked(instance, robot, table, objective, *, field):
        got, expected = both(instance, robot, table, objective, field)
        assert got == expected
        calls.append(got[0] is not None)
        return got[0]

    monkeypatch.setattr(solve_module, "plan_single", checked)
    for seed, objective in itertools.product((0, 1), Objective):
        inst = generate(GeneratorParams(12, 12, 0.4, obstacle_count=3, seed=seed)).instance
        solve(inst, SolverConfig(objective=objective, restarts=2, anneal_iterations=30,
                                 seed=seed))
    assert len(calls) >= 2000 and 0 < sum(calls) < len(calls)


def test_plan_single_returns_none_for_walled_target():
    pocket = [(5, 4), (5, 6), (4, 5), (6, 5)]
    inst = make_instance([(0, 0)], [(5, 5)], pocket)
    table = ReservationTable(search_window(inst))
    assert plan(inst, 0, table, Objective.MAX) is None


def test_plan_single_waits_until_target_is_free_forever():
    # A committed robot passes over the target at t=2; arriving earlier would
    # park there and collide with that visit, so the earliest landing is t=3.
    # MAX makes it by looping south and entering behind the occupant's exit
    # (same-direction train); SUM keeps the single move and lands at t=4.
    inst = make_instance([(1, 0), (4, 0)], [(2, 0), (2, 1)])
    window = search_window(inst)
    table = ReservationTable(window)
    table.add_path(1, ids(window, (4, 0), (3, 0), (2, 0), (2, 1)))
    fast = plan(inst, 0, table, Objective.MAX)
    assert as_tuples(window, fast) == [(1, 0), (1, -1), (2, -1), (2, 0)]
    lazy = plan(inst, 0, table, Objective.SUM)
    assert as_tuples(window, lazy) == [(1, 0), (1, 0), (1, 0), (1, 0), (2, 0)]


def test_plan_single_takes_objective_names():
    # "sum" must plan for SUM like Objective.SUM, not fall through to MAX
    inst = make_instance([(1, 0), (4, 0)], [(2, 0), (2, 1)])
    window = search_window(inst)
    table = ReservationTable(window)
    table.add_path(1, ids(window, (4, 0), (3, 0), (2, 0), (2, 1)))
    for objective in Objective:
        assert (plan(inst, 0, table, objective.value)
                == plan(inst, 0, table, objective))
    assert as_tuples(window, plan(inst, 0, table, "sum")) == [(1, 0)] * 4 + [(2, 0)]


def test_plan_single_vacates_in_direction_of_incoming_robot():
    # Robot 1 is committed to move west into our start pixel at the first
    # step. We must leave west too; waiting or stepping aside is a collision.
    inst = make_instance([(0, 0), (1, 0)], [(0, 1), (0, 0)])
    window = search_window(inst)
    table = ReservationTable(window)
    table.add_path(1, ids(window, (1, 0), (0, 0), (0, 0)))
    path = plan(inst, 0, table, Objective.MAX)
    assert as_tuples(window, path) == [(0, 0), (-1, 0), (-1, 1), (0, 1)]


def test_plan_single_trains_behind_committed_robot():
    # Sealed one-wide shaft: the follower enters the corridor one step after
    # the leader and tailgates, arriving one step above its solo bound.
    free = [(0, 0), (1, 0), (2, 0), (3, 0), (1, 1)]
    inst = make_instance([(0, 0), (1, 1)], [(2, 0), (3, 0)], seal(free),
                         name="shaft")
    for objective in (Objective.MAX, Objective.SUM):
        table = ReservationTable(search_window(inst))
        leader = plan(inst, 1, table, objective)
        assert as_tuples(table.window, leader) == [(1, 1), (1, 0), (2, 0), (3, 0)]
        table.add_path(1, leader)
        follower = plan(inst, 0, table, objective)
        assert as_tuples(table.window, follower) == [(0, 0), (0, 0), (1, 0), (2, 0)]
        _, _, per_robot = lower_bounds(inst)
        assert len(follower) - 1 == per_robot[0] + 1


def test_plan_single_head_on_corridor_reverses_into_bay():
    # Robot 1 crosses into the side bay; robot 0 must hold at the corridor
    # mouth while robot 1 passes, then continue to the far end.
    free = [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (2, 1)]
    inst = make_instance([(0, 0), (4, 0)], [(4, 0), (2, 1)], seal(free),
                         name="headon")
    window = search_window(inst)
    table = ReservationTable(window)
    p1 = plan(inst, 1, table, Objective.MAX)
    assert as_tuples(window, p1) == [(4, 0), (3, 0), (2, 0), (2, 1)]
    table.add_path(1, p1)
    p0 = plan(inst, 0, table, Objective.MAX)
    assert as_tuples(window, p0) == [(0, 0), (1, 0), (1, 0), (1, 0), (2, 0), (3, 0), (4, 0)]
    sched = paths_to_schedule(inst, window, {0: p0, 1: p1})
    report = validate_schedule(inst, sched)
    assert report.feasible and report.makespan == 6


def test_plan_single_search_follows_the_path_not_the_square(monkeypatch):
    # Every monotone path across the square ties on cost; breaking ties
    # toward the target keeps the search near one of them instead of
    # sweeping the 101x101 square (about 31,000 pushes when ties go by
    # insertion order).
    pushes = count_pushes(monkeypatch)
    inst = make_instance([(0, 0), (100, 100)], [(100, 100), (0, 0)], [(49, 49)],
                         name="diagonal")
    for objective in (Objective.MAX, Objective.SUM):
        pushes[0] = 0
        path = plan(inst, 0, ReservationTable(search_window(inst)), objective)
        assert len(path) - 1 == 200
        assert pushes[0] <= 10 * 200


# ------------------------------------------------- paths_to_schedule

def test_paths_to_schedule_pads_finished_robots():
    inst = make_instance([(0, 0), (5, 5)], [(1, 1), (5, 5)])
    window = search_window(inst)
    sched = paths_to_schedule(inst, window, {
        0: ids(window, (0, 0), (1, 0), (1, 0), (1, 1)),   # ends on its move
        1: ids(window, (5, 5)),                            # padded with waits
    })
    assert sched.steps == ((Direction.EAST, Direction.WAIT), (Direction.WAIT, Direction.WAIT),
                           (Direction.NORTH, Direction.WAIT))


def test_paths_to_schedule_all_parked_is_empty():
    inst = make_instance([(0, 0)], [(0, 0)])
    window = search_window(inst)
    sched = paths_to_schedule(inst, window, {0: ids(window, (0, 0))})
    assert sched.steps == ()


def test_paths_to_schedule_reads_each_offset_as_its_direction():
    # a window with a negative origin, 4 wide and 7 high: a column of the
    # frame is stride = 7 + 2 = 9 ids long, and an offset map built on the
    # width (4 + 2 = 6) would not know the E and W moves
    inst = make_instance([(-3, -4), (-2, 0)], [(-2, -3), (-3, 0)])
    window = search_window(inst)
    assert window == (-4, -5, -1, 1)
    walks = {0: ids(window, (-3, -4), (-3, -3), (-2, -3), (-2, -4), (-2, -4), (-3, -4),
                    (-3, -3), (-2, -3)),
             1: ids(window, (-2, 0), (-3, 0))}
    sched = paths_to_schedule(inst, window, walks)
    N, S, E, W, WAIT = (Direction.NORTH, Direction.SOUTH, Direction.EAST, Direction.WEST,
                        Direction.WAIT)
    assert [step[0] for step in sched.steps] == [N, E, S, WAIT, W, N, E]
    assert [step[1] for step in sched.steps] == [W] + [WAIT] * 6
    assert validate_schedule(inst, sched).feasible


def test_paths_to_schedule_matches_the_per_step_reference():
    # random walks, waits and single cells included, of unequal lengths:
    # the transposed build, stored unchecked, equals the per-step build
    # that went through the checking constructor
    rng = random.Random(3201)
    offsets = [(0, 1), (0, -1), (1, 0), (-1, 0), (0, 0)]
    empty = 0
    for _ in range(300):
        n = rng.randint(1, 9)
        starts = rng.sample([(x, y) for x in range(-3, 5) for y in range(-2, 6)], n)
        inst = make_instance(starts, starts[::-1], rng.sample([(9, 9), (-6, 1), (2, 12)], 2))
        window = search_window(inst)
        paths = {}
        for i, (x, y) in enumerate(starts):
            walk = [(x, y)]
            for _ in range(rng.choice([0, 0, 1, 5, 20, 60])):
                dx, dy = rng.choice(offsets)
                walk.append((walk[-1][0] + dx, walk[-1][1] + dy))
            paths[i] = ids(window, *walk)
        got = paths_to_schedule(inst, window, paths)
        expected = oracles.reference_paths_to_schedule(inst, window, paths, Direction,
                                                       solve_module.Schedule)
        assert got == expected and type(got.steps) is tuple
        assert all(type(step) is tuple and len(step) == n for step in got.steps)
        assert all(isinstance(m, Direction) for step in got.steps for m in step)
        empty += got.steps == ()
    assert empty >= 5


# ------------------------------------------------- prioritized planning

def plan_in_order(inst, order):
    """Schedule from planning robots in ``order`` into a fresh table, or
    None when some robot finds no path."""
    ctx = solve_module._SolveContext(inst)
    table = ReservationTable(ctx.window)
    if solve_module._plan_robots(ctx, table, order, Objective.MAX) is not None:
        return None
    return paths_to_schedule(inst, ctx.window, table.paths)


def test_prioritized_plan_single_robot_meets_its_bound():
    inst = make_instance([(0, 0)], [(3, 2)])
    sched = plan_in_order(inst, [0])
    report = validate_schedule(inst, sched)
    assert report.feasible
    assert report.makespan == 5 and report.total_distance == 5


def test_prioritized_plan_order_decides_train_quality():
    # Two robots in a row both shifting east. Leader-first trains in one
    # step; follower-first has to wait out the unknown leader.
    inst = make_instance([(0, 0), (1, 0)], [(1, 0), (2, 0)])
    front_first = validate_schedule(inst, plan_in_order(inst, [1, 0]))
    back_first = validate_schedule(inst, plan_in_order(inst, [0, 1]))
    assert front_first.feasible and front_first.makespan == 1
    assert back_first.feasible and back_first.makespan == 2


def test_prioritized_plan_already_solved_is_empty():
    inst = make_instance([(0, 0), (3, 3)], [(0, 0), (3, 3)])
    sched = plan_in_order(inst, [0, 1])
    assert sched.steps == ()


def test_prioritized_plan_feasible_and_at_least_optimal_on_rooms():
    solved = 0
    for inst, window in rooms(12):
        optimum = exact_optimum(inst, window)
        sched = plan_in_order(inst, list(range(inst.n_robots)))
        if sched is None:
            continue
        solved += 1
        report = validate_schedule(inst, sched)
        assert report.feasible
        assert report.makespan >= optimum
    assert solved >= 8


def test_failed_plan_robots_leaves_the_table_as_it_was(monkeypatch):
    # robot 2 is committed in its own pocket; in the corridor swap robot 0
    # plans, then robot 1 finds no path, so robot 0 must be taken back and
    # robot 3, never reached, must not keep its start cell reserved
    free = [(0, 0), (1, 0), (2, 0), (1, 1), (5, 5), (6, 5), (5, 6), (6, 6)]
    inst = make_instance([(0, 0), (2, 0), (5, 5), (5, 6)],
                         [(2, 0), (0, 0), (6, 5), (6, 6)], seal(free))
    ctx = solve_module._SolveContext(inst)
    table = ReservationTable(ctx.window)
    assert solve_module._plan_robots(ctx, table, [2], Objective.MAX) is None
    before = table_state(table)
    planned = []
    real_plan_single = solve_module.plan_single

    def recording(instance, robot, *args, **kwargs):
        path = real_plan_single(instance, robot, *args, **kwargs)
        planned.append((robot, path is not None))
        return path

    monkeypatch.setattr(solve_module, "plan_single", recording)
    result = solve_module._plan_robots(ctx, table, [0, 1, 3], Objective.MAX)
    assert result == 1
    assert planned == [(0, True), (1, False)]
    assert table_state(table) == before


def record_plan_robots(monkeypatch, fail=False):
    """Record every _plan_robots call, in call order, as (robots, whether
    all were planned). With ``fail`` no robot is planned: every call fails
    at its first robot."""
    calls = []
    real_plan_robots = solve_module._plan_robots

    def recording(ctx, table, robots, objective):
        if fail:
            result = robots[0]
        else:
            result = real_plan_robots(ctx, table, robots, objective)
        calls.append((list(robots), result is None))
        return result

    monkeypatch.setattr(solve_module, "_plan_robots", recording)
    return calls


def anneal_and_restore(monkeypatch, inst, order, value, lb_value):
    """Run one improvement move, for each of 8 seeds, on the plan of
    ``order``, whose makespan is ``value``, and check that the move changed
    nothing; returns the moves' _plan_robots calls as (robots, whether all
    were planned)."""
    ctx = solve_module._SolveContext(inst)
    config = SolverConfig(anneal_iterations=1)
    real_plan_robots = solve_module._plan_robots
    calls = record_plan_robots(monkeypatch)
    for seed in range(8):
        table = ReservationTable(ctx.window)
        assert real_plan_robots(ctx, table, order, Objective.MAX) is None
        before = table_state(table)
        assert table.value(Objective.MAX) == value
        solve_module._anneal(ctx, config, random.Random(seed), table, lb_value, [])
        assert table.value(Objective.MAX) == value
        assert table_state(table) == before
    return calls


def test_rejected_anneal_move_leaves_the_table_as_it_was(monkeypatch):
    # the leader-first train has makespan 1; a move that replans the
    # follower first gets makespan 2, is worse and is rejected
    inst = make_instance([(0, 0), (1, 0)], [(1, 0), (2, 0)])
    assert ([0, 1], True) in anneal_and_restore(monkeypatch, inst, [1, 0], 1, 0)


def test_failed_anneal_replan_leaves_the_table_as_it_was(monkeypatch):
    # corridor with a bay at x=5: robot 1 ducks into the bay while robot 0
    # passes, for makespan 11; a move that replans robot 1 first parks it on
    # (1, 0), the only way out of robot 0's start, so robot 0 finds no path
    free = [(x, 0) for x in range(7)] + [(5, 1)]
    inst = make_instance([(0, 0), (5, 0)], [(6, 0), (1, 0)], seal(free))
    assert ([1, 0], False) in anneal_and_restore(monkeypatch, inst, [0, 1], 11, 6)


def rebuilt(table):
    """A fresh table holding the same committed paths."""
    fresh = ReservationTable(table.window)
    for robot, cells in table.paths.items():
        fresh.add_path(robot, list(cells))
    return fresh


def last_visit_by_paths(table, cell):
    """The last time a committed path occupies ``cell``: -1 when never,
    +inf when one parks there; the oracle of ReservationTable.last_visit
    while no unplanned robot holds its start."""
    if cell in table.parked:
        return math.inf
    return max((len(cells) - 1 - cells[::-1].index(cell)
                for cells in table.paths.values() if cell in cells), default=-1)


def table_objectives(inst, table):
    """(makespan, total distance) of the schedule of the table's committed
    paths alone, as the validator scores it."""
    paths = dict(enumerate(table.paths[i] for i in sorted(table.paths)))
    if not paths:
        return 0, 0
    committed = SimpleNamespace(name=inst.name, n_robots=len(paths))
    return schedule_objectives(paths_to_schedule(committed, table.window, paths))


def test_table_matches_a_rebuild_after_random_plans_removals_and_moves():
    # a seeded mix of _plan_robots calls, some failing and some cut short by
    # the deadline, path removals and annealing moves; after each step the
    # table must hold exactly what its committed paths alone would write,
    # the objective the solver reads off it must be the schedule's, and
    # last_visit must agree with a scan of the committed paths
    outcomes = collections.Counter()
    for seed in range(6):
        rng = random.Random(seed)
        inst = generate(GeneratorParams(7, 7, 0.35, obstacle_count=2, seed=seed)).instance
        ctx = solve_module._SolveContext(inst)
        table = ReservationTable(ctx.window)
        x0, y0, x1, y1 = ctx.window
        cells = [cell_id(ctx.window, (x, y)) for x in range(x0, x1 + 1)
                 for y in range(y0, y1 + 1)]
        objectives = (0, 0)
        for _ in range(30):
            objective = rng.choice(list(Objective))
            committed = sorted(table.paths)
            unplanned = [i for i in range(inst.n_robots) if i not in table.paths]
            action = rng.random()
            if unplanned and action < 0.5:
                robots = rng.sample(unplanned, rng.randint(1, len(unplanned)))
                ticks = itertools.count()
                # how many robots are tried before the deadline, often all
                budget = max(len(robots) - rng.randint(0, 2), 0)
                ctx.out_of_time = lambda: next(ticks) >= budget
                stopped = solve_module._plan_robots(ctx, table, robots, objective)
                if stopped is None:
                    outcomes["planned"] += 1
                elif robots.index(stopped) == budget:   # never tried
                    outcomes["cut"] += 1
                else:   # "failed early" leaves robots it never reached
                    outcomes["failed" if stopped == robots[-1] else "failed early"] += 1
            elif committed and action < 0.75:
                table.remove_path(rng.choice(committed))
                outcomes["removed"] += 1
            elif committed:
                value = objectives[objective is Objective.SUM]
                if value == 0:
                    continue   # the annealer never starts from the bound 0
                ctx.out_of_time = lambda: False
                solve_module._anneal(ctx, SolverConfig(objective=objective, anneal_iterations=3),
                                     rng, table, -1, [])
                outcomes["annealed"] += 1
            assert table_state(table) == table_state(rebuilt(table))
            objectives = (table.value(Objective.MAX), table.value(Objective.SUM))
            assert objectives == table_objectives(inst, table)
            assert all(table.last_visit(c) == last_visit_by_paths(table, c) for c in cells)
    assert min(outcomes[k] for k in ("planned", "failed early", "cut", "removed",
                                     "annealed")) > 0, outcomes


def test_anneal_keeps_the_incumbent_in_the_table():
    # improvement never leaves the table on a schedule worse than the one it
    # started from: the table's own value is the value its paths score, no
    # worse than before, and the table is what they alone write
    outcomes = collections.Counter()
    for seed in range(3):
        for side in (7, 8, 9, 10):
            inst = generate(GeneratorParams(side, side, 0.25, obstacle_count=3,
                                            seed=seed)).instance
            ctx = solve_module._SolveContext(inst)
            order = sorted(range(inst.n_robots), key=lambda i: (-ctx.per_robot[i], i))
            for objective in Objective:
                table = ReservationTable(ctx.window)
                if solve_module._plan_robots(ctx, table, order, objective) is not None:
                    continue
                sum_objective = objective is Objective.SUM
                value = table_objectives(inst, table)[sum_objective]
                lb_value = ctx.lb_total if sum_objective else ctx.lb_makespan
                config = SolverConfig(objective=objective, anneal_iterations=100)
                solve_module._anneal(ctx, config, random.Random(seed), table, lb_value, [])
                result = table.value(objective)
                assert table_objectives(inst, table)[sum_objective] == result
                assert result <= value
                assert table_state(table) == table_state(rebuilt(table))
                outcomes["improved" if result < value else "kept"] += 1
    assert outcomes["improved"] >= 10, outcomes


# ---------------------------------------------------------------- solve

def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(restarts=0)
    with pytest.raises(ValueError):
        SolverConfig(anneal_iterations=-1)
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="time_limit"):
            SolverConfig(time_limit=bad)
    assert SolverConfig(objective="sum").objective is Objective.SUM
    assert SolverConfig(time_limit=None).time_limit is None


def test_solver_config_counts_must_be_ints():
    # a count that is not an int would pass the range checks, then fail mid-solve
    for name in ("restarts", "anneal_iterations"):
        for bad in (2.5, 2.0, True, "3", np.int64(3)):
            with pytest.raises(ValueError, match=f"^{name} must be an int, got "):
                SolverConfig(**{name: bad})


def test_solve_train_pair_reaches_both_lower_bounds():
    inst = make_instance([(0, 0), (1, 0)], [(1, 0), (2, 0)])
    lb_makespan, lb_total, _ = lower_bounds(inst)
    res_max = solve(inst, SolverConfig(objective="max"))
    assert res_max.success and res_max.value == lb_makespan == 1
    res_sum = solve(inst, SolverConfig(objective="sum"))
    assert res_sum.success and res_sum.value == lb_total == 2
    for res in (res_max, res_sum):
        assert res.report.feasible
        assert res.failure_reason is None
        assert res.bounds == (lb_makespan, lb_total)


def test_solve_far_apart_swap_past_one_obstacle():
    # two robots trade corners of a 1,600-cell diagonal: each distance map
    # covers a 1,603 x 1,603 window, yet is Manhattan distance throughout
    inst = make_instance([(0, 0), (1600, 1600)], [(1600, 1600), (0, 0)], [(800, 800)])
    result = solve(inst, SolverConfig(restarts=1))
    assert result.success and result.value == 3200 == result.bounds[0]
    assert validate_schedule(inst, result.schedule) == result.report
    assert result.report.feasible and result.report.makespan == 3200


def test_solve_results_validate_and_dominate_oracle_on_rooms():
    for inst, window in rooms(10):
        optimum = exact_optimum(inst, window)
        res = solve(inst, SolverConfig(objective="max", restarts=4,
                                       anneal_iterations=300, seed=1))
        assert res.success, inst.name
        assert res.report.feasible
        assert res.value >= optimum
        assert res.bounds == lower_bounds(inst)[:2]
        assert res.report.makespan >= res.bounds[0]


def test_solve_is_deterministic_without_time_limit():
    inst, _ = build_room(4)
    cfg = dict(objective="sum", restarts=3, anneal_iterations=250, seed=11)
    first = solve(inst, SolverConfig(**cfg))
    second = solve(inst, SolverConfig(**cfg))
    assert first.success and second.success
    assert first.schedule.steps == second.schedule.steps
    assert [t.objective for t in first.telemetry] == \
        [t.objective for t in second.telemetry]


def test_solve_telemetry_is_monotone_and_ends_final():
    inst, _ = build_room(0)
    res = solve(inst, SolverConfig(objective="sum", restarts=3,
                                   anneal_iterations=400, seed=2))
    assert res.success
    assert res.telemetry, "expected at least one telemetry record"
    values = [t.objective for t in res.telemetry]
    assert values == sorted(values, reverse=True)
    times = [t.time for t in res.telemetry]
    assert times == sorted(times)
    assert res.telemetry[0].phase == "restart"
    assert res.telemetry[-1].phase == "final"
    assert res.telemetry[-1].objective == res.value
    assert {t.phase for t in res.telemetry} <= {"restart", "anneal", "final"}


def test_solve_reports_failure_on_corridor_swap():
    # A pure corridor swap defeats one-robot-at-a-time planning in every
    # order; the solver must say so rather than emit a broken schedule.
    free = [(0, 0), (1, 0), (2, 0), (1, 1)]
    inst = make_instance([(0, 0), (2, 0)], [(2, 0), (0, 0)], seal(free))
    res = solve(inst, SolverConfig(restarts=3, anneal_iterations=50, seed=0))
    assert not res.success
    assert res.schedule is None and res.value is None and res.report is None
    assert res.failure_reason == "no feasible schedule within restart limits"
    assert all(t.phase != "final" for t in res.telemetry)


def test_solve_lifts_each_failed_robot_once_per_order(monkeypatch):
    # in the corridor swap the robot planned second is boxed in, so it is
    # lifted to the front, then the other one is; a robot lifted before
    # ends the order
    calls = record_plan_robots(monkeypatch)
    free = [(0, 0), (1, 0), (2, 0), (1, 1)]
    inst = make_instance([(0, 0), (2, 0)], [(2, 0), (0, 0)], seal(free))
    res = solve(inst, SolverConfig(restarts=3, anneal_iterations=50, seed=0))
    assert not res.success
    assert calls[:3] == [([0, 1], False), ([1, 0], False), ([0, 1], False)]
    assert len(calls) == 3 * 3


@pytest.mark.parametrize("objective", ["max", "sum"])
def test_solve_plans_the_corridor_bay_in_one_pass(monkeypatch, objective):
    # robot 0 runs the corridor's length 6 first (larger bound); robot 1
    # waits for it in the bay at x=5 and then walks back to x=1, arriving
    # at t=11, far past robot 0's arrival at t=6
    calls = record_plan_robots(monkeypatch)
    free = [(x, 0) for x in range(7)] + [(5, 1)]
    inst = make_instance([(0, 0), (5, 0)], [(6, 0), (1, 0)], seal(free))
    res = solve(inst, SolverConfig(objective=objective, restarts=1, anneal_iterations=0))
    assert res.success and res.report.makespan == 11
    assert calls == [([0, 1], True)]


def test_solve_reports_infeasible_instance():
    pocket = [(5, 4), (5, 6), (4, 5), (6, 5)]
    inst = make_instance([(0, 0)], [(5, 5)], pocket)
    res = solve(inst)
    assert not res.success
    assert res.failure_reason.startswith("instance infeasible")


def test_solve_first_attempt_runs_even_with_tiny_time_limit():
    inst = make_instance([(0, 0)], [(2, 0)])
    res = solve(inst, SolverConfig(time_limit=1e-6))
    assert res.success and res.value == 2


def test_solve_lifts_no_robot_after_the_deadline(monkeypatch):
    # every plan fails, and every clock reading is 10 s after the last, so
    # the 5 s limit has passed once the first order is done
    calls = record_plan_robots(monkeypatch, fail=True)
    clock = itertools.count(step=10.0)
    monkeypatch.setattr(solve_module, "time", SimpleNamespace(monotonic=lambda: next(clock)))
    inst = make_instance([(0, 0)], [(5, 0)])
    res = solve(inst, SolverConfig(time_limit=5.0))
    assert len(calls) == 1
    assert not res.success and res.schedule is None
    assert res.failure_reason == "no feasible schedule before the 5.0 s time limit"


def test_solve_plans_no_robot_after_the_deadline_once_the_first_order_is_done(monkeypatch):
    # every plan_single call takes 1 s of a fake clock; the corridor swap's
    # first order fails at 2 s, before the 2.5 s limit, so its lifted order
    # starts and must stop before its second robot
    now = [0.0]
    starts = []
    real_plan_single = solve_module.plan_single

    def slow_plan_single(*args, **kwargs):
        starts.append(now[0])
        now[0] += 1.0
        return real_plan_single(*args, **kwargs)

    monkeypatch.setattr(solve_module, "plan_single", slow_plan_single)
    monkeypatch.setattr(solve_module, "time", SimpleNamespace(monotonic=lambda: now[0]))
    free = [(0, 0), (1, 0), (2, 0), (1, 1)]
    inst = make_instance([(0, 0), (2, 0)], [(2, 0), (0, 0)], seal(free))
    res = solve(inst, SolverConfig(restarts=3, anneal_iterations=50, time_limit=2.5))
    assert starts == [0.0, 1.0, 2.0]
    assert res.failure_reason == "no feasible schedule before the 2.5 s time limit"


def test_solve_result_success_mirrors_schedule():
    ok = SolveResult(Objective.MAX, None, None, None, [], failure_reason="x")
    assert not ok.success


# ------------------------------------------------------ makespan proof

TINY = GeneratorParams(6, 6, density=0.1, seed=3)   # 4 robots, lb_makespan 5, optimum 6


def oracle_optimum(inst, margin):
    """Optimal makespan of ``inst`` by ``oracles.joint_optimal`` over the
    bounding box grown by ``margin`` cells, or None when there is none. Every
    schedule of makespan at most ``margin`` stays in that box."""
    x0, y0, x1, y1 = search_window(inst)   # the box grown by 1
    m = margin - 1
    optimum, _ = oracles.joint_optimal([tuple(p) for p in inst.starts],
                                       [tuple(p) for p in inst.targets],
                                       inst.obstacles, (x0 - m, y0 - m, x1 + m, y1 + m))
    return optimum


def check_joint_search_against_oracle(inst, margin, verdicts):
    """Ask the solver's joint search whether all robots of ``inst`` can be
    on their targets by each deadline from ``lb_makespan`` to ``margin``,
    with no step cap, and compare with the oracle's optimum over a box that
    holds every such schedule; counts each verdict in ``verdicts``."""
    optimum = oracle_optimum(inst, margin)
    ctx = solve_module._SolveContext(inst)
    robots = tuple(range(inst.n_robots))
    for deadline in range(ctx.lb_makespan, margin + 1):
        reachable, _ = solve_module._joint_search(ctx, robots, deadline, math.inf)
        assert reachable is (optimum is not None and optimum <= deadline), \
            (inst, deadline, optimum)
        verdicts[inst.n_robots, reachable] += 1


def test_joint_search_meets_a_deadline_exactly_when_the_oracle_does():
    verdicts = collections.Counter()
    # a swap past an L of obstacles: every schedule shorter than 8 leaves
    # the search window, through the frame's ring and beyond it
    inst = make_instance([(0, 0), (0, 2)], [(0, 2), (0, 0)], [(0, 1), (1, 0), (1, 1)])
    assert oracle_optimum(inst, 1) == 8
    assert oracle_optimum(inst, 6) == 6
    check_joint_search_against_oracle(inst, 6, verdicts)
    assert verdicts[2, False] and verdicts[2, True]
    # pairs on the open plane, near obstacles
    rng = random.Random(7)
    cells = [(x, y) for x in range(3) for y in range(3)]
    for _ in range(15):
        obstacles = rng.sample(cells, rng.randint(1, 3))
        free = [c for c in cells if c not in obstacles]
        inst = make_instance(rng.sample(free, 2), rng.sample(free, 2), obstacles)
        check_joint_search_against_oracle(inst, lower_bounds(inst)[0] + 2, verdicts)
    # pairs and triples in sealed rooms
    for inst, _ in rooms(8, first_seed=20):
        check_joint_search_against_oracle(inst, lower_bounds(inst)[0] + 2, verdicts)
    assert min(verdicts[n, r] for n in (2, 3) for r in (False, True)) > 0, verdicts


def count_joint_steps(monkeypatch):
    """Record the configuration of every joint step the makespan proof
    judges, and the clock reading of every subset search it starts."""
    steps, searches = [], []
    real_replay = solve_module._replay
    real_joint_search = solve_module._joint_search

    def counting_replay(obstacles, positions, joint_steps, first_index):
        steps.append(tuple(positions))
        return real_replay(obstacles, positions, joint_steps, first_index)

    def recording_joint_search(ctx, robots, deadline, max_steps):
        searches.append(solve_module.time.monotonic())
        return real_joint_search(ctx, robots, deadline, max_steps)

    monkeypatch.setattr(solve_module, "_replay", counting_replay)
    monkeypatch.setattr(solve_module, "_joint_search", recording_joint_search)
    return steps, searches


def test_solve_proves_the_tiny_instance_optimal_without_annealing(monkeypatch):
    # every pair of its robots can finish by 5; robots 1, 2 and 3 cannot
    def no_anneal(*args):
        raise AssertionError("annealing ran")

    monkeypatch.setattr(solve_module, "_anneal", no_anneal)
    steps, searches = count_joint_steps(monkeypatch)
    res = solve(generate(TINY).instance)
    assert res.value == 6 and res.bounds == (5, 16)
    assert hashlib.sha1(emit_solution(res.schedule).encode()).hexdigest() == \
        "f6c7a48fc79a0c40970ad651b1e27c3773144b43"
    assert [t.phase for t in res.telemetry] == ["restart", "final"]
    assert len(searches) == 7 and 0 < len(steps) < 2_000


@pytest.mark.parametrize("objective, iterations", [("max", 0), ("sum", 200)])
def test_solve_tries_no_proof_where_annealing_would_not_run(monkeypatch, objective,
                                                            iterations):
    steps, searches = count_joint_steps(monkeypatch)
    res = solve(generate(TINY).instance,
                SolverConfig(objective=objective, anneal_iterations=iterations))
    assert res.success and not steps and not searches


def test_solve_tries_no_proof_once_the_bound_is_met(monkeypatch):
    steps, searches = count_joint_steps(monkeypatch)
    inst = generate(GeneratorParams(6, 6, 0.3, obstacle_count=2, seed=0)).instance
    res = solve(inst, SolverConfig(anneal_iterations=60))
    assert res.value == res.bounds[0]
    assert not steps and not searches


def test_solve_proof_stays_within_its_step_cap(monkeypatch):
    # construction ends at makespan 17 here, and a default solve with 3,000
    # iterations finds 15, so no subset can prove 17 optimal: the proof
    # spends its whole cap and fails
    inst = generate(GeneratorParams(7, 7, 0.4, obstacle_count=3, seed=1)).instance
    for iterations in (1, 60):
        steps, searches = count_joint_steps(monkeypatch)
        res = solve(inst, SolverConfig(restarts=2, anneal_iterations=iterations))
        assert len(steps) == solve_module._PROOF_STEPS * iterations
        assert searches and res.value <= 17
    # the tiny instance's proof needs more steps than one iteration's cap
    steps, _ = count_joint_steps(monkeypatch)
    calls = record_plan_robots(monkeypatch)
    res = solve(generate(TINY).instance, SolverConfig(anneal_iterations=1))
    assert len(steps) == solve_module._PROOF_STEPS and res.value == 6
    assert [len(robots) for robots, _ in calls] == [4, 4, 4, 4, 2]   # one annealing move


def test_solve_stops_proving_when_the_deadline_passes(monkeypatch):
    # the fake clock jumps past the 100 s limit at the 100th joint step:
    # the configuration being expanded finishes its steps, no other one
    # starts, no further subset is searched and the incumbent is returned
    now = [0.0]
    steps, searches = count_joint_steps(monkeypatch)
    real_replay = solve_module._replay

    def replay_on_a_clock(*args):
        if len(steps) == 99:
            now[0] = 1000.0
        return real_replay(*args)

    monkeypatch.setattr(solve_module, "_replay", replay_on_a_clock)
    monkeypatch.setattr(solve_module, "time", SimpleNamespace(monotonic=lambda: now[0]))
    calls = record_plan_robots(monkeypatch)
    res = solve(generate(TINY).instance, SolverConfig(time_limit=100.0))
    assert len(steps) >= 100 and set(steps[99:]) == {steps[99]}
    assert all(t < 100.0 for t in searches)
    assert res.value == 6 and [t.phase for t in res.telemetry] == ["restart", "final"]
    assert all(len(robots) == 4 for robots, _ in calls)   # no annealing move


# objective value and sha1 of emit_solution for small generated maps under
# both objectives; any change to the search order or its tie-breaks shows
# here (the 8x8 and 10x10 density-0.3 maps change when E and W trade places
# in the move order). The last two are a density-0.5 map and perfbench
# crowd-max's map, where safe intervals are short and ties are many.
# (width, height, density, obstacle_count, seed) -> {objective: (value, sha1)}
PINNED_SCHEDULES = {
    (6, 6, 0.3, 2, 0): {"max": (8, "d0d5532541238468f49ed6bdbe051d5e27d7bd03"),
                        "sum": (33, "438addac6cd118c269a70b905c05ea3a76b58712")},
    (6, 6, 0.3, 2, 1): {"max": (9, "15b57432a9a1723f30a5f79a10c6092c92685c7a"),
                        "sum": (27, "46c699c2f831e923bd5aba1faab4814ce16cd03d")},
    (7, 7, 0.4, 3, 1): {"max": (17, "bc4324494396421aa4c45ba05b48ab87c114c5bf"),
                        "sum": (79, "8237dd5808dfa9ac142dddb6c11b6481cd09bca4")},
    (8, 8, 0.3, 3, 4): {"max": (11, "f150ecc2bd863a31574801f9bfd04004d7fdca26"),
                        "sum": (89, "50fcab98230fe68ff1577d384669fafec28fc7f3")},
    (10, 10, 0.3, 3, 0): {"max": (14, "6bf34f581b36473abd519bbb332a4c3c6f0cc5f3"),
                          "sum": (149, "951937909c5673e0ce19c8250684da61007c75f7")},
    (10, 10, 0.5, 3, 0): {"max": (34, "8ac99b2ecc75535da95bfac9aaacd176bfaa0f63"),
                          "sum": (331, "fe013559261773bb05ead4de126ffd4146941172")},
    (24, 24, 0.2, 8, 1): {"max": (37, "e8eaf893757f0ce3dc7450aaf4f4bb94c9e64f46"),
                          "sum": (1788, "a94fc09514c197bf3b94770697e3c35ef35f85f3")},
}


def test_solve_reproduces_pinned_schedules():
    negative = 0
    for (w, h, density, count, seed), expected in PINNED_SCHEDULES.items():
        inst = generate(GeneratorParams(w, h, density, obstacle_count=count,
                                        seed=seed)).instance
        for objective, (value, sha) in expected.items():
            res = solve(inst, SolverConfig(objective=objective, restarts=2,
                                           anneal_iterations=60))
            text = emit_solution(res.schedule)
            assert res.value == value, (w, h, seed, objective)
            assert hashlib.sha1(text.encode()).hexdigest() == sha, (w, h, seed, objective)
            config = inst.starts
            for step in res.schedule.steps:
                config = apply_step(config, step)
                negative += any(p.x < 0 or p.y < 0 for p in config)
    # the pins cover paths through the ring below the map
    assert negative >= 2
