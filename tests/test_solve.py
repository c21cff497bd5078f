"""Solver tests: reservation-table bookkeeping, single-robot space-time
search, prioritized planning against the exhaustive joint optimum of
``oracles.joint_optimal``, and the full solve() entry point with its
telemetry, deadline and failure contracts."""

import itertools
import math
import random
from types import SimpleNamespace

import pytest

import oracles
from conftest import make_instance, seal
import gridmotion.solve as solve_module
from gridmotion.model import Objective, Pixel
from gridmotion.solve import (
    ReservationTable,
    SolverConfig,
    SolveResult,
    paths_to_schedule,
    plan_single,
    prioritized_plan,
    solve,
)
from gridmotion.validate import lower_bounds, validate_schedule


def pixels(*coords):
    return [Pixel(x, y) for x, y in coords]


def as_tuples(path):
    return [tuple(p) for p in path]


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

def test_table_records_vertices_edges_and_parking():
    table = ReservationTable(horizon=10)
    path = pixels((0, 0), (1, 0), (1, 0), (2, 0))
    table.add_path(3, path)

    assert table.blocked_at(Pixel(0, 0), 0)
    assert not table.blocked_at(Pixel(0, 0), 1)
    assert table.blocked_at(Pixel(1, 0), 1)
    assert table.blocked_at(Pixel(1, 0), 2)
    assert not table.blocked_at(Pixel(1, 0), 3)
    # parked on the final pixel from arrival onward
    assert table.blocked_at(Pixel(2, 0), 3)
    assert table.blocked_at(Pixel(2, 0), 99)
    assert not table.blocked_at(Pixel(2, 0), 2)

    assert table.edge_from[(Pixel(0, 0), 0)] == Pixel(1, 0)
    assert table.edge_into[(Pixel(1, 0), 0)] == Pixel(0, 0)
    # waiting in place is not an edge
    assert (Pixel(1, 0), 1) not in table.edge_from

    assert table.last_visit(Pixel(0, 0)) == 0
    assert table.last_visit(Pixel(1, 0)) == 2
    assert table.last_visit(Pixel(2, 0)) == math.inf
    assert table.last_visit(Pixel(9, 9)) == -1


def test_table_remove_restores_empty_state():
    table = ReservationTable(horizon=10)
    keep = pixels((5, 5), (5, 6))
    gone = pixels((0, 0), (1, 0), (2, 0))
    table.add_path(0, keep)
    table.add_path(1, gone)
    table.remove_path(1, gone)

    assert not table.blocked_at(Pixel(0, 0), 0)
    assert not table.blocked_at(Pixel(2, 0), 5)
    assert table.last_visit(Pixel(1, 0)) == -1
    assert table.last_visit(Pixel(5, 6)) == math.inf
    assert Pixel(2, 0) not in table.parked

    # the slot is reusable after removal
    table.add_path(2, gone)
    assert table.blocked_at(Pixel(1, 0), 1)


def test_table_rejects_conflicting_reservations():
    table = ReservationTable(horizon=10)
    table.add_path(0, pixels((0, 0), (1, 0)))
    with pytest.raises(ValueError):
        table.add_path(1, pixels((2, 0), (1, 0)))   # same pixel, same time
    table2 = ReservationTable(horizon=10)
    table2.add_path(0, pixels((0, 0), (1, 0)))
    with pytest.raises(ValueError):
        table2.add_path(1, pixels((1, 1), (1, 0), (1, 0)))  # parks on a parked pixel


def test_table_static_starts_block_time_zero_only():
    table = ReservationTable(horizon=10)
    table.static_at_zero = {Pixel(4, 4)}
    assert table.blocked_at(Pixel(4, 4), 0)
    assert not table.blocked_at(Pixel(4, 4), 1)


# --------------------------------------------------------- plan_single

def test_plan_single_straight_line_both_objectives():
    inst = make_instance([(0, 0)], [(2, 0)])
    for objective in (Objective.MAX, Objective.SUM):
        table = ReservationTable(horizon=8)
        path = plan_single(inst, 0, table, objective)
        assert as_tuples(path) == [(0, 0), (1, 0), (2, 0)]


def test_plan_single_rejects_reserved_start():
    inst = make_instance([(0, 0)], [(2, 0)])
    table = ReservationTable(horizon=8)
    table.add_path(5, pixels((0, 0)))
    with pytest.raises(ValueError):
        plan_single(inst, 0, table, Objective.MAX)


def test_plan_single_returns_none_when_horizon_too_short():
    inst = make_instance([(0, 0)], [(3, 0)])
    table = ReservationTable(horizon=2)
    assert plan_single(inst, 0, table, Objective.MAX) is None


def test_plan_single_returns_none_for_walled_target():
    pocket = [(5, 4), (5, 6), (4, 5), (6, 5)]
    inst = make_instance([(0, 0)], [(5, 5)], pocket)
    table = ReservationTable(horizon=40)
    assert plan_single(inst, 0, table, Objective.MAX) is None


def test_plan_single_waits_until_target_is_free_forever():
    # A committed robot passes over the target at t=2; arriving earlier would
    # park there and collide with that visit, so the earliest landing is t=3.
    # MAX makes it by looping south and entering behind the occupant's exit
    # (same-direction train); SUM keeps the single move and lands at t=4.
    inst = make_instance([(1, 0), (4, 0)], [(2, 0), (2, 1)])
    table = ReservationTable(horizon=12)
    table.add_path(1, pixels((4, 0), (3, 0), (2, 0), (2, 1)))
    fast = plan_single(inst, 0, table, Objective.MAX)
    assert as_tuples(fast) == [(1, 0), (1, -1), (2, -1), (2, 0)]
    lazy = plan_single(inst, 0, table, Objective.SUM)
    assert as_tuples(lazy) == [(1, 0), (1, 0), (1, 0), (1, 0), (2, 0)]


def test_plan_single_vacates_in_direction_of_incoming_robot():
    # Robot 1 is committed to move west into our start pixel at the first
    # step. We must leave west too; waiting or stepping aside is a collision.
    inst = make_instance([(0, 0), (1, 0)], [(0, 1), (0, 0)])
    table = ReservationTable(horizon=8)
    table.add_path(1, pixels((1, 0), (0, 0), (0, 0)))
    path = plan_single(inst, 0, table, Objective.MAX)
    assert as_tuples(path) == [(0, 0), (-1, 0), (-1, 1), (0, 1)]


def test_plan_single_trains_behind_committed_robot():
    # Sealed one-wide shaft: the follower enters the corridor one step after
    # the leader and tailgates, arriving one step above its solo bound.
    free = [(0, 0), (1, 0), (2, 0), (3, 0), (1, 1)]
    inst = make_instance([(0, 0), (1, 1)], [(2, 0), (3, 0)], seal(free),
                         name="shaft")
    for objective in (Objective.MAX, Objective.SUM):
        table = ReservationTable(horizon=12)
        leader = plan_single(inst, 1, table, objective)
        assert as_tuples(leader) == [(1, 1), (1, 0), (2, 0), (3, 0)]
        table.add_path(1, leader)
        follower = plan_single(inst, 0, table, objective)
        assert as_tuples(follower) == [(0, 0), (0, 0), (1, 0), (2, 0)]
        _, _, per_robot = lower_bounds(inst)
        assert len(follower) - 1 == per_robot[0] + 1


def test_plan_single_head_on_corridor_reverses_into_bay():
    # Robot 1 crosses into the side bay; robot 0 must hold at the corridor
    # mouth while robot 1 passes, then continue to the far end.
    free = [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (2, 1)]
    inst = make_instance([(0, 0), (4, 0)], [(4, 0), (2, 1)], seal(free),
                         name="headon")
    table = ReservationTable(horizon=20)
    p1 = plan_single(inst, 1, table, Objective.MAX)
    assert as_tuples(p1) == [(4, 0), (3, 0), (2, 0), (2, 1)]
    table.add_path(1, p1)
    p0 = plan_single(inst, 0, table, Objective.MAX)
    assert as_tuples(p0) == [(0, 0), (1, 0), (1, 0), (1, 0), (2, 0), (3, 0), (4, 0)]
    sched = paths_to_schedule(inst, {0: p0, 1: p1})
    report = validate_schedule(inst, sched)
    assert report.feasible and report.makespan == 6


# ------------------------------------------------- paths_to_schedule

def test_paths_to_schedule_pads_and_trims():
    inst = make_instance([(0, 0), (5, 5)], [(1, 0), (5, 5)])
    sched = paths_to_schedule(inst, {
        0: pixels((0, 0), (1, 0), (1, 0)),   # trailing wait gets trimmed
        1: pixels((5, 5)),                   # finished robot padded with waits
    })
    from gridmotion.model import Direction
    assert len(sched.steps) == 1
    assert sched.steps[0].moves == (Direction.EAST, Direction.WAIT)


def test_paths_to_schedule_all_parked_is_empty():
    inst = make_instance([(0, 0)], [(0, 0)])
    sched = paths_to_schedule(inst, {0: pixels((0, 0))})
    assert sched.steps == ()


# ------------------------------------------------- prioritized planning

def test_prioritized_plan_single_robot_meets_its_bound():
    inst = make_instance([(0, 0)], [(3, 2)])
    sched = prioritized_plan(inst, [0])
    report = validate_schedule(inst, sched)
    assert report.feasible
    assert report.makespan == 5 and report.total_distance == 5


def test_prioritized_plan_requires_permutation():
    inst = make_instance([(0, 0), (5, 0)], [(1, 0), (6, 0)])
    for bad in ([0], [0, 0], [1, 2]):
        with pytest.raises(ValueError):
            prioritized_plan(inst, bad)


def test_prioritized_plan_order_decides_train_quality():
    # Two robots in a row both shifting east. Leader-first trains in one
    # step; follower-first has to wait out the unknown leader.
    inst = make_instance([(0, 0), (1, 0)], [(1, 0), (2, 0)])
    front_first = validate_schedule(inst, prioritized_plan(inst, [1, 0]))
    back_first = validate_schedule(inst, prioritized_plan(inst, [0, 1]))
    assert front_first.feasible and front_first.makespan == 1
    assert back_first.feasible and back_first.makespan == 2


def test_prioritized_plan_already_solved_is_empty():
    inst = make_instance([(0, 0), (3, 3)], [(0, 0), (3, 3)])
    sched = prioritized_plan(inst, [0, 1])
    assert sched.steps == ()


def test_prioritized_plan_feasible_and_at_least_optimal_on_rooms():
    solved = 0
    for inst, window in rooms(12):
        optimum = exact_optimum(inst, window)
        sched = prioritized_plan(inst, list(range(inst.n_robots)))
        if sched is None:
            continue
        solved += 1
        report = validate_schedule(inst, sched)
        assert report.feasible
        assert report.makespan >= optimum
    assert solved >= 8


# ---------------------------------------------------------------- solve

def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(restarts=0)
    with pytest.raises(ValueError):
        SolverConfig(horizon_factor=0.5)
    with pytest.raises(ValueError):
        SolverConfig(anneal_cooling=0.0)
    with pytest.raises(ValueError):
        SolverConfig(anneal_cooling=1.5)
    with pytest.raises(ValueError):
        SolverConfig(anneal_iterations=-1)
    with pytest.raises(ValueError):
        SolverConfig(k_replan=0)
    with pytest.raises(ValueError):
        SolverConfig(time_limit=0.0)
    assert SolverConfig(objective="sum").objective is Objective.SUM


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


def test_solve_results_validate_and_dominate_oracle_on_rooms():
    for inst, window in rooms(10):
        optimum = exact_optimum(inst, window)
        res = solve(inst, SolverConfig(objective="max", restarts=4,
                                       anneal_iterations=300, seed=1))
        assert res.success, inst.name
        assert res.report.feasible
        assert res.value >= optimum
        if res.report.stretch_max is not None:
            assert res.report.stretch_max >= 1.0


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
    assert "no feasible schedule" in res.failure_reason
    assert all(t.phase != "final" for t in res.telemetry)


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


def test_solve_stops_growing_the_horizon_after_the_deadline(monkeypatch):
    # every plan fails and every clock reading is 10 s after the last, so
    # the 5 s limit has passed once the first horizon level is done
    calls = []

    def never_plans(ctx, order, objective, horizon):
        calls.append(horizon)
        return None, order[0]

    clock = itertools.count(step=10.0)
    monkeypatch.setattr(solve_module, "_plan_order", never_plans)
    monkeypatch.setattr(solve_module, "time", SimpleNamespace(monotonic=lambda: next(clock)))
    inst = make_instance([(0, 0)], [(5, 0)])
    res = solve(inst, SolverConfig(time_limit=5.0))
    assert len(calls) == 1
    assert not res.success and res.schedule is None
    assert "no feasible schedule" in res.failure_reason


def test_solve_result_success_mirrors_schedule():
    ok = SolveResult(Objective.MAX, None, None, None, [], failure_reason="x")
    assert not ok.success
