import random

import pytest

import oracles
from conftest import bounds_of, make_instance, schedule, seal, step
from gridmotion.model import (
    Configuration,
    Direction,
    Pixel,
    Schedule,
    Step,
    apply_step,
)
from gridmotion.validate import (
    RULE_OBSTACLE,
    RULE_OVERLAP,
    RULE_TRAIN,
    UnreachableTargetError,
    check_step,
    distance_map,
    lower_bounds,
    search_window,
    validate_schedule,
)


def config(*cells):
    return Configuration(tuple(Pixel(x, y) for x, y in cells))


# ---------------------------------------------------------------------------
# check_step fixtures


def test_east_east_chain_is_legal():
    inst = make_instance([(0, 0), (1, 0)], [(5, 0), (6, 0)])
    assert check_step(inst, config((0, 0), (1, 0)), step("EE")) is None


def test_perpendicular_follow_in_is_train_violation():
    inst = make_instance([(0, 0), (1, 0)], [(5, 0), (6, 0)])
    v = check_step(inst, config((0, 0), (1, 0)), step("EN"))
    assert v is not None and v.rule == RULE_TRAIN
    assert v.robots == (0, 1)


def test_swap_is_train_violation():
    inst = make_instance([(0, 0), (1, 0)], [(5, 0), (6, 0)])
    v = check_step(inst, config((0, 0), (1, 0)), step("EW"))
    assert v is not None and v.rule == RULE_TRAIN


def test_move_onto_obstacle_is_r1():
    inst = make_instance([(0, 0)], [(0, 5)], [(1, 0)])
    v = check_step(inst, config((0, 0)), step("E"))
    assert v is not None and v.rule == RULE_OBSTACLE
    assert v.robots == (0,)


def test_shared_destination_is_r2():
    inst = make_instance([(0, 0), (2, 0)], [(5, 0), (6, 0)])
    v = check_step(inst, config((0, 0), (2, 0)), step("EW"))
    assert v is not None and v.rule == RULE_OVERLAP
    assert v.robots == (0, 1)


def test_moving_into_waiting_robot_reports_r2():
    # shares a destination with the waiting robot AND breaks the train
    # rule; the overlap rule wins the tie for the lowest robot index
    inst = make_instance([(0, 0), (1, 0)], [(5, 0), (6, 0)])
    v = check_step(inst, config((0, 0), (1, 0)), step("E."))
    assert v is not None and v.rule == RULE_OVERLAP
    assert v.robots == (0, 1)


def test_first_violation_prefers_lowest_robot_then_rule_rank():
    # robot 0 hits an obstacle; robots 1,2 share a destination
    inst = make_instance([(0, 0), (3, 0), (5, 0)], [(0, 5), (3, 5), (5, 5)],
                         [(1, 0)])
    v = check_step(inst, config((0, 0), (3, 0), (5, 0)), step("EEW"))
    assert v is not None
    assert v.rule == RULE_OBSTACLE and v.robots == (0,)


def test_check_step_rejects_inconsistent_inputs():
    inst = make_instance([(0, 0), (1, 0)], [(5, 0), (6, 0)], [(3, 3)])
    with pytest.raises(ValueError):
        check_step(inst, config((0, 0), (1, 0)), step("E"))
    with pytest.raises(ValueError):
        check_step(inst, config((3, 3), (1, 0)), step("EE"))  # on obstacle


def test_touching_squares_may_stay_touching():
    inst = make_instance([(0, 0), (1, 0)], [(5, 0), (6, 0)])
    assert check_step(inst, config((0, 0), (1, 0)), step("..")) is None
    assert check_step(inst, config((0, 0), (1, 0)), step(".E")) is None
    assert check_step(inst, config((0, 0), (1, 0)), step("NE")) is None


# ---------------------------------------------------------------------------
# equivalence with the continuous-motion oracle


def _random_pair(rng):
    side = rng.randint(2, 6)
    n = rng.randint(1, min(6, side * side - 1))
    cells = [(x, y) for x in range(side) for y in range(side)]
    rng.shuffle(cells)
    positions = cells[:n]
    obstacles = [c for c in cells[n:] if rng.random() < 0.15]
    moves = [rng.choice("NSEW.") for _ in range(n)]
    return positions, obstacles, moves


def test_check_step_matches_continuous_oracle():
    rng = random.Random(99)
    checked = 0
    for _ in range(1500):
        positions, obstacles, moves = _random_pair(rng)
        n = len(positions)
        inst = make_instance(positions, [(x, y + 50) for x, y in positions],
                             obstacles)
        verdict = check_step(inst, config(*positions), step("".join(moves)))
        after = [Pixel(x, y).translated(Direction.from_letter(m) if m != "."
                                        else Direction.WAIT)
                 for (x, y), m in zip(positions, moves)]
        legal = oracles.continuous_step_legal(positions, [(p.x, p.y) for p in after],
                                              obstacles)
        assert (verdict is None) == legal, (positions, obstacles, moves)
        checked += 1
    assert checked == 1500


# ---------------------------------------------------------------------------
# validate_schedule


def test_already_solved_empty_schedule():
    inst = make_instance([(0, 0), (4, 4)], [(0, 0), (4, 4)])
    report = validate_schedule(inst, Schedule(instance_name=inst.name, steps=()))
    assert report.feasible
    assert (report.makespan, report.total_distance) == (0, 0)
    assert report.first_violation is None
    assert report.lb_makespan == 0 and report.lb_total == 0
    assert report.stretch_max is None and report.stretch_sum is None


def test_single_robot_straight_line():
    inst = make_instance([(0, 0)], [(2, 0)])
    report = validate_schedule(inst, schedule(inst.name, "E", "E"))
    assert report.feasible
    assert (report.makespan, report.total_distance) == (2, 2)
    assert report.lb_makespan == 2 and report.lb_total == 2
    assert report.stretch_max == 1.0 and report.stretch_sum == 1.0


def test_wrong_final_position_reports_target_rule():
    inst = make_instance([(0, 0)], [(2, 0)])
    report = validate_schedule(inst, schedule(inst.name, "E"))
    assert not report.feasible
    v = report.first_violation
    assert v.rule == "target" and v.step == 1 and v.robots == (0,)
    # objectives still populated for infeasible schedules
    assert report.makespan == 1 and report.total_distance == 1


def test_violation_step_index_reported():
    inst = make_instance([(0, 0), (1, 0)], [(0, 2), (1, 2)])
    report = validate_schedule(inst, schedule(inst.name, "NN", "EW"))
    assert not report.feasible
    assert report.first_violation.step == 1
    assert report.first_violation.rule == RULE_TRAIN


def test_name_mismatch_warns():
    inst = make_instance([(0, 0)], [(1, 0)], name="a")
    with pytest.warns(UserWarning):
        report = validate_schedule(inst, schedule("b", "E"))
    assert report.feasible


def test_lb_respected_by_every_feasible_schedule():
    inst = make_instance([(0, 0), (1, 0)], [(2, 0), (3, 0)])
    report = validate_schedule(inst, schedule(inst.name, "EE", "EE"))
    assert report.feasible
    assert report.makespan >= report.lb_makespan
    assert report.total_distance >= report.lb_total


def test_reversal_property():
    rng = random.Random(4242)
    from gridmotion.solve import SolverConfig, solve

    for trial in range(6):
        side = 5
        cells = [(x, y) for x in range(side) for y in range(side)]
        rng.shuffle(cells)
        n = rng.randint(2, 4)
        starts, targets = cells[:n], cells[n:2 * n]
        obstacles = [c for c in cells[2 * n:] if rng.random() < 0.1]
        inst = make_instance(starts, targets, obstacles, name=f"rev{trial}")
        result = solve(inst, SolverConfig(restarts=2, anneal_iterations=50,
                                          seed=trial))
        assert result.success
        fwd = result.report
        reversed_steps = tuple(
            Step(tuple(m.opposite for m in s.moves))
            for s in reversed(result.schedule.steps))
        swapped = make_instance(targets, starts, obstacles, name=f"rev{trial}")
        back = validate_schedule(
            swapped, Schedule(instance_name=swapped.name, steps=reversed_steps))
        assert back.feasible
        assert back.makespan == fwd.makespan
        assert back.total_distance == fwd.total_distance


# ---------------------------------------------------------------------------
# lower bounds


def test_lower_bounds_identity_and_manhattan():
    inst = make_instance([(0, 0)], [(0, 0)])
    assert lower_bounds(inst) == (0, 0, (0,))
    inst = make_instance([(0, 0)], [(3, 4)])
    assert lower_bounds(inst) == (7, 7, (7,))


def test_lower_bounds_detour_matches_bfs_oracle():
    obstacles = [(1, -1), (1, 0), (1, 1)]
    inst = make_instance([(0, 0)], [(2, 0)], obstacles)
    oracle = oracles.grid_bfs_distance((0, 0), (2, 0), obstacles,
                                       (-10, -10, 12, 12))
    assert oracle == 6
    assert lower_bounds(inst) == (6, 6, (6,))


def test_lower_bounds_route_outside_bounding_box():
    # wall spanning the full bounding box: the shortest path must leave it
    obstacles = [(1, y) for y in range(0, 3)]
    inst = make_instance([(0, 0)], [(2, 0)], obstacles)
    oracle = oracles.grid_bfs_distance((0, 0), (2, 0), obstacles,
                                       (-10, -10, 12, 12))
    assert lower_bounds(inst)[0] == oracle == 4


def test_lower_bounds_unreachable_target():
    free = [(0, 0)]
    ring = seal(free)
    inst = make_instance([(5, 5)], [(0, 0)], ring)
    with pytest.raises(UnreachableTargetError) as err:
        lower_bounds(inst)
    assert err.value.robot == 0


def test_validate_schedule_with_unreachable_lb():
    free = [(0, 0)]
    ring = seal(free)
    inst = make_instance([(5, 5)], [(0, 0)], ring)
    report = validate_schedule(inst, Schedule(instance_name=inst.name, steps=()))
    assert not report.feasible
    assert report.lb_makespan is None and report.lb_total is None
    assert report.stretch_max is None and report.stretch_sum is None


def test_lower_bounds_random_against_oracle():
    rng = random.Random(31337)
    for _ in range(40):
        side = rng.randint(3, 7)
        cells = [(x, y) for x in range(side) for y in range(side)]
        rng.shuffle(cells)
        obstacles = [c for c in cells[3:] if rng.random() < 0.25]
        inst = make_instance(cells[:1], cells[1:2], obstacles)
        expected = oracles.grid_bfs_distance(cells[0], cells[1], obstacles,
                                             (-25, -25, side + 25, side + 25))
        if expected is None:
            with pytest.raises(UnreachableTargetError):
                lower_bounds(inst)
        else:
            assert lower_bounds(inst)[0] == expected


def test_distance_map_on_margin_one_window_matches_wide_bfs():
    # the planner's heuristic: every free cell of the default window must
    # carry its true grid distance, as measured with room to detour far out;
    # these maps hold 36 walled-off cells and 18 whose shortest path leaves
    # the bounding box
    rng = random.Random(4242)
    for _ in range(60):
        side = rng.randint(3, 7)
        cells = [(x, y) for x in range(side) for y in range(side)]
        rng.shuffle(cells)
        density = rng.uniform(0.2, 0.6)
        obstacles = [c for c in cells[2:] if rng.random() < density]
        inst = make_instance(cells[:1], cells[1:2], obstacles)
        x0, y0, x1, y1 = window = search_window(inst)
        dist = distance_map(inst.obstacles, window, inst.targets[0])
        wide = (x0 - 59, y0 - 59, x1 + 59, y1 + 59)
        for x in range(x0, x1 + 1):
            for y in range(y0, y1 + 1):
                if (x, y) not in inst.obstacles:
                    expected = oracles.grid_bfs_distance(cells[1], (x, y), obstacles, wide)
                    assert dist.get((x, y)) == expected, (inst, (x, y))


def test_search_window_contains_everything_with_margin():
    inst = make_instance([(0, 0)], [(9, 3)], [(4, 4)])
    xmin, ymin, xmax, ymax = search_window(inst)
    assert xmin < 0 and ymin < 0 and xmax > 9 and ymax > 4
    forced = search_window(inst, margin=30)
    assert forced == (-30, -30, 39, 34)


# ---------------------------------------------------------------------------
# two-robot swap, solved exactly by the independent joint search


def configurations_to_schedule(name, path):
    steps = []
    for before, after in zip(path, path[1:]):
        moves = tuple(Direction.between(Pixel(*b), Pixel(*a))
                      for b, a in zip(before, after))
        steps.append(Step(moves))
    return Schedule(instance_name=name, steps=tuple(steps))


def test_swap_on_empty_grid_optimum_is_four():
    starts = [(0, 0), (2, 0)]
    targets = [(2, 0), (0, 0)]
    makespan, path = oracles.joint_optimal(starts, targets, (), (-2, -3, 4, 3))
    assert makespan == 4
    inst = make_instance(starts, targets, name="swap2")
    report = validate_schedule(inst, configurations_to_schedule("swap2", path))
    assert report.feasible
    assert report.makespan == 4


def test_corridor_bay_swap_needs_six_steps():
    # a three-cell corridor with one bay above its middle: one robot parks
    # in the bay while the other passes
    free = [(0, 0), (1, 0), (2, 0), (1, 1)]
    starts = [(0, 0), (2, 0)]
    targets = [(2, 0), (0, 0)]
    makespan, path = oracles.joint_optimal(starts, targets, seal(free), (0, 0, 2, 1))
    assert makespan == 6
    inst = make_instance(starts, targets, seal(free), name="bay")
    report = validate_schedule(inst, configurations_to_schedule("bay", path))
    assert report.feasible and report.makespan == 6
