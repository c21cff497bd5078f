import random

import pytest

import oracles
from conftest import bounds_of, cell_pixel, make_instance, schedule, seal, step
from gridmotion.model import (
    Direction,
    Pixel,
    Schedule,
    apply_step,
)
from gridmotion.validate import (
    RULE_OBSTACLE,
    RULE_OVERLAP,
    RULE_TRAIN,
    UnreachableTargetError,
    Violation,
    bounds_from_maps,
    cell_id,
    check_step,
    distance_map,
    lower_bounds,
    search_window,
    validate_schedule,
)


def config(*cells):
    return tuple(Pixel(x, y) for x, y in cells)


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
    # robots 3 and 9 meet; the tuple is sorted even where a set of the two is not
    cells = [(0, 10 + i) for i in range(10)]
    cells[3], cells[9] = (0, 0), (2, 0)
    inst = make_instance(cells, [(x + 5, y) for x, y in cells])
    v = check_step(inst, config(*cells), step("...E.....W"))
    assert v == Violation(0, RULE_OVERLAP, (3, 9))


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
    with pytest.raises(ValueError, match="overlapping"):
        check_step(inst, config((1, 0), (1, 0)), step("E."))
    for bad in (("E", "E"), (Direction.EAST, (1, 0)), (Direction.EAST, None)):
        with pytest.raises(ValueError, match="must be Direction"):
            check_step(inst, config((0, 0), (1, 0)), bad)


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
        moves = step("".join(moves))
        verdict = check_step(inst, config(*positions), moves)
        after = [(x + m.value[0], y + m.value[1]) for (x, y), m in zip(positions, moves)]
        legal = oracles.continuous_step_legal(positions, after, obstacles)
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
    assert lower_bounds(inst)[:2] == (0, 0)


def test_single_robot_straight_line():
    inst = make_instance([(0, 0)], [(2, 0)])
    report = validate_schedule(inst, schedule(inst.name, "E", "E"))
    assert report.feasible
    assert (report.makespan, report.total_distance) == (2, 2)
    assert lower_bounds(inst)[:2] == (2, 2)


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


def test_name_mismatch_still_validates():
    inst = make_instance([(0, 0)], [(1, 0)], name="a")
    report = validate_schedule(inst, schedule("b", "E"))
    assert report.feasible


def test_lb_respected_by_every_feasible_schedule():
    inst = make_instance([(0, 0), (1, 0)], [(2, 0), (3, 0)])
    report = validate_schedule(inst, schedule(inst.name, "EE", "EE"))
    assert report.feasible
    lb_makespan, lb_total, _ = lower_bounds(inst)
    assert report.makespan >= lb_makespan
    assert report.total_distance >= lb_total


_DELTA = {"N": (0, 1), "S": (0, -1), "E": (1, 0), "W": (-1, 0), ".": (0, 0)}


def _random_walk(rng):
    """A small instance and a schedule of random steps, mostly legal under
    the continuous oracle; also the index of the first step the oracle
    rejects (None when it rejects none)."""
    side = rng.randint(3, 6)
    cells = [(x, y) for x in range(side) for y in range(side)]
    rng.shuffle(cells)
    n = rng.randint(1, 5)
    starts = cells[:n]
    obstacles = [c for c in cells[n:] if rng.random() < 0.15]
    positions, rows, first_illegal = starts, [], None
    for idx in range(rng.randint(1, 12)):
        for _ in range(20):
            row = "".join(rng.choice("NSEW.") for _ in range(n))
            after = [(x + _DELTA[c][0], y + _DELTA[c][1]) for (x, y), c in zip(positions, row)]
            legal = oracles.continuous_step_legal(positions, after, obstacles)
            if legal or rng.random() < 0.1:
                break
        if not legal and first_illegal is None:
            first_illegal = idx
        positions = after
        rows.append(row)
    reachable = len(set(positions)) == n and not set(positions) & set(obstacles)
    targets = positions if reachable and rng.random() < 0.7 else [(x, y + 50) for x, y in starts]
    return make_instance(starts, targets, obstacles), schedule("walk", *rows), first_illegal


def _step_by_step(inst, sched):
    """The first violation of ``sched``, found one step at a time by
    check_step and apply_step; each step's verdict is also compared with
    the all-pairs ranking of ``oracles.ranked_violation``."""
    config = inst.starts
    for idx, s in enumerate(sched.steps):
        expected = check_step(inst, config, s, step_index=idx)
        ranked = oracles.ranked_violation(config, [m.value for m in s], inst.obstacles)
        assert (expected and (expected.rule, expected.robots)) == ranked, (config, s)
        if expected is not None:
            return expected
        config = apply_step(config, s)
    wrong = tuple(i for i, (p, t) in enumerate(zip(config, inst.targets)) if p != t)
    return Violation(len(sched.steps), "target", wrong) if wrong else None


def test_replay_matches_step_by_step_check_and_oracle():
    rng = random.Random(2103)
    outcomes = {"feasible": 0, "target": 0, "first step": 0, "later step": 0}
    for _ in range(400):
        inst, sched, first_illegal = _random_walk(rng)
        expected = _step_by_step(inst, sched)
        got = validate_schedule(inst, sched).first_violation
        assert got == expected, (inst, sched)
        if got is None or got.rule == "target":
            assert first_illegal is None, (inst, sched)
            outcomes["target" if got else "feasible"] += 1
        else:
            assert got.step == first_illegal, (inst, sched)
            outcomes["later step" if got.step else "first step"] += 1
    assert min(outcomes.values()) >= 20, outcomes



def _dense_walk(rng):
    """Up to 12 robots on a small map with many obstacles, and random steps
    of which about 30% break a rule under the continuous oracle; also the
    index of the first such step (None when there is none)."""
    side = rng.randint(3, 5)
    cells = [(x, y) for x in range(side) for y in range(side)]
    rng.shuffle(cells)
    n = rng.randint(2, min(12, len(cells) - 1))
    starts = cells[:n]
    obstacles = [c for c in cells[n:] if rng.random() < 0.4]
    positions, rows, first_illegal = starts, [], None
    for idx in range(rng.randint(1, 8)):
        want_legal = rng.random() >= 0.3
        for _ in range(40):
            row = "".join(rng.choice("NSEW..") for _ in range(n))
            after = [(x + _DELTA[c][0], y + _DELTA[c][1]) for (x, y), c in zip(positions, row)]
            legal = oracles.continuous_step_legal(positions, after, obstacles)
            if legal == want_legal:
                break
        if not legal and first_illegal is None:
            first_illegal = idx
        positions = after
        rows.append(row)
    reachable = len(set(positions)) == n and not set(positions) & set(obstacles)
    targets = positions if reachable and rng.random() < 0.7 else [(x, y + 50) for x, y in starts]
    return make_instance(starts, targets, obstacles), schedule("dense", *rows), first_illegal


def test_dense_replay_matches_step_by_step_check_and_oracle():
    rng = random.Random(1903)
    outcomes = dict.fromkeys(("feasible", "target", RULE_OBSTACLE, RULE_OVERLAP,
                              RULE_TRAIN, "first robot waits"), 0)
    for _ in range(600):
        inst, sched, first_illegal = _dense_walk(rng)
        got = validate_schedule(inst, sched).first_violation
        assert got == _step_by_step(inst, sched), (inst, sched)
        if got is None or got.rule == "target":
            assert first_illegal is None, (inst, sched)
            outcomes["target" if got else "feasible"] += 1
        else:
            assert got.step == first_illegal, (inst, sched)
            outcomes[got.rule] += 1
            outcomes["first robot waits"] += sched.steps[got.step][got.robots[0]] is Direction.WAIT
    assert min(outcomes.values()) >= 20, outcomes


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
            tuple(Direction((-m.value[0], -m.value[1])) for m in s)
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
    with pytest.raises(UnreachableTargetError):
        lower_bounds(inst)


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


def read(field, window, pixel):
    """A distance field's entry for ``pixel``, None where it reads -1."""
    d = field[cell_id(window, pixel)]
    return d if d >= 0 else None


def test_cell_ids_round_trip_over_the_padded_frame():
    # the frame spans the window plus its ring, here at negative coordinates
    window = (-3, -5, 2, -1)
    frame = [(x, y) for x in range(-4, 4) for y in range(-6, 1)]
    ids = [cell_id(window, p) for p in frame]
    assert ids == list(range(len(frame)))
    assert [cell_pixel(window, c) for c in ids] == frame
    stride = -1 - (-5) + 3
    c = cell_id(window, (0, -3))
    assert [cell_pixel(window, c + d) for d in (1, -1, stride, -stride)] == [
        (0, -2), (0, -4), (1, -3), (-1, -3)]


def test_distance_map_ring_and_obstacles_are_walls():
    window = (-2, -1, 1, 1)
    obstacles = frozenset({Pixel(0, 0), Pixel(5, 5)})   # (5, 5) lies outside
    field = distance_map(obstacles, window, Pixel(-2, -1))
    assert len(field) == (1 - (-2) + 3) * (1 - (-1) + 3)
    for x in range(-3, 3):
        for y in range(-2, 3):
            inside = -2 <= x <= 1 and -1 <= y <= 1
            if not inside or (x, y) == (0, 0):
                assert field[cell_id(window, (x, y))] == -1, (x, y)
            else:
                assert read(field, window, (x, y)) == abs(x + 2) + abs(y + 1), (x, y)
    # a free cell cut off from the target reads -1 too: the two walls and
    # the ring close off the corner (0, 0)
    walled = frozenset({Pixel(1, 0), Pixel(0, 1)})
    assert read(distance_map(walled, (0, 0, 2, 2), Pixel(0, 0)), (0, 0, 2, 2),
                (2, 2)) is None


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
                    assert read(dist, window, (x, y)) == expected, (inst, (x, y))


def test_lower_bounds_agree_with_margin_one_distance_maps():
    # lower_bounds searches start to target; the solver floods each target's
    # map. Both must give the same bounds, and fail on the same robot.
    rng = random.Random(2718)
    via_ring = unreachable = 0
    for _ in range(150):
        side = rng.randint(3, 8)
        cells = [(x, y) for x in range(side) for y in range(side)]
        rng.shuffle(cells)
        n = rng.randint(1, 3)
        starts, targets = cells[:n], cells[n:2 * n]
        density = rng.uniform(0.2, 0.6)
        # at least one obstacle, or lower_bounds takes its Manhattan shortcut
        obstacles = [c for c in cells[2 * n:] if rng.random() < density] or [cells[-1]]
        inst = make_instance(starts, targets, obstacles)
        window = search_window(inst)
        maps = [distance_map(inst.obstacles, window, t) for t in inst.targets]
        try:
            expected = bounds_from_maps(inst, window, maps)
        except UnreachableTargetError as err:
            unreachable += 1
            with pytest.raises(UnreachableTargetError) as got:
                lower_bounds(inst)
            assert got.value.robot == err.robot and str(got.value) == str(err)
            continue
        assert lower_bounds(inst) == expected, inst
        x0, y0, x1, y1 = window
        tight = (x0 + 1, y0 + 1, x1 - 1, y1 - 1)   # the bounding box itself
        inside = [distance_map(inst.obstacles, tight, t) for t in inst.targets]
        via_ring += any(read(m, tight, s) != d
                        for s, m, d in zip(inst.starts, inside, expected[2]))
    assert via_ring >= 5 and unreachable >= 5


def test_search_window_contains_everything_with_margin():
    inst = make_instance([(0, 0)], [(9, 3)], [(4, 4)])
    # the bounding box (0, 0, 9, 4) of starts, targets and obstacles,
    # inflated by one cell
    assert search_window(inst) == (-1, -1, 10, 5)


# ---------------------------------------------------------------------------
# two-robot swap, solved exactly by the independent joint search


def configurations_to_schedule(name, path):
    steps = []
    for before, after in zip(path, path[1:]):
        moves = tuple(Direction((ax - bx, ay - by))
                      for (bx, by), (ax, ay) in zip(before, after))
        steps.append(moves)
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
