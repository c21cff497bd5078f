"""Acceptance gate for the whole toolkit.

Each test here pins one externally meaningful guarantee end to end, at its
stated tolerance, and prints a PASS line with the measured numbers. Module
tests cover the fine-grained behavior; this file is the contract.
"""

import itertools
import random
import time

import numpy as np
from scipy.spatial.distance import pdist

import oracles
from conftest import make_instance, schedule
from test_solve import exact_optimum, rooms
from gridmotion.evaluate import score_suites
from gridmotion.formats import emit_instance
from gridmotion.generate import (
    GeneratorParams,
    InstanceFeatures,
    generate,
    select_diverse,
)
from gridmotion.model import Configuration, Direction, Instance, Step
from gridmotion.solve import SolverConfig, solve
from gridmotion.validate import (
    RULE_OBSTACLE,
    RULE_TRAIN,
    check_step,
    lower_bounds,
    validate_schedule,
)

_MOVES = (Direction.NORTH, Direction.SOUTH, Direction.EAST, Direction.WEST,
          Direction.WAIT)

TRAIN_PAIR = make_instance([(0, 0), (1, 0)], [(1, 0), (2, 0)], name="pair")


def test_step_checker_matches_continuous_overlap_oracle():
    # 10^4 random (configuration, step) pairs on grids up to 6x6 with up to
    # 6 robots: the discrete step rules must agree exactly with an oracle
    # that interpolates unit squares continuously and checks overlap at
    # t = 0, 1/2, 1.
    rng = random.Random(20210)
    t0 = time.perf_counter()
    pairs = 0
    disagreements = []
    while pairs < 10_000:
        w, h = rng.randint(2, 6), rng.randint(2, 6)
        cells = [(x, y) for x in range(w) for y in range(h)]
        obstacles = {c for c in cells if rng.random() < 0.15}
        free = [c for c in cells if c not in obstacles]
        if not free:
            continue
        n = rng.randint(1, min(6, len(free)))
        positions = rng.sample(free, n)
        inst = Instance(name="trial", starts=tuple(positions),
                        targets=tuple(positions), obstacles=frozenset(obstacles))
        step = Step(tuple(rng.choice(_MOVES) for _ in range(n)))
        verdict = check_step(inst, Configuration(tuple(positions)), step) is None
        after = [(p[0] + m.value[0], p[1] + m.value[1])
                 for p, m in zip(positions, step.moves)]
        if verdict != oracles.continuous_step_legal(positions, after, obstacles):
            disagreements.append((positions, step))
        pairs += 1
    elapsed = time.perf_counter() - t0
    assert disagreements == []
    assert elapsed < 10.0
    print(f"PASS step-oracle: {pairs} pairs, 0 disagreements, {elapsed:.2f}s")


def test_motion_rule_verdicts_exact():
    open_pair = make_instance([(0, 0), (1, 0)], [(0, 0), (1, 0)])
    config = Configuration(((0, 0), (1, 0)))

    chain = check_step(open_pair, config, Step((Direction.EAST, Direction.EAST)))
    assert chain is None

    follow_in = check_step(open_pair, config,
                           Step((Direction.EAST, Direction.NORTH)))
    assert follow_in is not None and follow_in.rule == RULE_TRAIN

    swap = check_step(open_pair, config, Step((Direction.EAST, Direction.WEST)))
    assert swap is not None and swap.rule == RULE_TRAIN

    walled = make_instance([(0, 0)], [(0, 0)], [(1, 0)])
    onto = check_step(walled, Configuration(((0, 0),)), Step((Direction.EAST,)))
    assert onto is not None and onto.rule == RULE_OBSTACLE
    print("PASS motion-rules: chain legal, follow-in/swap/obstacle illegal")


def test_solver_tracks_exhaustive_optimum_on_micro_suite():
    t0 = time.perf_counter()
    within_factor = 0
    suite = rooms(20)
    for inst, window in suite:
        optimum = exact_optimum(inst, window)
        res = solve(inst, SolverConfig(objective="max", restarts=4,
                                       anneal_iterations=400, seed=1))
        assert res.success, f"{inst.name} not solved"
        assert res.report.feasible
        assert res.value >= optimum, f"{inst.name} beat the optimum"
        if optimum == 0:
            within_factor += int(res.value == 0)
        elif res.value <= 1.5 * optimum:
            within_factor += 1
    elapsed = time.perf_counter() - t0
    assert within_factor >= 18
    assert elapsed < 60.0
    print(f"PASS micro-suite: 20/20 feasible and >= optimum, "
          f"{within_factor}/20 within 1.5x, {elapsed:.2f}s")


def test_two_robot_train_reaches_both_lower_bounds():
    lb_makespan, lb_total, _ = lower_bounds(TRAIN_PAIR)
    hand = schedule("pair", "EE")
    report = validate_schedule(TRAIN_PAIR, hand)
    assert report.feasible
    assert report.makespan == lb_makespan == 1
    assert report.total_distance == lb_total == 2

    by_makespan = solve(TRAIN_PAIR, SolverConfig(objective="max"))
    by_total = solve(TRAIN_PAIR, SolverConfig(objective="sum"))
    assert by_makespan.success and by_makespan.value == lb_makespan
    assert by_total.success and by_total.value == lb_total
    print("PASS train-pair: hand schedule and solver both meet lb_makespan=1 "
          "and lb_total=2")


def test_generator_batch_feasibility_and_reproducibility():
    t0 = time.perf_counter()
    grid = list(itertools.product(((8, 8), (12, 10)), (0.05, 0.2), (0, 5),
                                  (0, 2)))
    batch = []
    for seed in range(7):
        for (w, h), density, obstacle_count, cluster_count in grid:
            if len(batch) >= 100:
                break
            batch.append(GeneratorParams(
                map_width=w, map_height=h, density=density,
                obstacle_count=obstacle_count, obstacle_size_mean=2.5,
                obstacle_size_stddev=1.0, cluster_count=cluster_count,
                cluster_size_mean=3.0, cluster_size_stddev=1.0, seed=seed))
    assert len(batch) == 100

    for params in batch:
        result = generate(params)
        inst = result.instance
        # structural invariants
        assert len(inst.starts) == len(inst.targets)
        assert len(set(inst.starts)) == len(inst.starts)
        assert len(set(inst.targets)) == len(inst.targets)
        assert not (set(inst.starts) | set(inst.targets)) & inst.obstacles
        # no free pocket is walled off from the exterior
        enclosed = oracles.scipy_enclosed_cells(inst.obstacles,
                                                params.map_width,
                                                params.map_height)
        assert enclosed == set()
        # robot count is exact
        free_area = params.map_width * params.map_height - len(inst.obstacles)
        assert result.features.free_area == free_area
        assert inst.n_robots == round(params.density * free_area)
        # regeneration is byte-identical
        again = generate(params)
        assert emit_instance(again.instance) == emit_instance(inst)
    elapsed = time.perf_counter() - t0
    print(f"PASS generator-batch: 100 instances feasible, exact robot counts, "
          f"byte-identical regeneration, {elapsed:.2f}s")


def _synthetic_candidates(seed: int) -> list[InstanceFeatures]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(200):
        volume = int(rng.integers(5, 60)) * int(rng.integers(5, 60))
        free = int(rng.integers(max(1, volume // 2), volume + 1))
        n = int(rng.integers(1, 400))
        n_clusters = int(rng.integers(0, 9))
        clustered = int(rng.integers(0, n + 1)) if n_clusters else 0
        out.append(InstanceFeatures(
            n_robots=n, density=n / free, n_clusters=n_clusters,
            n_clustered_robots=clustered, volume=volume, free_area=free,
            cluster_info_known=True))
    return out


def _min_max_normalized(candidates) -> np.ndarray:
    matrix = np.array([c.vector() for c in candidates], dtype=float)
    lo, hi = matrix.min(axis=0), matrix.max(axis=0)
    keep = hi > lo
    return (matrix[:, keep] - lo[keep]) / (hi[keep] - lo[keep])


def test_diverse_selection_beats_random_subsets():
    for stream in (0, 1, 2):
        candidates = _synthetic_candidates(stream)
        norm = _min_max_normalized(candidates)
        picks = select_diverse(candidates, 20)
        assert len(set(picks)) == 20
        selected_min = pdist(norm[picks]).min()

        rng = np.random.default_rng(1000 + stream)
        baseline = []
        for _ in range(100):
            idx = rng.choice(len(candidates), size=20, replace=False)
            baseline.append(pdist(norm[idx]).min())
        median = float(np.median(baseline))
        assert selected_min >= median, (stream, selected_min, median)
        print(f"PASS dispersion[{stream}]: selected min {selected_min:.3f} "
              f">= random median {median:.3f}")


def test_scoring_formula_exactness():
    far = make_instance([(0, 0)], [(10, 0)], name="far")
    straight = schedule("far", *["E"] * 10)                      # value 10
    doubled = schedule("far", *(["W", "E"] * 5 + ["E"] * 10))    # value 20
    short = schedule("far", *["E"] * 9)                          # invalid

    for objective in ("max", "sum"):
        report = score_suites([far], {"lead": [straight], "trail": [doubled],
                                      "broke": [short]}, objective)
        by_team = {r.team: r for r in report.rows}
        assert by_team["lead"].value == 10 and by_team["lead"].score == 1.0
        assert by_team["trail"].value == 20 and by_team["trail"].score == 0.5
        assert by_team["broke"].value is None and by_team["broke"].score == 0.0
        assert all(0.0 <= t <= report.instance_count
                   for t in report.totals.values())
        best = min(r.value for r in report.rows if r.value is not None)
        winners = [r for r in report.rows if r.value == best]
        assert all(r.score == 1.0 for r in winners)
    print("PASS scoring: 10/10 -> 1.0, 20/10 -> 0.5, invalid -> 0.0, "
          "totals bounded, best scores 1")


def test_hundred_robot_instance_solved_within_budget():
    # 20x20 map, 44 obstacle pixels, exactly 100 robots (density chosen so
    # round(density * free_area) lands on 100 for this seed).
    params = GeneratorParams(map_width=20, map_height=20, density=100 / 356,
                             obstacle_count=6, obstacle_size_mean=3.0,
                             obstacle_size_stddev=1.0, seed=3)
    inst = generate(params).instance
    assert inst.n_robots == 100
    assert len(inst.obstacles) > 0

    t0 = time.perf_counter()
    res = solve(inst, SolverConfig(objective="max", restarts=2,
                                   anneal_iterations=2000, seed=0,
                                   time_limit=50.0))
    elapsed = time.perf_counter() - t0
    assert res.success, res.failure_reason
    assert res.report.feasible
    assert res.report.stretch_max is not None
    assert res.report.stretch_max <= 4.0
    assert elapsed < 60.0
    print(f"PASS scale: 100 robots, makespan {res.value}, "
          f"stretch_max {res.report.stretch_max:.3f}, {elapsed:.1f}s")


def test_stretch_factors_never_below_one():
    reports = []
    for inst, _ in rooms(8):
        for objective in ("max", "sum"):
            res = solve(inst, SolverConfig(objective=objective, restarts=4,
                                           anneal_iterations=200, seed=2))
            if res.success:
                reports.append(res.report)
    reports.append(validate_schedule(TRAIN_PAIR, schedule("pair", "EE")))

    checked = 0
    for report in reports:
        assert report.feasible
        if report.stretch_max is not None:
            assert report.stretch_max >= 1.0
            assert report.stretch_sum >= 1.0
            checked += 1
    assert checked >= 10
    print(f"PASS stretch-sanity: {checked} feasible reports, all stretches >= 1")


def test_lower_bounds_insensitive_to_window_growth():
    # the default margin-1 search window provably suffices; widening it to
    # margin 60 must not change any bound
    cases = [inst for inst, _ in rooms(10)]
    rng = random.Random(77)
    for _ in range(10):
        n = rng.randint(1, 4)
        cells = [(x, y) for x in range(6) for y in range(6)]
        starts = rng.sample(cells, n)
        targets = rng.sample(cells, n)
        cases.append(make_instance(starts, targets))
    for inst in cases:
        assert lower_bounds(inst) == lower_bounds(inst, margin=60)
    print(f"PASS window-margin: bounds stable for {len(cases)} instances")
