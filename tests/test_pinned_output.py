"""Pinned output of the generator, diverse selection and the SVG renderer.

Each pin is the sha1 of the bytes a function writes for a fixed input (or
the value itself where it is short), so a change to the generator's draw
order, a feature value, a pick or a single SVG byte shows here."""

import hashlib
import random

import numpy as np
import pytest

from conftest import make_instance, schedule
from gridmotion.formats import emit_instance, emit_solution, parse_solution
from gridmotion.generate import (GenerationError, GeneratorParams, InstanceFeatures,
                                 generate, select_diverse, truncated_normal_int)
from gridmotion.render import render_svg
from gridmotion.validate import validate_schedule

U = "uniform"
W = "weights:w.pgm"
WEIGHT_MAP = "P2\n4 3 9\n0 1 2 3\n4 0 0 5\n9 0 1 0\n"   # zero weight on 5 of 12 cells


def sha1(text: str) -> str:
    return hashlib.sha1(text.encode()).hexdigest()


def params(w, h, density, obstacles, clusters, stddev, starts, targets, seed):
    return GeneratorParams(w, h, density, starts, targets, obstacle_count=obstacles,
                           obstacle_size_stddev=stddev, cluster_count=clusters,
                           cluster_size_stddev=stddev, seed=seed)


# (width, height, density, obstacle_count, cluster_count, size stddev of
# obstacles and clusters, start and target distribution, seed)
#   -> sha1 of emit_instance plus repr of the features
PINNED_INSTANCES = {
    (8, 6, 0.2, 0, 0, 1.0, U, U, 0):
        "b1bf65cb995eda9d4af06c15f739f053e7a41f36",
    (8, 6, 0.35, 3, 1, 0.0, U, U, 1):
        "874d8d588d341aceccd0b120d01f2cd478ba56bf",
    (10, 7, 0.3, 4, 3, 1.0, U, W, 2):
        "01fb83e6a1f538c9e7e872b2d124094f4449fc96",
    (12, 9, 0.2, 6, 3, 0.0, W, U, 0):
        "4023e0e9b0aff01e7ef89737caf1ecf5030c4d8f",
    (6, 5, 0.3, 2, 3, 1.0, W, W, 1):
        "d73f786f27f479e6700568b2d7afaff228f76a8c",
    (20, 14, 0.05, 8, 1, 1.0, U, U, 0):
        "67bdb9f4a00451da926ff41802d4ecb5b2783961",
    (3, 3, 0.6, 0, 3, 1.0, U, U, 2):
        "57d6ffcba492a45d9672bc6d20cb08b83f6272e3",
    # its three clusters need 3, 3 and 4 window sizes
    (6, 5, 0.9, 6, 3, 3.0, U, U, 0):
        "ce1b7696c5086f88b808f78c16bb09a335341d0e",
    (64, 64, 0.9, 20, 6, 3.0, U, U, 0):
        "7d37e13a4a46202f3aa4e9d15a7e1fc9fbe9fb6a",
    (16, 12, 0.5, 3, 3, 3.0, U, W, 1):
        "4798648220ac86ba96d364862f40f5a441a20d34",
}


def test_generated_instances_are_pinned(tmp_path):
    (tmp_path / "w.pgm").write_text(WEIGHT_MAP)
    for key, expected in PINNED_INSTANCES.items():
        result = generate(params(*key), base_dir=tmp_path)
        assert sha1(emit_instance(result.instance) + repr(result.features)) == expected, key


def test_reseeded_instance_is_pinned(monkeypatch):
    # the obstacles of the first three attempts cover the whole map, so the
    # instance comes from attempt 3
    attempts = []
    real_default_rng = np.random.default_rng

    def recording(seed):
        attempts.append(seed[1])
        return real_default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", recording)
    result = generate(params(5, 3, 0.5, 10, 3, 1.0, U, U, 0))
    assert attempts == [0, 1, 2, 3]
    assert (sha1(emit_instance(result.instance) + repr(result.features))
            == "32a74dfd508bdb20e4b0974950236292929d69e9")


def test_generation_failure_message_is_pinned(tmp_path):
    (tmp_path / "w.pgm").write_text(WEIGHT_MAP)
    # one cluster of robots fits; the rest do not fit the weighted target support
    with pytest.raises(GenerationError) as failure:
        generate(params(8, 6, 0.7, 0, 1, 1.0, U, W, 0), base_dir=tmp_path)
    assert str(failure.value) == ("generation failed after 16 attempts for seed 0: "
                                  "cannot place 32 positions, only 26 eligible pixels")


def test_truncated_normal_samples_are_pinned():
    rng = np.random.default_rng(11)
    samples = [[truncated_normal_int(rng, mean, stddev, lo, hi) for _ in range(4)]
               for mean in (-5.0, 2.5, 4.2, 100.0)
               for stddev in (0.0, 0.1, 1.0, 50.0)
               for lo, hi in ((1, 3), (1, 10), (3, 8))]
    assert sha1(repr(samples)) == "46e4659dc400435250a9ab8adc21cb5b274940a6"


def test_diverse_picks_are_pinned():
    varied = [InstanceFeatures(n, n / (100 - o), c, min(n, 3 * c), 100, 100 - o)
              for n, o, c in ((5, 0, 0), (12, 9, 1), (30, 4, 3), (12, 9, 1), (7, 20, 2),
                              (30, 0, 0), (18, 13, 3), (2, 2, 1))]
    constant = [InstanceFeatures(4, 0.25, 1, 2, 20, 16)] * 5
    picks = {k: select_diverse(varied, k) for k in range(len(varied) + 1)}
    assert picks == {0: [], 1: [2], 2: [2, 0], 3: [2, 0, 4], 4: [2, 0, 4, 5],
                     5: [2, 0, 4, 5, 1], 6: [2, 0, 4, 5, 1, 6],
                     7: [2, 0, 4, 5, 1, 6, 7], 8: [2, 0, 4, 5, 1, 6, 7, 3]}
    # no feature varies: every distance is 0, so the picks run in index order
    assert [select_diverse(constant, k) for k in range(6)] == [
        [], [0], [0, 1], [0, 1, 2], [0, 1, 2, 3], [0, 1, 2, 3, 4]]


# case -> (sha1 with frame_every 1, sha1 with frame_every 3)
PINNED_SVGS = {
    "instance": ("ae477b0c081dae53c4a3b1ca6467511254b8155f",
                 "ae477b0c081dae53c4a3b1ca6467511254b8155f"),
    "feasible": ("fcf05ed8cb93294e4830ee902168d55fe61a52e9",
                 "0721a3e90e5fe4c4463a0e17fb09742dc78f4c19"),
    "R3": ("a8a6199c195f98c5deb86e39d5d9f3e42bba099c",
           "99f87f6d4b40c59224c2d2c5ba43b2b0a7eafa8f"),
    "R3-unmarked": ("04b496951ba6f7efabdf4674acdd2d4950ab1db8",
                    "ef4efdf7bb6943a7ec540e617f972218cfa8aaaa"),
    "target": ("09ca0737e9edd3540fc8b606649817da9bbb9c6b",
               "688f829c53a8cbc76f19f7593e338e7383129546"),
    "target-unmarked": ("74e2c920c5d58772680aedfd95507423d43c3b1f",
                        "7bf31de08cb67d326c50b4ff19c4ddf152c6dc6d"),
    "generated": ("6d76869305307993862311f513f1323b09da634f",
                  "6d76869305307993862311f513f1323b09da634f"),
    "R1": ("74a16dbc92638b635c4c197f49c8c2fafbea6b60",
           "e2a17c6b7f7dcd8de281e2bd8efe6a5dbc302339"),
}


def test_svg_renders_are_pinned():
    toy = make_instance([(0, 0), (1, 0)], [(1, 1), (2, 1)],
                        [(3, 1), (0, 1), (2, -1), (-1, 0)], name="pins")
    gen = generate(params(8, 6, 0.2, 3, 1, 1.0, U, U, 4)).instance
    walk = schedule(gen.name, *("NSEW."[(3 * i) % 5] * gen.n_robots for i in range(4)))
    train = schedule("pins", "..", "..", "EN", "..")
    short = schedule("pins", "EE", "..")
    cases = {   # case -> (instance, schedule, whether the violation is marked)
        "instance": (toy, None, True),
        "feasible": (toy, schedule("pins", "..", "EE", "..", "NN", ".."), True),
        "R3": (toy, train, True),
        "R3-unmarked": (toy, train, False),
        "target": (toy, short, True),
        "target-unmarked": (toy, short, False),
        "generated": (gen, None, True),
        "R1": (gen, walk, True),
    }
    for name, (instance, sched, marked) in cases.items():
        violation = None
        if sched is not None:
            violation = validate_schedule(instance, sched).first_violation
            assert (violation.rule if violation else "feasible") == name.split("-")[0]
        got = tuple(sha1(render_svg(instance, sched, every, violation if marked else None))
                    for every in (1, 3))
        assert got == PINNED_SVGS[name], name


# ---------------------------------------------------------------------------
# long walk schedules: solution bytes, replay reports and renders

_OFFSET = {"N": (0, 1), "S": (0, -1), "E": (1, 0), "W": (-1, 0), ".": (0, 0)}


def _walk(seed, side, n, n_steps, pad):
    """A seeded random walk of ``n`` robots on a ``side`` x ``side`` map with
    ``side`` obstacles: each robot moves, or not, into a pixel that is free
    and unclaimed at that step, so every step is legal. ``pad`` all-wait
    steps go in the middle and ``pad`` more at the end. Returns the instance
    whose targets are where the walk ends, the rows and every configuration
    the rows reach (plain tuples, one per row boundary)."""
    rng = random.Random(seed)
    cells = [(x, y) for x in range(side) for y in range(side)]
    rng.shuffle(cells)
    starts, obstacles = cells[:n], set(cells[n:n + side])
    pos, rows = list(starts), []
    for _ in range(n_steps):
        occupied, claimed, row = set(pos), set(), ["."] * n
        for i in rng.sample(range(n), n):
            x, y = pos[i]
            options = [c for c, (dx, dy) in _OFFSET.items() if c != "."
                       and 0 <= x + dx < side and 0 <= y + dy < side
                       and (x + dx, y + dy) not in obstacles | occupied | claimed]
            if options and rng.random() < 0.5:
                row[i] = rng.choice(options)
                claimed.add((x + _OFFSET[row[i]][0], y + _OFFSET[row[i]][1]))
        pos = [(x + _OFFSET[c][0], y + _OFFSET[c][1]) for (x, y), c in zip(pos, row)]
        rows.append("".join(row))
    half = len(rows) // 2
    rows = rows[:half] + ["." * n] * pad + rows[half:] + ["." * n] * pad
    configs = [list(starts)]
    for row in rows:
        configs.append([(x + _OFFSET[c][0], y + _OFFSET[c][1])
                        for (x, y), c in zip(configs[-1], row)])
    return make_instance(starts, pos, obstacles, name=f"walk-{seed}"), rows, configs


# (seed, map side, robots, walk steps, padding)
WALK_CORPUS = ((1, 10, 20, 200, 6), (2, 12, 30, 240, 12), (3, 8, 24, 220, 3),
               (4, 14, 40, 200, 9))


def _walks():
    return [_walk(*key) for key in WALK_CORPUS]


def _with_row(rows, at, moves):
    """``rows`` with row ``at`` replaced by one where only ``moves``
    ({robot: letter}) move."""
    row = ["."] * len(rows[at])
    for i, c in moves.items():
        row[i] = c
    return rows[:at] + ["".join(row)] + rows[at + 1:]


def _neighbour(config, i, cells):
    """(letter, cells[q]) for the first direction in NSEW order whose
    neighbour q of robot i's pixel is a key of ``cells``, or None."""
    x, y = config[i]
    for c in "NSEW":
        q = (x + _OFFSET[c][0], y + _OFFSET[c][1])
        if q in cells:
            return c, cells[q]
    return None


def _broken_variants(inst, rows, configs):
    """Named schedules that break one rule (or several) at some step of the
    walk, found by scanning the configurations from a third of the way in."""
    out = {}
    n = inst.n_robots
    walls = dict.fromkeys(inst.obstacles)
    perpendicular = {"N": "E", "S": "W", "E": "N", "W": "S"}
    opposite = {"N": "S", "S": "N", "E": "W", "W": "E"}
    for at in range(len(rows) // 3, len(rows)):
        config = configs[at]
        where = {p: i for i, p in enumerate(config)}
        free = {(x + dx, y + dy) for x, y in config for dx, dy in _OFFSET.values()}
        free -= set(where) | inst.obstacles
        for i in range(n):
            hit = _neighbour(config, i, where)
            if hit and "swap" not in out:
                c, j = hit
                out["swap"] = _with_row(rows, at, {i: c, j: opposite[c]})
                out["follow-in"] = _with_row(rows, at, {i: c, j: perpendicular[c]})
                out["into-waiting"] = _with_row(rows, at, {i: c})
            wall = _neighbour(config, i, walls)
            if wall and "obstacle" not in out:
                out["obstacle"] = _with_row(rows, at, {i: wall[0]})
            if "shared" not in out:
                for c in "NSEW":
                    q = (config[i][0] + 2 * _OFFSET[c][0], config[i][1] + 2 * _OFFSET[c][1])
                    mid = (config[i][0] + _OFFSET[c][0], config[i][1] + _OFFSET[c][1])
                    if q in where and mid in free:
                        out["shared"] = _with_row(rows, at, {i: c, where[q]: opposite[c]})
                        break
        # robot 0 waits while a later robot moves into it, and another
        # robot runs into an obstacle in the same step
        hit = _neighbour(config, 0, where)
        if hit and "several" not in out:
            c, j = hit
            for k in range(1, n):
                wall = _neighbour(config, k, walls)
                if k != j and wall:
                    out["several"] = _with_row(rows, at, {j: opposite[c], k: wall[0]})
                    break
        if len(out) == 6:
            break
    out["short"] = rows[:-1 - len(rows) // 2]
    return out


PINNED_WALK_SOLUTIONS = "9fb429a29f7f2f66efd008611d873f4ddc361f7b"
PINNED_WALK_REPORTS = "7b85dd2a7ce61be8125f14657a27380cf616fd90"


def test_walk_solutions_are_pinned():
    texts = []
    for inst, rows, _ in _walks():
        sched = schedule(inst.name, *rows)
        assert len(rows) >= 200 and inst.n_robots >= 20 and "." * inst.n_robots in rows
        text = emit_solution(sched)
        assert parse_solution(text, inst.n_robots, strict=True) == sched
        texts.append(text)
    assert sha1("".join(texts)) == PINNED_WALK_SOLUTIONS


def test_walk_reports_are_pinned():
    reports = []
    rules = {}
    for inst, rows, configs in _walks():
        assert validate_schedule(inst, schedule(inst.name, *rows)).feasible
        reports.append(validate_schedule(inst, schedule(inst.name, *rows)))
        for name, broken in _broken_variants(inst, rows, configs).items():
            report = validate_schedule(inst, schedule(inst.name, *broken))
            reports.append(report)
            v = report.first_violation
            rules.setdefault(name, set()).add(v.rule)
            if name == "several":
                # the lowest robot of the first-ranked breach is robot 0, which waits
                assert v.robots[0] == 0 and broken[v.step][0] == "."
    assert rules == {"swap": {"R3"}, "follow-in": {"R3"}, "into-waiting": {"R2"},
                     "shared": {"R2"}, "obstacle": {"R1"}, "several": {"R2"},
                     "short": {"target"}}
    assert sha1(repr(reports)) == PINNED_WALK_REPORTS


PINNED_WALK_SVGS = ("a4619b920d1f561b86d4d0d6cb1c138510828c43",
                    "1ae3daffd1e3e7ef7152e4567a127a3ebf0d8d31")


def test_walk_renders_are_pinned():
    inst, rows, configs = _walk(*WALK_CORPUS[0])
    broken = _broken_variants(inst, rows, configs)["several"]
    got = []
    for sched in (schedule(inst.name, *rows), schedule(inst.name, *broken)):
        violation = validate_schedule(inst, sched).first_violation
        got.append(sha1(render_svg(inst, sched, 12, violation)))
    assert tuple(got) == PINNED_WALK_SVGS
