"""Pinned output of the generator, diverse selection and the SVG renderer.

Each pin is the sha1 of the bytes a function writes for a fixed input (or
the value itself where it is short), so a change to the generator's draw
order, a feature value, a pick or a single SVG byte shows here."""

import hashlib

import numpy as np
import pytest

from conftest import make_instance, schedule
from gridmotion.formats import emit_instance
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
}


def test_generated_instances_are_pinned(tmp_path):
    (tmp_path / "w.pgm").write_text(WEIGHT_MAP)
    for key, expected in PINNED_INSTANCES.items():
        result = generate(params(*key), base_dir=tmp_path)
        assert sha1(emit_instance(result.instance) + repr(result.features)) == expected, key


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
