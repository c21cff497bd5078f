import random

import numpy as np
import pytest

from conftest import apply_step, make_instance, schedule, step
from gridmotion.model import (
    Direction,
    Instance,
    Pixel,
    Schedule,
    schedule_objectives,
)

N, S, E, W, WAIT = (Direction.NORTH, Direction.SOUTH, Direction.EAST,
                    Direction.WEST, Direction.WAIT)


def test_direction_displacements_are_fixed():
    assert N.value == (0, 1)
    assert S.value == (0, -1)
    assert E.value == (1, 0)
    assert W.value == (-1, 0)
    assert WAIT.value == (0, 0)
    assert len(Direction) == 5
    assert all(d is not Direction.WAIT for d in (N, S, E, W))
    assert Direction((0, 0)) is Direction.WAIT


def test_pixel_translated():
    # a pixel moves by its direction's displacement, one robot per entry of a step
    c = (Pixel(0, 0), Pixel(3, -2), Pixel(-1, -1), Pixel(-4, 6), Pixel(5, 5))
    assert apply_step(c, step("ENSW.")) == (Pixel(1, 0), Pixel(3, -1), Pixel(-1, -2),
                                            Pixel(-5, 6), Pixel(5, 5))
    assert all(type(p) is Pixel for p in apply_step(c, step("ENSW.")))


def test_instance_normalizes_and_exposes_counts():
    inst = make_instance([(0, 0), (2, 0)], [(5, 5), (0, 0)], [(1, 1)])
    assert inst.n_robots == 2
    assert all(isinstance(p, Pixel) for p in inst.starts)
    assert all(isinstance(p, Pixel) for p in inst.targets)
    # a start may coincide with a target, including another robot's
    assert inst.targets[1] == inst.starts[0]


def test_instance_invariants_rejected():
    with pytest.raises(ValueError):
        make_instance([(0, 0)], [(1, 1), (2, 2)])  # length mismatch
    with pytest.raises(ValueError):
        make_instance([], [])  # no robots
    with pytest.raises(ValueError):
        make_instance([(0, 0), (0, 0)], [(1, 1), (2, 2)])  # duplicate starts
    with pytest.raises(ValueError):
        make_instance([(0, 0), (1, 0)], [(2, 2), (2, 2)])  # duplicate targets
    with pytest.raises(ValueError):
        make_instance([(0, 0)], [(1, 1)], [(0, 0)])  # start on obstacle
    with pytest.raises(ValueError):
        make_instance([(0, 0)], [(1, 1)], [(1, 1)])  # target on obstacle


def test_instance_coordinates_stay_below_the_bound():
    edge = 2 ** 62 - 1
    inst = make_instance([(-edge, 0)], [(edge, 0)], [(0, -edge)])
    assert inst.starts[0].x == -edge
    for starts, targets, obstacles in (([(2 ** 62, 0)], [(0, 0)], []),
                                       ([(0, 0)], [(0, -2 ** 62)], []),
                                       ([(0, 0)], [(1, 0)], [(5, 10 ** 400)])):
        with pytest.raises(ValueError, match="below 2\\*\\*62"):
            make_instance(starts, targets, obstacles)


def test_instance_points_are_pairs_of_ints_never_converted():
    # one pixel rule for files and Python callers alike: a point that is not
    # a list or tuple of two ints is refused, naming its field, and never
    # truncated or converted
    for bad in ((0.7, 0), (True, 5), ("3", 2), (1, 2, 3), (np.int64(3), 2), "ab", 7):
        for field, args in (("starts", ([bad], [(1, 0)], [])),
                            ("targets", ([(1, 0)], [bad], [])),
                            ("obstacles", ([(1, 0)], [(2, 0)], [bad]))):
            with pytest.raises(ValueError, match=f"^{field}: expected \\[x, y\\] with integer"):
                Instance("x", *args)


def test_step_and_schedule_widths():
    with pytest.raises(ValueError):
        Schedule(instance_name="x", steps=(step("EE"), step("E")))
    sched = schedule("x", "EE", "E.")
    assert sched.width == 2
    assert Schedule(instance_name="x", steps=()).width is None


def test_schedule_entries_must_be_directions():
    with pytest.raises(ValueError, match="must be Direction"):
        Schedule("x", (("E",),))
    with pytest.raises(ValueError, match="must be Direction"):
        Schedule("x", (step("E."), (E, None)))
    # a step may come in as any sequence; it is kept as a tuple
    assert Schedule("x", [[E, WAIT]]).steps == ((E, WAIT),)


def test_apply_step_examples():
    c = (Pixel(0, 0),)
    assert apply_step(c, step("E")) == (Pixel(1, 0),)

    c = (Pixel(0, 0), Pixel(1, 0))
    assert apply_step(c, step("..")) == (Pixel(0, 0), Pixel(1, 0))
    # the east-east chain: both advance while staying in contact
    assert apply_step(c, step("EE")) == (Pixel(1, 0), Pixel(2, 0))
    # any sequence of pixels goes in; a plain tuple comes out
    assert type(apply_step(list(c), step("EE"))) is tuple


def test_apply_step_width_mismatch():
    c = (Pixel(0, 0),)
    with pytest.raises(ValueError):
        apply_step(c, step("EE"))


def test_apply_step_applies_a_colliding_step():
    # legality is the validator's job: both robots land on (1, 0)
    c = (Pixel(0, 0), Pixel(2, 0))
    assert apply_step(c, step("EW")) == (Pixel(1, 0), Pixel(1, 0))


def test_apply_step_reversal_is_identity():
    rng = random.Random(20240811)
    dirs = (N, S, E, W, WAIT)
    for _ in range(600):
        n = rng.randint(1, 6)
        cells = set()
        while len(cells) < n:
            cells.add((rng.randint(-4, 4), rng.randint(-4, 4)))
        config = tuple(Pixel(x, y) for x, y in sorted(cells))
        moves = tuple(rng.choice(dirs) for _ in range(n))
        forward = apply_step(config, moves)
        back = apply_step(forward, tuple(Direction((-m.value[0], -m.value[1])) for m in moves))
        assert back == config


def test_schedule_objectives_examples():
    assert schedule_objectives(Schedule(instance_name="x", steps=())) == (0, 0)
    sched = schedule("x", "EE", "E.", "..")
    assert schedule_objectives(sched) == (2, 3)


def test_schedule_objectives_ignore_trailing_waits():
    base = schedule("x", "EN", ".E")
    padded = schedule("x", "EN", ".E", "..", "..")
    assert schedule_objectives(base) == schedule_objectives(padded) == (2, 3)


def test_schedule_objectives_total_at_least_one_when_active():
    rng = random.Random(7)
    dirs = "NSEW."
    for _ in range(300):
        n = rng.randint(1, 4)
        rows = ["".join(rng.choice(dirs) for _ in range(n))
                for _ in range(rng.randint(0, 5))]
        makespan, total = schedule_objectives(schedule("x", *rows))
        if makespan >= 1:
            assert total >= 1
        else:
            assert total == 0


def test_instance_keeps_name():
    assert make_instance([(0, 0)], [(1, 0)], name="abc").name == "abc"
