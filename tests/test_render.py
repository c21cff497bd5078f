"""SVG rendering tests: color conventions, frame sampling, violation
markers and well-formedness of the emitted document."""

import xml.etree.ElementTree as ET

import pytest

import oracles
from conftest import make_instance, schedule, seal
from gridmotion.render import render_svg
from gridmotion.validate import validate_schedule

INST = make_instance([(0, 0), (2, 0)], [(2, 1), (0, 1)], [(1, 1)], name="toy")


def frame_count(svg: str) -> int:
    return svg.count(">t=")


def test_color_conventions():
    svg = render_svg(INST)
    assert '#2e8b57' in svg    # robots green
    assert '#cc2222' in svg    # targets red outline
    assert '#333333' in svg    # obstacles dark
    assert '#ff0000' not in svg


def test_output_is_deterministic():
    walk = schedule("toy", "N.", "E.", ".N")
    assert render_svg(INST, walk) == render_svg(INST, walk)


def test_instance_only_renders_single_frame():
    svg = render_svg(INST)
    assert frame_count(svg) == 1
    assert ">t=0<" in svg


def test_frame_sampling_always_includes_last():
    six = schedule("toy", "N.", "E.", "E.", "W.", "W.", "S.")
    assert frame_count(render_svg(INST, six)) == 7
    assert frame_count(render_svg(INST, six, frame_every=2)) == 4   # 0 2 4 6
    assert frame_count(render_svg(INST, six, frame_every=4)) == 3   # 0 4 6
    assert frame_count(render_svg(INST, six, frame_every=100)) == 2  # 0 6


def test_frame_every_must_be_positive():
    with pytest.raises(ValueError):
        render_svg(INST, None, frame_every=0)


def test_violation_marker_drawn_in_its_frame():
    # head-on swap violates the same-direction rule at step 0
    free = [(0, 0), (1, 0)]
    swap = make_instance([(0, 0), (1, 0)], [(1, 0), (0, 0)], seal(free),
                         name="swap")
    bad = schedule("swap", "EW")
    report = validate_schedule(swap, bad)
    assert not report.feasible
    svg = render_svg(swap, bad, violation=report.first_violation)
    assert '#ff0000' in svg
    assert svg.count("<line") == 4   # one cross per involved robot


def test_violation_frame_added_outside_sampling_grid():
    # violation at step 2 must appear even when sampling every 5 steps
    wander = schedule("toy", "..", "..", "EW", "..", "..")
    report = validate_schedule(INST, wander)
    assert not report.feasible and report.first_violation.step == 2
    svg = render_svg(INST, wander, frame_every=5,
                     violation=report.first_violation)
    assert frame_count(svg) == 3   # 0, 2, 5
    assert '#ff0000' in svg


def test_wrong_final_configuration_marked_on_last_frame():
    short = schedule("toy", "N.")   # robot 1 never reaches its target
    report = validate_schedule(INST, short)
    assert not report.feasible
    svg = render_svg(INST, short, violation=report.first_violation)
    assert '#ff0000' in svg


def test_svg_parses_as_xml():
    walk = schedule("toy", "N.", "E.", ".N")
    bad = schedule("toy", "EE", "..")
    cases = (
        render_svg(INST),
        render_svg(INST, walk),
        render_svg(INST, bad,
                   violation=validate_schedule(INST, bad).first_violation),
    )
    for svg in cases:
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert root.attrib["width"].isdigit()


# robot 0 leaves INST's box to the west, south and north and robot 1 to the
# east, each at an odd step and back at the next, so with frame_every=2 no
# drawn frame shows a robot outside the box
EXCURSIONS = schedule("toy", "W.", "E.", ".E", ".W", "S.", "N.", "N.", ".N", "N.", "S.")


@pytest.mark.parametrize("sched, frame_every, with_violation", [
    (EXCURSIONS, 2, False),
    (EXCURSIONS, 1, False),
    (schedule("toy", ".W", ".N", "N.", "..", "E."), 3, True),   # robot 1 onto the obstacle
    (schedule("toy", "..", "..", "EW", "..", "S.", "W."), 5, True),   # robots collide
    (schedule("toy", "N."), 1, True),   # wrong final configuration
    (schedule("toy", "N.", "E.", "E.", "W.", "W.", "S."), 100, False),
    (schedule("toy", "N.", "E.", "E."), 4, True),
    (schedule("toy"), 3, False),
    (None, 7, False),
])
def test_render_matches_the_all_configurations_renderer(sched, frame_every, with_violation):
    violation = validate_schedule(INST, sched).first_violation if with_violation else None
    assert with_violation == (violation is not None)
    svg = render_svg(INST, sched, frame_every=frame_every, violation=violation)
    assert svg == oracles.render_all_configurations(INST, sched, frame_every, violation)


def test_bounding_box_covers_positions_between_drawn_frames():
    # x -1..3 and y -1..2: five cells by four, though no drawn frame leaves 0..2 by 0..1
    svg = render_svg(INST, EXCURSIONS, frame_every=2)
    assert frame_count(svg) == 6
    assert '<rect x="0" y="0" width="80" height="64" fill="#f4f4f4"/>' in svg


def test_schedule_of_the_wrong_width_is_rejected():
    with pytest.raises(ValueError, match="step width 1"):
        render_svg(INST, schedule("toy", "N"))
