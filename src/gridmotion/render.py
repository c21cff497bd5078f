"""Static SVG rendering of instances and schedules.

A render shows one frame per sampled time step: obstacles dark, robots as
green squares, targets as red outlines. Infeasible schedules render too; the
robots involved in the first violation get a red cross marker in the frame
where the violation occurs. Output bytes are deterministic.
"""

from __future__ import annotations

from typing import Optional

from .model import Direction, Instance, Schedule
from .validate import Violation

_CELL = 16
_PAD = 8
_LABEL_H = 16
_FRAMES_PER_ROW = 5

_COLOR_OBSTACLE = "#333333"
_COLOR_ROBOT = "#2e8b57"
_COLOR_TARGET = "#cc2222"
_COLOR_MARK = "#ff0000"
_COLOR_GRIDBG = "#f4f4f4"


def render_svg(instance: Instance, schedule: Optional[Schedule] = None,
               frame_every: int = 1, violation: Optional[Violation] = None) -> str:
    """Render the instance (and optionally every ``frame_every``-th step of a
    schedule) to an SVG string.

    The schedule is replayed once, in place, as
    :func:`~gridmotion.validate.validate_schedule` replays it: only a moving
    robot gets a new ``(x, y)`` tuple, and the bounding box grows with each
    position a robot passes, drawn or not. Only the configurations of drawn
    frames are kept, so memory follows the frames, not the schedule's
    length. An illegal step is replayed as a plain translation of its
    movers."""
    if frame_every < 1:
        raise ValueError("frame_every must be >= 1")
    steps = () if schedule is None else schedule.steps
    if steps and len(steps[0]) != instance.n_robots:
        raise ValueError(f"step width {len(steps[0])} != configuration size "
                         f"{instance.n_robots}")
    last = len(steps)
    marked = set() if violation is None else {min(violation.step, last)}
    drawn = {*range(0, last + 1, frame_every), last, *marked}
    times = sorted(drawn)

    points = (*instance.starts, *instance.obstacles, *instance.targets)
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    positions = list(instance.starts)
    configs = {0: instance.starts}
    wait = Direction.WAIT
    for t, step in enumerate(steps, 1):
        for i, m in enumerate(step):
            if m is not wait:
                dx, dy = m._value_
                x, y = positions[i]
                x += dx
                y += dy
                positions[i] = (x, y)
                if x < x0:
                    x0 = x
                elif x > x1:
                    x1 = x
                if y < y0:
                    y0 = y
                elif y > y1:
                    y1 = y
        if t in drawn:
            configs[t] = tuple(positions)
    grid_w = (x1 - x0 + 1) * _CELL
    grid_h = (y1 - y0 + 1) * _CELL
    frame_w = grid_w + _PAD
    frame_h = grid_h + _LABEL_H + _PAD

    def corner(p):
        return (p[0] - x0) * _CELL, (y1 - p[1]) * _CELL   # svg y grows downward

    def cell_rect(p, fill, extra=""):
        sx, sy = corner(p)
        return (f'<rect x="{sx}" y="{sy}" width="{_CELL}" height="{_CELL}" '
                f'{extra}fill="{fill}"/>')

    # background, obstacles and target outlines: the same in every frame
    static = [f'<rect x="0" y="0" width="{grid_w}" height="{grid_h}" '
              f'fill="{_COLOR_GRIDBG}"/>',
              *(cell_rect(p, _COLOR_OBSTACLE) for p in sorted(instance.obstacles))]
    for sx, sy in map(corner, instance.targets):
        static.append(f'<rect x="{sx + 1.5}" y="{sy + 1.5}" width="{_CELL - 3}" '
                      f'height="{_CELL - 3}" fill="none" stroke="{_COLOR_TARGET}" '
                      f'stroke-width="1.5"/>')

    cols = min(len(times), _FRAMES_PER_ROW)
    rows = (len(times) + cols - 1) // cols
    total_w = cols * frame_w + _PAD
    total_h = rows * frame_h + _PAD

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{total_w}" '
        f'height="{total_h}" viewBox="0 0 {total_w} {total_h}">',
        f'<rect width="{total_w}" height="{total_h}" fill="#ffffff"/>',
    ]
    for k, t in enumerate(times):
        ox = _PAD + (k % cols) * frame_w
        oy = _PAD + (k // cols) * frame_h
        parts.append(f'<g transform="translate({ox},{oy})">')
        parts.append(f'<text x="0" y="{_LABEL_H - 5}" font-family="monospace" '
                     f'font-size="11" fill="#000000">t={t}</text>')
        parts.append(f'<g transform="translate(0,{_LABEL_H})">')
        parts += static
        parts += (cell_rect(p, _COLOR_ROBOT, 'opacity="0.9" ') for p in configs[t])
        if t in marked:
            for i in set(violation.robots):   # the set's order is in the output bytes
                sx, sy = corner(configs[t][i])
                parts.append(f'<line x1="{sx}" y1="{sy}" x2="{sx + _CELL}" '
                             f'y2="{sy + _CELL}" stroke="{_COLOR_MARK}" stroke-width="2"/>')
                parts.append(f'<line x1="{sx + _CELL}" y1="{sy}" x2="{sx}" '
                             f'y2="{sy + _CELL}" stroke="{_COLOR_MARK}" stroke-width="2"/>')
        parts.append('</g>')
        parts.append('</g>')
    parts.append('</svg>')
    return "\n".join(parts) + "\n"
