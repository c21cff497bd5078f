from typing import Sequence

from gridmotion.model import Direction, Instance, Pixel, Schedule

_LETTERS = {
    "N": Direction.NORTH,
    "S": Direction.SOUTH,
    "E": Direction.EAST,
    "W": Direction.WEST,
    ".": Direction.WAIT,
}


def step(letters: str) -> tuple[Direction, ...]:
    """Build a step from a compact string, one letter per robot, '.' = wait."""
    return tuple(_LETTERS[c] for c in letters)


def apply_step(positions: Sequence[Pixel], step: Sequence[Direction]) -> tuple[Pixel, ...]:
    """Translate every robot by its move. No legality checking on purpose,
    not even distinctness: after a colliding step two robots share a pixel.
    A waiting robot keeps the Pixel it has; a moving one gets a new one."""
    if len(positions) != len(step):
        raise ValueError(f"step width {len(step)} != configuration size {len(positions)}")
    return tuple(p if m is Direction.WAIT else Pixel(p[0] + m.value[0], p[1] + m.value[1])
                 for p, m in zip(positions, step))


def schedule(name: str, *rows: str) -> Schedule:
    return Schedule(instance_name=name, steps=tuple(step(r) for r in rows))


def make_instance(starts, targets, obstacles=(), name="fixture") -> Instance:
    return Instance(name=name, starts=tuple(starts), targets=tuple(targets),
                    obstacles=tuple(obstacles))


def seal(free_cells):
    """Obstacle ring: every 4-neighbor of the free region that is not free.

    Sealing a region keeps exhaustive joint searches over it finite and
    forces robots (and lower-bound paths) to stay inside.
    """
    free = set(free_cells)
    ring = set()
    for x, y in free:
        for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if nb not in free:
                ring.add(nb)
    return sorted(ring)


def bounds_of(cells):
    xs = [c[0] for c in cells]
    ys = [c[1] for c in cells]
    return min(xs), min(ys), max(xs), max(ys)
