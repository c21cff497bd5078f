"""Independent reference implementations used to cross-check the package.

Everything in this module is deliberately built on different primitives
than the library under test (continuous-time interpolation, scipy
labeling, dense arrays) so that a shared bug is unlikely. Two are earlier
versions of library code, kept so that a rewrite meant to change no output
is compared with what it replaced: ``reference_plan_single``,
``reference_paths_to_schedule`` and ``render_all_configurations``. Nothing
here imports from gridmotion.
"""

import bisect
from collections import deque
import heapq
import itertools
import math

import numpy as np
from scipy import ndimage

_SAMPLE_TIMES = (0.0, 0.5, 1.0)
_FOUR_CONN = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=int)


def continuous_overlaps(before, after, obstacles):
    """Collision records for unit squares gliding linearly between pixels.

    ``before`` and ``after`` are equal-length sequences of (x, y) integer
    pairs; every displacement must be an axis-parallel unit or zero.
    Robots are axis-aligned unit squares anchored at their lower-left
    corner; two squares overlap with positive area iff both coordinate
    gaps are < 1. Each per-axis gap is |linear in t| and hence convex, so
    its sub-1 set is an interval with rational endpoints of denominator
    <= 2; sampling t in {0, 1/2, 1} therefore decides overlap exactly.
    Returns a list of ("robots", i, j, t) and ("obstacle", i, t) records.
    """
    n = len(before)
    assert len(after) == n
    for (bx, by), (ax, ay) in zip(before, after):
        assert abs(ax - bx) + abs(ay - by) <= 1
    obs = [(float(x), float(y)) for x, y in obstacles]
    records = []
    for t in _SAMPLE_TIMES:
        pos = [(bx + (ax - bx) * t, by + (ay - by) * t)
               for (bx, by), (ax, ay) in zip(before, after)]
        for i in range(n):
            xi, yi = pos[i]
            for j in range(i + 1, n):
                if abs(xi - pos[j][0]) < 1 and abs(yi - pos[j][1]) < 1:
                    records.append(("robots", i, j, t))
            for ox, oy in obs:
                if abs(xi - ox) < 1 and abs(yi - oy) < 1:
                    records.append(("obstacle", i, t))
    return records


def continuous_step_legal(before, after, obstacles):
    return not continuous_overlaps(before, after, obstacles)


def free_mask(obstacles, width, height):
    mask = np.ones((height, width), dtype=bool)
    for x, y in obstacles:
        if 0 <= x < width and 0 <= y < height:
            mask[y, x] = False
    return mask


def scipy_enclosed_cells(obstacles, width, height):
    """Free in-map cells with no 4-connected free path off the map.

    The map sits on an unbounded free plane, so the mask is padded with a
    one-cell free ring standing in for the exterior before labeling.
    """
    mask = free_mask(obstacles, width, height)
    padded = np.pad(mask, 1, constant_values=True)
    labels, _ = ndimage.label(padded, structure=_FOUR_CONN)
    exterior = labels[0, 0]
    enclosed = set()
    ys, xs = np.nonzero(padded)
    for y, x in zip(ys.tolist(), xs.tolist()):
        if labels[y, x] != exterior:
            enclosed.add((x - 1, y - 1))
    return enclosed


def scipy_free_space_connected(obstacles, width, height):
    """True iff map free space plus the exterior forms one region."""
    return not scipy_enclosed_cells(obstacles, width, height)


def grid_bfs_distance(src, dst, obstacles, bounds):
    """Shortest 4-neighbor path length from src to dst, None if cut off.

    ``bounds`` is (xmin, ymin, xmax, ymax) inclusive; the search never
    leaves it, so callers must pass a window generous enough for any
    detour they intend to measure.
    """
    xmin, ymin, xmax, ymax = bounds
    blocked = set(map(tuple, obstacles))
    if src == dst:
        return 0
    seen = {tuple(src)}
    queue = deque([(tuple(src), 0)])
    while queue:
        (x, y), d = queue.popleft()
        for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if not (xmin <= nx <= xmax and ymin <= ny <= ymax):
                continue
            cell = (nx, ny)
            if cell in blocked or cell in seen:
                continue
            if cell == tuple(dst):
                return d + 1
            seen.add(cell)
            queue.append((cell, d + 1))
    return None


def grid_bfs_field(target, obstacles, bounds):
    """Shortest 4-neighbor path length from every pixel of the inclusive
    ``bounds`` (xmin, ymin, xmax, ymax) to ``target``, as a dict from (x, y)
    pairs; pixels that are obstacles or cut off from the target are absent.
    The target itself reads 0 even when it is an obstacle."""
    xmin, ymin, xmax, ymax = bounds
    blocked = set(map(tuple, obstacles))
    dist = {tuple(target): 0}
    queue = deque([tuple(target)])
    while queue:
        x, y = queue.popleft()
        for cell in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if (xmin <= cell[0] <= xmax and ymin <= cell[1] <= ymax
                    and cell not in blocked and cell not in dist):
                dist[cell] = dist[(x, y)] + 1
                queue.append(cell)
    return dist


def _joint_successors(positions, obstacles, bounds):
    """All joint moves legal under the continuous-overlap test."""
    xmin, ymin, xmax, ymax = bounds
    blocked = set(map(tuple, obstacles))
    n = len(positions)
    deltas = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))
    choices = []
    for x, y in positions:
        opts = []
        for dx, dy in deltas:
            nx, ny = x + dx, y + dy
            if (nx, ny) in blocked or not (xmin <= nx <= xmax and ymin <= ny <= ymax):
                continue
            opts.append((nx, ny))
        choices.append(opts)

    out = []
    after = [None] * n

    def extend(i):
        if i == n:
            # axis-parallel unit moves cannot brush an obstacle unless the
            # destination is one, and those were dropped from choices
            if continuous_step_legal(positions, after, ()):
                out.append(tuple(after))
            return
        for cand in choices[i]:
            after[i] = cand
            extend(i + 1)

    extend(0)
    out.remove(tuple(positions))  # the all-wait step never helps a BFS
    return out


def joint_optimal(starts, targets, obstacles, bounds, max_states=2_000_000):
    """Exact minimum makespan via BFS over joint configurations.

    Returns (makespan, list of configurations) or (None, None) when the
    target is unreachable inside ``bounds``. Successor legality uses the
    continuous-overlap oracle, not the library's discrete rules.
    """
    start = tuple(map(tuple, starts))
    goal = tuple(map(tuple, targets))
    if start == goal:
        return 0, [start]
    parents = {start: None}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for nxt in _joint_successors(cur, obstacles, bounds):
            if nxt in parents:
                continue
            parents[nxt] = cur
            if nxt == goal:
                path = [nxt]
                while parents[path[-1]] is not None:
                    path.append(parents[path[-1]])
                path.reverse()
                return len(path) - 1, path
            queue.append(nxt)
            if len(parents) > max_states:
                raise RuntimeError("joint state budget exhausted")
    return None, None


def single_robot_optimum(start, goal, free, paths, objective):
    """Cheapest (arrival, moves) of one robot going from ``start`` to
    ``goal`` among committed ``paths``, by breadth-first search over
    (cell, time); None when no path exists.

    ``free`` is the set of cells the robot may use. Each committed path
    lists the cells its robot occupies at times 0..T; the robot rests on the
    last one from then on. A step is legal when the robot's square overlaps
    no committed square while all of them glide (``continuous_overlaps``).
    The robot may end only at a time from which no committed path enters
    ``goal`` again. For "max" the cost is (arrival, moves), for "sum"
    (moves, arrival), compared lexicographically; the result is always
    given as (arrival, moves).

    Times run up to ``still + len(free)``, where ``still`` is the last
    arrival of a committed path or the first time ``goal`` stays free, and
    at least 1. From ``still`` on nothing moves, so an optimal path can
    finish with a shortest walk of fewer than ``len(free)`` steps.
    """
    start, goal = tuple(start), tuple(goal)
    paths = [[tuple(c) for c in p] for p in paths]
    if any(p[-1] == goal for p in paths):
        return None
    free_from = 1 + max((t for p in paths for t, c in enumerate(p) if c == goal),
                        default=-1)
    still = max([len(p) - 1 for p in paths] + [free_from, 1])
    t_max = still + len(free)

    def at(path, t):
        return path[min(t, len(path) - 1)]

    layer = {start: 0}   # cell -> fewest moves to be there at time t
    found = []           # (arrival, moves) of every way to end
    for t in range(t_max + 1):
        if goal in layer and t >= free_from:
            found.append((t, layer[goal]))
        if t == t_max:
            break
        before = [at(p, t) for p in paths]
        after = [at(p, t + 1) for p in paths]
        nxt = {}
        for (x, y), moves in layer.items():
            # squares more than two cells apart cannot meet within one step
            near = [k for k, (bx, by) in enumerate(before)
                    if abs(bx - x) <= 2 and abs(by - y) <= 2]
            for dx, dy in ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)):
                q = (x + dx, y + dy)
                cost = moves + (q != (x, y))
                if q not in free or nxt.get(q, float("inf")) <= cost:
                    continue
                records = continuous_overlaps([(x, y)] + [before[k] for k in near],
                                              [q] + [after[k] for k in near], ())
                if any(r[1] == 0 for r in records):
                    continue
                nxt[q] = cost
        layer = nxt
    if not found:
        return None
    if objective == "max":
        return min(found)
    moves, arrival = min((m, t) for t, m in found)
    return arrival, moves


def ranked_violation(before, moves, obstacles):
    """(rule, robots) of the breach of R1-R3 that ranks first when every
    robot ``i`` at ``before[i]`` moves by the offset ``moves[i]``, or None
    when the step is legal. Every robot is compared with every other, so
    waiting robots are looked at as often as moving ones. Candidates rank by
    their lowest robot, then R1 < R2 < R3, then the robot tuple."""
    after = [(x + dx, y + dy) for (x, y), (dx, dy) in zip(before, moves)]
    found = [(i, "R1", (i,)) for i, d in enumerate(after) if d in set(obstacles)]
    for d in set(after):
        group = tuple(i for i, e in enumerate(after) if e == d)
        if len(group) > 1:
            found.append((group[0], "R2", group))
    for i, d in enumerate(after):
        for j, p in enumerate(before):
            if j != i and p == d and moves[j] != moves[i]:
                found.append((min(i, j), "R3", (min(i, j), max(i, j))))
    return min(found)[1:] if found else None


def render_all_configurations(instance, schedule=None, frame_every=1, violation=None):
    """The SVG the renderer made before it replayed in place: every
    configuration of the schedule is built and kept, and the bounding box is
    read off all of them at the end. Duck-typed on the library's instance,
    schedule and violation, whose move values are (dx, dy) offsets."""
    cell, pad, label_h, per_row = 16, 8, 16, 5
    configs = [tuple(tuple(p) for p in instance.starts)]
    if schedule is not None:
        for step in schedule.steps:
            assert len(step) == len(configs[-1])
            configs.append(tuple((x + m.value[0], y + m.value[1])
                                 for (x, y), m in zip(configs[-1], step)))
    last = len(configs) - 1
    marked = set() if violation is None else {min(violation.step, last)}
    times = sorted({*range(0, last + 1, frame_every), last, *marked})

    points = [p for c in configs for p in c]
    points += [tuple(p) for p in instance.obstacles] + [tuple(p) for p in instance.targets]
    x0, x1 = min(x for x, _ in points), max(x for x, _ in points)
    y0, y1 = min(y for _, y in points), max(y for _, y in points)
    grid_w = (x1 - x0 + 1) * cell
    grid_h = (y1 - y0 + 1) * cell
    frame_w = grid_w + pad
    frame_h = grid_h + label_h + pad

    def corner(p):
        return (p[0] - x0) * cell, (y1 - p[1]) * cell

    def cell_rect(p, fill, extra=""):
        sx, sy = corner(p)
        return (f'<rect x="{sx}" y="{sy}" width="{cell}" height="{cell}" '
                f'{extra}fill="{fill}"/>')

    static = [f'<rect x="0" y="0" width="{grid_w}" height="{grid_h}" fill="#f4f4f4"/>',
              *(cell_rect(p, "#333333") for p in sorted(map(tuple, instance.obstacles)))]
    for sx, sy in map(corner, instance.targets):
        static.append(f'<rect x="{sx + 1.5}" y="{sy + 1.5}" width="{cell - 3}" '
                      f'height="{cell - 3}" fill="none" stroke="#cc2222" '
                      f'stroke-width="1.5"/>')

    cols = min(len(times), per_row)
    rows = (len(times) + cols - 1) // cols
    total_w = cols * frame_w + pad
    total_h = rows * frame_h + pad
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{total_w}" '
        f'height="{total_h}" viewBox="0 0 {total_w} {total_h}">',
        f'<rect width="{total_w}" height="{total_h}" fill="#ffffff"/>',
    ]
    for k, t in enumerate(times):
        ox = pad + (k % cols) * frame_w
        oy = pad + (k // cols) * frame_h
        parts.append(f'<g transform="translate({ox},{oy})">')
        parts.append(f'<text x="0" y="{label_h - 5}" font-family="monospace" '
                     f'font-size="11" fill="#000000">t={t}</text>')
        parts.append(f'<g transform="translate(0,{label_h})">')
        parts += static
        parts += (cell_rect(p, "#2e8b57", 'opacity="0.9" ') for p in configs[t])
        if t in marked:
            for i in set(violation.robots):
                sx, sy = corner(configs[t][i])
                parts.append(f'<line x1="{sx}" y1="{sy}" x2="{sx + cell}" '
                             f'y2="{sy + cell}" stroke="#ff0000" stroke-width="2"/>')
                parts.append(f'<line x1="{sx + cell}" y1="{sy}" x2="{sx}" '
                             f'y2="{sy + cell}" stroke="#ff0000" stroke-width="2"/>')
        parts.append('</g>')
        parts.append('</g>')
    parts.append('</svg>')
    return "\n".join(parts) + "\n"


def reference_plan_single(start, goal, table, objective, field):
    """The safe-interval search that ``plan_single`` ran before its labels
    carried their interval index: a pop finds its interval by bisecting the
    cell's holds, and the costs go through one conditional tuple. Reads the
    table's ``vertex``, ``busy``, ``parked`` and ``window`` and the field's
    ``shadow`` and ``walls``; ``start`` and ``goal`` are pixels and
    ``objective`` is ``"max"`` or ``"sum"``. Returns the path as cell ids, or
    None."""
    x0, y0, x1, y1 = table.window
    stride = y1 - y0 + 3

    def cell(pixel):
        return (pixel[0] - x0 + 1) * stride + pixel[1] - y0 + 1

    start, goal = cell(start), cell(goal)
    vertex, busy, parked = table.vertex, table.busy, table.parked
    shadow, walls = field.shadow, field.walls
    tc, tr = divmod(goal, stride)
    hx = [-math.inf, *range(tc - 1, 0, -1), *range(x1 - x0 + 2 - tc), -math.inf]
    hy = [-math.inf, *range(tr - 1, 0, -1), *range(stride - 1 - tr), -math.inf]
    moves = ((1, 0, 1), (-1, 0, -1), (stride, 1, 0), (-stride, -1, 0))
    sum_objective = objective == "sum"

    col, row = divmod(start, stride)
    h0 = shadow[start] if start in shadow else -1 if start in walls else hx[col] + hy[row]
    times = busy.get(goal)
    goal_free_from = math.inf if goal in parked else (times[-1] if times else -1) + 1
    if h0 < 0 or goal_free_from == math.inf:
        return None

    least = {}
    counter = itertools.count()
    heap = [(h0, h0, h0, next(counter), (start, 0, 0, None))]
    while heap:
        _, f2, h, _, label = heapq.heappop(heap)
        p, t, m, _ = label
        holds = busy.get(p, ())
        k = bisect.bisect_left(holds, t)
        if least.get((p, k), math.inf) <= f2 - h:
            continue
        least[(p, k)] = f2 - h
        if p == goal and t >= goal_free_from:
            path = [p]
            while label[3] is not None:
                parent = label[3]
                path += [parent[0]] * (label[1] - parent[1])
                label = parent
            return path[::-1]
        end = holds[k] if k < len(holds) else math.inf
        along = p - vertex[(p, end)] if k < len(holds) else None
        nm = m + 1
        col, row = divmod(p, stride)
        for d, dx, dy in moves:
            q = p + d
            h = (shadow[q] if q in shadow else -1 if q in walls
                 else hx[col + dx] + hy[row + dy])
            if h < 0:
                continue
            last = end if along is None or d == along else end - 1
            qh = busy.get(q, ())
            n = len(qh)
            for j in range(bisect.bisect_left(qh, t + 1), n + (q not in parked)) if qh else (0,):
                s = qh[j - 1] + 1 if j else 0
                if s <= t:
                    s = t + 1
                elif vertex.get((q + d, s)) != q:
                    s += 1
                if s > last:
                    break
                if j < n and s >= qh[j]:
                    continue
                f1, f2 = (nm + h, s + h) if sum_objective else (s + h, nm + h)
                if f2 - h < least.get((q, j), math.inf):
                    heapq.heappush(heap, (f1, f2, h, next(counter), (q, s, nm, label)))
    return None


def reference_paths_to_schedule(instance, window, paths, direction, schedule):
    """The ``paths_to_schedule`` that built one step at a time, each through
    a generator over the robots, and handed the steps to the checking
    constructor. ``direction`` and ``schedule`` are the library's Direction
    and Schedule classes; ``paths`` map each robot to its cell ids in
    ``window``'s frame."""
    stride = window[3] - window[1] + 3
    step_of = {d: direction((dx, dy)) for d, dx, dy in
               ((1, 0, 1), (-1, 0, -1), (stride, 1, 0), (-stride, -1, 0))}
    step_of[0] = direction.WAIT
    moves = [[step_of[b - a] for a, b in zip(paths[i], paths[i][1:])]
             for i in range(instance.n_robots)]
    steps = [tuple(m[t] if t < len(m) else direction.WAIT for m in moves)
             for t in range(max(map(len, moves)))]
    return schedule(instance_name=instance.name, steps=tuple(steps))
