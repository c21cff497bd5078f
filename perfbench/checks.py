"""Independent checks of gridmotion's outputs.

Nothing here imports gridmotion. Instance and solution files are read with
the json module, schedules are replayed by this file's own step checker,
objectives and lower bounds are recomputed from scratch, and SVG and CSV
outputs are parsed with the standard library. Every check raises
CheckError with a message when the output is wrong.
"""

from __future__ import annotations

import csv
import json
import xml.etree.ElementTree as ET
from collections import deque
from fractions import Fraction

MOVES = {"N": (0, 1), "S": (0, -1), "E": (1, 0), "W": (-1, 0)}
SVG_NS = "{http://www.w3.org/2000/svg}"


class CheckError(AssertionError):
    """An output of the program failed an independent check."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# files


def load_instance(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return {
        "name": data["name"],
        "starts": [tuple(p) for p in data["starts"]],
        "targets": [tuple(p) for p in data["targets"]],
        "obstacles": frozenset(tuple(p) for p in data["obstacles"]),
    }


def instance_json(inst: dict) -> str:
    return json.dumps({
        "name": inst["name"],
        "starts": [list(p) for p in inst["starts"]],
        "targets": [list(p) for p in inst["targets"]],
        "obstacles": sorted(list(p) for p in inst["obstacles"]),
    }) + "\n"


def load_steps(path, n: int) -> list[list[tuple[int, int]]]:
    """Displacement of every robot at every step of a solution file."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    steps = []
    for raw in data["steps"]:
        step = [(0, 0)] * n
        for key, letter in raw.items():
            step[int(key)] = MOVES[letter]
        steps.append(step)
    return steps


def solution_json(name: str, steps) -> str:
    letter = {d: k for k, d in MOVES.items()}
    body = [{str(i): letter[d] for i, d in enumerate(step) if d != (0, 0)}
            for step in steps]
    return json.dumps({"instance": name, "steps": body}) + "\n"


# ---------------------------------------------------------------------------
# schedules


def first_violation(inst: dict, steps) -> tuple[int, str, tuple[int, ...]] | None:
    """Replay a schedule by rules R1-R3 and the final target check.

    Returns None for a feasible schedule, else (step, rule, robots) of the
    first breach; at a step with several breaches the lowest robot index
    wins, then R1 < R2 < R3.
    """
    obstacles = inst["obstacles"]
    pos = list(inst["starts"])
    for t, step in enumerate(steps):
        dest = [(x + dx, y + dy) for (x, y), (dx, dy) in zip(pos, step)]
        found = []
        claimed: dict = {}
        for i, d in enumerate(dest):
            if d in obstacles:
                found.append((i, "R1", (i,)))
            claimed.setdefault(d, []).append(i)
        for robots in claimed.values():
            if len(robots) > 1:
                found.append((robots[0], "R2", tuple(robots)))
        occupant = {p: i for i, p in enumerate(pos)}
        for i, d in enumerate(dest):
            j = occupant.get(d)
            if step[i] != (0, 0) and j is not None and j != i and step[j] != step[i]:
                found.append((min(i, j), "R3", (min(i, j), max(i, j))))
        if found:
            _, rule, robots = min(found)
            return t, rule, robots
        pos = dest
    off = tuple(i for i, (p, q) in enumerate(zip(pos, inst["targets"])) if p != q)
    return (len(steps), "target", off) if off else None


def objectives(steps) -> tuple[int, int]:
    """(makespan, total distance): last step with a move, and moves made."""
    makespan = total = 0
    for t, step in enumerate(steps):
        movers = sum(1 for d in step if d != (0, 0))
        total += movers
        if movers:
            makespan = t + 1
    return makespan, total


def lower_bounds(inst: dict) -> tuple[int, int]:
    """(max, sum) of per-robot obstacle-avoiding grid distances.

    Each distance is a breadth-first search over the bounding box of starts,
    targets and obstacles inflated by 1: clamping any walk onto that box
    keeps it connected, obstacle-free and no longer, so the box holds a
    shortest path for every robot.
    """
    pts = list(inst["starts"]) + list(inst["targets"]) + list(inst["obstacles"])
    x0 = min(p[0] for p in pts) - 1
    y0 = min(p[1] for p in pts) - 1
    w = max(p[0] for p in pts) + 2 - x0
    h = max(p[1] for p in pts) + 2 - y0
    blocked = bytearray(w * h)
    for x, y in inst["obstacles"]:
        blocked[(x - x0) * h + (y - y0)] = 1
    dists = []
    for s, g in zip(inst["starts"], inst["targets"]):
        src = (s[0] - x0) * h + (s[1] - y0)
        dst = (g[0] - x0) * h + (g[1] - y0)
        dist = [-1] * (w * h)
        dist[src] = 0
        queue = deque((src,))
        while queue and dist[dst] < 0:
            c = queue.popleft()
            cx, cy = divmod(c, h)
            for nx, ny in ((cx + 1, cy), (cx - 1, cy), (cx, cy + 1), (cx, cy - 1)):
                if 0 <= nx < w and 0 <= ny < h:
                    q = nx * h + ny
                    if dist[q] < 0 and not blocked[q]:
                        dist[q] = dist[c] + 1
                        queue.append(q)
        expect(dist[dst] >= 0, f"{inst['name']}: target {g} unreachable from {s}")
        dists.append(dist[dst])
    return max(dists), sum(dists)


def check_generated(inst: dict, width: int, height: int, density: float) -> None:
    """Properties every generated instance has: the robot count, distinct
    starts and targets inside the map and off obstacles, and free space
    that is one connected region (the plane around the map is free)."""
    obstacles = inst["obstacles"]
    name = inst["name"]
    expect(all(0 <= x < width and 0 <= y < height for x, y in obstacles),
           f"{name}: obstacle outside the {width}x{height} map")
    free_area = width * height - len(obstacles)
    n = len(inst["starts"])
    expect(n == round(density * free_area) and len(inst["targets"]) == n,
           f"{name}: {n} robots, expected round({density} * {free_area})")
    for label in ("starts", "targets"):
        pts = inst[label]
        expect(len(set(pts)) == n, f"{name}: {label} not pairwise distinct")
        expect(all(0 <= x < width and 0 <= y < height and (x, y) not in obstacles
                   for x, y in pts), f"{name}: a {label[:-1]} is off the map or on an obstacle")
    seen = {(-1, -1)}
    queue = deque(seen)
    while queue:
        x, y = queue.popleft()
        for q in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if (-1 <= q[0] <= width and -1 <= q[1] <= height
                    and q not in obstacles and q not in seen):
                seen.add(q)
                queue.append(q)
    expect(len(seen) == (width + 2) * (height + 2) - len(obstacles),
           f"{name}: free space is not connected")


# ---------------------------------------------------------------------------
# command outputs


def fields(text: str) -> dict:
    """'key: value' pairs from the lines a command printed."""
    out = {}
    for line in text.splitlines():
        parts = line.replace(":", " : ").split()
        for k in range(len(parts) - 2):
            if parts[k + 1] == ":":
                out.setdefault(parts[k], parts[k + 2])
    return out


def check_validate_output(text: str, inst: dict, steps, bounds) -> None:
    """`gridmotion validate` printed the verdict, objectives and bounds that
    the independent replay gives."""
    f = fields(text)
    bad = first_violation(inst, steps)
    makespan, total = objectives(steps)
    expect(f.get("feasible") == str(bad is None), f"validate verdict {f.get('feasible')}, replay {bad}")
    expect((f.get("makespan"), f.get("total_distance")) == (str(makespan), str(total)),
           f"validate objectives {f.get('makespan')}/{f.get('total_distance')}, expected {makespan}/{total}")
    expect((f.get("lb_makespan"), f.get("lb_total")) == tuple(map(str, bounds)),
           f"validate bounds {f.get('lb_makespan')}/{f.get('lb_total')}, expected {bounds}")
    if bad is not None:
        step, rule, robots = bad
        want = f"violation: step {step} rule {rule} robots {list(robots)}"
        expect(want in text, f"validate did not report {want!r}")


def check_solve_output(text: str, objective: str, inst: dict, steps, bounds) -> float:
    """The written schedule is feasible, the printed value is its objective,
    and it is no better than the lower bound. Returns value / bound."""
    bad = first_violation(inst, steps)
    expect(bad is None, f"{inst['name']}: solver schedule breaks {bad}")
    makespan, total = objectives(steps)
    value = makespan if objective == "max" else total
    want = f"{objective} objective {value} (makespan {makespan}, total {total})"
    expect(want in text, f"solve printed {text.strip()!r}, expected {want!r}")
    bound = bounds[0] if objective == "max" else bounds[1]
    expect(value >= bound, f"{inst['name']}: value {value} below lower bound {bound}")
    if bounds[0] and bounds[1]:
        want = f"stretch_max: {makespan / bounds[0]:.4f}  stretch_sum: {total / bounds[1]:.4f}"
        expect(want in text, f"solve printed {text.strip()!r}, expected {want!r}")
    return value / bound if bound else 1.0


def read_telemetry(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    expect(records and records[-1]["phase"] == "final", "telemetry lacks a final record")
    values = [r["objective"] for r in records]
    expect(values == sorted(values, reverse=True), "telemetry objective increases")
    return records


def check_scores(outdir, objective: str, values: dict, bounds: dict) -> None:
    """scores.csv, totals.csv and instances.csv of `gridmotion score
    --instance-report` against L/V from known values.

    ``values`` maps (team, instance) to the team's objective value, or None
    for an infeasible entry; ``bounds`` maps instance to (lb_max, lb_sum).
    """
    teams = sorted({t for t, _ in values})
    names = sorted(bounds)
    score = {}
    best = {}
    for name in names:
        present = [values[t, name] for t in teams if values.get((t, name)) is not None]
        best[name] = min(present) if present else None
        for t in teams:
            v = values.get((t, name))
            score[t, name] = (Fraction(0) if v is None else Fraction(1) if v == best[name]
                              else Fraction(best[name], v))
    with open(f"{outdir}/scores.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    expect(len(rows) == len(teams) * len(names), f"scores.csv has {len(rows)} rows")
    for row in rows:
        key = (row["team"], row["instance"])
        want = score[key]
        expect(row["objective"] == objective and abs(float(row["score"]) - want) < 1e-6,
               f"score {key} is {row['score']}, expected {float(want):.6f}")
        v = values.get(key)
        expect(row["value"] == ("" if v is None else str(v)), f"value {key} is {row['value']!r}")
    with open(f"{outdir}/totals.csv", encoding="utf-8") as fh:
        totals = {r["team"]: (float(r["total"]), int(r["instances"])) for r in csv.DictReader(fh)}
    expect(sorted(totals) == teams, f"totals.csv teams {sorted(totals)}")
    for t in teams:
        want = sum(score[t, name] for name in names)
        expect(abs(totals[t][0] - want) < 1e-5 and totals[t][1] == len(names),
               f"total of {t} is {totals[t]}, expected {float(want):.6f}")
    with open(f"{outdir}/instances.csv", encoding="utf-8") as fh:
        summary = {r["instance"]: r for r in csv.DictReader(fh)}
    expect(sorted(summary) == names, "instances.csv names differ")
    for name in names:
        r = summary[name]
        expect((int(r["lb_makespan"]), int(r["lb_total"])) == bounds[name],
               f"instances.csv bounds of {name} differ from {bounds[name]}")
        expect(r["best_value"] == ("" if best[name] is None else str(best[name])),
               f"instances.csv best value of {name} is {r['best_value']!r}")
        avg = sum(score[t, name] for t in teams) / len(teams)
        expect(abs(float(r["average_score"]) - avg) < 1e-5, f"average score of {name}")


def frame_times(n_steps: int, frame_every: int, violation_step: int | None) -> list[int]:
    times = set(range(0, n_steps + 1, frame_every)) | {n_steps}
    if violation_step is not None:
        times.add(min(violation_step, n_steps))
    return sorted(times)


def check_svg(path, n_robots: int, times: list[int]) -> None:
    """Well-formed XML with one 't=' frame per sampled time, in order, and
    one robot square per robot in each."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        root = ET.fromstring(blob)
    except ET.ParseError as err:
        raise CheckError(f"{path}: not well-formed XML: {err}") from None
    frames = [g for g in root.iter(SVG_NS + "g")
              if any((c.text or "").startswith("t=") for c in g.findall(SVG_NS + "text"))]
    labels = [int(g.find(SVG_NS + "text").text[2:]) for g in frames]
    expect(labels == times, f"{path}: frames {labels[:8]}..., expected {times[:8]}...")
    for g in frames:
        robots = [r for r in g.iter(SVG_NS + "rect") if r.get("opacity") is not None]
        expect(len(robots) == n_robots, f"{path}: a frame shows {len(robots)} robots, expected {n_robots}")
