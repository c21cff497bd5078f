"""The benchmark's workloads: the input files each one builds during set-up,
and the operations one round runs and checks.

Every operation is a `gridmotion` subcommand run in-process through
`ops.run(argv, ...)`, which times `gridmotion.cli.main(argv)` and counts the
operation as failed when its exit code or an independent check is wrong.
No operation sets `--time-limit`, so a round does the same work on every
machine and every run of one seed. The program gets the instance files
`gridmotion generate` writes, unchanged; the seed draws only `tournament`'s
random walks.
"""

from __future__ import annotations

import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import checks


@dataclass(frozen=True)
class Grid:
    """Parameters of one `gridmotion generate` config (a single instance)."""

    width: int
    height: int
    density: float
    obstacles: int = 0
    seed: int = 1
    extra: str = ""

    def config(self) -> str:
        return (f"map_width = {self.width}\nmap_height = {self.height}\n"
                f"density = {self.density}\nobstacle_count = {self.obstacles}\n"
                f"seed = {self.seed}\n{self.extra}")


def generate(ops, grid: Grid, outdir: Path) -> tuple[dict, Path]:
    """Run `gridmotion generate` for one instance; return it, read back by
    the benchmark's own loader, and the file the program wrote."""
    outdir.mkdir(parents=True, exist_ok=True)
    cfg = outdir / "grid.cfg"
    cfg.write_text(grid.config(), encoding="utf-8")
    found = {}

    def check(text: str) -> None:
        files = sorted(outdir.glob("*.instance.json"))
        checks.expect(len(files) == 1, f"generate wrote {len(files)} instances")
        found["path"] = files[0]
        found["inst"] = checks.load_instance(files[0])
        checks.check_generated(found["inst"], grid.width, grid.height, grid.density)

    ops.run(["generate", str(cfg), str(outdir)], check)
    if "inst" not in found:
        raise checks.CheckError(f"no usable instance from {cfg}")
    return found["inst"], found["path"]


class Stats:
    """What one round measured: operation seconds and solver quality."""

    def __init__(self):
        self.run_s = 0.0
        self.solve_s = 0.0
        self.first_schedule_s = 0.0
        self.anneal_s = 0.0
        self.improvements = 0
        self.stretches: list[float] = []


class Workload:
    """Base: subclasses fill in `build` (set-up), `round` and, where the
    benchmark adds inputs of its own making, `prepare`."""

    def __init__(self, seed: int):
        self.seed = seed
        self._bounds: dict[str, tuple[int, int]] = {}

    def bounds(self, inst: dict) -> tuple[int, int]:
        # cached: the checks run outside the timed operations, and an
        # instance's bounds do not change between rounds
        key = inst["name"]
        if key not in self._bounds:
            self._bounds[key] = checks.lower_bounds(inst)
        return self._bounds[key]

    def prepare(self) -> None:
        """Inputs the benchmark computes itself, made after set-up so that
        `setup_s` times only the program and the files it is given."""

    def solve(self, ops, stats: Stats, inst: dict, inst_path: Path, out: Path,
              objective: str, restarts: int, iterations: int) -> None:
        tel = out.with_suffix(".telemetry.jsonl")
        n = len(inst["starts"])
        result = {}

        def check(text: str) -> None:
            steps = checks.load_steps(out, n)
            result["stretch"] = checks.check_solve_output(
                text, objective, inst, steps, self.bounds(inst))
            result["telemetry"] = checks.read_telemetry(tel)

        seconds = ops.run(["solve", str(inst_path), "-o", str(out),
                           "--objective", objective, "--restarts", str(restarts),
                           "--anneal-iterations", str(iterations), "--seed", "0",
                           "--telemetry", str(tel)], check)
        stats.run_s += seconds
        stats.solve_s += seconds
        if "telemetry" in result:
            records = result["telemetry"]
            # the solve's own clock, which starts just after the operation
            first, last = (ops.reading.until(records[i]["time"]) for i in (0, -1))
            stats.first_schedule_s += first
            stats.anneal_s += last - first
            stats.improvements += sum(1 for r in records if r["phase"] == "anneal")
            stats.stretches.append(result["stretch"])

    def validate(self, ops, stats: Stats, inst: dict, inst_path: Path, sol: Path,
                 code: int = 0) -> None:
        def check(text: str) -> None:
            steps = checks.load_steps(sol, len(inst["starts"]))
            checks.check_validate_output(text, inst, steps, self.bounds(inst))

        stats.run_s += ops.run(["validate", str(inst_path), str(sol), "--objective", "max"],
                               check, code)

    def score(self, ops, stats: Stats, inst_dir: Path, teams: list[Path], out: Path,
              objective: str, values: Callable[[], dict], instances: list[dict]) -> None:
        def check(text: str) -> None:
            checks.check_scores(out, objective, values(),
                                {inst["name"]: self.bounds(inst) for inst in instances})

        stats.run_s += ops.run(["score", "--instances", str(inst_dir), *map(str, teams),
                                "--objective", objective, "--output", str(out),
                                "--instance-report"], check)

    def render(self, ops, stats: Stats, inst: dict, inst_path: Path, sol: Path,
               out: Path, frame_every: int) -> None:
        def check(text: str) -> None:
            n = len(inst["starts"])
            steps = checks.load_steps(sol, n)
            bad = checks.first_violation(inst, steps)
            times = checks.frame_times(len(steps), frame_every,
                                       None if bad is None else bad[0])
            checks.check_svg(out, n, times)

        stats.run_s += ops.run(["render", str(inst_path), str(out), "--solution", str(sol),
                                "--frame-every", str(frame_every)], check)


def solved_value(sol: Path, inst: dict, objective: str) -> Optional[int]:
    steps = checks.load_steps(sol, len(inst["starts"]))
    if checks.first_violation(inst, steps) is not None:
        return None
    makespan, total = checks.objectives(steps)
    return makespan if objective == "max" else total


@dataclass(frozen=True)
class Case:
    """One solve of a solve-centred workload and its solver settings."""

    label: str
    objective: str
    restarts: int
    iterations: int
    grid: Grid


class SolvePipeline(Workload):
    """generate -> solve -> validate -> score -> render, per case."""

    cases: tuple[Case, ...] = ()
    frame_every = 4

    def build_instance(self, ops, case: Case, casedir: Path) -> tuple[dict, Path]:
        # the directory `score --instances` reads: the generated instance,
        # beside the config it was generated from
        return generate(ops, case.grid, casedir / "instances")

    def build(self, ops, work: Path) -> None:
        self.work = work
        self.inputs = []
        for case in self.cases:
            casedir = work / case.label
            inst, path = self.build_instance(ops, case, casedir)
            (casedir / "solver").mkdir()
            self.inputs.append((case, inst, path))

    def round(self, ops) -> Stats:
        stats = Stats()
        for case, inst, path in self.inputs:
            casedir = self.work / case.label
            sol = casedir / "solver" / f"{inst['name']}.solution.json"
            self.solve(ops, stats, inst, path, sol, case.objective,
                       case.restarts, case.iterations)
            self.validate(ops, stats, inst, path, sol)
            self.score(ops, stats, path.parent, [sol.parent], casedir / "scores",
                       case.objective,
                       lambda: {("solver", inst["name"]): solved_value(sol, inst, case.objective)},
                       [inst])
            self.render(ops, stats, inst, path, sol, casedir / "render.svg",
                        self.frame_every)
        return stats


class CrowdMax(SolvePipeline):
    """A crowded generated map solved for makespan: construction and
    distance fields do the work; the lower bound is met before annealing."""

    def __init__(self, seed: int, small: bool):
        super().__init__(seed)
        grid = Grid(10, 10, 0.2, 2) if small else Grid(24, 24, 0.2, 8)
        self.cases = (Case("crowd", "max", 2, 200, grid),)


class Anneal(SolvePipeline):
    """Annealing-bound solves: a mid-size map under `sum`, and a tiny map
    whose lower bound is out of reach, so every iteration runs."""

    def __init__(self, seed: int, small: bool):
        super().__init__(seed)
        if small:
            self.cases = (Case("sum", "sum", 1, 20, Grid(8, 8, 0.25, 2)),
                          Case("tiny", "max", 4, 200, Grid(6, 6, 0.1, 0, seed=3)))
        else:
            self.cases = (Case("sum", "sum", 1, 300, Grid(16, 16, 0.25, 4)),
                          Case("tiny", "max", 4, 5000, Grid(6, 6, 0.1, 0, seed=3)))


class SparseFar(SolvePipeline):
    """Two robots swapping along a long diagonal past one obstacle: cost
    follows the area of the search window, not the number of robots."""

    frame_every = 40

    def __init__(self, seed: int, small: bool):
        super().__init__(seed)
        self.length = 40 if small else 400
        if small:
            self.frame_every = 4
        # the obstacle is the one 1x1 rectangle `gridmotion generate` places
        # on a 3x3 tile at the middle of the diagonal; the tile's robots are
        # not used
        tile = Grid(3, 3, 0.25, 1, seed=1,
                    extra="obstacle_size_mean = 1\nobstacle_size_stddev = 0\n")
        self.cases = (Case("diagonal", "max", 4, 200, tile),)

    def build_instance(self, ops, case: Case, casedir: Path) -> tuple[dict, Path]:
        tile, _ = generate(ops, case.grid, casedir / "tile")
        mid = self.length // 2 - 1
        a, b = (0, 0), (self.length, self.length)
        inst = {"name": f"diagonal-{self.length}", "starts": [a, b], "targets": [b, a],
                "obstacles": frozenset((x + mid, y + mid) for x, y in tile["obstacles"])}
        path = casedir / "instances" / f"{inst['name']}.instance.json"
        path.parent.mkdir(parents=True)
        path.write_text(checks.instance_json(inst), encoding="utf-8")
        return inst, path


class Tournament(Workload):
    """The organizer's side: a generated batch solved cheaply, then large
    schedules of known feasibility validated, scored and rendered.

    Walk instances take a generated map and its starts; their targets are
    where a random legal walk ends. In the walk every robot moves only into
    a pixel that is free and unclaimed at that step, so the walk is feasible
    by construction. Team `padded` inserts all-wait steps into each walk,
    and team `broken` replaces one step by a swap of two adjacent robots.
    """

    def __init__(self, seed: int, small: bool):
        super().__init__(seed)
        if small:
            self.grids = [Grid(6, 6, d, 1, seed=k + 1)
                          for k, d in enumerate((0.2, 0.3))]
            self.steps, self.pad, self.frame_every = 30, 3, 5
        else:
            self.grids = [Grid(12, 12, d, 4, seed=k + 1)
                          for k, d in enumerate((0.12, 0.16, 0.2, 0.24))]
            self.steps, self.pad, self.frame_every = 480, 12, 12

    def build(self, ops, work: Path) -> None:
        self.work = work
        self.inst_dir = work / "instances"
        self.inst_dir.mkdir(parents=True)
        self.teams = {t: work / t for t in ("solver", "walk", "padded", "broken")}
        for path in self.teams.values():
            path.mkdir(parents=True)
        self.generated = []
        for k, grid in enumerate(self.grids):
            gen, written = generate(ops, grid, work / f"generated-{k}")
            self.generated.append(gen)
            shutil.copyfile(written, self.inst_dir / written.name)

    def prepare(self) -> None:
        self.walks = []
        for k, (grid, gen) in enumerate(zip(self.grids, self.generated)):
            inst, schedules, known, at = self._walk(k, gen, grid)
            (self.inst_dir / f"{inst['name']}.instance.json").write_text(
                checks.instance_json(inst), encoding="utf-8")
            files = {}
            for team, sched in schedules.items():
                files[team] = self.teams[team] / f"{inst['name']}.solution.json"
                files[team].write_text(checks.solution_json(inst["name"], sched),
                                       encoding="utf-8")
            self.walks.append((inst, files, known, at))

    def _walk(self, k: int, gen: dict, grid: Grid):
        """The walk instance of generated map k and the three teams'
        schedules for it, drawn from the seed."""
        rng = random.Random(f"{self.seed}/walk/{k}")
        obstacles = gen["obstacles"]
        pos = list(gen["starts"])
        configs = [list(pos)]
        steps = []
        for _ in range(self.steps):
            occupied = set(pos)
            claimed: set = set()
            step = [(0, 0)] * len(pos)
            for i in rng.sample(range(len(pos)), len(pos)):
                x, y = pos[i]
                options = [(dx, dy) for dx, dy in checks.MOVES.values()
                           if 0 <= x + dx < grid.width and 0 <= y + dy < grid.height
                           and (x + dx, y + dy) not in obstacles
                           and (x + dx, y + dy) not in occupied
                           and (x + dx, y + dy) not in claimed]
                if options and rng.random() < 0.5:
                    step[i] = rng.choice(options)
                    claimed.add((x + step[i][0], y + step[i][1]))
            pos = [(x + dx, y + dy) for (x, y), (dx, dy) in zip(pos, step)]
            steps.append(step)
            configs.append(list(pos))
        name = f"walk-{k}-{gen['name']}"
        inst = {"name": name, "starts": gen["starts"], "targets": pos,
                "obstacles": obstacles}
        n = len(pos)
        half = len(steps) // 2
        padded = steps[:half] + [[(0, 0)] * n] * self.pad + steps[half:]
        at, i, j = self._adjacent_pair(configs, len(steps) // 3)
        swap = [(0, 0)] * n
        swap[i] = (configs[at][j][0] - configs[at][i][0], configs[at][j][1] - configs[at][i][1])
        swap[j] = (-swap[i][0], -swap[i][1])
        broken = steps[:at] + [swap] + steps[at + 1:]
        # what the construction promises; the round checks the program
        # against these
        makespan, total = checks.objectives(steps)
        checks.expect(checks.first_violation(inst, steps) is None
                      and checks.objectives(padded) == (makespan + self.pad, total)
                      and checks.first_violation(inst, broken) == (at, "R3", (i, j)),
                      f"{name}: the walk teams do not hold what they were built to")
        known = {"max": {"walk": makespan, "padded": makespan + self.pad, "broken": None},
                 "sum": {"walk": total, "padded": total, "broken": None}}
        schedules = {"walk": steps, "padded": padded, "broken": broken}
        return inst, schedules, known, at

    @staticmethod
    def _adjacent_pair(configs, start: int) -> tuple[int, int, int]:
        for t in range(start, len(configs) - 1):
            where = {p: i for i, p in enumerate(configs[t])}
            for i, (x, y) in enumerate(configs[t]):
                for q in ((x + 1, y), (x, y + 1)):
                    j = where.get(q)
                    if j is not None:
                        return t, min(i, j), max(i, j)
        raise RuntimeError("no two robots ever stand side by side in the walk")

    def round(self, ops) -> Stats:
        stats = Stats()
        solver = {}
        for gen in self.generated:
            path = self.inst_dir / f"{gen['name']}.instance.json"
            sol = self.teams["solver"] / f"{gen['name']}.solution.json"
            self.solve(ops, stats, gen, path, sol, "max", 1, 0)
            solver[gen["name"]] = (sol, gen)
        for inst, files, _, _ in self.walks:
            path = self.inst_dir / f"{inst['name']}.instance.json"
            for team, sol in files.items():
                self.validate(ops, stats, inst, path, sol, 1 if team == "broken" else 0)
        instances = self.generated + [w[0] for w in self.walks]
        for objective in ("max", "sum"):
            def values(objective=objective):
                out = {("solver", name): solved_value(sol, gen, objective)
                       for name, (sol, gen) in solver.items()}
                for inst, _, known, _ in self.walks:
                    for team, v in known[objective].items():
                        out[team, inst["name"]] = v
                return out
            self.score(ops, stats, self.inst_dir, list(self.teams.values()),
                       self.work / f"scores-{objective}", objective, values, instances)
        for inst, files, _, _ in self.walks:
            path = self.inst_dir / f"{inst['name']}.instance.json"
            for team in ("walk", "broken"):
                self.render(ops, stats, inst, path, files[team],
                            self.work / f"{inst['name']}-{team}.svg", self.frame_every)
        return stats


WORKLOADS = {
    "crowd-max": CrowdMax,
    "anneal": Anneal,
    "sparse-far": SparseFar,
    "tournament": Tournament,
}
