"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Every check in checks.py accepts a good output and rejects a corrupted
   copy of it. Good outputs come from the program itself, run in-process on
   a 4-robot instance.
2. The clock of speed.py does not count a sleep, and reads about twice the
   time for twice the work.
3. All four workloads run in `--small` mode, untraced and traced, with no
   failed operation and exactly the metrics BENCHMARK.json names.
4. In a directory that holds only BENCHMARK.json and the benchmark, the
   benchmark exits with a non-zero code and prints no result.
"""

from __future__ import annotations

import io
import json
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out" / "selftest"


def rejects(label: str, fn, *args) -> None:
    try:
        fn(*args)
    except checks.CheckError:
        print(f"ok   rejects {label}")
        return
    raise SystemExit(f"FAIL check accepted {label}")


def cli(*argv) -> str:
    from gridmotion.cli import main
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        main([str(a) for a in argv])
    return out.getvalue()


def check_the_checks() -> None:
    OUT.mkdir(parents=True)
    # robots 0 and 1 trade places around a wall; robot 2 idles, robot 3 walks
    inst = {"name": "selftest", "starts": [(0, 0), (2, 0), (0, 3), (4, 3)],
            "targets": [(2, 0), (0, 0), (0, 3), (4, 0)],
            "obstacles": frozenset({(1, 1), (1, 2)})}
    inst_path = OUT / "selftest.instance.json"
    inst_path.write_text(checks.instance_json(inst), encoding="utf-8")
    bounds = checks.lower_bounds(inst)
    if bounds != (3, 7):
        raise SystemExit(f"FAIL lower bounds {bounds}, expected (3, 7)")

    sol = OUT / "team" / "selftest.solution.json"
    sol.parent.mkdir()
    text = cli("solve", inst_path, "-o", sol, "--objective", "sum",
               "--anneal-iterations", 50, "--telemetry", OUT / "tel.jsonl")
    steps = checks.load_steps(sol, 4)
    checks.check_solve_output(text, "sum", inst, steps, bounds)
    checks.read_telemetry(OUT / "tel.jsonl")
    makespan, total = checks.objectives(steps)
    rejects("a solve value that is not the schedule's", checks.check_solve_output,
            text.replace(f"objective {total} ", f"objective {total - 1} "), "sum", inst,
            steps, bounds)
    rejects("a value below the lower bound", checks.check_solve_output, text, "sum",
            inst, steps, (bounds[0], total + 1))
    rejects("a schedule that misses a target", checks.check_solve_output, text, "sum",
            inst, steps[:-1], bounds)
    wait, E, W, N = (0, 0), (1, 0), (-1, 0), (0, 1)
    for rule, sched, want in (
            ("R1", [[N, wait, wait, wait], [E, wait, wait, wait]], (1, "R1", (0,))),
            ("R2", [[E, W, wait, wait]], (0, "R2", (0, 1))),
            ("R3", [[E, wait, wait, wait], [E, W, wait, wait]], (1, "R3", (0, 1))),
            ("target", [], (0, "target", (0, 1, 3)))):
        got = checks.first_violation(inst, sched)
        if got != want:
            raise SystemExit(f"FAIL replay found {got} for a {rule} breach, expected {want}")
        print(f"ok   replay finds {rule}")

    text = cli("validate", inst_path, sol, "--objective", "max")
    checks.check_validate_output(text, inst, steps, bounds)
    rejects("a wrong verdict", checks.check_validate_output,
            text.replace("feasible: True", "feasible: False"), inst, steps, bounds)
    rejects("a wrong makespan", checks.check_validate_output,
            text.replace(f"makespan: {makespan} ", f"makespan: {makespan + 1} "),
            inst, steps, bounds)
    rejects("a wrong lower bound", checks.check_validate_output,
            text.replace(f"lb_total: {bounds[1]}", f"lb_total: {bounds[1] - 1}"),
            inst, steps, bounds)

    scores = OUT / "scores"
    cli("score", "--instances", OUT, sol.parent, "--objective", "sum", "--output", scores,
        "--instance-report")
    values = {("team", "selftest"): total}
    checks.check_scores(scores, "sum", values, {"selftest": bounds})
    rejects("a score for a value the team does not have", checks.check_scores, scores,
            "sum", {("team", "selftest"): total + 1, ("other", "selftest"): total},
            {"selftest": bounds})
    for name, old, new in (("scores.csv", "1.000000", "0.900000"),
                           ("totals.csv", "1.000000", "2.000000"),
                           ("instances.csv", f",{bounds[1]},", f",{bounds[1] + 1},")):
        good = (scores / name).read_text(encoding="utf-8")
        (scores / name).write_text(good.replace(old, new, 1), encoding="utf-8")
        rejects(f"a corrupted {name}", checks.check_scores, scores, "sum", values,
                {"selftest": bounds})
        (scores / name).write_text(good, encoding="utf-8")

    svg = OUT / "render.svg"
    cli("render", inst_path, svg, "--solution", sol, "--frame-every", 2)
    times = checks.frame_times(len(steps), 2, None)
    checks.check_svg(svg, 4, times)
    good = svg.read_text(encoding="utf-8")
    for label, bad in (("a truncated SVG", good[: len(good) // 2]),
                       ("an SVG without its last frame label",
                        good.replace(f">t={times[-1]}<", ">x<")),
                       ("an SVG with a robot missing",
                        good.replace('opacity="0.9" ', "", 1))):
        svg.write_text(bad, encoding="utf-8")
        rejects(label, checks.check_svg, svg, 4, times)

    (OUT / "tel.jsonl").write_text('{"time": 0.1, "objective": 5, "phase": "restart"}\n'
                                   '{"time": 0.2, "objective": 6, "phase": "final"}\n')
    rejects("telemetry whose objective rises", checks.read_telemetry, OUT / "tel.jsonl")

    gen_dir = OUT / "generated"
    gen_dir.mkdir()
    (gen_dir / "grid.cfg").write_text("map_width = 8\nmap_height = 8\ndensity = 0.25\n"
                                      "obstacle_count = 3\nseed = 1\n")
    cli("generate", gen_dir / "grid.cfg", gen_dir)
    gen = checks.load_instance(next(gen_dir.glob("*.instance.json")))
    checks.check_generated(gen, 8, 8, 0.25)
    free = sorted({(x, y) for x in range(8) for y in range(8)}
                  - gen["obstacles"] - set(gen["starts"]))
    rejects("a wrong robot count", checks.check_generated,
            dict(gen, starts=gen["starts"] + [free[0]], targets=gen["targets"] + [free[1]]),
            8, 8, 0.25)
    rejects("duplicate starts", checks.check_generated,
            dict(gen, starts=[gen["starts"][1]] + gen["starts"][1:]), 8, 8, 0.25)
    rejects("a start on an obstacle", checks.check_generated,
            dict(gen, starts=[next(iter(gen["obstacles"]))] + gen["starts"][1:]), 8, 8, 0.25)
    ring = frozenset({(3, 4), (5, 4), (4, 3), (4, 5)})
    rejects("a walled-in free pixel", checks.check_generated,
            {"name": "pocket", "starts": [(0, 0)], "targets": [(7, 7)], "obstacles": ring},
            8, 8, 1 / 60)
    checks.check_generated({"name": "open", "starts": [(0, 0)], "targets": [(7, 7)],
                            "obstacles": ring - {(4, 5)}}, 8, 8, 1 / 61)


def check_the_clock() -> None:
    """speed.Speed counts work, not waiting, and twice the work reads about
    twice the time."""
    import speed

    def work(n: int) -> None:
        for k in range(n):
            sorted({(i * 7919 + k) % 10007: i for i in range(2000)}.items())

    clock = speed.Speed()

    def timed(fn) -> speed.Reading:
        with clock.measure() as reading:
            fn()
        return reading

    idle = timed(lambda: time.sleep(0.2))
    if idle.seconds > 0.05:
        raise SystemExit(f"FAIL a 0.2 s sleep read {idle.seconds:.3f} s")
    once = statistics.median(timed(lambda: work(100)).seconds for _ in range(3))
    twice = statistics.median(timed(lambda: work(200)).seconds for _ in range(3))
    if not 1.5 < twice / once < 2.7:
        raise SystemExit(f"FAIL twice the work read {twice / once:.2f} times the time")
    reading = timed(lambda: work(200))
    if len(reading.ticks) < 3 or not 0.3 < reading.until(reading.wall_s / 2) / reading.seconds < 0.7:
        raise SystemExit(f"FAIL {len(reading.ticks)} ticks; half the work read "
                         f"{reading.until(reading.wall_s / 2):.3f} of {reading.seconds:.3f} s")
    print(f"ok   clock: a sleep reads {idle.seconds:.4f} s, twice the work "
          f"{twice / once:.2f} times the time, {len(reading.ticks)} ticks in "
          f"{reading.wall_s:.2f} s")


def run_bench(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def check_small_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        names = sorted(m["name"] for m in spec[key])
        for w in spec["workloads"]:
            proc = run_bench(ROOT, "--workload", w["name"], "--seed", "7",
                             "--seconds", "0", "--trace", trace, "--small")
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            result = json.loads(last) if last.startswith("{") else {}
            if (proc.returncode != 0 or not result.get("correct") or result.get("failed")
                    or sorted(result.get("metrics", {})) != names):
                raise SystemExit(f"FAIL small {w['name']} trace {trace}: "
                                 f"{proc.stderr[-2000:]}\n{last[:2000]}")
            print(f"ok   small {w['name']} trace {trace}: {result['attempted']} operations")


def check_bare_directory() -> None:
    bare = OUT / "bare"
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(bare, "--workload", "tournament", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    if proc.returncode == 0 or proc.stdout.strip():
        raise SystemExit(f"FAIL without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"ok   without sources: exit {proc.returncode}, no result")


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    shutil.rmtree(OUT, ignore_errors=True)
    try:
        check_the_checks()
        check_the_clock()
        check_small_runs()
        check_bare_directory()
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
