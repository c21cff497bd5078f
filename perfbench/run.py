"""Benchmark of the gridmotion pipeline: one workload, one process, one thread.

    python3 perfbench/run.py --workload crowd-max --seed 1 --seconds 15 --trace 0

Run from anywhere inside a source checkout; the package is imported from
the checkout's `src/`. Set-up, timed in-process from just before
`import gridmotion` to the end of building the input files, runs once in
this process and once in each of SETUP_PROCESSES - 1 fresh interpreters
started with `--setup-only`; `setup_s` is the median. Then whole rounds of
the workload's operations run until `--seconds` have passed, at least
MIN_ROUNDS of them; the time metrics are medians over rounds. An untraced
run times everything by the clock of `speed.py`: CPU seconds at a reference
machine speed, steady under the load of a shared host. With
`--trace 1` every round runs with spans around gridmotion's public functions
and the per-layer metrics are printed instead. `--small` shrinks every
workload so that the whole pipeline runs in about a second. The last line of
standard output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
import spans
import speed
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROCESSES = 5
MIN_ROUNDS = 2

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "solve_s": "s",
                    "first_schedule_s": "s", "stretch": "ratio", "peak_rss_mb": "MB"}


class Ops:
    """Runs `gridmotion.cli.main(argv)` in-process and counts operations.

    An operation fails when it raises, exits with another code than
    expected, or its output fails the check. Only the call to main is timed,
    by `clock` (a speed.Speed or a speed.Wall); `run` returns its seconds and
    leaves the clock's reading of the call in `reading`. The check's own
    time is kept apart in `check_s`.
    """

    def __init__(self, clock):
        self.attempted = 0
        self.failed = 0
        self.check_s = 0.0
        self.reading = speed.Reading()
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.clock = clock
        self.errors: list[str] = []

    def run(self, argv: list[str], check=None, code: int = 0) -> float:
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        seconds = 0.0
        try:
            main = sys.modules["gridmotion.cli"].main
            with redirect_stdout(out), redirect_stderr(err):
                with self.clock.measure() as reading:
                    got = main(argv)
            self.reading, seconds = reading, reading.seconds
            self.wall_s += reading.wall_s
            self.cpu_s += reading.cpu_s
            start = time.perf_counter()
            try:
                checks.expect(got == code, f"exit code {got}, expected {code}: "
                                           f"{err.getvalue().strip()[-300:]}")
                if check is not None:
                    check(out.getvalue())
            finally:
                self.check_s += time.perf_counter() - start
        except checks.CheckError as exc:
            self.failed += 1
            self.errors.append(f"{' '.join(argv[:2])}: {exc}")
        except (Exception, SystemExit):   # a crash is a failed operation
            self.failed += 1
            self.errors.append(f"{' '.join(argv[:2])}: {traceback.format_exc()}")
        return seconds


def set_up(workload, work: Path, clock, tracer=None) -> float:
    """Import gridmotion, which must not be imported yet, and build the
    workload's inputs; returns the seconds `clock` gives for it, less the
    time spent checking outputs. Set-up operations are not counted with the
    rounds' operations: one that fails stops the run."""
    ops = Ops(speed.Wall())
    assert "gridmotion" not in sys.modules
    with clock.measure() as reading:
        importlib.import_module("gridmotion.cli")
        if tracer is not None:
            tracer.install()
        try:
            workload.build(ops, work)
        finally:
            if tracer is not None:
                tracer.remove()
    if ops.failed:
        raise checks.CheckError("; ".join(ops.errors))
    return reading.seconds - ops.check_s * reading.scale


def set_up_elsewhere(args, work: Path) -> float:
    """The set-up time of a fresh interpreter running `--setup-only`."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only", str(work)]
    if args.small:
        argv.append("--small")
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise checks.CheckError(f"set-up process exited {proc.returncode}: "
                                f"{proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="tiny inputs, for self-tests")
    parser.add_argument("--setup-only", metavar="DIR",
                        help="only set up, in DIR, and print the seconds it took")
    args = parser.parse_args(argv)

    if not (SRC / "gridmotion" / "__init__.py").is_file():
        print(f"error: no gridmotion sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    out_dir = HERE / "out"
    work = out_dir / f"{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, args.small)
    if args.setup_only:
        try:
            print(set_up(workload, Path(args.setup_only), speed.Speed()))
        except checks.CheckError as err:
            print(f"error: set-up failed: {err}", file=sys.stderr)
            return 1
        return 0

    # traced runs time plain wall seconds: their figures have no bound
    clock = speed.Wall() if args.trace else speed.Speed()
    ops = Ops(clock)
    try:
        setup_tracer = spans.Tracer() if args.trace else None
        setup_times = [set_up(workload, work / "setup", clock, setup_tracer)]
        if not args.trace:
            setup_times += [set_up_elsewhere(args, work / f"setup-{k}")
                            for k in range(1, SETUP_PROCESSES)]
        workload.prepare()

        tracer = spans.Tracer()
        rounds: list[workloads.Stats] = []
        walls: list[tuple[float, float]] = []
        start = time.perf_counter()
        if args.trace:
            tracer.install()
        try:
            while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
                wall, cpu = ops.wall_s, ops.cpu_s
                rounds.append(workload.round(ops))
                walls.append((ops.wall_s - wall, ops.cpu_s - cpu))
        finally:
            tracer.remove()
    except checks.CheckError as err:
        # without its inputs the workload cannot run at all
        print(f"error: set-up failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def median(values):
        return statistics.median(values) if values else 0.0

    if args.trace:
        metrics = spans.per_layer(tracer.spans, len(rounds))
        gen = [s for s in setup_tracer.spans if s[0] == "generate.generate"]
        metrics.update({
            "solve.anneal_s": statistics.mean(s.anneal_s for s in rounds),
            "solve.improvements": statistics.mean(s.improvements for s in rounds),
            "generate.s": sum(s[2] - s[1] for s in gen),
            "generate.robots": sum(s[4] for s in gen),
            "trace.overhead_s": len(tracer.spans) / len(rounds) * spans.wrapper_cost(),
        })
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{args.workload}-{args.seed}.jsonl")
        units = spans.UNITS
    else:
        metrics = {
            "setup_s": median(setup_times),
            "run_s": median([s.run_s for s in rounds]),
            "solve_s": median([s.solve_s for s in rounds]),
            "first_schedule_s": median([s.first_schedule_s for s in rounds]),
            "stretch": median([statistics.mean(s.stretches) for s in rounds if s.stretches]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS

    print("setup_s: " + " ".join(f"{t:.4f}" for t in setup_times), file=sys.stderr)
    print("round run_s: " + " ".join(f"{s.run_s:.4f}" for s in rounds), file=sys.stderr)
    print("round wall seconds: " + " ".join(f"{w:.4f}" for w, _ in walls), file=sys.stderr)
    if clock.samples:
        print("round CPU seconds: " + " ".join(f"{c:.4f}" for _, c in walls), file=sys.stderr)
        loops = statistics.quantiles(clock.samples, n=10)
        print(f"speed loop: {len(clock.samples)} ticks, deciles {loops[0] * 1000:.3f} to "
              f"{loops[-1] * 1000:.3f} ms, reference {speed.REFERENCE_S * 1000:.3f} ms",
              file=sys.stderr)
    for line in ops.errors[:10]:
        print(f"failed: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
