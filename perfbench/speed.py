"""Operation times that do not follow the load of a shared host.

A run's process shares its machine with other work, which slows it in two
ways. The machine takes the virtual CPU away for a while (steal time): wall
time goes on, the process's CPU time does not. And while the process runs,
the same Python code runs up to 1.5 times slower for stretches of a tenth
of a second to minutes: a fixed loop of 100,000 integer steps takes about
7.8 ms or about 11.2 ms, flipping between the two. So an operation is timed
in CPU time of the process, and while it runs, a timer interrupts it every
PERIOD_S seconds and times a short integer loop of the benchmark's own. The
operation's CPU seconds, less the ticks' own, are scaled by the mean over
the ticks of REFERENCE_S / (the loop's CPU time): seconds on a machine
where nothing else runs and the loop always takes REFERENCE_S. The loop
touches nothing of gridmotion and stays in the first-level caches, so a
change to the program moves the scaled time as much as it moves the CPU
time. Time the program spends blocked, on a sleep or on a disk, is not
counted; the workloads only read and write files in the page cache.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array
from contextlib import contextmanager
from typing import NamedTuple

LOOP_ITERATIONS = 5_000
REFERENCE_S = 0.0004    # the loop's CPU time on the reference machine
PERIOD_S = 0.015        # between ticks; the ticks cost about 3% of it


def spin() -> int:
    total = 0
    for i in range(LOOP_ITERATIONS):
        total += i * i % 7
    return total


def loop_time() -> float:
    start = time.process_time()
    spin()
    return time.process_time() - start


class Tick(NamedTuple):
    wall: float     # wall seconds from the start of the work
    cpu: float      # CPU seconds from the start of the work
    loop: float     # CPU seconds of the loop
    cost: float     # CPU seconds of the whole tick


class Reading:
    """One measured stretch of work: its wall and CPU time and its ticks.

    A tick keeps its four figures in a flat array rather than a tuple, so
    that it allocates no object the garbage collector tracks: such objects
    move the collections, and with them the peak memory, of the program
    that the tick interrupts."""

    def __init__(self, fallback: float = REFERENCE_S):
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.figures = array("d")   # wall, cpu, loop, cost of each tick
        self.fallback = fallback    # the loop's time when no tick fell in

    @property
    def ticks(self) -> list[Tick]:
        f = self.figures
        return [Tick(*f[i:i + 4]) for i in range(0, len(f), 4)]

    def cpu_at(self, wall: float) -> float:
        """CPU seconds used by wall time `wall`, interpolated between ticks."""
        points = [(0.0, 0.0), *((t.wall, t.cpu) for t in self.ticks),
                  (self.wall_s, self.cpu_s)]
        for (w0, c0), (w1, c1) in zip(points, points[1:]):
            if wall <= w1:
                return c0 + (c1 - c0) * (wall - w0) / (w1 - w0) if w1 > w0 else c0
        return self.cpu_s

    def until(self, wall: float) -> float:
        """Reference seconds of the work's first `wall` wall seconds: its
        CPU time less the ticks', scaled by the ticks in it (by all ticks,
        when none fell in it)."""
        every = self.ticks
        ticks = [t for t in every if t.wall < wall] or every
        loops = [t.loop for t in ticks] or [self.fallback]
        spent = sum(t.cost for t in every if t.wall < wall)
        return (self.cpu_at(wall) - spent) * statistics.fmean(
            REFERENCE_S / loop for loop in loops)

    @property
    def seconds(self) -> float:
        return self.until(self.wall_s)

    @property
    def scale(self) -> float:
        """Reference seconds per wall second over the whole stretch."""
        return self.seconds / self.wall_s if self.wall_s > 0 else 1.0


class Wall:
    """Measures plain wall time, for runs whose times are not scaled."""

    samples: list[float] = []

    @contextmanager
    def measure(self):
        reading = Reading()
        start = time.perf_counter()
        try:
            yield reading
        finally:
            reading.wall_s = reading.cpu_s = time.perf_counter() - start


class Speed:
    """Measures stretches of work at the reference speed. Uses SIGALRM and
    the real-time interval timer, so it must run in the main thread."""

    def __init__(self):
        self.reading: Reading | None = None
        self.wall0 = self.cpu0 = 0.0
        self.last = loop_time()     # for work too short to get a tick
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        if self.reading is None:    # a tick that was on its way at the end
            return
        wall, cpu = time.perf_counter(), time.process_time()
        spin()
        loop = time.process_time() - cpu
        figures = self.reading.figures
        figures.append(wall - self.wall0)
        figures.append(cpu - self.cpu0)
        figures.append(loop)
        figures.append(time.process_time() - cpu)

    @contextmanager
    def measure(self):
        reading = self.reading = Reading(self.last)
        signal.setitimer(signal.ITIMER_REAL, 0.001, PERIOD_S)
        self.wall0, self.cpu0 = time.perf_counter(), time.process_time()
        try:
            yield reading
        finally:
            reading.cpu_s = time.process_time() - self.cpu0
            reading.wall_s = time.perf_counter() - self.wall0
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            self.reading = None
            if reading.figures:
                self.last = reading.figures[-2]
                self.samples += reading.figures[2::4]
