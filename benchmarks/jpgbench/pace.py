"""Host speed, measured beside the work, so times can be compared across runs.

The 2-vCPU VM the baseline was recorded on runs the same code up to 1.8
times slower at some times than at others, for seconds to minutes at a
time (a neighbour on the same physical core, invisible from inside).
Two runs of unchanged code a few minutes apart then differ by more than
any useful regression bound.  So every run also times a fixed
pure-Python reference loop, owned by the benchmark and untouched by any
change to the program, for about :data:`DUTY` of the time it measures:
between closed-loop operations, and in the idle gaps of the serve
workload's passes.  A phase's *slowdown* is the trimmed mean of its
reference-loop times over :data:`REFERENCE_S`, the loop's time on an
unloaded core of that VM.  Reported times are divided by it, and rates
multiplied: they read as times on the unloaded baseline machine.  The
run record keeps each phase's slowdown, so raw times can be had back.
"""

from __future__ import annotations

import statistics
import time

#: The reference loop's time on an unloaded core of the baseline VM.
REFERENCE_S = 1.0e-4
#: Share of a phase's busy time spent in the reference loop.
DUTY = 0.02
#: Share of loop times dropped at each end before averaging: a loop cut
#: by a preemption says nothing about the speed the work ran at.
TRIM = 0.1


def reference_loop() -> float:
    """Run the reference loop once; its time in seconds."""
    start = time.perf_counter()
    total = 0
    table = {}
    for i in range(1000):
        total += i * i % 7
        table[i & 255] = total
    return time.perf_counter() - start


class Pace:
    """Reference-loop samples of one phase of a run."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._next = 0.0

    def sample(self) -> None:
        """Time the reference loop once."""
        self.samples.append(reference_loop())

    def tick(self) -> None:
        """Sample if none has been taken for a :data:`DUTY` share of the
        time since the last; for loops that wait on another process."""
        now = time.perf_counter()
        if now >= self._next:
            self.sample()
            self._next = now + REFERENCE_S / DUTY

    def keep_up(self, busy_s: float) -> None:
        """Sample for about :data:`DUTY` of ``busy_s``, at least once."""
        for _ in range(max(1, round(DUTY * busy_s / REFERENCE_S))):
            self.sample()

    @property
    def slowdown(self) -> float:
        """How much slower than the reference the host ran (1.0 = as fast)."""
        ordered = sorted(self.samples)
        cut = int(len(ordered) * TRIM)
        return statistics.fmean(ordered[cut:len(ordered) - cut]) / REFERENCE_S

    def scaled(self, seconds: list[float]) -> list[float]:
        """``seconds`` as they would read on the unloaded reference host."""
        slowdown = self.slowdown
        return [s / slowdown for s in seconds]
