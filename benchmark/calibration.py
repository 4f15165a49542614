"""A fixed reference kernel that tracks the machine's current speed.

On a shared 2-core VM the same code runs up to 1.8x slower for stretches of
a fraction of a second to minutes, depending on what the neighbours do. A
20-second run cannot average that away: ref100 medians ranged from 1.00 to
1.82 ms/slot within one minute. The benchmark therefore times this kernel
every few tenths of a second, at unit boundaries, and rescales each unit's
time to the speed at which the kernel takes ``REFERENCE_MS``. In the same
minute the rescaled medians stayed within 1.14 to 1.17 ms/slot.

A workload slows less than the kernel when the machine slows: its unit
times follow the kernel's to the power ``exponent`` (the log-log slope of
unit time on kernel time, 0.45 to 0.77 for the four workloads), and the
rescaling uses that power.

The kernel mixes what the workloads spend their time on: small dense
solves, random gathers over a 40k-row array and interpreted Python. It
lives in the benchmark, so a change to the library cannot move it.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

REFERENCE_MS = 2.0


class Calibration:
    """Times the reference kernel."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self._a = rng.random((25, 25)) + 25.0 * np.eye(25)
        self._b = rng.random((25, 2))
        self._rows = rng.random((40_000, 2))
        self._idx = rng.integers(0, 40_000, 20_000)
        self.readings = []

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        for _ in range(40):
            np.linalg.solve(self._a, self._b)
        for _ in range(3):
            self._rows[self._idx].sum()
        s = 0
        for i in range(5_000):
            s += i
        return (time.perf_counter() - t0) * 1e3

    def measure(self) -> float:
        """Best of three kernel runs, in ms; appended to ``readings``."""
        ms = min(self._kernel() for _ in range(3))
        self.readings.append(ms)
        return ms

    @staticmethod
    def scale(before: float, after: float, exponent: float) -> float:
        """Factor to reference speed for work between two readings."""
        return (REFERENCE_MS / (0.5 * (before + after))) ** exponent


class UnitClock:
    """Calibration readings inside one episode, taken at unit starts.

    The workload calls ``tick()`` at the start of every unit, inside the
    time the unit is measured by. Every ``every``-th tick takes a reading;
    its own duration is later subtracted from that unit. ``adjust`` turns
    measured unit times into times at reference speed, each unit scaled by
    the readings just before and after it. Units that the library stops
    ticking for (a refactored loop) fall back to the readings taken at the
    episode's start and end.
    """

    def __init__(self, cal: Calibration, every: int, exponent: float):
        self.cal, self.every, self.exponent = cal, every, exponent
        self.ticks = 0
        self.marks = [0]                  # unit index of each reading
        self.values = [cal.measure()]     # reading at that index, ms
        self.cost = {}                    # unit index -> ms spent ticking

    def tick(self) -> None:
        k = self.ticks
        self.ticks += 1
        if k and k % self.every == 0:
            t0 = time.perf_counter()
            self.values.append(self.cal.measure())
            self.marks.append(k)
            self.cost[k] = (time.perf_counter() - t0) * 1e3

    def finish(self, units: int) -> None:
        self.marks.append(units)
        self.values.append(self.cal.measure())

    def scale_at(self, k: int) -> float:
        j = bisect.bisect_right(self.marks, k) - 1
        return Calibration.scale(self.values[j], self.values[j + 1],
                                 self.exponent)

    def raw(self, unit_ms: list) -> list:
        """Unit times without the time spent in readings."""
        return [ms - self.cost.get(k, 0.0) for k, ms in enumerate(unit_ms)]

    def adjust(self, unit_ms: list) -> list:
        return [ms * self.scale_at(k)
                for k, ms in enumerate(self.raw(unit_ms))]
