"""A reference kernel that gauges how fast the host is running right now.

On a shared host the same code runs at different speeds from one second to
the next, by up to 2x: other tenants take caches, memory bandwidth and
turbo headroom, so CPU time moves with wall time, and how much of a run
falls in slow spells changes from run to run. The worker therefore runs a
fixed kernel between operations and scales each operation's time by the
kernel's nominal duration over its durations measured around that
operation. A scaled time reads the seconds the operation would take on a
host where the kernel takes NOMINAL_S.

The kernel uses numpy only, never uwblab, so a change to the program does
not change it. It draws, squares, partitions and gathers rows x 180
arrays, the steps of a Monte-Carlo vote; each workload picks the row count
whose working set is like its own (see workloads.py). Of the kernels
tried (a pure-Python loop, small-array numpy calls, seed spawning, and
arrays of 16 to 2048 rows), these tracked the workloads' speed most
closely: 16 rows, where numpy's per-call overhead dominates, for ranging
sessions, and 2048 rows, which spill out of the core's own caches, for
Monte-Carlo chunks.

What the scaling cannot take out: a change to the program that slows the
kernel too, for instance by leaving caches or the heap in a worse state,
shows only in part.
"""

import bisect
import time
from array import array

import numpy as np

NOMINAL_S = {16: 0.00014, 2048: 0.0135}  # typical kernel time on the host it was built on
SHARE = 0.05  # of the measured time, spent running the kernel
WINDOW_S = 0.5  # samples taken this close to an operation gauge it


def kernel(rows: int) -> float:
    rng = np.random.default_rng(12345)
    energies = rng.normal(0.0, 1.0, (rows, 180)) ** 2
    cols = np.argpartition(rng.random((rows, 180)), 49, axis=1)[:, :50]
    return float(np.take_along_axis(energies, cols, axis=1).sum())


class Gauge:
    """Kernel durations, sampled as measured work accrues."""

    def __init__(self, rows: int):
        self.rows = rows
        self.nominal_s = NOMINAL_S[rows]
        self.starts = array("d")  # perf_counter at the start of each sample
        self.seconds = array("d")  # duration of each sample
        self._every_s = self.nominal_s / SHARE
        self._owed = 0.0
        kernel(rows)  # the first call pays for numpy's lazy set-up

    def after(self, seconds: float) -> None:
        """Account `seconds` of measured work and take the samples it owes."""
        self._owed += seconds
        while self._owed >= self._every_s:
            self._owed -= self._every_s
            self.sample()

    def sample(self) -> None:
        t0 = time.perf_counter()
        kernel(self.rows)
        self.starts.append(t0)
        self.seconds.append(time.perf_counter() - t0)

    def scale(self, start: float, seconds: float) -> float:
        """`seconds` measured from `start`, scaled to the nominal host speed.

        The reference is the median sample within WINDOW_S of the interval,
        or of the samples next to it on either side when none is that close.
        """
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, start + seconds + WINDOW_S)
        if lo == hi:
            lo, hi = max(0, lo - 3), lo + 3
        return seconds * self.nominal_s / float(np.median(self.seconds[lo:hi]))
