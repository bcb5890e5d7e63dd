"""Speed of the host, measured by a fixed reference kernel between operations.

A shared host does not run at one speed.  On the 2-vCPU machine this
benchmark was built on, the same operation took 1.5 to 2.7 times longer
while other tenants loaded the host, and such a period lasts from a
fraction of a second to minutes: often longer than a run.  So the medians
of two runs of the same code differed by a quarter, whatever the run length.

The kernel below does a fixed amount of the same kind of work as the
program (Python loops, Philox generators, small float64 matrix products,
``argpartition``).  It is timed between operations and, every
``SAMPLE_GAP_S`` of ``run.py`` or so, between the program's top-level calls
inside an operation.  A wall-clock interval is reported in *reference
seconds*: each piece of it between two samples counts its duration times
``REFERENCE_S`` over the mean kernel time of those two samples, and the
samples themselves count nothing.  A change to the program moves the
pieces and not the kernel, so it shows in full; a slow period of the host
moves both, and cancels.  The raw wall times are kept in the record next
to the scaled ones.
"""
from __future__ import annotations

import bisect
import statistics
import time

# the kernel's time, in seconds, in a fast period of the machine above
REFERENCE_S = 0.013
REPEATS = 2


def kernel() -> float:
    import numpy as np
    w = np.linspace(-0.1, 0.1, 64 * 64).reshape(64, 64)
    x = np.linspace(-1.0, 1.0, 48 * 64).reshape(48, 64)
    acc = 0.0
    for i in range(400):
        g = np.random.Generator(np.random.Philox(key=i))
        idx = np.argpartition(g.random(64), 16)[:16]
        acc += float(np.tanh(x @ w)[:, idx].sum())
        for j in range(20):
            acc += j * 1e-12
    return acc


class HostSpeed:
    """Kernel samples (start, end, seconds) in ``time.perf_counter`` time."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        """Time the kernel ``REPEATS`` times back to back; keep the median."""
        start = time.perf_counter()
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self.seconds.append(statistics.median(times))

    def sample_after(self, gap: float) -> None:
        """Sample if the last sample ended ``gap`` seconds ago or more."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= gap:
            self.sample()

    def scale(self, t0: float, t1: float, reference: bool = True) -> float:
        """Reference seconds (or, if not ``reference``, wall seconds) of [t0, t1].

        The samples taken inside the interval are left out; every piece
        between two samples is scaled by their mean kernel time.
        """
        before = bisect.bisect_right(self.ends, t0) - 1
        after = bisect.bisect_left(self.starts, t1)
        if before < 0 or after == len(self.starts):
            raise ValueError(f"no kernel sample around [{t0}, {t1}]")
        out, lo = 0.0, t0
        for i in range(before + 1, after + 1):
            hi = min(self.starts[i], t1)
            k = (self.seconds[i - 1] + self.seconds[i]) / 2
            out += max(hi - lo, 0.0) * (REFERENCE_S / k if reference else 1.0)
            lo = max(self.ends[i], t0)
        return out

    def wall(self, t0: float, t1: float) -> float:
        """Wall seconds of [t0, t1], the samples inside it left out."""
        return self.scale(t0, t1, reference=False)
