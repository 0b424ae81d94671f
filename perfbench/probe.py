"""Host-speed probe: how much slower than its reference the CPU runs.

On a shared host the benchmark's CPU is slowed by other tenants' work,
in bursts of tens of milliseconds that come and go for minutes at a
time. On the 2-core VM this benchmark was built on, a fixed
pure-Python loop ran at 14 ms per unit for minutes and at 22 ms for
the minutes around them, and the workloads' host times varied by a
third from one run to the next. No run is long enough to average that
away.

:class:`HostProbe` pins its process to one CPU -- repetition workers
started afterwards inherit the pin, campaign pool workers too -- and,
while a repetition runs, times a fixed kernel every :data:`PERIOD_S`
seconds on that CPU.  The kernel's CPU time divided by
:data:`REFERENCE_KERNEL_S` is the slowdown at that instant.  A phase of
the repetition is then reported in reference seconds::

    (elapsed - probe CPU time in the phase) / mean slowdown in the phase

that is, the time the phase would have taken had the kernel run at its
reference speed throughout.  The kernel mixes what the program does:
heap traffic over scattered objects, string formatting, struct packing
and small NumPy calls.

Each sample runs the kernel twice and times only the second pass, which
finds the kernel's code and data in the CPU's caches whatever the
program left there.  A timed cold pass would read the program under
test into the divisor: with a cold pass, the probe ran 5 to 6% slower
while a job with a 170 MB working set had the CPU than while the same
job with a 0.5 MB working set had it, so about a tenth of the job's
gain from the smaller working set vanished from its reference seconds;
with the warm pass the two readings differed by +1% and -4% in two
trials, within the noise between pairs of runs.  Sampling on the other
CPU was worse: it read the job's own load (see ``NOTES.md``).
"""

from __future__ import annotations

import gc
import heapq
import os
import struct
import time
from array import array

import numpy as np

#: Seconds between samples (the probe takes about 10% of its CPU).
PERIOD_S = 0.01
#: Fixed scale of the slowdown: about the kernel's CPU time on a lightly
#: contended CPU of the reference host (2-core Xeon VM at 2.1 GHz,
#: Python 3.11).
REFERENCE_KERNEL_S = 0.00055
#: A phase shorter than this is normalised by the slowdown over a window
#: this long around it, so that it rests on enough samples.
MIN_WINDOW_S = 0.5

_TABLE_SIZE = 100_000


class _Entry:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b


class HostProbe:
    """Samples the speed of one CPU; see the module docstring."""

    def __init__(self):
        self.cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self.cpu})
        self._table = [_Entry(i, i % 7) for i in range(_TABLE_SIZE)]
        self._keys = [(i * 7919) % _TABLE_SIZE for i in range(200)]
        self._grid = np.arange(64.0)
        # Keep the collector from traversing the table inside a sample.
        gc.freeze()
        self.at = array("d")    # monotonic time each sample started
        self.cost = array("d")  # the kernel's CPU seconds
        self.cpu_used = array("d")  # this process's CPU seconds after it

    def _kernel(self) -> int:
        heap: list = []
        acc = 0
        for i, key in enumerate(self._keys):
            entry = self._table[key]
            heapq.heappush(heap, ((entry.a * i + entry.b) % 1000, i, entry))
            if len(heap) > 64:
                acc += heapq.heappop(heap)[2].b
            acc += len(struct.pack("!HI", i & 0xFFFF, entry.a))
            acc += len(f"n{entry.a}:{i}")
        grid = self._grid
        for i in range(40):
            acc += int((np.hypot(grid - i, grid + i) < 50.0).sum())
        return acc

    def sample(self) -> None:
        self._kernel()  # warm pass, not timed
        start = time.monotonic()
        c0 = time.thread_time()
        self._kernel()
        c1 = time.thread_time()
        self.at.append(start)
        self.cost.append(c1 - c0)
        self.cpu_used.append(time.process_time())

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean slowdown over ``[t0, t1]``, widened to ``MIN_WINDOW_S``."""
        pad = max(0.0, (MIN_WINDOW_S - (t1 - t0)) / 2.0)
        # Copies, not views: a view would block further appends.
        at = np.array(self.at)
        inside = (at >= t0 - pad) & (at <= t1 + pad)
        if not inside.any():
            raise RuntimeError(f"no probe sample in [{t0 - pad:.3f}, {t1 + pad:.3f}]")
        return float(np.array(self.cost)[inside].mean()) / REFERENCE_KERNEL_S

    def normalised(self, t0: float, t1: float) -> float:
        """Reference seconds of a phase that ran on this CPU in ``[t0, t1]``."""
        at, used = np.array(self.at), np.array(self.cpu_used)
        probe_cpu = float(np.interp(t1, at, used) - np.interp(t0, at, used))
        return (t1 - t0 - probe_cpu) / self.slowdown(t0, t1)
