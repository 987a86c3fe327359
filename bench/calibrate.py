"""Host-speed calibration for the end-to-end times.

The benchmark runs on shared hosts whose speed drifts: the same operation,
in the same process, took 12 s at one moment and 19 s a minute later, and
CPU time moved with it.  So neither wall nor CPU time of a run is
comparable with a run made a few minutes later, or even with the next
operation.

A small fixed kernel, independent of the library, is therefore timed every
``INTERVAL_S`` of wall time while the workload runs: a real-time interval
timer raises ``SIGALRM``, and the handler runs the kernel between two
bytecodes of whatever the library is doing.  An operation's time, less the
time spent in the handler, is scaled by the kernel's nominal time over its
mean time in the samples taken during the operation and within ``PAD_S`` of
it.  A scaled time is thus in *reference seconds*: the time the work would
have taken on a host where one kernel run takes its nominal time.

Two kinds of code do not slow alike when the host is busy, so there are two
kernels, and each workload is scaled by the one like its hot loop:

* ``sets`` composes a relation held as a Python set of pairs: hashing and
  dict work, which tracked the ``free`` closure (its dedup and walks) best;
* ``bitrows`` closes a relation held as integer bit rows under an operation
  table read one numpy entry at a time, as ``relations.generate`` does.
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05       # one sample per 50 ms: about 2 % of the time
PAD_S = 0.25            # a short operation borrows the samples around it

_PAIRS = frozenset((i, (i * k + 3) % 100)
                   for i in range(100) for k in (2, 7, 11))
_TABLE = np.array([(x * 7 + y * 3 + x * y) % 5
                   for x in range(5) for y in range(5)], dtype=np.uint8)
_SEEDS = [(x, y) for x in range(5) for y in range(5) if (x + 2 * y) % 3 == 0]


def sets_kernel() -> int:
    """One run of the ``sets`` kernel; returns a checksum."""
    found = 0
    for _ in range(4):
        succ = {}
        for a, b in _PAIRS:
            succ.setdefault(a, []).append(b)
        composed = {(a, c) for a, b in _PAIRS for c in succ[b]}
        found += len(composed & _PAIRS)
    return found


def bitrows_kernel() -> int:
    """One run of the ``bitrows`` kernel; returns a checksum."""
    rows = [0] * 5
    found = 0
    for _ in range(12):
        for (x1, y1), (x2, y2) in itertools.product(_SEEDS, repeat=2):
            rows[int(_TABLE[x1 * 5 + x2])] |= 1 << int(_TABLE[y1 * 5 + y2])
        for row in rows:
            while row:
                low = row & -row
                found |= rows[low.bit_length() - 1]
                row ^= low
    return found


# name -> (kernel, nominal time): the median time of one run while a
# workload runs, on a 2-core Intel Xeon (Python 3.11.7, numpy 2.4.6).  Only
# the unit of the scaled times depends on it.
KERNELS = {"sets": (sets_kernel, 0.001), "bitrows": (bitrows_kernel, 0.0007)}


def burst(name: str, runs: int) -> float:
    """Reference seconds per measured second, from ``runs`` runs of a
    kernel made back to back now."""
    kernel, nominal_s = KERNELS[name]
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return nominal_s / statistics.median(times)


class Calibrator:
    """Timed samples of one kernel, each stamped with the time it ended.

    ``sample()`` takes one now; inside ``with sampling():`` the timer takes
    one every ``INTERVAL_S``.  ``spent`` is the time all samples took, so
    that a caller can take it out of what it measured.
    """

    def __init__(self, name: str):
        self.kernel, self.nominal_s = KERNELS[name]
        self.stamps: list[float] = []
        self.times: list[float] = []
        self.spent = 0.0
        for _ in range(20):            # warm caches and allocator
            self.kernel()

    def sample(self) -> None:
        start = time.perf_counter()
        self.kernel()
        end = time.perf_counter()
        self.stamps.append(end)
        self.times.append(end - start)
        self.spent += time.perf_counter() - start

    def _on_alarm(self, signum, frame):
        self.sample()

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per measured second between two
        ``perf_counter`` readings, from the samples within ``PAD_S``."""
        lo = bisect.bisect_left(self.stamps, start - PAD_S)
        hi = bisect.bisect_right(self.stamps, end + PAD_S)
        if hi - lo < 3:
            raise RuntimeError(f"only {hi - lo} calibration samples around "
                               f"an interval of {end - start:.3f} s")
        return self.nominal_s / statistics.fmean(self.times[lo:hi])
