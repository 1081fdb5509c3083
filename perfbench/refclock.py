"""Reference seconds: wall time corrected for the host's current speed.

On a shared host the same single-threaded computation runs up to ~1.5x
slower for stretches of seconds to minutes, because of other tenants.  A
10 s run sits inside one such stretch, so its raw wall times mostly measure
the host.  The benchmark therefore interleaves a fixed reference computation
(the kernel below: scalar extended-precision complex arithmetic in a Python
loop, the same kind of work as qlaplace's inner loops) with the measured ops
and reports

    reference seconds = wall seconds * REF_CALL_S / (current wall time of one kernel call)

i.e. the op's time on a host where one kernel call takes REF_CALL_S.  The
kernel belongs to the benchmark, so a change to qlaplace cannot move it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

#: nominal wall time of one kernel call, in seconds
REF_CALL_S = 20e-6

_Z = np.clongdouble(0.3 + 0.4j)
_BASE = np.longdouble(0.9)


def _kernel():
    acc = _Z * 0 + 1.0
    t = _Z
    for _ in range(40):
        acc = acc * (1 - t)
        t = t * _BASE
    return acc


def probe(calls: int = 1000) -> float:
    """Current wall time of one kernel call, averaged over ``calls`` calls."""
    start = time.perf_counter()
    for _ in range(calls):
        _kernel()
    return (time.perf_counter() - start) / calls


class RefClock:
    """Samples the kernel every ``period`` seconds (SIGALRM) while active.

    Use as a context manager around a measuring loop, record each op's
    (start, end) from ``time.perf_counter()``, and convert them with
    :meth:`op_times` after the block has exited.
    """

    def __init__(self, period: float = 0.05, calls: int = 64):
        self.period, self.calls = period, calls
        self._starts: list[float] = []
        self._spent: list[float] = []
        self._costs: list[float] = []
        self._old_handler = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        cost = probe(self.calls)
        self._starts.append(start)
        self._spent.append(time.perf_counter() - start)
        self._costs.append(cost)

    def __enter__(self):
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        self._sample(signal.SIGALRM, None)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        return False

    def op_times(self, start: float, end: float) -> tuple[float, float]:
        """(wall s, reference s) of an op, without the sampling time in it.

        The host speed is the mean kernel cost over the samples taken during
        the op, or the last sample before it when the op was shorter than
        one period.
        """
        i = bisect.bisect_left(self._starts, start)
        j = bisect.bisect_left(self._starts, end)
        wall = end - start - sum(self._spent[i:j])
        costs = self._costs[i:j] or self._costs[max(i - 1, 0):max(i, 1)]
        return wall, wall * REF_CALL_S / statistics.fmean(costs)
