"""Host-speed calibration: time engine calls in reference-speed units.

The host this benchmark was built on runs the same Python code at two
speeds, about 1.8x apart, and switches between them every few milliseconds
(shared cores); the share of time spent slow drifts over seconds, and process
CPU time tracks wall time throughout.  A run therefore times a short, fixed
chunk of pure-Python work -- a sparse polynomial product with tuple keys and
``Fraction`` coefficients, the engine's inner-loop shape -- during and
between engine calls, and scales each call by the mean chunk time around it:

    reference time = (wall time - chunk time inside the call)
                     * REF_CHUNK_S / (mean chunk time during and around the call)

Inside a call, an interval timer (SIGALRM) runs a chunk every ``INTERVAL_S``;
between calls, a chunk runs once ``INTERVAL_S`` has passed since the last.
A single chunk only tells which of the two speeds the host had for that
millisecond, so a call is scaled by every chunk that ran inside it or within
``PAD_S`` of it.  ``REF_CHUNK_S`` is the chunk's typical time on that host,
so reference times read close to wall times there.  The chunk uses only the
standard library and its own data, and runs with the garbage collector off,
so nothing the engine does to its own heap or caches changes it.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# typical time of one chunk on a 2-vCPU Intel Xeon VM, CPython 3.11
REF_CHUNK_S = 0.0018
# one chunk per this much wall time, inside calls and between them
INTERVAL_S = 0.02
# chunks this close to a call count towards its scale
PAD_S = 0.05


def _poly(seed):
    """A sparse polynomial: exponent tuple -> Fraction, 24 terms."""
    x = seed
    out = {}
    while len(out) < 24:
        x = (x * 1103515245 + 12345) % 2**31
        out[tuple((x >> s) % 4 for s in range(0, 18, 3))] = Fraction(x % 19 - 9 or 1, 1 + x % 5)
    return out


_A, _B = _poly(1), _poly(2)


def chunk():
    """Wall time of one fixed sparse-polynomial product, the engine's inner loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        out = {}
        for ka, ca in _A.items():
            for kb, cb in _B.items():
                k = tuple([x + y for x, y in zip(ka, kb)])
                c = ca * cb
                prev = out.get(k)
                if prev is None:
                    out[k] = c
                elif prev + c:
                    out[k] = prev + c
                else:
                    del out[k]
        sorted(out)
        dt = perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    return dt


def scale_of(seconds):
    """Reference seconds per wall second, from chunks run for about `seconds`."""
    times = [chunk()]
    end = perf_counter() + seconds
    while perf_counter() < end:
        times.append(chunk())
    return REF_CHUNK_S / statistics.fmean(times)


class Clock:
    """Converts the wall times of a sequence of calls to reference time.

    Bracket each timed call with ``begin_op()`` and ``end_op(t0, wall)``,
    and call ``finish()`` after the last one, also when the calls stop early:
    it disarms the timer and restores the previous SIGALRM handler.  With ``inside=False`` no chunk
    runs inside a call (for traced runs, whose span times must not include
    chunks); the calls are then scaled by the chunks around them alone.
    """

    def __init__(self, inside=True):
        self.inside = inside
        self.chunk_t = []        # start time of each chunk
        self.chunk_s = []        # its wall time
        self.ops = []            # (start, end, wall time less chunks) of each call
        self.in_op_s = 0.0       # time spent in chunks inside calls
        self._mark = 0.0
        if inside:
            self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        self._calibrate()

    def _calibrate(self):
        t = perf_counter()
        self.chunk_t.append(t)
        self.chunk_s.append(chunk())
        return perf_counter() - t

    def _on_alarm(self, signum, frame):
        self.in_op_s += self._calibrate()

    def begin_op(self):
        if self.inside:
            self._mark = self.in_op_s
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def end_op(self, t0, wall):
        end = t0 + wall
        if self.inside:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall -= self.in_op_s - self._mark
        self.ops.append((t0, end, wall))
        if perf_counter() - self.chunk_t[-1] >= INTERVAL_S:
            self._calibrate()

    def finish(self):
        """Reference time of every call, in order."""
        if self.inside:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old)
        self._calibrate()
        prefix = [0.0]
        for s in self.chunk_s:
            prefix.append(prefix[-1] + s)
        out = []
        for t0, t1, wall in self.ops:
            lo = bisect.bisect_left(self.chunk_t, t0 - PAD_S)
            hi = bisect.bisect_right(self.chunk_t, t1 + PAD_S)
            if hi == lo:         # no chunk that close: take the nearest later one
                lo = min(lo, len(self.chunk_s) - 1)
                hi = lo + 1
            out.append(wall * REF_CHUNK_S * (hi - lo) / (prefix[hi] - prefix[lo]))
        return out
