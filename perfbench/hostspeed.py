"""Reference seconds: measured times scaled by the host's speed at the moment.

The benchmark runs on a shared host whose speed drifts by up to 1.8x, on a
scale of seconds, as other tenants come and go.  Raw pass times follow that
drift, so two runs of the same code minutes apart can differ by a third.

``SpeedProbe`` measures the drift while the run measures the program.  Every
``PERIOD`` seconds a ``SIGALRM`` handler, which Python runs in the main
thread between two bytecodes of whatever is running, times one fixed
pure-Python ``chunk`` of about 150 us.  Half of it is interpreter work on a
small footprint (free reduction of a few words, dict bookkeeping), half is
allocation of small frozen dataclass instances, the two kinds of work that
symlift's layers mix; either half alone tracks some workloads' drift much
worse than the other.  The chunk does not call symlift, so a change to the
library does not change it.  The handler runs the chunk twice with the
garbage collector off and times the second run: a first, cold run would
also time the program's cache footprint and, when it happens to trigger a
collection, the program's heap, and both made the probe noisier than the
drift it measures.  Its time, smoothed by a running median
over ``HALF_WINDOW`` seconds on either side, is the host's local slowness.
A timed interval ``[t0, t1]`` of ``clock`` then counts

    reference seconds = integral over [t0, t1] of REFERENCE_CHUNK_S / chunk(t) dt

that is, the seconds it would have taken at the speed at which the chunk
takes ``REFERENCE_CHUNK_S``.  A program that gets faster shows smaller
reference times; a host that gets slower does not.

``clock`` is ``perf_counter`` minus the time spent in the handler, so the
probe's own work is not counted in the intervals it measures.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
from dataclasses import dataclass
from time import perf_counter

PERIOD = 0.02
HALF_WINDOW = 0.1
# the chunk's median time on the 2-vCPU Intel Xeon host (2.0 GHz, Python
# 3.11.7) that perfbench/baseline.json was recorded on: reference seconds
# read close to that host's wall seconds
REFERENCE_CHUNK_S = 150e-6

_rng = random.Random(0)
_WORDS = [tuple(_rng.choice((1, -1, 2, -2, 3, -3)) for _ in range(60)) for _ in range(8)]
_ALLOCATIONS = 32


@dataclass(frozen=True)
class _Syllable:
    letters: tuple
    power: int


def chunk() -> tuple[dict, list]:
    """The fixed unit of interpreter work that the probe times."""
    held = []
    for i in range(_ALLOCATIONS):
        s = _Syllable((i, i + 1), i)
        held.append((_Syllable(s.letters + (i,), s.power + 1), s))
    seen: dict = {}
    for word in _WORDS:
        out: list = []
        for x in word:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        t = tuple(out)
        seen[t] = seen.get(t, 0) + len(t)
    return seen, held


class SpeedProbe:
    def __init__(self) -> None:
        self.stolen = 0.0
        self.times: list[float] = []
        self.chunks: list[float] = []
        self._knots: list[float] = []
        self._rates: list[float] = []
        self._integral: list[float] = []
        self._previous_handler = None

    def clock(self) -> float:
        """Seconds, excluding the time spent in the probe's handler."""
        return perf_counter() - self.stolen

    def _handler(self, signum, frame) -> None:
        start = perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        chunk()
        t0 = perf_counter()
        chunk()
        t1 = perf_counter()
        if collecting:
            gc.enable()
        self.times.append(start - self.stolen)
        self.chunks.append(t1 - t0)
        self.stolen += perf_counter() - start

    def start(self) -> None:
        self._previous_handler = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        """Stop sampling and fit the reference-time scale to the samples."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous_handler or signal.SIG_DFL)
        if self.times:
            self.fit()

    def fit(self) -> None:
        """Rate of reference seconds per second at each sample: the reference
        chunk time over the median chunk time within ``HALF_WINDOW``."""
        lo = hi = 0
        rates = []
        for t in self.times:
            while self.times[lo] < t - HALF_WINDOW:
                lo += 1
            while hi < len(self.times) and self.times[hi] <= t + HALF_WINDOW:
                hi += 1
            rates.append(REFERENCE_CHUNK_S / statistics.median(self.chunks[lo:hi]))
        integral = [0.0]
        for i in range(1, len(self.times)):
            integral.append(integral[-1] + rates[i - 1] * (self.times[i] - self.times[i - 1]))
        self._knots, self._rates, self._integral = self.times, rates, integral

    def _at(self, t: float) -> float:
        if not self._knots:
            raise RuntimeError("the speed probe took no samples")
        i = max(bisect.bisect_right(self._knots, t) - 1, 0)
        return self._integral[i] + self._rates[i] * (t - self._knots[i])

    def reference(self, intervals) -> float:
        """Reference seconds of ``[(t0, t1), ...]`` measured with ``clock``."""
        return sum(self._at(t1) - self._at(t0) for t0, t1 in intervals)

    def median_slowness(self) -> float:
        """Median chunk time over the run divided by ``REFERENCE_CHUNK_S``."""
        return statistics.median(self.chunks) / REFERENCE_CHUNK_S


PROBE = SpeedProbe()
clock = PROBE.clock
