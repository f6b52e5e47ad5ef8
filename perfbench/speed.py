"""The machine's speed, sampled while a workload runs.

The cores this benchmark runs on change speed by up to about 2x over
seconds to minutes (a fixed loop timed every 35 ms read 20 to 40 ms, with
CPU time tracking wall time), so raw timings of unchanged code spread by
more than any useful bound.  A timer signal therefore interrupts the
workload every PERIOD_S and runs a fixed pure-Python probe loop; the probe's
time says how fast the machine is at that moment.  A timing is reported
normalized: its raw time, less the probe time that fell inside it, scaled by
REF_PROBE_NS over the probe time measured around it.  A normalized figure
reads as the time the same work would take with the probe at REF_PROBE_NS.
The probe calls nothing of the package, so a change to the package moves the
normalized figures exactly as it moves the raw ones.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array
from bisect import bisect_left

PERIOD_S = 0.05
PROBE_ITERS = 4000
# the probe's time in this machine's fast phases (2 vCPUs, Python 3.11),
# so that normalized figures read as times at that speed
REF_PROBE_NS = 600_000
# samples on each side of an instant whose probe times are pooled for it
SMOOTH = 2


def probe(acc: dict) -> None:
    """A fixed amount of dict and int work on acc, a dict of the keys
    0-1023, that allocates no containers, so that no garbage-collector pass
    lands in it."""
    for i in range(PROBE_ITERS):
        k = i & 1023
        acc[k] = (acc[k] + i) & 0xFFFF


class Sampler:
    """Runs probe() from a SIGALRM handler every PERIOD_S and keeps each
    run's end (perf_counter_ns) and duration."""

    def __init__(self) -> None:
        self.stamps = array("q")
        self.durations = array("q")
        self._old = None
        self._acc = dict.fromkeys(range(1024), 0)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter_ns()
        probe(self._acc)
        t1 = time.perf_counter_ns()
        self.stamps.append(t1)
        self.durations.append(t1 - t0)

    def start(self) -> "Sampler":
        self._tick(None, None)  # a first sample, for runs shorter than PERIOD_S
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old or signal.SIG_DFL)

    def less_probe(self, starts, ends) -> list[int]:
        """The length of each interval [starts[i], ends[i]] less the probe
        runs that fell inside it.  Intervals ascend and do not overlap.  A
        handler runs between two bytecodes of the timed code, so each probe
        run lies wholly inside one interval or wholly outside it."""
        out = []
        n = len(self.stamps)
        k = 0
        for t0, t1 in zip(starts, ends):
            while k < n and self.stamps[k] <= t0:
                k += 1
            inside = 0
            while k < n and self.stamps[k] < t1:
                inside += self.durations[k]
                k += 1
            out.append(t1 - t0 - inside)
        return out

    def scale(self, t0_ns: int, t1_ns: int) -> float:
        """REF_PROBE_NS over the mean probe time of [t0_ns, t1_ns], widened
        to the nearest samples when the interval holds fewer than three."""
        lo = bisect_left(self.stamps, t0_ns)
        hi = bisect_left(self.stamps, t1_ns)
        if hi - lo < 3:
            lo, hi = max(0, lo - 2), min(len(self.stamps), hi + 2)
        if hi <= lo:
            raise RuntimeError("no speed sample near the timed interval")
        return REF_PROBE_NS / statistics.fmean(self.durations[lo:hi])

    def scales_at(self, ends_ns) -> list[float]:
        """A scale for each instant of an ascending sequence: REF_PROBE_NS
        over the median probe time of the 2 * SMOOTH + 1 samples nearest
        to it."""
        n = len(self.stamps)
        if n == 0:
            raise RuntimeError("no speed sample was taken")
        smooth = [
            REF_PROBE_NS / statistics.median(
                self.durations[max(0, k - SMOOTH):k + SMOOTH + 1])
            for k in range(n)
        ]
        out = []
        k = 0
        for t in ends_ns:
            while k + 1 < n and self.stamps[k + 1] <= t:
                k += 1
            # the sample just before t, or the one after when it is nearer
            if k + 1 < n and self.stamps[k + 1] - t < t - self.stamps[k]:
                out.append(smooth[k + 1])
            else:
                out.append(smooth[k])
        return out
