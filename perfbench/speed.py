"""Correct host times for the speed the machine runs at during the pass.

On a shared virtual machine the same Python work takes up to 1.8× longer
in some spells than in others.  The spells last from a fraction of a second
to minutes, so the median of a whole run still moves by 15–25% between
runs.  Probes taken between passes do not track this, because the speed
changes within a pass.

The sampler therefore measures the speed during the pass itself: a timer
signal every ``INTERVAL_S`` runs a fixed probe in the benchmark's thread
and records how long it took.  Over an interval, the mean probe time is the
time-average of the machine's slowness, which stretches the program's work
by the same factor.  A pass's corrected time is

    (host time - time spent in probes) * REFERENCE_PROBE_S / mean probe time

which reads as host seconds on the machine at the reference speed.  The
mean is taken over all the intervals of one quantity in a round (its runs,
or its reports), or over the whole set-up phase, so that each holds dozens
to thousands of probes.  The probe uses no tokenpool code, so a change to tokenpool cannot change it,
and it allocates no container objects, so the program's garbage collections
never run inside it.
"""

from __future__ import annotations

import array
import bisect
import signal
import time
from contextlib import contextmanager
from typing import Iterator

INTERVAL_S = 0.002
#: Probe times above this multiple of the median count as stalls.  The
#: slow spells themselves stretch a probe by at most about 2x.
STALL_CAP = 4.0
#: Typical mean probe time on the machine the benchmark was defined on
#: (a 2-vCPU VM, CPython 3.11.7).
REFERENCE_PROBE_S = 24e-6


def _probe() -> int:
    # Plain interpreter work.  Of the probes tried (this loop, random reads
    # of a large list, dict lookups with SHA-256, Ed25519 verification), the
    # loop tracked tokenpool's round times best, and SHA-256 and Ed25519
    # worst: round time over probe time spread 8% for it, 20-38% for those.
    total = 0
    for k in range(300):
        total += k * k
    return total


class SpeedSampler:
    """Probe start times and durations while ``sampling()`` is active."""

    def __init__(self) -> None:
        self.at = array.array("d")
        self.took = array.array("d")
        for _ in range(100):
            _probe()

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _probe()
        t1 = time.perf_counter()
        self.at.append(t0)
        self.took.append(t1 - t0)

    @contextmanager
    def sampling(self) -> Iterator["SpeedSampler"]:
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _span(self, start: float, end: float) -> slice:
        return slice(bisect.bisect_left(self.at, start), bisect.bisect_left(self.at, end))

    def probe_s(self, start: float, end: float) -> float:
        """Time spent in probes between two clock readings."""
        return sum(self.took[self._span(start, end)])

    def probes_in(self, intervals: list[tuple[float, float]]) -> int:
        """Number of probes that ran inside the intervals."""
        return sum(len(self.took[self._span(start, end)]) for start, end in intervals)

    def scale(self, intervals: list[tuple[float, float]]) -> float:
        """Factor from host seconds to reference seconds for work done in
        the given intervals, from the probes that ran inside them.

        Probe times are capped at ``STALL_CAP`` times their median.  A stall
        of a few milliseconds that lands inside one 24 µs probe would
        otherwise count as hundreds of probes' worth of slowdown.
        """
        probes = sorted(t for start, end in intervals for t in self.took[self._span(start, end)])
        if not probes:
            raise RuntimeError("no speed probe ran in the intervals; were they inside sampling()?")
        cap = STALL_CAP * probes[len(probes) // 2]
        return REFERENCE_PROBE_S / (sum(min(t, cap) for t in probes) / len(probes))
