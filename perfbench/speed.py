"""Core-speed probe: verdict times normalised to a fixed core speed.

On a shared virtual machine, other tenants' work on the same physical core
slows this process by 1.5 to 1.9 times, in phases that last from a fraction
of a second to a few seconds and flip many times within one run; the speed
of the uncontended core itself drifts by several percent over minutes.  The
share of slow time differs from run to run, so raw verdict times spread by
15 to 35% between runs of the same code.

While the timed loop runs, a ``SIGALRM`` handler runs a fixed Fraction loop
every ``INTERVAL_S``, twice, and records when the second run started and how
long it took; the first run refills the caches the instance evicted, which
otherwise made the probe track the instance's code more than the core.  The
garbage collector is off during the probe, so the size of qpolykit's heap
does not show in it.  A timing from ``t0`` to ``t1`` is multiplied by the
mean of ``NOMINAL_PROBE_S`` / probe time over the probes from the last one
before ``t0`` to ``t1``: it becomes the time on a core that runs the probe
in ``NOMINAL_PROBE_S``.  Probe times are clamped to between the run's
fastest (its ``REFERENCE_QUANTILE``) and ``MAX_SLOWDOWN`` times that, so a
probe hit by an interrupt cannot shrink the timing it covers.  The probes
are qpolykit-free, so a change to qpolykit moves normalised times as it
moves raw ones.  They cost about 0.5% of the timed loop, which stays in the
raw times.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from array import array
from fractions import Fraction

INTERVAL_S = 0.01
NOMINAL_PROBE_S = 16.7e-6  # the probe on an uncontended 2.1 GHz Xeon vCPU, so normalised times are close to its wall times
REFERENCE_QUANTILE = 0.002  # the 0.2nd percentile; the single fastest probe is an outlier more often
MAX_SLOWDOWN = 2.0


def _probe_work() -> Fraction:
    total = Fraction(0)
    for k in range(1, 9):
        total += Fraction(1, k)
    return total


class SpeedProbe:
    """Context manager that probes the core speed every ``INTERVAL_S``."""

    def __init__(self) -> None:
        self.starts = array("d")
        self.durations = array("d")
        self._clamped: list[float] | None = None

    def _probe(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        _probe_work()
        t0 = time.perf_counter()
        _probe_work()
        self.durations.append(time.perf_counter() - t0)
        self.starts.append(t0)
        if collecting:
            gc.enable()

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference(self) -> float:
        """The run's fastest probe time, in seconds; 0 without probes."""
        ordered = sorted(self.durations)
        return ordered[int(len(ordered) * REFERENCE_QUANTILE)] if ordered else 0.0

    def clamped(self) -> list[float]:
        if self._clamped is None:
            ref = self.reference()
            self._clamped = [min(max(d, ref), MAX_SLOWDOWN * ref) for d in self.durations]
        return self._clamped

    def scale(self, t0: float, t1: float) -> float:
        """Factor that turns the wall time from ``t0`` to ``t1`` into nominal-core time."""
        if not self.durations:
            return 1.0
        clamped = self.clamped()
        first = max(0, bisect.bisect_right(self.starts, t0) - 1)
        last = max(first + 1, bisect.bisect_right(self.starts, t1))
        window = clamped[first:last]
        return sum(NOMINAL_PROBE_S / d for d in window) / len(window)

    def mean_speed(self) -> float:
        """The run's mean core speed as a share of its fastest."""
        clamped = self.clamped()
        return self.reference() * sum(1 / d for d in clamped) / len(clamped) if clamped else 1.0
