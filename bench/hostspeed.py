"""Host speed sampling, to report times at a fixed reference speed.

On a shared host the same pure-Python work can run at two speeds that
differ by about 2x, switching as often as every quarter second (measured
on a 2-vCPU Xeon virtual machine: a fixed Fraction loop alternates
between about 6.5 and 12 ms).  A 30-second run then mixes the two speeds in a proportion that
changes from run to run, which no amount of averaging removes.

``HostSpeed`` runs a small fixed Fraction kernel (the probe) from a
wall-clock interval timer, in the benchmark's own thread between
bytecodes, and records how long each probe took.  A command that ran
from t0 to t1 while probes took p seconds (harmonic mean) did work worth
``(t1 - t0) * REFERENCE_PROBE_S / p`` seconds at the reference speed:
the speed at which the probe takes ``REFERENCE_PROBE_S``, about the
uncontended speed of that machine.  The probe does the kind of rational
arithmetic adjreal does, so both slow down alike under contention, but
calls no adjreal code, so a change to adjreal cannot move the reference.

Because the speed changes that quickly, the probe runs throughout a
command: probes taken only between elements misjudge elements that last
seconds.  To keep the
program's own state out of the probe, each sample runs with the garbage
collector off and times a second probe right after an untimed one, which
has reloaded the probe's code and data into the caches the program was
using.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_PROBE_S = 0.00025
INTERVAL_S = 0.025
# A bare ``python -c pass`` start on the same machine, uncontended; the
# reference for interpreter start-up, which the probe does not track.
REFERENCE_BARE_START_S = 0.055


def probe() -> Fraction:
    """Fixed rational work, about a quarter of a millisecond uncontended."""
    a = Fraction(1, 3)
    s = Fraction(0)
    for k in range(1, 40):
        s += a * Fraction(k, k + 1) - Fraction(1, k)
    return s


class HostSpeed:
    """Context manager sampling the probe every ``INTERVAL_S`` of wall time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.starts = []
        self.durations = []
        self._previous = None

    def _sample(self, _signum, _frame):
        enabled = gc.isenabled()
        gc.disable()
        try:
            probe()
            start = self.clock()
            probe()
            self.starts.append(start)
            self.durations.append(self.clock() - start)
        finally:
            if enabled:
                gc.enable()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def probe_time(self, t0: float, t1: float) -> float:
        """Harmonic mean of the probe times over [t0, t1]; of the probes
        on either side of the window when none started inside it.

        Probes are evenly spaced, so the mean of their speeds (1/time)
        is the window's average speed, also when the host changed speed
        inside it; a probe that was descheduled counts as the near-zero
        speed the program also had then."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_right(self.starts, t1)
        inside = self.durations[i:j] or self.durations[max(0, i - 1) : i + 1]
        return statistics.harmonic_mean(inside) if inside else REFERENCE_PROBE_S

    def reference_seconds(self, t0: float, t1: float) -> float:
        """Seconds the interval [t0, t1] is worth at the reference speed."""
        return (t1 - t0) * REFERENCE_PROBE_S / self.probe_time(t0, t1)

    def slow_share(self) -> float:
        """Share of probes that ran at less than two thirds of the
        fastest speed seen, a rough measure of contention in the run."""
        if not self.durations:
            return 0.0
        fast = min(self.durations)
        return sum(d > 1.5 * fast for d in self.durations) / len(self.durations)
