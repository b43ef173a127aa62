"""Host-speed probe, sampled while the benchmark runs.

The host this benchmark was written on shares its cores with other tenants.
Its speed drifts by up to 1.6x over tens of seconds, and wall time and
process CPU time drift together: the whole process runs slower, not less
often.  A fixed probe is run from a timer signal every ``PROBE_INTERVAL_S``
while the program works.  It mixes the two kinds of work the workloads do:
a Python-level loop over 10-vectors, like a learner round, and one numpy
pass over a 40k-element array, like the oracle suite.  The probe's mean
duration over an interval, divided by ``NOMINAL_PROBE_S``, is the host's
slowdown during that interval.  Time spent in probes is excluded from the
program's measured time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PROBE_INTERVAL_S = 0.05
# Typical probe duration while a workload runs, on the 2-core Xeon host the
# benchmark was written on.  A probe run from the timer shares the core's
# caches with the workload, so it is slower than in a tight loop.
NOMINAL_PROBE_S = 0.8e-3
_BLOCK = np.linspace(0.0, 1.0, 40_000)


def probe() -> float:
    """A fixed amount of interpreter and numpy work; returns a checksum."""
    w = np.zeros(10)
    total = 0.0
    for i in range(16):
        p = np.exp(w - w.max())
        p /= p.sum()
        j = int(np.searchsorted(np.cumsum(p), (i * 0.618) % 1.0))
        seen = tuple((k, float(p[k])) for k in range(10) if (i + k) % 4 == 0)
        est = np.zeros(10)
        for k, value in seen:
            est[k] = value / (p[k] + 0.1)
        w = w - 0.01 * est
        total += j
    return total + float(np.cumsum(np.sqrt(_BLOCK)).sum())


class HostSpeedSampler:
    """Runs ``probe`` from SIGALRM while installed (``with sampler:``)."""

    def __init__(self) -> None:
        self.durations: list[float] = []
        self.spent = 0.0  # seconds spent inside probes

    def _on_alarm(self, signum, frame) -> None:
        started = time.perf_counter()
        probe()
        elapsed = time.perf_counter() - started
        self.durations.append(elapsed)
        self.spent += elapsed

    def __enter__(self) -> "HostSpeedSampler":
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """perf_counter() minus the time spent in probes so far."""
        return time.perf_counter() - self.spent

    def mark(self) -> int:
        return len(self.durations)

    def slowdown(self, lo: int) -> float:
        """Mean probe duration since mark ``lo``, relative to nominal.  An
        interval too short to hold five probes is topped up by probing
        directly."""
        samples = self.durations[lo:]
        while len(samples) < 5:
            started = time.perf_counter()
            probe()
            samples.append(time.perf_counter() - started)
        return statistics.fmean(samples) / NOMINAL_PROBE_S
