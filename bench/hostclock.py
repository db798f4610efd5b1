"""Host time scaled to the reference host's quiet speed.

Other tenants of a shared host slow this process down, by up to about 1.7×,
for stretches from a fraction of a second to half a minute: a whole run can
fall inside one.  A median over a run cannot remove that, so each timed span
is scaled by how fast the host ran during it.

While a ``HostClock`` is active, SIGALRM fires every ``interval_s`` and its
handler times a fixed pure-Python probe loop (run twice, the second timed, so
that the probe's own code and data are in cache).  The probe is timed in
thread CPU seconds, so a probe preempted by this process's own workers, as
in the ``--jobs 2`` sweep, does not read as a slow host.  A span's scaled
seconds are its host seconds × ``REFERENCE_PROBE_S`` ÷ the mean probe time
inside it: the seconds the span takes on the reference host when nothing
else loads it.  The probe does not depend on the program, so a change to the
program moves the span and not the probe.  Interval timers are not inherited
across ``fork``, so worker processes run unprobed.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02
PROBE_LOOPS = 300
# Probe time on the reference host when quiet (2-vCPU Xeon VM, Python 3.11).
REFERENCE_PROBE_S = 5.0e-5
MIN_PROBES = 3  # a span with fewer probes inside uses the latest MIN_PROBES


def probe_loop(n: int = PROBE_LOOPS) -> float:
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(n):
        k = i & 63
        v = table.get(k, 0.0) + i * 0.5
        table[k] = v
        acc += v / (k + 1.0)
    return acc


class HostClock:
    """Context manager that probes the host's speed while it is active."""

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.probes: list[float] = []

    def _probe(self, *_) -> None:
        probe_loop()
        t0 = time.thread_time()
        probe_loop()
        self.probes.append(time.thread_time() - t0)

    def __enter__(self) -> "HostClock":
        for _ in range(MIN_PROBES):
            self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, fn):
        """(fn(), host seconds, scaled seconds) of one call."""
        first = len(self.probes)
        t0 = time.perf_counter()
        result = fn()
        host = time.perf_counter() - t0
        inside = self.probes[first:]
        if len(inside) < MIN_PROBES:
            inside = self.probes[-MIN_PROBES:]
        return result, host, host * REFERENCE_PROBE_S / statistics.fmean(inside)
