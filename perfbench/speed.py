"""Machine-speed probes: every timed figure is scaled to a reference speed.

The benchmark shares a 2-core machine whose speed for the same work
changes by up to 2x from one second to the next (other tenants on the same
cores). A short fixed probe (probework.py), run every INTERVAL_S of wall
time from a timer signal, measures that speed during the timed calls and between
them; `Speed.scale` turns a call's time into the time it would take at the
reference speed, at which one probe takes its REFERENCE_S. The probes
share no code with counterpairs, so a change to the program cannot move
them, and the time they take inside a call is taken out of that call.

There are two probes: `python` (float math, small objects and function
calls in the interpreter, like the scalar closed forms and the CLI) and
`numpy` (exp and abs over a 1 MB complex array, like the oracle grids).
Each workload scales by the one that matches where its time goes.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import probework

REFERENCE_S = {"python": 1e-3, "numpy": 2.5e-3}   # probe times at the reference speed
INTERVAL_S = 0.02        # wall time between probes
HORIZON_S = 0.02         # probes this close to a call set its local speed

PROBES = {"python": probework.python_work, "numpy": probework.numpy_work}


def probe(kind: str) -> float:
    """Seconds of one run of a probe's fixed work."""
    t = time.perf_counter()
    PROBES[kind]()
    return time.perf_counter() - t


def factor(probes: list, kind: str) -> float:
    """Reference seconds per wall second at the mean speed of `probes`."""
    return REFERENCE_S[kind] / statistics.fmean(probes)


class Speed:
    """Timer-driven probes over a timed phase; scales calls by those near them.

    Use as a context manager around the timed phase. `spent` is the total
    time the probes took, so a caller can take it out of a call's time.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.probes: list[float] = []       # seconds of each probe
        self.times: list[float] = []        # perf_counter when each probe ended
        self.spent = 0.0
        self._previous = None

    def _on_timer(self, signum, frame) -> None:
        t = time.perf_counter()
        self.probes.append(probe(self.kind))
        end = time.perf_counter()
        self.times.append(end)
        self.spent += end - t

    def __enter__(self):
        probe(self.kind)                    # warm up outside the timed phase
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, seconds: float, start: float, end: float) -> float:
        """Probe-free `seconds` of a call over [start, end], at reference speed.

        The local speed is the mean of the probes within HORIZON_S of the
        call, and at least of the probes just before and just after it.
        """
        lo = min(bisect.bisect_left(self.times, start - HORIZON_S),
                 max(0, bisect.bisect_left(self.times, start) - 1))
        hi = max(bisect.bisect_right(self.times, end + HORIZON_S),
                 min(len(self.times), bisect.bisect_right(self.times, end) + 1))
        return seconds * factor(self.probes[lo:hi], self.kind)
