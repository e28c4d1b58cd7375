"""Host-speed probe: how fast this host runs a fixed snippet, right now.

The benchmark shares a few cores of a host whose speed drifts by tens of
percent within seconds, because other tenants contend for the same cores
and caches.  CPU time tracks wall time there, so it does not help.  The
probe times a fixed snippet of interpreter and small-array numpy work, of
the kind the program does, at short, even intervals while a run is
measured.  ``speed`` is the mean of REFERENCE_S / snippet time over those
samples: the host's speed averaged over the run, relative to a host on
which the snippet takes REFERENCE_S.  Wall seconds times that speed are
*reference seconds*, the time the same work would take on that host.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: Snippet time on the 2-vCPU Intel Xeon host of the first results, when
#: quiet.  It only fixes the scale.
REFERENCE_S = 0.35e-3
#: Seconds between two samples while a probe is armed.
INTERVAL_S = 0.025

_VEC = np.full(64, 1.0 + 0.5j)
_MAT = np.eye(8, dtype=complex)


def snippet() -> float:
    """Fixed work: a Python loop around calls on 64-amplitude arrays."""
    v = _VEC
    acc = 0.0
    for i in range(120):
        v = v * (1.0 - 1e-9j)
        acc += abs(v[i % 64]) + float((_MAT @ _MAT)[0, 0].real)
    return acc


def sample() -> float:
    """Wall time of one snippet."""
    t0 = time.perf_counter()
    snippet()
    return time.perf_counter() - t0


def speed(samples) -> float:
    """Mean host speed over evenly spaced snippet times; 1 is the reference.

    A mean of speeds, not a median of times: with samples evenly spaced in
    wall time it is the speed averaged over the interval they cover, and a
    sample slowed by a preemption counts as one slow moment, not more.
    """
    return statistics.fmean(REFERENCE_S / t for t in samples)


class Probe:
    """Samples the snippet every INTERVAL_S in this process while armed.

    It runs from a SIGALRM handler, between the program's bytecodes, on the
    core the program runs on; its cost (about 2% of the time) is part of
    every measured run alike.  Interval timers are not inherited across
    fork, so pool workers and child interpreters are never interrupted.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self.samples.append(sample())

    def since(self, first: int) -> list[float]:
        """Samples taken after the first ``first``; one fresh one if none."""
        return self.samples[first:] or [sample()]

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
