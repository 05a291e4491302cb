"""Host speed probe, sampled while a body runs.

The benchmark's host shares its cores with other machines.  Each of its
vCPUs switches, for seconds to a minute at a time, between a fast and a slow
state (the same code takes about a third longer in the slow one), and the
two vCPUs switch independently.  Ten runs of the same body therefore spread
their raw wall times by 10-30% (interquartile range over median).

A timer signal interrupts the measured thread every ``INTERVAL`` seconds, and
the handler times ``probe_work``: a fixed piece of work of about 2 ms of the
kinds the workloads run (interpreter-bound loops over tiny arrays, vector
arithmetic, a small dense solve and plain Python arithmetic).  It runs in the
same thread, so on the same vCPU as the body at that moment.  The median of a
body's samples says how fast the host ran it; the time the handler takes is
subtracted from the body.  The probe does not import the package, so a
change to the package cannot change what it measures.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL = 0.1      # seconds between samples: about 20 in the shortest body

_rng = np.random.default_rng(20261017)
_TINY = _rng.standard_normal((3, 64))
_WEIGHTS = np.full(64, 1.0 / 64)
_VECTOR = _rng.standard_normal(2000)
_DENSE = _rng.standard_normal((80, 80)) + 80.0 * np.eye(80)
_RHS = _rng.standard_normal(80)


def probe_work() -> float:
    """The fixed work; returns a checksum so that none of it can be skipped."""
    acc = 0.0
    for _ in range(40):             # interpreter-bound, tiny arrays
        X = _TINY @ (_WEIGHTS[:, None] * _TINY.T)
        acc += float(np.einsum("ij,jk,ik->i", _TINY.T, np.linalg.inv(X), _TINY.T).max())
    x = _VECTOR.copy()
    for _ in range(20):             # vector arithmetic
        x = np.where(np.abs(x) < 3.0, 0.9 * x + 0.1 * np.sin(x), 0.0)
    acc += float(np.linalg.solve(_DENSE, _RHS)[0])     # dense factorisation
    s = 0
    for i in range(4000):           # plain Python arithmetic
        s += i * i % 7
    return acc + float(x.sum()) + s


class SpeedProbe:
    """Samples the probe between ``start`` and ``stop``; used once."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0            # seconds the handler took, probe included

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe_work()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self._handler(None, None)   # one sample however short the body;
        self.spent = 0.0            # it is taken before the body's clock starts
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def median(self) -> float:
        return statistics.median(self.samples)
