"""Processor-speed sampling used to scale timings to a reference speed.

On a shared machine the same code runs up to twice as slowly while another
tenant loads the core, and the slow and fast stretches alternate within a
fraction of a second.  The process's CPU time stretches with its wall time,
so neither clock shows the interference.  While a unit runs, ``SpeedMeter``
therefore times a small fixed probe every ``INTERVAL_S`` seconds from an
interval-timer signal.  The probe is written here, independent of the
program, and mixes the kinds of work the workloads do: a Python loop over
small NumPy arrays (like the eigenfunction recurrence), a dense matrix
product (like the oracle) and plain Python arithmetic.  A unit's time at the
reference speed is its wall time, less the probes' own time, times the mean
of ``REFERENCE_S / probe time`` over its samples: its time on a machine where
the probe always takes ``REFERENCE_S``.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

#: Probe time that defines the reference speed (about the probe's time in
#: the fast state of a 2-core x86-64 sandbox, numpy 2.4.6, one BLAS thread).
REFERENCE_S = 0.00022
#: Wall time between two speed samples while a unit runs.
INTERVAL_S = 0.05

_X = np.linspace(-4.0, 4.0, 64)
_A = np.random.default_rng(0).standard_normal((48, 48)) / 7.0


def probe() -> float:
    """Wall time of the fixed probe work, in seconds."""
    start = time.perf_counter()
    p0 = np.exp(-0.5 * _X * _X)
    p1 = np.sqrt(2.0) * _X * p0
    for n in range(1, 60):
        p0, p1 = p1, np.sqrt(2.0 / (n + 1)) * _X * p1 - np.sqrt(n / (n + 1.0)) * p0
    np.tanh(_A @ _A)
    s = 0
    for i in range(800):
        s += (i * i) % 7
    return time.perf_counter() - start


class SpeedMeter:
    """Samples the probe every ``INTERVAL_S`` of wall time while active.

    Signal handlers run in the main thread between bytecodes, so the probe
    interrupts the program for about ``REFERENCE_S`` and touches none of its
    state.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(probe())

    def __enter__(self) -> "SpeedMeter":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self) -> float:
        """Mean speed over the samples, relative to the reference; one more
        probe is taken now, so that short units have a sample."""
        return statistics.fmean(REFERENCE_S / p for p in self.samples + [probe()])

    def at_reference(self, elapsed: float) -> float:
        """``elapsed`` wall seconds of metered work at the reference speed."""
        return (elapsed - sum(self.samples)) * self.speed()
