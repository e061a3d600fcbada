"""Host-speed calibration of the timed operations.

On a shared host the same operation's wall time drifts by up to 1.7x over
seconds to minutes, with no steal time reported: the vCPU itself runs
faster or slower. A fixed pure-Python loop shows the same drift. A window
of a few tens of seconds cannot average it out, so the benchmark's times are
scaled to a reference host speed measured while the work runs.

While an operation runs, an interval timer interrupts it every ``PERIOD_S``
and the signal handler runs the calibration sample twice, timing the second
run. The sample is a fixed small-matrix numpy computation (Kronecker
embedding, conjugation, trace) of the kind mddsim spends its time in, on
constant data and without any mddsim code, so no change to the program can
change the sample itself. The untimed first run warms the caches, so the
timed one measures the host rather than how much of the cache the operation
had taken: at one host speed, cold samples read 226-388 us across the
operations of ``closed-forms``, warm ones 213-235 us.

The handler's time is subtracted from the operation's time, and the rest is
divided by the host's slowdown during it: the median sample time over the
operation divided by ``REFERENCE_S``. The result is the operation's time in
units of the sample, expressed in seconds at the reference speed. Over 3 min
of each workload on a 2-vCPU Intel Xeon host (one BLAS thread), the slope of
log(operation time) on log(sample time), pooled over the operations of a
workload, was 0.75 (``spectator-sweep``), 0.82 (``sqd-large``), 0.87
(``qft-dd``) and 0.89-1.0 (``closed-forms``): the operations slow down with
the sample, so dividing by the slowdown removes most of the drift.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.025        # one sample every 25 ms of an operation
REFERENCE_S = 200e-6    # a sample's time at the reference host speed
REPS = 5                # conjugations per sample
PROBE_SAMPLES = 25      # samples taken by slowdown_now()

# constant data: a normalized 4x4 density matrix and a 2x2 rotation
_I2 = np.eye(2, dtype=complex)
_U = np.array([[np.cos(0.3), -1j * np.sin(0.3)], [-1j * np.sin(0.3), np.cos(0.3)]])
_A = np.arange(16, dtype=float).reshape(4, 4) + 1j * np.eye(4)
_RHO = _A @ _A.conj().T
_RHO = _RHO / np.trace(_RHO).real


def _run() -> float:
    start = time.perf_counter()
    rho = _RHO
    for _ in range(REPS):
        u = np.kron(_I2, _U)
        rho = u @ rho @ u.conj().T
        rho = rho / np.trace(rho).real
    return time.perf_counter() - start


def sample() -> float:
    """One warm calibration sample: its time in seconds."""
    _run()
    return _run()


def slowdown_now(count: int = PROBE_SAMPLES) -> float:
    """The host's slowdown now, from ``count`` back-to-back samples."""
    return statistics.median(sample() for _ in range(count)) / REFERENCE_S


class Sampler:
    """Samples host speed between ``start()`` and ``stop()``.

    Must run in the main thread. ``spent`` is the time the samples took
    between the two calls, ``samples`` their individual times.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(sample())
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        self.samples = []
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self) -> float:
        """Median sample time since ``start()``, as a multiple of the
        reference; a block shorter than one period gets one sample now."""
        if not self.samples:
            self.samples.append(sample())
        return statistics.median(self.samples) / REFERENCE_S

    def scaled(self, elapsed: float) -> float:
        """The block's time without the samples, at the reference host speed."""
        return (elapsed - self.spent) / self.slowdown()
