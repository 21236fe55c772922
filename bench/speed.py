"""Machine-speed normalisation for the benchmark's timings.

On a host shared with other tenants the same command can take 30-50%
longer from one second to the next, while this process's CPU time stays
equal to its wall time. To compare commits, every timing is reported in
reference seconds: wall time scaled by REF_PROBE_S / (mean probe time),
where the probe is a fixed piece of work that SpeedMeter runs from a
SIGALRM handler every INTERVAL_S while a command runs. Contention slows
interpreted code and memory-bound array code by different amounts, so
each workload uses the probe that resembles its own work. The probes' own
time is taken out of the command's wall time first. Raw wall times are
printed beside the normalised ones.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
REF_PROBE_S = 1e-3   # a reference second is one in which the probe takes 1 ms

_SMALL = np.ones(3)
_LARGE = np.linspace(0.0, 1.0, 20_000)
_ROWS = np.random.default_rng(0).random((2, 20_000, 5))


def probe_scalar() -> float:
    """Seconds taken, right now, by interpreted arithmetic, small-array
    numpy calls and one ufunc: the mix of the per-point workloads."""
    t0 = time.perf_counter()
    s = 0
    for i in range(3_000):
        s += i * i
    v = _SMALL
    for _ in range(100):
        v = np.asarray(v, dtype=float)
        s += float(np.dot(v, v)) + bool(np.all(np.isfinite(v)))
    np.sin(_LARGE)
    return time.perf_counter() - t0


def probe_array() -> float:
    """Seconds taken, right now, by one segment-point pass over 20k pairs
    in 5-D: the memory-bound array work of the batch workloads."""
    t0 = time.perf_counter()
    X, Y = _ROWS
    Z = Y + 0.5 * (X - Y)
    np.sum(Z * Z, axis=-1)
    return time.perf_counter() - t0


class SpeedMeter:
    """Samples `probe` before and during a timed block (main thread)."""

    def __init__(self, probe=probe_scalar):
        self.probe = probe
        self.samples: list[float] = []
        self._old = None

    def _on_alarm(self, signum, frame):
        self.samples.append(self.probe())

    def __enter__(self):
        self.samples = [self.probe()]
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def probe_s(self) -> float:
        """Seconds the probes took inside the timed block."""
        return sum(self.samples[1:])

    def normalise(self, wall_s: float) -> float:
        """Reference seconds for `wall_s` measured inside the block."""
        return normalise(wall_s - self.probe_s(), self.samples)


def normalise(seconds: float, samples) -> float:
    return seconds * REF_PROBE_S / statistics.fmean(samples)
