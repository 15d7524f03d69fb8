"""Normalisation of measured times to a reference machine speed.

On the shared 2-CPU machine this benchmark was built on, the same
interpreter-bound work runs up to 2x slower from one second to the next, and
both CPUs slow down together (their per-interval timings correlate at 0.99).
Raw run times then spread by 15-25% between runs, too much for a useful
regression bound.  So operation times are divided by the machine's speed
while they were measured.

A :class:`SpeedSampler` runs a fixed pure-Python calibration chunk every
``INTERVAL_S`` seconds of wall time, from a ``SIGALRM`` handler in the
measured process itself, and once at its start and end.  Its ``factor`` is
the mean chunk time over ``REF_CHUNK_S``; a time divided by it is in
reference seconds: the time the work would take on a machine where the chunk
takes ``REF_CHUNK_S``.  Handler time that falls inside a measured interval
is subtracted from it (``spent``).  The sampler costs about 2% of the
measured process's time.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.05
REF_CHUNK_S = 0.001
CHUNK_ITERATIONS = 5000


def _chunk() -> int:
    d = {}
    s = 0
    for i in range(CHUNK_ITERATIONS):
        d[i & 255] = (i, i + 1)
        s += d[i & 127][0]
    return s


class SpeedSampler:
    """Context manager sampling machine speed while the block runs.

    Must be entered in the main thread: it owns ``SIGALRM`` and the real
    interval timer until it exits.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _sample(self) -> float:
        t0 = time.perf_counter()
        _chunk()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def _on_alarm(self, signum, frame):
        self.spent += self._sample()

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    @property
    def factor(self) -> float:
        """Mean chunk time over the reference chunk time."""
        return statistics.fmean(self.samples) / REF_CHUNK_S

    def factor_near(self, index: int, reach: int = 2) -> float:
        """The factor from the ``reach`` samples before ``samples[index]``
        and the ``reach`` samples from it on."""
        return statistics.fmean(self.samples[max(0, index - reach) : index + reach]) / REF_CHUNK_S


def measure(fn):
    """Run fn under a sampler; returns (result, reference seconds, raw seconds)."""
    with SpeedSampler() as speed:
        t0 = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - t0 - speed.spent
    return out, raw / speed.factor, raw
