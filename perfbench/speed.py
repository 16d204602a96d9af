"""Timing against a machine-speed probe, for boxes whose speed drifts.

On a shared 2-core host the speed one process sees wanders by tens of
percent over tens of seconds (other tenants, shared turbo budget): a fixed
pure-Python loop timed back to back for 100 s read from 0.21 s to 0.38 s.
Medians within one 30-second run cannot remove drift between runs, so every
timed region here is also timed in *reference seconds*: a fixed probe kernel
(owned by the benchmark, never touching vortlab) runs before the region,
every ``INTERVAL_S`` inside it from a SIGALRM handler, and after it, and

    reference seconds = raw seconds * PROBE_REF_S / mean(probe time)

i.e. the time the region would have taken on a box that runs the probe in
``PROBE_REF_S``.  Probe time is excluded from the raw seconds.
"""

from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter

import numpy as np

PROBE_REF_S = 0.0025  # probe time that defines the reference speed
PROBE_LOOPS = 600
INTERVAL_S = 0.2

_M = np.eye(3) + 0.1


def probe() -> float:
    """Seconds for a fixed kernel in the style of vortlab's pointwise hot path:
    small-array construction, element-indexed 3x3 determinants and a matvec,
    driven from a Python loop.  Of three kernels tried (this one, a bare
    matvec loop, pure integer arithmetic), this one tracked the speed of
    vortlab operations most closely on the 2-core box."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc = 0.0
        for i in range(PROBE_LOOPS):
            a = np.array([0.1 * i, 0.2, 0.3])
            m = _M * a[0]
            d = (m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
                 - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
                 + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0]))
            acc += float((m @ a)[0]) + float(d)
        return perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class Clock:
    """Context manager: probe-free raw time and the reference-speed factor.

    Inside the block, ``now()`` is a clock that stops while the probe runs.
    After it, ``factor`` converts raw seconds measured inside the block to
    reference seconds.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, *_):
        t0 = perf_counter()
        self.samples.append(probe())
        self.spent += perf_counter() - t0

    def now(self) -> float:
        return perf_counter() - self.spent

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    @property
    def factor(self) -> float:
        return PROBE_REF_S / statistics.fmean(self.samples)


def measure(fn):
    """(fn(), raw seconds, reference seconds) for one call."""
    with Clock() as clock:
        t0 = clock.now()
        result = fn()
        raw = clock.now() - t0
    return result, raw, raw * clock.factor
