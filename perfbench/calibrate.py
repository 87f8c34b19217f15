"""Host-speed calibration of measured times.

On a shared host the speed of one vCPU changes by up to 2.7x within
seconds, and CPU time tracks wall time, so the cause is the host and not
steal.  Over 20-second runs that drift put 8-22% between runs of
identical work.

A :class:`Stopwatch` therefore samples the host's speed while it runs: it
times a fixed reference workload (about 1 ms) right before and right
after the measured interval, and every ``SAMPLE_EVERY_S`` seconds inside
it, from a ``SIGALRM`` handler on the measuring thread.  The interval,
minus the time spent in those samples, is rescaled to the speed at which
the reference takes ``REFERENCE_S``:

    seconds = (wall - sampling) * REFERENCE_S / mean(reference samples)

The reference is forward-mode dual arithmetic on small tuples, like the
library's hot path, but it is frozen here and never touches ``src/``, so
a change to the library moves the calibrated times and not the reference.
Calibrated times are still seconds: seconds at the reference speed.
"""

from __future__ import annotations

import signal
import time

# Median reference time on the host where the baseline was recorded.
REFERENCE_S = 0.0010
SAMPLE_EVERY_S = 0.05


class _Dual:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __add__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.a + o.a, tuple(x + y for x, y in zip(self.b, o.b)))
        return _Dual(self.a + o, self.b)

    __radd__ = __add__

    def __mul__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.a * o.a, tuple(x * o.a + self.a * y for x, y in zip(self.b, o.b)))
        return _Dual(self.a * o, tuple(x * o for x in self.b))

    __rmul__ = __mul__


def _poly(x):
    return x[0] * x[1] + 0.5 * x[2] * x[2] * x[0] + x[1] * x[2] * 3.0 + x[3] * x[0]


def reference_s() -> float:
    """Wall time of the fixed reference workload: 40 four-variable gradients."""
    t0 = time.perf_counter()
    for i in range(40):
        xs = [_Dual(0.1 * i + j, tuple(1.0 if k == j else 0.0 for k in range(4)))
              for j in range(4)]
        _poly(xs)
    return time.perf_counter() - t0


class Stopwatch:
    """Context manager giving ``wall`` and calibrated ``seconds`` of its body.

    Only one may be active at a time: it owns ``SIGALRM`` while it runs.
    """

    def __enter__(self):
        self._samples = [reference_s()]
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._t0 = time.perf_counter()
        return self

    def _sample(self, signum, frame):
        self._samples.append(reference_s())

    def __exit__(self, *exc):
        wall = time.perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.wall = wall - sum(self._samples[1:])
        self._samples.append(reference_s())
        mean = sum(self._samples) / len(self._samples)
        self.seconds = self.wall * REFERENCE_S / mean
        return False
