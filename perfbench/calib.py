"""Machine-speed reference: a fixed loop timed while the program runs.

The shared host this benchmark was built on changes speed by up to 2x,
from one fraction of a second to the next and for stretches of
minutes. A 10 s run that falls in a slow stretch reads up to twice as
long, so raw wall times of one commit spread between runs by more
than a regression bound can allow. The benchmark therefore measures the
machine's speed with this reference while it measures the program, and
reports times scaled to a nominal speed: seconds on a machine where one
reference loop takes NOMINAL_S.

While a case runs, `Sampler` times one reference loop from a SIGPROF
handler every TICK_S of CPU time, so the speed is known at the same
fraction of a second as the work it scales. The case's scaled time is
the sum, over the intervals between loops, of interval * NOMINAL_S /
(the mean of the loops around it, WINDOW of them); its raw time leaves
the loops out. A mean, not a median or a harmonic mean, because a
stall of the machine that hits one loop in twenty slows the program by
the same share.

Set-up times are not scaled: a set-up is a fresh interpreter starting
and importing, which the reference does not track (scaled set-up times
spread three times as much as raw ones).

The reference is the benchmark's own code, so a change to spinpoint
moves only the program's side. It mixes kinds of work spinpoint spends
its time in: numpy calls on tiny arrays (about 40% of the loop), a
complex 56 x 56 LAPACK SVD (about 50%) and a pure-Python loop. Timed
beside the cases of all four workloads, that mix tracked their speed
more evenly than a pure-Python loop, tiny-array calls, small real SVDs
or sweeps over 1 to 32 MiB alone. Raw times are printed beside the
scaled ones.
"""

from __future__ import annotations

import signal
import time

import numpy as np
# bound here, before the tracer wraps numpy.linalg, so the reference is
# never counted as work of the program
from numpy.linalg import svd as _svd

NOMINAL_S = 0.0015  # about one reference loop's time on the build machine
TICK_S = 0.04  # CPU time between two reference loops inside a case
WINDOW = 5  # loops whose mean scales one interval: the one ending it and two each side

_rng = np.random.default_rng(0)
_MATRIX = _rng.standard_normal((56, 56)) + 1j * _rng.standard_normal((56, 56))


def _reference() -> float:
    """Seconds one reference loop takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2000):
        acc += i * i
    for _ in range(140):
        a = np.zeros(8)
        a[3] = 1.0
        np.abs(a * 2.0 + 1.0).max()
    _svd(_MATRIX)
    return time.perf_counter() - t0


class Sampler:
    """Times the reference from a SIGPROF handler while a case runs.

    start() ... stop() brackets the case; stop() returns its raw seconds
    (without the reference loops) and its seconds at the nominal speed."""

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self._intervals.append(t0 - self._since)
        self._loops.append(_reference())
        self._since = time.perf_counter()

    def start(self):
        self._intervals, self._loops = [], []
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)
        self._since = time.perf_counter()

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)
        self._tick(None, None)
        loops, half = self._loops, WINDOW // 2
        scaled = sum(dt * NOMINAL_S * len(loops[max(0, i - half):i + half + 1])
                     / sum(loops[max(0, i - half):i + half + 1])
                     for i, dt in enumerate(self._intervals))
        return sum(self._intervals), scaled
