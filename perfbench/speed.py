"""Machine-speed normalisation of timings on a shared host.

On a host shared with other tenants, the speed of one core changes by a
third or more over a few seconds, and every workload on it slows together.
A run's raw median then says more about the neighbours than about the
program.  `Speedometer` measures the machine while the workload runs: a
SIGALRM handler runs a fixed, orefield-free reference kernel every
`PERIOD_S` and records how long it took.  A measured interval is then
reported

* without the time spent in the handler, and
* scaled by the mean of REFERENCE_NOMINAL_S / (kernel time) over the
  samples around it,

that is, as the time it would have taken on a machine where the kernel
takes exactly REFERENCE_NOMINAL_S.  The kernel multiplies rational
quaternions picked from a few megabytes of operands: the same kind of work
as orefield's inner loops, so a faster or slower core, or a busier cache,
changes both alike.  A change to orefield does not change the kernel.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from bisect import bisect_left
from fractions import Fraction

PERIOD_S = 0.05
WINDOW_S = 0.25  # kernel samples this close to an interval describe its speed
REFERENCE_NOMINAL_S = 0.0005


def _operands() -> list[tuple[Fraction, ...]]:
    rng = random.Random(0)
    return [
        tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4))
        for _ in range(4096)
    ]


_OPERANDS = _operands()  # a few MB, so the kernel also sees the memory system
_PAIRS = [(random.Random(k).randrange(4096), random.Random(-k).randrange(4096)) for k in range(8)]


def reference_kernel() -> tuple:
    """Products of rational quaternions scattered over memory, like the
    inner loops of orefield."""
    out = ()
    for i, j in _PAIRS:
        a0, a1, a2, a3 = _OPERANDS[i]
        b0, b1, b2, b3 = _OPERANDS[j]
        out = (
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        )
    return out


class Speedometer:
    """Context manager sampling the reference kernel while it is active."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)

    def normalise(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1] spent outside the handler, at nominal speed."""
        starts, durations = self.starts, self.durations
        lo, hi = bisect_left(starts, t0), bisect_left(starts, t1)
        busy = (t1 - t0) - sum(durations[lo:hi])
        w_lo, w_hi = bisect_left(starts, t0 - WINDOW_S), bisect_left(starts, t1 + WINDOW_S)
        window = durations[w_lo:w_hi] or durations[max(lo - 1, 0) : lo + 1]
        # samples are evenly spaced in time, so the mean of the speed
        # (1 / kernel time) weights each stretch of the interval alike
        return busy * statistics.fmean(REFERENCE_NOMINAL_S / d for d in window)
