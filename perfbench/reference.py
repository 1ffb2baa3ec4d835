"""A fixed reference computation that measures the machine's current speed.

On a shared machine the speed available to one process drifts by tens of
percent over seconds to minutes.  Runs of this kernel interleaved with the
tasks track that drift, and task times divided by the kernel's time during
them cancel most of it.  The kernel mixes what capax spends its time on:
exact Fraction arithmetic, a Python loop over a dict of exponent tuples (the
shape of Polynomial.evaluate), small complex least-squares solves and
np.roots on quartics.  Elementwise numpy over long arrays is left out: it is
bound by memory bandwidth and tracks capax's timings worst.  The kernel does
not call capax, so no change to capax moves it.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

# Median time of one kernel() on the 2-core x86_64 box (OpenBLAS, one
# thread) where the benchmark was written.  Normalised times are expressed
# at this speed, so they read in seconds.
NOMINAL_S = 0.040

_rng = np.random.default_rng(20211116)
_A = _rng.standard_normal((512, 24)) + 1j * _rng.standard_normal((512, 24))
_B = _rng.standard_normal(512) + 0j
_QUARTICS = _rng.standard_normal((150, 5)) + 1j * _rng.standard_normal((150, 5))
_TERMS = {(i % 3, i % 2, i % 4, 1): complex(i, 1) for i in range(40)}


def kernel():
    acc = Fraction(0)
    for i in range(1, 3000):
        acc += Fraction(i, i + 1) * Fraction(i + 2, 2 * i + 3)
    s = 0j
    for _ in range(600):
        for m, c in _TERMS.items():
            term = c
            for e in m:
                if e:
                    term = term * 1.0001
            s += term
    for _ in range(12):
        coeffs, *_ = np.linalg.lstsq(_A, _B, rcond=None)
    roots = [np.roots(q) for q in _QUARTICS]
    return acc, s, coeffs, roots


def kernel_s(repeats: int = 3) -> float:
    """Median time of `repeats` back-to-back kernel() runs: the machine's
    speed right now, for timing a single stretch such as a set-up."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


class Sampler:
    """Runs kernel() once on entry and then every `period` seconds, from
    SIGALRM in the main thread, while the context is open.

    The kernel thus interrupts long tasks too; its time is subtracted from
    theirs, and its durations give the machine's speed while they ran.
    """

    def __init__(self, period: float) -> None:
        self.period = period
        self.samples: list[tuple[float, float]] = []  # (start, end)
        self._busy = False
        self._old_handler = None

    def _sample(self) -> None:
        start = perf_counter()
        kernel()
        self.samples.append((start, perf_counter()))

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:  # an alarm that arrives during a sample is dropped
            return
        self._busy = True
        try:
            self._sample()
        finally:
            self._busy = False

    def __enter__(self) -> "Sampler":
        self._sample()
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def busy(self, start: float, end: float) -> float:
        """Kernel seconds spent inside [start, end)."""
        return sum(b - a for a, b in self.samples if start <= a < end)

    def kernel_s(self, start: float, end: float) -> float:
        """Mean kernel time over the samples inside [start, end) and the last
        one before it."""
        before = [s for s in self.samples if s[0] < start][-1:]
        inside = [s for s in self.samples if start <= s[0] < end]
        spans = before + inside
        return sum(b - a for a, b in spans) / len(spans)
