"""Machine-speed calibration with a fixed reference kernel.

On a shared machine the CPU speed drifts by a quarter or more within
seconds, so raw wall times of one run say as much about the neighbours as
about the program.  The benchmark therefore times this kernel next to its
measurements and scales every time to the kernel's reference speed:
``scaled = raw * REF_KERNEL_S / kernel_time``.  The kernel does the kind
of work the program does (tuple-keyed dicts, modular integer products,
Fraction arithmetic) and never touches mvphi, so a change to the program
moves the scaled time and a change of machine speed does not.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# kernel time at the reference speed: the fast state of a 2-core x86
# VM under Python 3.11
REF_KERNEL_S = 200e-6
_MOD = 3 ** 9
_spent = [0.0]     # seconds taken by timer-driven samples (Sampler) so far


def kernel() -> Fraction:
    acc = {}
    top = Fraction(0)
    for i in range(300):
        key = (i % 17, i % 5)
        a = (i * 7919 + 13) % _MOD
        b = acc.get(key)
        acc[key] = a if b is None else (a * b + 1) % _MOD
        if i % 10 == 0:
            top = max(top, Fraction(a, 81) - Fraction(i, 27))
    return top


def sample() -> float:
    """Kernel seconds now: the best of five, which drops interrupts."""
    best = None
    for _ in range(5):
        t0 = time.perf_counter()
        kernel()
        t = time.perf_counter() - t0
        if best is None or t < best:
            best = t
    return best


def clock() -> float:
    """``time.perf_counter`` without the time taken by timer-driven
    samples, so that work timed with it does not include them."""
    return time.perf_counter() - _spent[0]


def scale(before: float, after: float) -> float:
    """Factor from raw to reference seconds for work between two samples."""
    return 2 * REF_KERNEL_S / (before + after)


class Sampler:
    """Speed samples taken on a timer signal while one long call runs.

    A set-up is a single call that cannot stop to be timed, so a real-time
    interval timer interrupts it every ``every`` seconds to time the kernel
    between two bytecodes.  ``raw`` is the block's time on ``clock``, which
    leaves the samples' own time out; ``factor`` turns it into reference
    seconds with the speed averaged over the block, sample by sample."""

    def __init__(self, every: float = 0.05):
        self.every = every
        self.samples: list = []
        self.raw = 0.0

    def _tick(self, *_):
        t0 = time.perf_counter()
        self.samples.append(sample())
        _spent[0] += time.perf_counter() - t0

    def __enter__(self):
        self.samples.append(sample())
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        self._t0 = clock()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.raw = clock() - self._t0
        signal.signal(signal.SIGALRM, self._handler)
        self.samples.append(sample())
        return False

    @property
    def factor(self) -> float:
        return statistics.mean(REF_KERNEL_S / k for k in self.samples)
