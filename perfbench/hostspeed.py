"""A reference kernel that times how fast the host runs at the moment.

The host this benchmark was tuned on is a shared 2-vCPU VM with no hardware
counters. Its speed swings by up to 1.6x for seconds to minutes at a time.
So each timed figure is scaled by ``ref_ms / k``, where ``k`` is the
kernel's time measured next to it; this tracks the swings in part (README.md
gives the spreads with and without it).

The kernel is a Python loop and small numpy calls. It never calls xorsmp,
so a change to xorsmp moves a scaled figure in the same proportion as the
raw one. It makes no BLAS call; timed after BLAS-heavy and BLAS-free
operations, its median differed by under 2.5%.
"""

import statistics
import time

import numpy as np

_SMALL = np.arange(64, dtype=np.int64)


def kernel_ms() -> float:
    t0 = time.perf_counter_ns()
    acc = 0
    for k in range(3000):
        acc += k * k
    for _ in range(30):
        acc += int(((_SMALL * 3 + 1) & 7).sum())
    return (time.perf_counter_ns() - t0) / 1e6


class HostSpeed:
    """Kernel timings taken between operations, and the scale they imply."""

    ref_ms = 0.4  # the kernel time scaled figures are referred to

    def __init__(self):
        self.samples = []  # (operations done before the sample, kernel ms)

    def sample(self, ops_done: int) -> None:
        self.samples.append((ops_done, kernel_ms()))

    def median_ms(self) -> float:
        return statistics.median(ms for _, ms in self.samples)

    def factors(self, ops: int) -> np.ndarray:
        """Scale for operations 0..ops-1: ref_ms over the median of the 5
        samples nearest after the operation."""
        times = [ms for _, ms in self.samples]
        near = np.array(
            [statistics.median(times[max(0, j - 2) : j + 3]) for j in range(len(times))]
        )
        after = np.searchsorted([b for b, _ in self.samples], np.arange(ops), side="right")
        return self.ref_ms / near[np.minimum(after, len(times) - 1)]

    def settled_factor(self, count: int = 25) -> float:
        """Scale for work just finished: the median of the last count - 2
        of count fresh samples (the first ones warm the kernel up)."""
        for _ in range(count):
            self.sample(0)
        return self.ref_ms / statistics.median(ms for _, ms in self.samples[2:])
