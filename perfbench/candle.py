"""Reference kernel that tracks the machine's speed during a run.

The kernel is fixed benchmark code, independent of ewcones: cyclic Jacobi
sweeps on a fixed real symmetric 8 x 8 in Python loops over numpy scalars,
plus a few small array calls, the same mix of interpreter and small-array
work the program does. Its time moves with the machine's speed, which on a
shared host changes by over 50% within minutes. Runs interleave it with the
workload and scale their timings by NOMINAL_S / (its mean time).
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

# Kernel time at the reference speed: the median of this machine's runs
# (2-vCPU KVM guest, Intel Xeon, Python 3.11, numpy 2.4). Only the scale of
# the reported figures depends on it.
NOMINAL_S = 0.0018
SAMPLE_EVERY_S = 0.5  # of operation time
SAMPLE_CALLS = 8

_MATRIX = np.random.default_rng(0).standard_normal((8, 8))
_MATRIX = _MATRIX + _MATRIX.T


def kernel() -> None:
    a = _MATRIX.copy()
    for _ in range(3):
        for p in range(7):
            for q in range(p + 1, 8):
                theta = 0.5 * np.arctan2(2 * a[p, q], a[q, q] - a[p, p])
                c, s = np.cos(theta), np.sin(theta)
                ap, aq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * ap - s * aq
                a[:, q] = s * ap + c * aq
                ap, aq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * ap - s * aq
                a[q, :] = s * ap + c * aq
    np.kron(np.eye(4), a[:4, :4])
    np.einsum("ij,jk->ik", a, a)
    np.linalg.eigvalsh(a)


class Candle:
    """Samples the reference kernel between operations."""

    def __init__(self):
        self.samples: list[float] = []
        self._since = 0.0

    def tick(self, elapsed: float) -> None:
        """Account for `elapsed` seconds of operations; sample when due."""
        self._since += elapsed
        if self._since >= SAMPLE_EVERY_S or not self.samples:
            self._since = 0.0
            self.sample()

    def sample(self) -> None:
        start = perf_counter()
        for _ in range(SAMPLE_CALLS):
            kernel()
        self.samples.append((perf_counter() - start) / SAMPLE_CALLS)

    def speed(self) -> float:
        """Machine speed relative to the reference: NOMINAL_S / mean kernel time."""
        return NOMINAL_S * len(self.samples) / sum(self.samples)
