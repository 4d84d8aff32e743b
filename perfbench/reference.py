"""A fixed computation that measures how fast the current core runs right now.

On a shared virtual machine the speed a process gets drifts by up to 1.6x
over tens of seconds as neighbours come and go, so raw wall times of runs a
few minutes apart disagree by far more than any regression worth catching.
The benchmark times this kernel around every measured pass and rescales the
pass to the speed at which the kernel takes :data:`REFERENCE_S` seconds.
The kernel mixes interpreter work and batched LAPACK calls, the two kinds of
work ``affdim`` spends its time on; it never touches ``affdim``.
"""

from __future__ import annotations

import time

import numpy as np

# the kernel's time on an uncontended core of the machine the benchmark was
# tuned on (Intel Xeon at 2.1 GHz, 2 vCPUs, numpy 2.4 with OpenBLAS, 1 thread)
REFERENCE_S = 0.120


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._mats = rng.random((40000, 3, 3))
        self._keys = rng.integers(0, 1 << 40, size=500_000)

    def _kernel(self) -> float:
        total = 0
        for i in range(1_000_000):
            total += i
        sv = np.linalg.svd(self._mats, compute_uv=False)
        return total + float(sv[0, 0]) + float(np.sort(self._keys)[0])

    def seconds(self) -> float:
        t0 = time.perf_counter()
        self._kernel()
        return time.perf_counter() - t0

    @staticmethod
    def rescale(seconds: float, kernel_before: float, kernel_after: float) -> float:
        """``seconds`` at reference speed, from the kernel times around it."""
        return seconds * REFERENCE_S / (0.5 * (kernel_before + kernel_after))
