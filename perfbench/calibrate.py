"""Host-speed calibration: a fixed kernel timed next to the program's work.

A shared host's speed drifts by tens of percent over minutes (other
tenants' load), far more than any bound a regression check can use.  The
benchmark therefore times this kernel, which does not touch cavework,
between the program's commands and reports every end-to-end time scaled
to the reference speed at which one kernel call takes ``REFERENCE_S``:

    scaled = measured * REFERENCE_S / kernel time around the measurement

A change to the program moves the scaled figure as it moves the measured
one; a slower or faster host moves both the kernel and the program and
cancels out.  The kernel mixes the program's kinds of work: complex
arithmetic in the interpreter (the branch tracker and scalar ``G``), a
dense Hermitian eigensolve (the Fock oracle), an FFT (the comb
inverters) and a streaming pass over an array larger than the caches.
"""

from __future__ import annotations

import cmath
import statistics
import time

import numpy as np

# kernel time at the reference speed; mid-range of its medians on a 2-vCPU
# x86-64 host with Python 3.11 and OpenBLAS 0.3 on one thread
REFERENCE_S = 0.08
BURST = 3  # kernel calls per sample

_EIGH_DIM = 320
_FFT_LEN = 1 << 17
_STREAM_LEN = 1 << 21  # complex128: 32 MiB


class Calibration:
    """The kernel's inputs, built once, and the kernel times taken so far."""

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((_EIGH_DIM, _EIGH_DIM)) + 1j * rng.standard_normal(
            (_EIGH_DIM, _EIGH_DIM)
        )
        self.hermitian = a + a.conj().T
        self.signal = rng.standard_normal(_FFT_LEN) + 0j
        self.stream = np.ones(_STREAM_LEN, dtype=np.complex128)
        self.samples: list[list[float]] = []  # [perf_counter at start, seconds]
        self.kernel()  # first touch of the arrays: not a sample

    def kernel(self) -> complex:
        z = 0j
        for i in range(80000):
            s = 2.5e-5 * i
            z += cmath.sqrt(1.0 + cmath.sin(s + 0.5j) * cmath.sin(s - 0.25j))
        z += float(np.linalg.eigvalsh(self.hermitian)[-1])
        z += complex(np.fft.fft(self.signal)[1])
        for _ in range(4):
            z += complex(self.stream.sum())
        return z

    def sample(self) -> None:
        """Time a burst of kernel calls and keep their median, which
        drops a call that one scheduling hiccup slowed."""
        t0 = time.perf_counter()
        times = []
        for _ in range(BURST):
            start = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - start)
        self.samples.append([t0, statistics.median(times)])

    def due(self, every: float) -> bool:
        """True when no sample was taken in the last ``every`` seconds."""
        return not self.samples or time.perf_counter() - self.samples[-1][0] >= every


def scaled(start: float, elapsed: float, samples: list[list[float]]) -> float:
    """elapsed at the reference speed, from the last kernel sample taken
    before ``start`` and the first taken after ``start + elapsed``."""
    before = max((s for s in samples if s[0] <= start), key=lambda s: s[0])
    after = min((s for s in samples if s[0] >= start + elapsed), key=lambda s: s[0])
    return elapsed * REFERENCE_S / (0.5 * (before[1] + after[1]))
