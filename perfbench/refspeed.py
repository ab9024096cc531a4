"""The machine's momentary speed, from a fixed reference kernel.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same pass over the same jobs took from 3.5 s to 6.5 s within five minutes
on a 2-vCPU x86-64 guest, and a reference kernel timed between the jobs
moved with it.  ``Reference.samples()`` times that kernel a few times
back to back; the worker takes samples between jobs and scales each
pass's job times by ``nominal / median(samples of the pass)``, so the end-to-end times read
as seconds on a machine that runs the kernel in ``nominal`` seconds.

The kernel uses numpy only, never ``lamespectra``, so a change to the
program does not change it.  Its compute part mixes the kinds of work the
workloads do: FFTs of a 2d vector field, a small LAPACK ``eigvals`` and
interpreted Python; its arrays take under 2 MiB.  Memory-bound workloads
add a memory part, a product of fresh 32 MiB arrays reduced to a sum, like
the N x N kernel products of the norm scans.  The drift moves that kind of
work less, so the compute part alone over-corrects it (README.md gives the
spreads).  The memory part's 100 MiB of temporaries are freed before the
jobs run, and stay far below that workload's peak RSS.
"""

from __future__ import annotations

import time

import numpy as np

# median seconds of the compute and memory parts on an unloaded 2-vCPU
# x86-64 guest (OpenBLAS Haswell kernels, one BLAS thread, numpy 2.4,
# Python 3.11); they only fix the scale
NOMINAL_S = 0.013
MEMORY_NOMINAL_S = 0.027
# samples are taken between jobs only this long after the previous ones
MIN_GAP_S = 0.5
# one sample varies by 10-15% on its own (heap layout, interrupts); a pass
# of a few long jobs still gets a dozen
SAMPLES_PER_POINT = 3


class Reference:
    """The reference kernel's inputs, made once, and its timer."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.nominal = NOMINAL_S + (MEMORY_NOMINAL_S if memory else 0.0)
        rng = np.random.default_rng(0)
        self.vector = rng.random(2048)
        self.field = rng.standard_normal((2, 128, 128)) + 1j * rng.standard_normal((2, 128, 128))
        self.matrix = rng.standard_normal((96, 96))
        self.last = float("-inf")

    def samples(self) -> list:
        """``SAMPLES_PER_POINT`` timings of the kernel, in seconds."""
        out = [self._once() for _ in range(SAMPLES_PER_POINT)]
        self.last = time.perf_counter()
        return out

    def _once(self) -> float:
        start = time.perf_counter()
        for _ in range(6):
            np.fft.ifftn(np.fft.fftn(self.field, axes=(1, 2)), axes=(1, 2))
        np.linalg.eigvals(self.matrix)
        acc = 0
        for i in range(60000):
            acc += i * i
        if self.memory:
            block = np.full((2048, 2048), 1.5)
            np.sum((self.vector[:, None] * self.vector[None, :]) * block)
        return time.perf_counter() - start

    def due(self) -> bool:
        """Whether ``MIN_GAP_S`` has passed since the last sample."""
        return time.perf_counter() - self.last >= MIN_GAP_S
