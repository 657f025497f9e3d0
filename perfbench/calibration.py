"""A fixed calibration kernel that measures the host's speed.

The benchmark shares a few cores of a busy host, whose speed was measured
to swing by 20-50% between minutes: the same cover_curve call took 1.2 s in
one 30-second run and 1.9 s in the next.  The runner times this kernel
between every two rounds of a workload, so that each round's time can be
put over the host's speed measured around it.

The kernel mixes what the workloads spend their time on: a pure-Python
loop, numpy linear algebra on small single matrices (eigh, eigvals) and a
batched SVD of 2x2 matrices after ``np.stack``.  It calls no unicover code,
so no change to the package can move it, and its inputs are fixed: it does
the same work on every run.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Kernel iterations per calibration, about 0.12 s on the 2-core host.
ITERATIONS = 200


class Calibration:
    def __init__(self, iterations: int = ITERATIONS):
        rng = np.random.default_rng(20260101)
        self.iterations = iterations
        self.small = [rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                      for _ in range(6)]
        self.blocks = list(rng.standard_normal((64, 2, 2)))

    def run(self) -> float:
        """Wall time of one calibration."""
        t0 = perf_counter()
        for _ in range(self.iterations):
            acc = 0.0
            for m in self.small:
                w, _ = np.linalg.eigh(m + m.conj().T)
                acc += float(w[-1]) + float(np.abs(np.linalg.eigvals(m)).max())
            np.linalg.svd(np.stack(self.blocks), compute_uv=False)
            for k in range(1500):
                acc += k * 1e-9
        return perf_counter() - t0
