"""Host-speed calibration: measured times in reference milliseconds.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to +-25% over seconds to minutes.  The process is not descheduled when
that happens (its CPU time drifts with its wall time), so the drift comes
from the other tenants' use of the shared caches and memory, and a longer
run does not average it out.

A fixed kernel that does the same kind of work as the package - sparse
conjugate-gradient iterations and array stencil updates on a 100 x 100
grid, numpy and scipy only, no package code - is timed right before and
right after every operation and around every repetition.  An interval
measured between two calibration samples is scaled by ``REFERENCE_S``
over the mean time of the samples next to it: the result is the time the
interval would have taken on a host where the kernel takes
``REFERENCE_S``.  The calibration's own time inside an interval is taken
out first.  Program changes do not touch the kernel, so they show in the
scaled times in full.
"""

from __future__ import annotations

import bisect
import statistics

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# about the kernel's median time on the host the benchmark was written on
# (2-vCPU Xeon, numpy 2.4, scipy 1.17, one BLAS thread), where it ranged
# from 3.3 to 4.9 ms; the unit of every scaled time
REFERENCE_S = 0.004
CG_ITERATIONS = 30
STENCIL_SWEEPS = 10
WARMUP_SAMPLES = 5


class Calibrator:
    """Runs the kernel on request and scales intervals by its timings."""

    def __init__(self, clock, n: int = 100):
        self.clock = clock
        eye = sp.identity(n)
        ones = np.ones(n)
        d2 = sp.diags([-ones[:-1], 2.0 * ones, -ones[:-1]], [-1, 0, 1])
        self._lap = (sp.kron(eye, d2) + sp.kron(d2, eye)).tocsr()
        self._rhs = np.sin(np.arange(n * n, dtype=float))
        self._u = np.random.default_rng(0).random((n + 2, n + 2))
        self._t0s: list[float] = []
        self._t1s: list[float] = []
        for _ in range(WARMUP_SAMPLES):
            self._kernel()

    def _kernel(self):
        # rtol 0 never converges: always CG_ITERATIONS iterations
        spla.cg(self._lap, self._rhs, rtol=0.0, atol=0.0,
                maxiter=CG_ITERATIONS)
        u = self._u
        for _ in range(STENCIL_SWEEPS):
            du = (u[1:-1, 2:] - u[1:-1, :-2]
                  + 0.5 * (u[2:, 1:-1] - u[:-2, 1:-1]))
            u = u.copy()
            u[1:-1, 1:-1] += 1e-3 * du * np.exp(-u[1:-1, 1:-1])

    def sample(self):
        """Time the kernel once; samples never overlap a timed interval."""
        t0 = self.clock()
        self._kernel()
        self._t0s.append(t0)
        self._t1s.append(self.clock())

    def _durations(self, lo: int, hi: int) -> list[float]:
        return [self._t1s[i] - self._t0s[i] for i in range(lo, hi)]

    def _window(self, a: float, b: float) -> tuple[list, list]:
        """Durations of the samples inside [a, b] and of those inside plus
        the nearest one on each side."""
        lo = bisect.bisect_left(self._t0s, a)     # first starting at/after a
        hi = bisect.bisect_right(self._t1s, b)    # first ending after b
        inside = self._durations(lo, max(lo, hi))
        near = self._durations(max(lo - 1, 0), min(max(lo, hi) + 1,
                                                   len(self._t0s)))
        return inside, near

    def busy(self, a: float, b: float) -> float:
        """Seconds from a to b less the calibration run in between."""
        inside, _ = self._window(a, b)
        return b - a - sum(inside)

    def scaled(self, a: float, b: float) -> float:
        """``busy(a, b)`` in reference seconds, by the samples around it."""
        inside, near = self._window(a, b)
        busy = b - a - sum(inside)
        return busy * REFERENCE_S / statistics.fmean(near) if near else busy

    def run_factor(self) -> float:
        """Reference seconds per measured second over the whole run."""
        durations = self._durations(0, len(self._t0s))
        return REFERENCE_S / statistics.median(durations) if durations else 1.0

    def median_s(self) -> float:
        return statistics.median(self._durations(0, len(self._t0s)))

    def __len__(self) -> int:
        return len(self._t0s)
