"""A fixed reference kernel that puts CPU timings on one machine-speed scale.

The shared machine the benchmark runs on changes speed for minutes at a
time (most likely as host load moves the core clock and the cache share a
tenant gets): a slow stretch makes every step 40-60% slower, in CPU time as
well as in wall time. No statistic inside one run can remove a stretch that covers the
whole run. So the benchmark runs this kernel throughout a run (once per
timed block or stage) and reports its times scaled to the speed at which
the kernel takes ``REFERENCE_MS``:

    reported = measured CPU time * REFERENCE_MS / median kernel CPU time

The median over the run is used because the machine also has fast moments
of under a second, which a single 10 ms kernel run would over-weight.

The kernel mixes what the workloads spend their time on: interpreter-bound
Python loops over small lists and dicts, small dense numpy products of the
workloads' MLP sizes and small LAPACK calls. It does not use mspred, so a
change to the package leaves it as it is and shows in full in the ratio.
"""

from __future__ import annotations

import time

import numpy as np

CLOCK = time.process_time   # CPU time: time the hypervisor steals is left out
REFERENCE_MS = 10.0         # kernel CPU time that defines the reported scale


class Reference:
    """The kernel with its fixed inputs (the same on every run and seed)."""

    def __init__(self):
        rng = np.random.default_rng(20221012)
        self.x = rng.normal(size=(32, 24))
        self.weights = [rng.normal(size=s) * 0.2 for s in ((24, 128), (128, 128), (128, 16))]
        a = rng.normal(size=(16, 16))
        self.spd = (a @ a.T + 16.0 * np.eye(16)).tolist()
        b = rng.normal(size=(8, 8))
        self.sym = b + b.T
        for _ in range(3):          # warm caches and lazy imports before timing
            self._kernel()

    def _kernel(self) -> float:
        total = 0.0
        for _ in range(20):
            # MLP forward and backward at the workloads' sizes
            acts = [self.x]
            for w in self.weights:
                acts.append(np.tanh(acts[-1] @ w))
            grad = acts[-1]
            for w, a_in, a_out in zip(self.weights[::-1], acts[-2::-1], acts[:0:-1]):
                grad = grad * (1.0 - a_out * a_out)
                total += float((a_in.T @ grad)[0, 0])
                grad = grad @ w.T
            # Python-loop Cholesky of a 16x16 SPD matrix
            n = len(self.spd)
            low = [[0.0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1):
                    s = self.spd[i][j] - sum(low[i][k] * low[j][k] for k in range(j))
                    low[i][j] = s ** 0.5 if i == j else s / low[j][j]
            total += low[-1][-1]
            # small LAPACK calls and dict-keyed bookkeeping
            vals, _ = np.linalg.eigh(self.sym)
            total += float(vals[0]) + float(np.linalg.inv(self.sym + 9.0 * np.eye(8))[0, 0])
            table = {f"p{i}": i * 0.5 for i in range(64)}
            total += sum(table[f"p{i}"] for i in range(64))
        return total

    def measure(self) -> float:
        """Run the kernel once; its CPU seconds."""
        t0 = CLOCK()
        self._kernel()
        return CLOCK() - t0

    @staticmethod
    def scale(kernel_s: float) -> float:
        """Factor that puts a CPU time measured next to ``kernel_s`` on the reference scale."""
        return REFERENCE_MS / 1000.0 / kernel_s
