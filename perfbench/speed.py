"""Host-speed reference: a fixed kernel timed between the measured commands.

On a shared 2-core x86 host, one unchanged computation ran up to 25%
faster or slower from one minute to the next. Longer runs did not remove
that drift: one 33 s pass spread as widely across runs as two 10 s passes.
So the end-to-end times of a run are scaled toward a reference host speed.

The kernel runs before each command, after the last one, and around each
set-up interpreter. A run's times are multiplied by
``(NOMINAL_S / median kernel time of the run) ** ELASTICITY``. The median
over the whole run tracks the slow drift; one 44 ms sample alone is too
noisy to scale the command next to it. The workloads moved less than the
kernel when the host sped up or slowed down. Regressing log time on log
kernel time gave slopes from 0.49 to 0.95 (0.67 to 0.95 for units of work
timed back to back, 0.49 to 0.70 across benchmark runs), so ``ELASTICITY``
is 0.7.

The kernel mixes the three kinds of work the workloads do: an interpreter
loop, many small numpy calls, and one bulk numpy sort. It calls nothing in
denseforest, so a change to the program does not change the work it does.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on the host where the seed-commit baseline was measured
# (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4).
NOMINAL_S = 0.044
ELASTICITY = 0.7


class SpeedReference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = np.sort(rng.random(200))
        self._bulk = rng.random(400_000)
        self.samples = []

    def sample(self):
        """Time one run of the kernel now and keep the sample."""
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i
        for i in range(3000):
            self._small[self._small > i * 5e-4].sum()
        np.sort(self._bulk)
        self.samples.append(time.perf_counter() - t0)

    def factor(self) -> float:
        """Factor taking this run's times to the reference host speed."""
        return (NOMINAL_S / statistics.median(self.samples)) ** ELASTICITY

