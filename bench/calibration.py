"""How fast the shared machine ran during a timed run.

The benchmark runs on a few cores of a shared host, whose speed drifts by
10 to 25% over minutes as other tenants load it: every op of a run gets
slower or faster together, interpreter-bound ops more than BLAS-bound
ones. A fixed piece of work that never calls the program, a pure-Python
loop and a small symmetric eigen-decomposition, is timed between ops all
through the run. Its median times against REFERENCE_S give the run's
speed factor, and run.py scales the op times by it. A change to the
program does not change the calibration work, so it moves the scaled
times as much as the wall times.
"""

import math
import statistics
import time

import numpy as np

EVERY_S = 0.2  # calibrate after the first op that ends this long after the last calibration
LOOP = 20000
MATRIX_DIM = 160
# Median (loop, eigh) times on the machine the benchmark was built on, a
# 2-core share of an Intel Xeon host at 2.1 GHz, so that scaled times
# read close to wall times there.
REFERENCE_S = (1.45e-3, 3.0e-3)


class Calibration:
    def __init__(self):
        a = np.random.default_rng(0).standard_normal((MATRIX_DIM, MATRIX_DIM))
        self.matrix = a + a.T
        self.loop_s, self.eigh_s = [], []
        self.last = -math.inf

    def tick(self) -> None:
        """Run the calibration work if EVERY_S has passed since the last time."""
        if time.perf_counter() - self.last < EVERY_S:
            return
        start = time.perf_counter()
        total = 0
        for i in range(LOOP):
            total += i * i
        middle = time.perf_counter()
        np.linalg.eigh(self.matrix)
        self.last = time.perf_counter()
        self.loop_s.append(middle - start)
        self.eigh_s.append(self.last - middle)

    def summary(self) -> dict:
        """The speed factor: the geometric mean of the reference-to-median
        time ratios of the two parts, above 1 when the machine ran faster
        than the reference. Scaled op time = wall time * factor."""
        loop, eigh = statistics.median(self.loop_s), statistics.median(self.eigh_s)
        factor = math.sqrt(REFERENCE_S[0] / loop * REFERENCE_S[1] / eigh)
        return {"factor": factor, "loop_s": loop, "eigh_s": eigh, "samples": len(self.loop_s)}
