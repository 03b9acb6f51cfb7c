"""A frozen reference kernel that measures how fast the machine runs right now.

The machine the benchmark was built on (a 2-core x86-64 virtual machine on a
shared host) runs the same code up to 1.5-2x slower at some moments than at
others, in spells of a few seconds to minutes that leave no trace in steal
time, so the median of a 25 s run moved by up to a quarter between runs.
The benchmark runs this kernel before and after every timed study and
probe solve and reports the solve's time multiplied by ``NOMINAL_S`` over
the mean of the two kernel times: seconds at the machine's nominal speed.

The kernel imitates the program's mix (scalar Python with ``math.gamma``, as
in ``specfun`` and the example Lagrangians, and loops over short numpy
arrays, as in the GL convolutions and residuals); a dense LU solve tracked
the studies less well and is left out.  It does not import fracvar, so a
change to the program cannot change the yardstick.
"""

import math
import time

import numpy as np

#: Median time of ``kernel()`` on the machine the benchmark was built on;
#: fixed, so that reported times stay comparable between commits.
NOMINAL_S = 0.06


def kernel():
    acc = 0.0
    for i in range(1, 100000):
        acc += math.gamma(1.0 + (i % 50) * 0.01) * 0.5 + (i % 7)
    x = np.linspace(0.0, 1.0, 64)
    w = np.ones(64)
    ratios = 1.0 - 1.5 / np.arange(1, 64)
    for _ in range(2500):
        w[1:] = w[:-1] * ratios
        acc += float(np.dot(w, x)) + float(np.max(np.abs(x - acc * 1e-12)))
    return acc


def seconds():
    """Wall time of one pass of the kernel."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Speed:
    """Scales wall times to the nominal speed.  Each ``scale`` call runs the
    kernel once; that pass is the "after" of this piece of work and the
    "before" of the next, so the work must follow the previous call
    directly."""

    def __init__(self):
        kernel()  # warm-up: first-call costs are not the machine's speed
        self.last = seconds()

    def scale(self, elapsed):
        """``elapsed`` (just measured) in seconds at the nominal speed."""
        before, self.last = self.last, seconds()
        return elapsed * NOMINAL_S / (0.5 * (before + self.last))
