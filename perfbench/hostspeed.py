"""How fast the host runs Python right now, sampled while a pass runs.

The benchmark runs on shared hosts whose speed for one single-threaded
process drifts by a factor of up to two within minutes (other tenants'
load, clock changes), far more than the changes the benchmark must
resolve.  A timer signal runs a fixed pure-Python kernel every
``INTERVAL_S`` during the timed phase and records how long it took; a step
measured while the kernel ran slow is scaled back by the same factor (see
``run.py``).  The kernel mixes the interpreter work the library spends its
time on: big-integer arithmetic (mpmath's pure-Python backend), ``Fraction``
arithmetic and float math.  It touches no library code, so a change to the
library cannot change the probe.  Interleaved with ``mpmath.besselk`` on a
shared 2-vCPU Xeon VM, the ratio of the two kept a coefficient of variation
of 1.4% across windows in which besselk's own time varied by 17%.
"""

from __future__ import annotations

import math
import signal
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.02
SETUP_SAMPLES = 10      # kernel runs right after set-up, which is too short to sample
# the kernel's duration at the reference speed: the speed at which reported
# times are expressed (the kernel's median on the host that recorded it,
# an Intel Xeon at 2.1 GHz with no other load from this benchmark)
KERNEL_REF_S = 1.8e-4


def kernel():
    x = 1
    for i in range(200):
        x = (x * 6364136223846793005 + i) % (1 << 127)
    f = Fraction(0)
    for i in range(1, 30):
        f += Fraction(1, i)
    s = 0.0
    for i in range(300):
        s += math.sin(i * 0.01)
    return x, f, s


class Probe:
    """Context manager: samples the kernel's duration from SIGALRM."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (start, duration)
        self.spent = 0.0                               # time inside the handler

    def sample(self, signum=None, frame=None):
        start = perf_counter()
        kernel()
        end = perf_counter()
        self.samples.append((start, end - start))
        self.spent += perf_counter() - start

    def __enter__(self):
        # one sample at each end, so even a pass shorter than the interval
        # has a speed to be scaled by
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()
        return False
