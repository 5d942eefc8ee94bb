"""Speed of the core a benchmark process runs on, sampled beside the work.

The benchmark runs on a few cores of a shared host whose speed wanders
by 20-50% within seconds and drifts over minutes, as other tenants load
it.  The same pass of the same code then takes 1.2 s or 1.8 s.  A fixed
kernel timed on the same core at the same moments slows down with it
(correlation about 0.8 per sample, 0.9 over a few seconds), so the
benchmark reports times rescaled by the kernel's speed:

    time at reference speed = measured time * REFERENCE_S / kernel time

REFERENCE_S is the kernel time of the reference machine, so the figures
read as seconds on it.  The kernel is pure Python and numpy, touches no
gdmopt code and allocates under 1 MB, so that a change to gdmopt
cannot change the kernel's time.
"""

import signal
import statistics
import time

import numpy as np

# Kernel time in seconds on the reference machine (the one baseline.json
# names) when its host is quiet: measured 10.1-10.6 ms, and up to 16 ms
# when the host is loaded.
REFERENCE_S = 0.010
# Seconds between samples while a pass runs: about 6% of a pass goes to
# the kernel, and every pass of the benchmark gets ten or more samples.
INTERVAL_S = 0.25

_ARRAY = np.arange(60_000, dtype=np.float64)[::-1].copy()


def kernel_s():
    """Wall time of one run of the fixed kernel: a Python loop and numpy sorts."""
    start = time.perf_counter()
    x = 0
    for k in range(60_000):
        x += k * k % 7
    for _ in range(12):
        b = np.sort(_ARRAY)
        b = np.cumsum(b)
        b *= 1e-9
    return time.perf_counter() - start


def rescale(measured_s, kernel_times):
    """measured_s at reference speed, from the kernel times taken beside it."""
    return measured_s * REFERENCE_S / statistics.median(kernel_times)


class Sampler:
    """Times the kernel every INTERVAL_S seconds from a SIGALRM handler.

    The handler runs between Python bytecodes of the main thread, so a
    sample lands inside the work it measures the speed for; its time is
    recorded so the caller can take it out of the work's wall time.
    """

    def __init__(self):
        self.samples = []
        self.inside_s = 0.0  # kernel time spent inside the work

    def _sample(self, signum, frame):
        elapsed = kernel_s()
        self.samples.append(elapsed)
        self.inside_s += elapsed

    def __enter__(self):
        kernel_s()  # first call pays for allocation and caches
        self.samples.append(kernel_s())
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(kernel_s())
        return False
