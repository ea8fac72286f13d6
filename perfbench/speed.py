"""Interpreter-speed sampler that puts times from a drifting machine on one scale.

On a shared machine one core switches between a fast and a slow state every
few seconds (the loop below takes about 3 ms in one and 4.5-5 ms in the
other), so two cold runs of the same program differ by more than a
regression worth catching.  The sampler times a fixed pure-Python loop at the
start of the child, every SAMPLE_PERIOD_S from a SIGALRM handler, at the end of
set-up and at exit.  The loop does what torsym's hot loops do (Fraction
arithmetic, tuple building, dict traffic): it tracked the drift of cold census
runs better than a loop of integer arithmetic did.  The garbage collector is
off during a sample, so the loop time does not depend on the program's heap.
run.py scales each measured time by REFERENCE_S over the mean loop time of
the samples taken while it ran.  The result is the time the run would have
taken at the reference speed, where one loop takes REFERENCE_S.  The mean, not
the median: the loop times are bimodal, and the median of a run that spends
half its time in each state jumps between the two modes (cold surveys scaled
by the median spread by 24% between quartiles, by the mean 5%).  The
sampler's own time is subtracted from every interval it interrupts.
"""

import gc
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.003
SAMPLE_PERIOD_S = 0.25
_LOOP = 200


def _loop():
    seen = {}
    acc = Fraction(0)
    for i in range(_LOOP):
        v = (Fraction(i, 7), Fraction(i + 1, 3), i % 5)
        acc += v[0] * v[1] - Fraction(v[2], 11)
        seen[v] = seen.get(v[:2], 0) + 1
        seen[tuple(2 * x for x in v[:2])] = len(seen)
    return acc


class Speedometer:
    """Samples loop times in one process; `total` is the time spent sampling."""

    def __init__(self):
        self.samples = []  # (monotonic start, loop seconds)
        self.total = 0.0

    def sample(self, *_):
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.monotonic()
        _loop()
        took = time.monotonic() - t0
        if collecting:
            gc.enable()
        self.samples.append((t0, took))
        self.total += took

    def start(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.sample()


def scale(samples, start=float("-inf"), end=float("inf")):
    """Factor REFERENCE_S / mean loop time over the samples taken in [start, end]."""
    return REFERENCE_S / statistics.mean(d for t, d in samples if start <= t <= end)


def sampled_before(samples, t):
    """Seconds spent sampling before monotonic time t."""
    return sum(d for t0, d in samples if t0 < t)
