"""The host's speed during a workload run, sampled from inside the run.

The benchmark runs on cores shared with other tenants.  Their speed moves by
up to 1.8x, within seconds and for a minute at a time, and no steal time
shows in /proc/stat, so the slowdown is contention for the core itself and
no window is long enough to average it out.  A :class:`HostSpeed` sampler
times a fixed calibration kernel every ``PERIOD`` seconds from a SIGALRM
handler, in the thread and on the core that runs the workload.  A run's
wall time times ``REFERENCE_S`` over the kernel's mean time is the run's
time on a host where the kernel takes ``REFERENCE_S``: the program's own
speed, with most of the host's swing taken out.

The kernel is the benchmark's own code, so a change to prtrack does not
change it.  It is interpreted Python, function calls on float tuples, like
most of prtrack's time.  On 2 shared x86_64 cores, over 20 runs of one
input whose wall times spread by 29-41 % (interquartile range over median),
the scaled times spread by 3-4 %.  A kernel of integer loops, dict stores or
small numpy calls tracked the host less well (7-15 %).
"""

from __future__ import annotations

import signal
import time

PERIOD = 0.02
# About the kernel's time in a run on an uncontended core of the host above;
# it only sets the scale of the scaled times.
REFERENCE_S = 100e-6

_BOXES = ((12.0, 40.0, 30.0, 80.0), (20.0, 52.0, 28.0, 76.0),
          (70.0, 10.0, 24.0, 60.0), (66.0, 18.0, 26.0, 58.0),
          (5.0, 5.0, 90.0, 90.0), (40.0, 44.0, 16.0, 30.0),
          (48.0, 50.0, 20.0, 34.0), (90.0, 90.0, 8.0, 8.0))


def _iou(a, b):
    x1, y1 = max(a[0], b[0]), max(a[1], b[1])
    x2 = min(a[0] + a[2], b[0] + b[2])
    y2 = min(a[1] + a[3], b[1] + b[3])
    inter = max(0.0, x2 - x1) * max(0.0, y2 - y1)
    return inter / (a[2] * a[3] + b[2] * b[3] - inter)


def kernel() -> float:
    """IoU of every pair of eight boxes: 64 scalar calls."""
    return sum(_iou(a, b) for a in _BOXES for b in _BOXES)


class HostSpeed:
    """Context manager that samples the kernel's time while it is entered.

    The handler runs between the program's bytecodes, so a long call into
    C delays a sample but does not lose it.  It adds about 0.5 % to a run."""

    def __init__(self):
        self.samples: list[float] = []

    def __enter__(self):
        samples, clock = self.samples, time.perf_counter

        def sample(signum, frame):
            start = clock()
            kernel()
            samples.append(clock() - start)
        self._previous = signal.signal(signal.SIGALRM, sample)
        sample(None, None)    # so that even a short span has a sample
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def kernel_s(self) -> float:
        """Mean kernel time over the samples, leaving out those over three
        times the median: an interrupt or a page fault, not the host."""
        ordered = sorted(self.samples)
        kept = [x for x in ordered if x <= 3 * ordered[len(ordered) // 2]]
        return sum(kept) / len(kept)

    def scaled(self, seconds: float) -> float:
        """``seconds`` of wall time scaled to the reference host speed."""
        return seconds * REFERENCE_S / self.kernel_s()
