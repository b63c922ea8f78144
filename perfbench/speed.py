"""Machine-speed probe for normalising wall times.

The benchmark runs on shared machines whose speed drifts by up to 2x
over seconds to minutes (a neighbour on the same physical core), far
more than the regressions it must catch.  A fixed kernel written here,
half interpreter work and half a memory-bound tensor contraction like
drqsim's dense pulse application, is timed between every two operations.
Each operation's wall time is scaled by REFERENCE_S over the median
kernel time around it (see `SpeedProbe.scale`), which gives its wall
time at the speed where the kernel takes REFERENCE_S.  Raw wall times
are printed as well.
"""
from __future__ import annotations

import bisect
import time

import numpy as np

# Kernel time on an undisturbed 2.1 GHz core of the reference machine;
# it fixes the unit, not the comparison between two commits.
REFERENCE_S = 0.0063


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((16, 16)) + 0j
        self.tensor = rng.standard_normal((4,) * 9) + 0j
        self.times: list[float] = []
        self.stamps: list[float] = []

    def kernel(self) -> float:
        t0 = time.perf_counter()
        table: dict = {}
        for i in range(5500):
            key = (i % 61, "k")
            table[key] = table.get(key, 0) + i
            table[i % 7] = len([x for x in range(8)])
        block = np.moveaxis(self.tensor, (2, 5), (0, 1)).reshape(16, -1)
        block = (self.matrix @ block).reshape(self.tensor.shape)
        np.ascontiguousarray(np.moveaxis(block, (0, 1), (2, 5)))
        return time.perf_counter() - t0

    def probe(self) -> int:
        """Time the kernel once; returns the probe's index."""
        self.times.append(self.kernel())
        self.stamps.append(time.perf_counter())
        return len(self.times) - 1

    def last(self) -> int:
        """Index of the latest probe, probing if there is none."""
        return len(self.times) - 1 if self.times else self.probe()

    def scale(self, raw: float, before: int, start: float,
              end: float) -> float:
        """`raw` seconds of an operation at the reference speed.

        The operation ran from `start` to `end`, between probes `before`
        and `before + 1`.  Its speed is the median kernel time over the
        three probes on each side and every probe within one operation
        length of it, so a long operation is judged over a span as long
        as itself.
        """
        span = end - start
        lo = min(max(0, before - 2),
                 bisect.bisect_left(self.stamps, start - span))
        hi = max(before + 4, bisect.bisect_right(self.stamps, end + span))
        return raw * REFERENCE_S / float(np.median(self.times[lo:hi]))
