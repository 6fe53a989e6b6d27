"""Host-speed gauge: a fixed reference kernel timed between slices of work.

The 2-core host the reference figures come from changes speed from second
to second and from minute to minute, and CPU time follows wall time: the
core slows down, the process is not preempted. Over five seeds of
small_calls the calls' least times, unscaled, spread by 0.24 to 0.39 (IQR
over median) while the same runs scaled by this gauge spread by 0.09 to
0.12 (README, "Timing").

A round's timings are multiplied by ``NOMINAL_S`` over the least time of
this kernel, sampled between the round's slices of work, so they read as on
a host where the kernel takes at best ``NOMINAL_S``. The workloads keep each
operation's least time over the rounds; the kernel's least time is the
matching measure of how fast the host let work run. The kernel is work shaped like
the codecs' (bucket lists allocated, a byte loop over a dict, small numpy
operations) and runs none of the program, so a change to the program cannot
move it.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

#: The kernel's least time on the host the README's figures come from.
NOMINAL_S = 1.0e-3

_DATA = bytes(range(256)) * 12
_ARRAY = np.arange(1024, dtype=np.int64)


def _kernel() -> int:
    buckets = [[] for _ in range(4096)]
    acc = 0
    table = {}
    for index, byte in enumerate(_DATA):
        acc = (acc * 31 + byte) & 0xFFFFFFFF
        table[acc & 1023] = index
        if byte & 7 == 0:
            buckets[acc & 4095].append(table.get((acc >> 3) & 1023, -1))
    for _ in range(20):
        np.cumsum(_ARRAY)
        np.searchsorted(_ARRAY, acc & 1023)
    return acc


class Gauge:
    """Kernel samples taken between slices of one stretch of work."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self) -> None:
        begin = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - begin)

    def factor(self) -> float:
        """Multiplier that turns the stretch's wall times into nominal ones."""
        return NOMINAL_S / min(self.samples)
