"""Track the machine's speed during a run, to take its drift out of the times.

On a few cores of a shared host, identical passes run at speeds that drift
by up to a factor of 1.8 over minutes, as other tenants come and go.
Averaging within one run cannot remove a drift that slow. So the benchmark
also times a fixed calibration kernel of its own after every op. The
kernel uses nothing of ``mlsd``, so a change to the program leaves its
time unchanged, while the machine's speed moves it together with the
program.

A pass's times are multiplied by ``NOMINAL_S`` over the median kernel time
in that pass. A scaled time reads as the time the pass would take on a
machine that runs the kernel in ``NOMINAL_S``. On the 2-vCPU Intel Xeon VM
where the benchmark was written, the kernel's median time per run ranged
from 0.8 to 1.2 ms, so scaled times stay close to wall times there.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 1.0e-3

_SMALL = np.arange(64.0)
_ONES = np.ones(64)
_SORT = np.random.default_rng(0).random(32768)


def kernel() -> int:
    """A fixed mix like the program's: interpreted loops over small ints
    and dicts, ufuncs on small arrays, and one sort of an L2-sized array."""
    acc, seen = 0, {}
    for i in range(2400):
        acc += i * i % 7
        seen[i & 63] = acc
    x = _SMALL
    for _ in range(120):
        x = np.maximum(x * 0.5 + _ONES, _SMALL)
    return acc + int(x[0]) + int(np.sort(_SORT)[0] > 1.0)


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scale(samples: list[float]) -> float:
    """The factor that turns a pass's wall times into scaled times."""
    return NOMINAL_S / statistics.median(samples)
