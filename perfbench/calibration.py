"""Machine-speed calibration for ``ops_per_s`` and ``setup_s``.

The benchmark shares its CPUs with other tenants, whose load changes the
speed of this process by 10-30% in spells of seconds to minutes, on both
CPUs together.  ``kernel`` is a fixed piece of work of the same kind as
qvstrain's: small complex arrays reshaped and reduced in a Python loop,
the same reshape-reduce pass over a 4 MiB state, passes and FFTs over a
1 MiB array, and a pure-Python dict loop.  It is timed right after every
op, and the op rate is scaled to a machine on which one kernel run takes
``REFERENCE_S``.  With the same seed repeated over four 40-second runs,
this cut the range of ``train-n64`` from 9.5% to 1.8% and of ``sweep-n``
from 8% to 2.6%.

The kernel runs in the benchmark's process, outside the timed ops, and no
change to qvstrain changes it.  A change that slowed it by side effect,
say a busy background thread, would hide part of its own cost.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_S = 0.010  # about one kernel run on the 2-vCPU host at its quiet best


def kernel() -> None:
    small = np.full(2048, 0.5 + 0.5j)
    for _ in range(150):
        view = small.reshape(-1, 8, 16)
        total = view.sum(axis=-1, keepdims=True)
        np.negative(view, out=view)
        view += total * 0.125
    state = np.full(1 << 18, 0.5 + 0.5j)  # 4 MiB, like a train-n64 state
    for _ in range(3):
        view = state.reshape(-1, 64)
        total = view.sum(axis=-1, keepdims=True)
        np.negative(view, out=view)
        view += total * (2.0 / 64)
    large = np.full(1 << 16, 0.5 + 0.5j)
    for _ in range(6):
        large *= -1.0
        np.fft.fft(large[:8192])
    counts: dict[int, int] = {}
    for i in range(6000):
        counts[i % 97] = counts.get(i % 97, 0) + i


def seconds() -> float:
    """Wall time of one kernel run."""
    start = perf_counter()
    kernel()
    return perf_counter() - start
