"""Machine-speed calibration for the end-to-end times.

On a machine shared with other jobs, the speed of one CPU moves by 20% or
more within seconds, so raw run times spread more than any useful bound.
A fixed kernel, made of the same kind of work as gpw's (interpreter loops
and numpy calls on small arrays), is timed between items, for about a tenth
of the item's own time.  Each item's time is scaled by ``REFERENCE_S`` over
the mean kernel time just before and just after it, which gives the time
the item would take on a machine where the kernel takes ``REFERENCE_S``.
The kernel never changes, so two versions of gpw are compared on the same
scale.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.005  # kernel time on the reference machine


def kernel() -> complex:
    a = np.arange(45, dtype=complex)
    b = a[::-1].copy()
    acc = 0j
    for i in range(400):
        c = np.convolve(a, b)[:45].copy()
        c.setflags(write=False)
        acc += c[i % 45]
        table = {}
        for j in range(30):
            table[j] = (i * j) % 7
        acc += sum(table.values())
    return acc


WINDOW_SHARE = 0.1  # kernel time spent after an item, as a share of the item


def measure() -> float:
    """Duration of one kernel run, in seconds."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def measure_window(item_s: float) -> list[float]:
    """Kernel durations over a window of about WINDOW_SHARE * item_s."""
    durations = [measure()]
    while sum(durations) < WINDOW_SHARE * item_s:
        durations.append(measure())
    return durations
