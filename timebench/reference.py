"""The reference loop that times are normalised by (see ``bench``).

It does a fixed mix of small and wide NumPy calls and pure-Python work and
calls nothing from ``repro``, so no change to the library can make it faster
or slower; its time follows only the speed the host gives the process.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Time of one reference loop on the host the times are normalised to.
REFERENCE_S = 0.003

#: Reference loops after each pass run for this share of the pass's time
#: (and for at least REFERENCE_MIN_S), so the host speed is sampled at
#: every pass boundary whatever the pass length.
REFERENCE_SHARE = 0.03
REFERENCE_MIN_S = 0.01

_SMALL = np.linspace(0.5, 1.5, 64)
_WIDE = np.linspace(0.5, 1.5, 2048)


def reference_loop() -> float:
    """Seconds taken by a fixed mix of small and wide NumPy calls and Python."""
    start = time.perf_counter()
    total = 0.0
    for _ in range(250):
        total += float(np.sqrt(_SMALL * _SMALL + 1.0).sum())
        total += float((_WIDE * 1.5 + _WIDE).max())
    for i in range(12000):
        total += i * 0.5
    return time.perf_counter() - start


def reference_block(seconds: float) -> float:
    """Median reference-loop time over loops run for at least ``seconds``."""
    times = [reference_loop()]
    while sum(times) < seconds:
        times.append(reference_loop())
    return statistics.median(times)
