"""How fast the host runs right now, from a fixed reference computation.

On a shared virtual machine the same code can run at speeds up to about
1.6x apart, switching every few seconds to minutes with the load other
tenants put on the physical cores; more work in one run does not average
that out.  The benchmark therefore times this kernel before and after
every operation and set-up, and reports each wall time scaled to a host on
which the kernel takes ``NOMINAL_S``.  The kernel is the benchmark's own
code and does not call ``nlcdet``, so a change to the library cannot move
it.  The raw wall times are printed beside the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.030

_rng = np.random.default_rng(0)
_A, _B = _rng.normal(size=(32, 24)), _rng.normal(size=(24, 16))
_LARGE = _rng.normal(size=(2, 131_072))  # 2 MiB, so the kernel adds little to peak_rss_mb


def kernel_seconds() -> float:
    """Wall time of one fixed mix of the kinds of work the workloads do."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(6000):  # many small NumPy calls, as in training and solving
        acc += float((_A @ _B)[i % 32, i % 16])
    for i in range(120_000):  # scalar Python arithmetic, as in box clipping
        acc = acc * 0.5 + i
    for _ in range(80):  # passes over large arrays, as in full-resolution propagation
        acc += float(np.add(_LARGE[0], _LARGE[1]).sum())
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` of wall time at the nominal speed, from the kernel times around it."""
    return seconds * 2.0 * NOMINAL_S / (before + after)
