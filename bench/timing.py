"""Timing normalized against a fixed reference kernel.

The benchmark shares its host with other tenants, and the same code runs up
to twice as slow for stretches of seconds to minutes while they are busy.  A
run therefore samples a reference kernel that uses no fairpost code before
set-up and after every set-up and op.  A sample is the fastest of
``REFERENCE_REPEATS`` back-to-back kernel runs, and every reported time is
the wall time scaled by ``REFERENCE_SECONDS`` over the faster of the two
samples just before and just after it: a momentary stall lengthens some
kernel runs, while the sustained slowdown a busy host causes lengthens all
of them.  The result reads as seconds on the unloaded machine the benchmark
was defined on (a 2-vCPU 2.1 GHz Xeon VM, where the kernel takes about
``REFERENCE_SECONDS``).  Raw wall times are kept beside them.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_SECONDS = 0.012
REFERENCE_REPEATS = 3

_rng = np.random.default_rng(12345)
_VALUES = _rng.random(1 << 16)
_START = _rng.integers(0, 1 << 16, size=4096)
_COLUMNS = _rng.random((40, 600))
_SAMPLE = _rng.random(25_000)


def reference_kernel() -> float:
    """About 12 ms of work shaped like the benchmark's hot code: interpreted
    arithmetic, tree-traversal-like gathers on small arrays, split-search-like
    argsort and cumsum of short columns, and a W1-like sort."""
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    node = _START.copy()
    for _ in range(120):
        node = np.where(_VALUES[node] <= 0.5, node * 2 % 65536,
                        (node * 2 + 1) % 65536)
    for col in _COLUMNS:
        order = np.argsort(col, kind="stable")
        acc += float(np.cumsum(col[order])[-1])
    return acc + float(node.sum()) + float(np.sort(_SAMPLE)[0])


class Yardstick:
    """Times steps between samples of the reference kernel."""

    def __init__(self, kernel=reference_kernel, clock=time.perf_counter):
        self.kernel = kernel
        self.clock = clock
        self.samples: list[float] = []
        self._sample()

    def _sample(self) -> None:
        runs = []
        for _ in range(REFERENCE_REPEATS):
            start = self.clock()
            self.kernel()
            runs.append(self.clock() - start)
        self.samples.append(min(runs))

    def timed(self, fn):
        """Run ``fn()`` and sample the reference after it; return
        ``(result, raw_seconds, normalized_seconds)``, normalized by the
        faster of the samples just before and just after.  An exception from ``fn``
        propagates after the reference is sampled."""
        start = self.clock()
        try:
            result = fn()
        finally:
            raw = self.clock() - start
            self._sample()
        reference = min(self.samples[-2], self.samples[-1])
        return result, raw, raw * REFERENCE_SECONDS / reference
