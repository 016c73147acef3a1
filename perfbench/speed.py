"""Timings scaled to a fixed machine speed, for a benchmark on a shared host.

Other load on the host makes every process run slower for stretches of a
few seconds to minutes, often longer than one run, so no statistic over one
run's timings removes it. The benchmark therefore times a fixed reference
chunk of its own around the units of work it measures, and scales each
unit's time by how much slower the reference ran around it than at the
nominal speed:

    scaled = raw * NOMINAL_S / mean(reference before, reference after)

The reference is a Python loop over small numpy operations, the same mix as
eventfdi's per-step work, and it does not call eventfdi: a change to
eventfdi moves the scaled time as much as the raw time, while the host's
slowdown moves both and cancels. See README.md, "Timing on a shared machine".
"""

import statistics
import time

import numpy as np

REFERENCE_ITERS = 1500
REFERENCE_REPEATS = 3
# Wall time of one reference chunk on the quiet machine the bounds were
# measured on (Intel Xeon, 2 vCPU, Python 3.11); it only sets the scale.
NOMINAL_S = 0.0045

_A = np.array([[0.9, 0.1, 0.0], [0.0, 0.8, 0.1], [0.1, 0.0, 0.7]])


def _reference_chunk(iters: int) -> float:
    x = np.ones(3)
    acc = 0.0
    for i in range(iters):
        x = _A @ x + 0.01
        acc += float(x[i % 3])
    return acc


def reference_seconds() -> float:
    """Median wall time of a few runs of the reference chunk."""
    times = []
    for _ in range(REFERENCE_REPEATS):
        t0 = time.perf_counter()
        _reference_chunk(REFERENCE_ITERS)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class ScaledTimer:
    """Times units of work with a reference timing before and after each.

    `time(fn)` runs fn once and returns its result; `raw` and `scaled()` list
    the units' seconds in the order they ran.
    """

    def __init__(self):
        self.raw = []
        self.references = [reference_seconds()]

    def time(self, fn):
        t0 = time.perf_counter()
        out = fn()
        self.raw.append(time.perf_counter() - t0)
        self.references.append(reference_seconds())
        return out

    def factors(self) -> list:
        """Per unit, NOMINAL_S over the mean of the references around it."""
        refs = self.references
        return [2.0 * NOMINAL_S / (before + after) for before, after in zip(refs, refs[1:])]

    def scaled(self) -> list:
        return [raw * factor for raw, factor in zip(self.raw, self.factors())]
