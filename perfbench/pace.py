"""A fixed reference computation that tracks how fast the machine runs right now.

On a VM that shares its host, the vCPU's speed drifts: on a 2-vCPU Xeon
VM a computation like this one took half again as long in one run as in
another, and switched speed within a run over a few seconds.  Wall times
of the program carry that drift, so the benchmark scales them to a fixed
pace.  A short computation of the same kind as the program's (rational
row reduction, lists of small integers, dict traffic) runs between ops;
an op's wall seconds times ``NOMINAL_S`` over the reference's seconds
measured beside it are the op's seconds at the reference pace.

The reference never calls dualcech, so a change to the program moves the
scaled figure in the same proportion as its wall time.  It runs with the
garbage collector paused, so that the size of the program's heap does not
slow it.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

# about the reference's median seconds on the VM of BASELINE.md
NOMINAL_S = 0.0012

_MATRIX = [[(3 * i * i + 5 * j + i * j) % 7 - 3 for j in range(11)] for i in range(10)]


def reference() -> int:
    """Row-reduce a fixed 10x11 integer matrix over the rationals; return its rank."""
    rows = [[Fraction(x) for x in row] for row in _MATRIX]
    pivots = {}
    rank = 0
    for col in range(11):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        head = rows[rank][col]
        rows[rank] = [x / head for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        pivots[col] = rank
        rank += 1
    return len(pivots)


def measure() -> float:
    """Wall seconds of one reference run."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        reference()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def around(refs: list[float], k: int) -> float:
    """The pace beside op ``k``, which ran between ``refs[k]`` and ``refs[k + 1]``.

    The median of the three references on either side: one reference can
    be hit by an interrupt, and the machine's speed changes over seconds,
    not within a few ops.
    """
    return statistics.median(refs[max(0, k - 2) : k + 4])


def timed(fn, repeats: int = 5):
    """Run ``fn`` once between ``repeats`` references on each side.

    Returns its result and its seconds at the reference pace.
    """
    refs = [measure() for _ in range(repeats)]
    start = perf_counter()
    result = fn()
    seconds = perf_counter() - start
    refs += [measure() for _ in range(repeats)]
    return result, seconds * NOMINAL_S / statistics.median(refs)
