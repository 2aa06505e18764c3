"""A fixed reference computation that times the machine, not segtool.

On a shared virtual machine the same op can take twice as long from one
minute to the next, because other tenants take the cores. A run that
lands in a slow minute would read as a regression. The benchmark
therefore times this probe next to every op and reports the op's cost in
probe time as well as in wall time: the probe slows down with the machine
and never with a change to segtool.

The probe mixes the kinds of work segtool does, each a part that a
workload may time on its own: splitting transcript-like
text and counting tokens in a dict, summing Fractions, many small numpy
calls with a fresh Generator each (as the null calibration does), and a
few bulk numpy passes over a 1 MB array. Its inputs and buffers are built
once at import and are the same in every run; it allocates little, so it
does not move the workload's peak memory, and what the workload allocated
before does not change its time.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np


_TEXT = "\n".join(
    f"{i // 40}.{i % 40} " + " ".join(f"w{(i * 7 + j * 13) % 211}" for j in range(9))
    for i in range(1200)
)
_SMALL = np.random.default_rng(0).random((7, 100))
_BULK = np.random.default_rng(1).random(1 << 17)
_SCRATCH = np.empty_like(_BULK)


def _text() -> int:
    counts: dict[str, int] = {}
    for line in _TEXT.splitlines():
        label, *words = line.split()
        for word in words:
            counts[word] = counts.get(word, 0) + 1
    return len(counts)


def _fractions() -> Fraction:
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(i % 7, i % 11 + 1)
    return total


def _small_numpy() -> int:
    hits = 0
    for trial in range(120):
        rng = np.random.default_rng((0, trial))
        columns = np.zeros(100, dtype=np.int64)
        columns[rng.choice(100, size=10, replace=False)] += 1
        hits += int(((_SMALL > 0.5).sum(axis=0) * columns).sum())
    return hits


def _bulk_numpy() -> float:
    # Into a buffer made at import: a fresh 1 MB array would come from mmap
    # or from the heap depending on what the process freed before, and
    # its page faults would make the probe's time depend on the workload.
    total = 0.0
    for _ in range(4):
        np.multiply(_BULK, _BULK, out=_SCRATCH)
        np.add(_SCRATCH, 1.0, out=_SCRATCH)
        np.sqrt(_SCRATCH, out=_SCRATCH)
        total += float(_SCRATCH.sum())
    return total


# Each part and its time in ms on an uncontended 2-vCPU Xeon (Haswell
# class) with Python 3.11 and numpy 2.4. Normalised metrics are wall time
# scaled by the reference ms over the probe time measured next to the ops,
# that is, what the op would take on that machine at that speed.
PARTS = {
    "text": (_text, 1.9),
    "fractions": (_fractions, 3.4),
    "small_numpy": (_small_numpy, 3.75),
    "bulk_numpy": (_bulk_numpy, 1.45),
}


def reference_ms(parts=tuple(PARTS)) -> float:
    return sum(PARTS[part][1] for part in parts)


def run(parts=tuple(PARTS)) -> None:
    for part in parts:
        PARTS[part][0]()


def timed(parts=tuple(PARTS)) -> float:
    """Seconds one probe of these parts takes now."""
    start = time.perf_counter()
    run(parts)
    return time.perf_counter() - start
