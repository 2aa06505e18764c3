"""Confusion counting and retrieval-style scores for boundary-site masks.

Every site of a narrative falls into one confusion cell: predicted and
marked (a), predicted only (b), marked only (c), neither (d). Recall,
precision, fallout, and error rate follow from one table of integer
(numerator, denominator) pairs; a zero denominator means undefined. The
cells live in score_units' integer arrays; metrics(a, b, c, d) gives one
unit's scores as a dict of exact fractions by name, None when undefined;
aggregates stay integer until their mean and variance, and each is a plain
dict of mean, variance, count and skipped.

Human subjects are scored the same way: each subject's row is treated as a
prediction against the pooled opinion of the panel. With the pooled target
at threshold t, the mean per-subject recall equals the boundary-class
percent agreement identically, which doubles as a cross-check between this
module and the agreement one. score_units is the one place that scores
unit rows, subjects and segmenters alike, for the eval command and the
batch report; agreement.pooled_target gives it each target.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .agreement import pooled_target
from .corpus import AnnotationMatrix
from .errors import ValidationError

# Each ratio as a (numerator, denominator) pair of the cells a, b, c and d.
# The same expressions serve ints and integer arrays alike.
RATIOS = {
    "recall": lambda a, b, c, d: (a, a + c),
    "precision": lambda a, b, c, d: (a, a + b),
    "fallout": lambda a, b, c, d: (b, b + d),
    "error": lambda a, b, c, d: (b + c, a + b + c + d),
}
METRIC_NAMES = tuple(RATIOS)


def confusion_table(rows: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, ...]:
    """The cells a, b, c and d of every 0/1 row (m x J) against every 0/1 target column (J x k).

    Each cell is an m x k integer array whose entry [r, k] scores row r as
    the prediction and column k as the target. One product gives every a;
    b, c and d follow from the row totals, the target sizes and J. The
    product runs in float64, where BLAS is several times faster than an
    integer product and every count of 0/1 cells up to 2**53 is exact.
    """
    a = (rows.astype(np.float64) @ targets.astype(np.float64)).astype(np.int64)
    b = rows.sum(axis=1, keepdims=True) - a
    c = targets.sum(axis=0, keepdims=True) - a
    return a, b, c, rows.shape[1] - a - b - c


def metrics(a: int, b: int, c: int, d: int) -> dict[str, Fraction | None]:
    """Recall a/(a+c), precision a/(a+b), fallout b/(b+d), error (b+c)/n; None when undefined."""
    pairs = {name: ratio(a, b, c, d) for name, ratio in RATIOS.items()}
    return {name: Fraction(num, den) if den else None for name, (num, den) in pairs.items()}


def score_units(
    matrix: AnnotationMatrix, rows: np.ndarray, threshold: int | None = None,
    exact: int | None = None, leave_one_out: bool = False,
) -> tuple[np.ndarray, str, np.ndarray]:
    """Score each 0/1 unit row (units x sites) against the panel's pooled opinion.

    Returns the pooled target mask, its mode label and the cells a, b, c
    and d as one 4 x units x columns integer array. Column 0 scores every
    unit against the target: sites with at least threshold marks (by
    default the strict majority) or exactly exact marks. Column t scores it
    against the sites that exactly t subjects marked, t = 1 .. subjects.
    With leave_one_out the rows must be the subjects' own, and row r is
    scored against the opinion of every other subject only; a defaulted
    threshold then becomes the strict majority of the reduced panel, and
    the cells hold column 0 only. Rows that do not span the matrix's sites,
    or hold a value other than 0 or 1, are refused.
    """
    if np.ndim(rows) != 2 or np.shape(rows)[1] != matrix.sites:
        raise ValidationError(f"narrative {matrix.narrative_id}: unit rows of shape "
                              f"{np.shape(rows)}, not (units, {matrix.sites})")
    if not ((rows == 0) | (rows == 1)).all():
        raise ValidationError(f"narrative {matrix.narrative_id}: unit rows hold a value "
                              "other than 0 or 1")
    target, mode = pooled_target(matrix.subjects, matrix.column_totals, threshold, exact)
    if not leave_one_out:
        levels = np.arange(1, matrix.subjects + 1)
        targets = np.column_stack([target, matrix.column_totals[:, None] == levels])
        return target, mode, np.stack(confusion_table(rows, targets))
    if matrix.subjects < 2:
        raise ValidationError("leave-one-out needs at least 2 subjects")
    if not np.array_equal(rows, matrix.cells):
        raise ValidationError("leave-one-out scores the subjects' own rows")
    # Row r of the stack is the opinion of every subject but r.
    pooled, mode = pooled_target(matrix.subjects - 1, matrix.column_totals - rows,
                                 threshold, exact)
    cells = [np.diagonal(cell) for cell in confusion_table(rows, pooled.T)]
    return target, f"{mode} leave-one-out", np.stack(cells)[:, :, None]


def aggregate_pairs(numerators, denominators) -> dict:
    """Summarize the ratios numerators[k] / denominators[k] of two integer arrays.

    Returns {"mean", "variance", "count", "skipped"}: the mean and population
    variance over the defined observations (None when none is defined), how
    many entered, and how many undefined ones were left out. Object arrays
    of Python ints keep integers beyond int64 exact. A zero denominator
    marks an undefined observation.
    Over a common denominator L, the lcm of the unreduced denominators, each
    ratio is s_k / L with s_k an integer, so with A = sum s_k and
    B = sum s_k^2 the mean is A / (n L) and the population variance
    (n B - A^2) / (n L)^2: exact, with no Fraction before the result.
    """
    nums, dens = np.asarray(numerators).tolist(), np.asarray(denominators).tolist()
    pairs = [(num, den) for num, den in zip(nums, dens) if den]
    n, skipped = len(pairs), len(dens) - len(pairs)
    if not pairs:
        return {"mean": None, "variance": None, "count": 0, "skipped": skipped}
    common = math.lcm(*{den for _, den in pairs})
    scaled = [num * (common // den) for num, den in pairs]
    first = sum(scaled)
    second = sum(s * s for s in scaled)
    return {
        "mean": Fraction(first, n * common),
        "variance": Fraction(n * second - first * first, (n * common) ** 2),
        "count": n,
        "skipped": skipped,
    }


def aggregate_cells(cells: np.ndarray, names=METRIC_NAMES) -> dict[str, dict]:
    """Each named ratio of the units' cells (4 x units) summarized over the units."""
    return {name: aggregate_pairs(*RATIOS[name](*cells)) for name in names}
