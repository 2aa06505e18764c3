"""Confusion counting and retrieval-style scores for boundary sets.

Every site of a narrative falls into one confusion cell: predicted and
marked (a), predicted only (b), marked only (c), neither (d). Recall,
precision, fallout, and error rate follow from one table of integer
(numerator, denominator) pairs; a zero denominator means undefined. Per-item
scores are exact fractions, None when undefined; aggregates stay integer
until their mean and variance.

Human subjects are scored the same way: each subject's row is treated as a
prediction against the pooled opinion of the panel. With the pooled target
at threshold t, the mean per-subject recall equals the boundary-class
percent agreement identically, which doubles as a cross-check between this
module and the agreement one. score_units is the one place that scores
unit rows, subjects and segmenters alike, for the eval command,
evaluate_humans and the batch report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .agreement import BoundaryStrengths, boundary_strengths, majority_threshold
from .corpus import AnnotationMatrix, BoundarySet, _site_ints
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


@dataclass(frozen=True)
class ConfusionCounts:
    """The four site-classification cells.

    a: predicted and target, b: predicted only, c: target only, d: neither.
    """

    a: int
    b: int
    c: int
    d: int

    @property
    def total(self) -> int:
        return self.a + self.b + self.c + self.d


@dataclass(frozen=True)
class EvalMetrics:
    """Retrieval-style ratios over confusion cells; None when undefined."""

    recall: Fraction | None
    precision: Fraction | None
    fallout: Fraction | None
    error: Fraction | None

    def as_dict(self) -> dict[str, Fraction | None]:
        return {name: getattr(self, name) for name in METRIC_NAMES}


def site_mask(boundaries, sites: int, role: str) -> np.ndarray:
    """A BoundarySet or site iterable as a 0/1 vector over the sites."""
    plain = not isinstance(boundaries, BoundarySet)
    values = _site_ints(boundaries) if plain else list(boundaries.sites)
    if values and not 0 <= min(values) <= max(values) < sites:
        k = next(k for k in values if not 0 <= k < sites)
        raise ValidationError(f"{role} site {k} outside [0, {sites - 1}]")
    mask = np.zeros(sites, dtype=np.int64)
    mask[values] = 1
    return mask


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


def confusion(predicted, target, sites: int) -> ConfusionCounts:
    """Classify all sites of one narrative's universe.

    predicted and target may be BoundarySet objects or plain site
    iterables; BoundarySet arguments must agree on the narrative.
    """
    if sites < 1:
        raise ValidationError("site universe must be non-empty")
    if isinstance(predicted, BoundarySet) and isinstance(target, BoundarySet):
        if predicted.narrative_id != target.narrative_id:
            raise ValidationError(
                f"cannot score {predicted.narrative_id} against {target.narrative_id}"
            )
    rows = site_mask(predicted, sites, "predicted")[None, :]
    cells = confusion_table(rows, site_mask(target, sites, "target")[:, None])
    return ConfusionCounts(*(int(cell[0, 0]) for cell in cells))


def metrics(counts: ConfusionCounts) -> EvalMetrics:
    """Recall a/(a+c), precision a/(a+b), fallout b/(b+d), error (b+c)/n."""
    pairs = {name: ratio(counts.a, counts.b, counts.c, counts.d) for name, ratio in RATIOS.items()}
    return EvalMetrics(**{name: Fraction(n, d) if d else None for name, (n, d) in pairs.items()})


def resolve_target(
    strengths: BoundaryStrengths, threshold: int | None, exact: int | None
) -> tuple[np.ndarray, str]:
    """The pooled reference mask and its label, "exact=t" or "threshold=t"."""
    if threshold is not None and exact is not None:
        raise ValidationError("give either threshold or exact, not both")
    if exact is not None:
        return strengths.mask(exact, exact=True), f"exact={exact}"
    if threshold is None:
        threshold = majority_threshold(strengths.subjects)
    return strengths.mask(threshold), f"threshold={threshold}"


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
    the cells hold column 0 only.
    """
    target, mode = resolve_target(boundary_strengths(matrix), threshold, exact)
    if not leave_one_out:
        levels = np.arange(1, matrix.subjects + 1)
        targets = np.column_stack([target, matrix.column_totals[:, None] == levels])
        return target, mode, np.stack(confusion_table(rows, targets))
    if matrix.subjects < 2:
        raise ValidationError("leave-one-out needs at least 2 subjects")
    if not np.array_equal(rows, matrix.cells):
        raise ValidationError("leave-one-out scores the subjects' own rows")
    # Row r of the stack is the opinion of every subject but r.
    others = BoundaryStrengths(
        matrix.narrative_id, matrix.subjects - 1, matrix.column_totals - rows
    )
    pooled, mode = resolve_target(others, threshold, exact)
    cells = [np.diagonal(cell) for cell in confusion_table(rows, pooled.T)]
    return target, f"{mode} leave-one-out", np.stack(cells)[:, :, None]


def target_boundaries(
    matrix: AnnotationMatrix,
    threshold: int | None = None,
    exact: int | None = None,
) -> BoundarySet:
    """The pooled reference set: sites with at least (or exactly) t marks.

    Defaults to the strict-majority threshold.
    """
    target, _ = resolve_target(boundary_strengths(matrix), threshold, exact)
    return BoundarySet.of(matrix.narrative_id, np.flatnonzero(target))


def evaluate_algorithm(
    predicted: BoundarySet,
    matrix: AnnotationMatrix,
    threshold: int | None = None,
    exact: int | None = None,
) -> EvalMetrics:
    """Score one algorithm's boundary set against the pooled opinion."""
    if predicted.narrative_id != matrix.narrative_id:
        raise ValidationError(
            f"prediction for {predicted.narrative_id} scored against "
            f"annotations of {matrix.narrative_id}"
        )
    row = site_mask(predicted, matrix.sites, "predicted")[None, :]
    cells = score_units(matrix, row, threshold, exact)[2]
    return metrics(ConfusionCounts(*cells[:, 0, 0].tolist()))


@dataclass(frozen=True)
class MetricAggregate:
    """Mean and population variance over defined observations.

    count is the number of observations that entered; skipped counts the
    undefined ones left out. Both summary values are None when nothing was
    defined.
    """

    mean: Fraction | None
    variance: Fraction | None
    count: int
    skipped: int


def aggregate_pairs(numerators, denominators) -> MetricAggregate:
    """Summarize the ratios numerators[k] / denominators[k] of two integer arrays.

    Object arrays of Python ints keep integers beyond int64 exact. A zero
    denominator marks an undefined observation, which is skipped.
    Over a common denominator L, the lcm of the unreduced denominators, each
    ratio is s_k / L with s_k an integer, so with A = sum s_k and
    B = sum s_k^2 the mean is A / (n L) and the population variance
    (n B - A^2) / (n L)^2: exact, with no Fraction before the result.
    """
    nums, dens = np.asarray(numerators).tolist(), np.asarray(denominators).tolist()
    pairs = [(num, den) for num, den in zip(nums, dens) if den]
    n, skipped = len(pairs), len(dens) - len(pairs)
    if not pairs:
        return MetricAggregate(mean=None, variance=None, count=0, skipped=skipped)
    common = math.lcm(*{den for _, den in pairs})
    scaled = [num * (common // den) for num, den in pairs]
    first = sum(scaled)
    second = sum(s * s for s in scaled)
    return MetricAggregate(
        mean=Fraction(first, n * common),
        variance=Fraction(n * second - first * first, (n * common) ** 2),
        count=n,
        skipped=skipped,
    )


def aggregate_cells(cells: np.ndarray, names=METRIC_NAMES) -> dict[str, MetricAggregate]:
    """Each named ratio of the units' cells (4 x units) summarized over the units."""
    return {name: aggregate_pairs(*RATIOS[name](*cells)) for name in names}


def aggregate_metric(values) -> MetricAggregate:
    """Summarize an iterable of Fraction-or-None observations.

    Each value becomes its (numerator, denominator) pair, None becoming
    (0, 0), and aggregate_pairs does the rest.
    """
    values = list(values)
    return aggregate_pairs(
        np.array([0 if v is None else v.numerator for v in values], dtype=object),
        np.array([0 if v is None else v.denominator for v in values], dtype=object),
    )


@dataclass(frozen=True)
class SubjectScore:
    subject_id: str
    counts: ConfusionCounts
    scores: EvalMetrics


@dataclass(frozen=True)
class HumanEvaluation:
    """Per-subject scores against the pooled opinion, with summaries."""

    narrative_id: str
    target: BoundarySet
    mode: str
    per_subject: tuple[SubjectScore, ...]
    summary: dict[str, MetricAggregate]


def evaluate_humans(
    matrix: AnnotationMatrix,
    threshold: int | None = None,
    exact: int | None = None,
    leave_one_out: bool = False,
) -> HumanEvaluation:
    """Score every subject as if their row were an algorithm's output.

    By default the pooled target includes the subject being scored. With
    leave_one_out each subject is scored against the opinion of the other
    subjects only; a defaulted threshold then becomes the strict majority
    of the reduced panel. That mode breaks the exact identity between mean
    recall and boundary-class percent agreement, which is why it is off by
    default.
    """
    target, mode, cells = score_units(matrix, matrix.cells, threshold, exact, leave_one_out)
    counts = list(map(ConfusionCounts, *cells[:, :, 0].tolist()))
    return HumanEvaluation(
        narrative_id=matrix.narrative_id,
        target=BoundarySet.of(matrix.narrative_id, np.flatnonzero(target)),
        mode=mode,
        per_subject=tuple(map(SubjectScore, matrix.subject_ids, counts, map(metrics, counts))),
        summary=aggregate_cells(cells[:, :, 0]),
    )
