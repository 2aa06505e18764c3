"""Confusion counting and retrieval-style scores for boundary sets.

Every site of a narrative falls into one confusion cell: predicted and
marked (a), predicted only (b), marked only (c), neither (d). Recall,
precision, fallout, and error rate follow, kept as exact fractions with
None for ratios whose denominator is zero.

Human subjects are scored the same way: each subject's row is treated as a
prediction against the pooled opinion of the panel. With the pooled target
at threshold t, the mean per-subject recall equals the boundary-class
percent agreement identically, which doubles as a cross-check between this
module and the agreement one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .agreement import boundary_strengths, majority_threshold
from .corpus import AnnotationMatrix, BoundarySet
from .errors import ValidationError

METRIC_NAMES = ("recall", "precision", "fallout", "error")


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
        return {
            "recall": self.recall,
            "precision": self.precision,
            "fallout": self.fallout,
            "error": self.error,
        }


def _site_set(boundaries, sites: int, role: str) -> frozenset[int]:
    values = boundaries.sites if isinstance(boundaries, BoundarySet) else frozenset(boundaries)
    for k in values:
        if not 0 <= int(k) <= sites - 1:
            raise ValidationError(f"{role} site {k} outside [0, {sites - 1}]")
    return frozenset(int(k) for k in values)


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
    p = _site_set(predicted, sites, "predicted")
    t = _site_set(target, sites, "target")
    a = len(p & t)
    b = len(p - t)
    c = len(t - p)
    return ConfusionCounts(a=a, b=b, c=c, d=sites - a - b - c)


def metrics(counts: ConfusionCounts) -> EvalMetrics:
    """Recall a/(a+c), precision a/(a+b), fallout b/(b+d), error (b+c)/n."""

    def ratio(num: int, den: int) -> Fraction | None:
        return Fraction(num, den) if den else None

    return EvalMetrics(
        recall=ratio(counts.a, counts.a + counts.c),
        precision=ratio(counts.a, counts.a + counts.b),
        fallout=ratio(counts.b, counts.b + counts.d),
        error=ratio(counts.b + counts.c, counts.total),
    )


def resolve_target(
    matrix: AnnotationMatrix, threshold: int | None, exact: int | None
) -> tuple[BoundarySet, str]:
    """The pooled reference set and its label, "exact=t" or "threshold=t"."""
    if threshold is not None and exact is not None:
        raise ValidationError("give either threshold or exact, not both")
    strengths = boundary_strengths(matrix)
    if exact is not None:
        return strengths.exact(exact), f"exact={exact}"
    if threshold is None:
        threshold = majority_threshold(matrix.subjects)
    return strengths.cumulative(threshold), f"threshold={threshold}"


def target_boundaries(
    matrix: AnnotationMatrix,
    threshold: int | None = None,
    exact: int | None = None,
) -> BoundarySet:
    """The pooled reference set: sites with at least (or exactly) t marks.

    Defaults to the strict-majority threshold.
    """
    target, _ = resolve_target(matrix, threshold, exact)
    return target


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
    target, _ = resolve_target(matrix, threshold, exact)
    return metrics(confusion(predicted, target, matrix.sites))


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


def aggregate_metric(values) -> MetricAggregate:
    """Summarize a sequence of Fraction-or-None observations."""
    kept = [v for v in values if v is not None]
    skipped = sum(1 for v in values if v is None)
    if not kept:
        return MetricAggregate(mean=None, variance=None, count=0, skipped=skipped)
    mean = sum(kept, Fraction(0)) / len(kept)
    variance = sum(((v - mean) ** 2 for v in kept), Fraction(0)) / len(kept)
    return MetricAggregate(mean=mean, variance=variance, count=len(kept), skipped=skipped)


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
    sites = matrix.sites
    per_subject = []
    mode = None
    full_target, mode_label = resolve_target(matrix, threshold, exact)
    for row, subject_id in enumerate(matrix.subject_ids):
        if leave_one_out:
            if matrix.subjects < 2:
                raise ValidationError("leave-one-out needs at least 2 subjects")
            keep = [r for r in range(matrix.subjects) if r != row]
            reduced = AnnotationMatrix(
                matrix.narrative_id,
                [matrix.subject_ids[r] for r in keep],
                matrix.cells[keep],
            )
            target, mode = resolve_target(reduced, threshold, exact)
        else:
            target, mode = full_target, mode_label
        counts = confusion(matrix.subject_sites(row), target, sites)
        per_subject.append(SubjectScore(subject_id, counts, metrics(counts)))
    summary = {
        name: aggregate_metric([s.scores.as_dict()[name] for s in per_subject])
        for name in METRIC_NAMES
    }
    return HumanEvaluation(
        narrative_id=matrix.narrative_id,
        target=full_target,
        mode=(mode or mode_label) + (" leave-one-out" if leave_one_out else ""),
        per_subject=tuple(per_subject),
        summary=summary,
    )
