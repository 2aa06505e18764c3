"""Agreement among annotators: percent agreement and strength pools.

Percent agreement follows the pooled-opinion scheme: each site's majority
label (boundary when at least ceil((i+1)/2) of i subjects marked it) is the
reference, and every subject's judgement at every site counts as one
agreement opportunity. Ratios are kept as exact fractions; callers format
them as they see fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .corpus import AnnotationMatrix, BoundarySet
from .errors import ValidationError


def majority_threshold(subjects: int) -> int:
    """Smallest count that constitutes a strict majority (4 of 7)."""
    if subjects < 1:
        raise ValidationError("subject count must be positive")
    return (subjects + 2) // 2


@dataclass(frozen=True)
class AgreementReport:
    """Observed vs possible agreements with the majority, per site class.

    Class percents are None when the class is empty (no boundary sites, or
    none left over), never 0.
    """

    narrative_id: str
    subjects: int
    sites: int
    threshold: int
    observed: int
    possible: int
    observed_boundary: int
    possible_boundary: int
    observed_non_boundary: int
    possible_non_boundary: int

    @property
    def percent(self) -> Fraction:
        return Fraction(self.observed, self.possible)

    @property
    def percent_boundary(self) -> Fraction | None:
        if self.possible_boundary == 0:
            return None
        return Fraction(self.observed_boundary, self.possible_boundary)

    @property
    def percent_non_boundary(self) -> Fraction | None:
        if self.possible_non_boundary == 0:
            return None
        return Fraction(self.observed_non_boundary, self.possible_non_boundary)

    @property
    def boundary_site_count(self) -> int:
        return self.possible_boundary // self.subjects

    @property
    def non_boundary_site_count(self) -> int:
        return self.possible_non_boundary // self.subjects


def percent_agreement(
    matrix: AnnotationMatrix, threshold: int | None = None
) -> AgreementReport:
    """Score every subject's judgement at every site against the majority.

    threshold defaults to the strict majority of the panel; any threshold in
    [1, subjects] is accepted so cumulative agreement pools can be formed.
    """
    if threshold is None:
        threshold = majority_threshold(matrix.subjects)
    boundary = boundary_strengths(matrix).mask(threshold)
    i, j = matrix.subjects, matrix.sites
    totals = matrix.column_totals
    boundary_sites = int(boundary.sum())

    # At a boundary site the agreeing judgements are the 1-cells, at a
    # non-boundary site the 0-cells.
    observed_b = int(totals @ boundary)
    observed_nb = int((i - totals) @ (1 - boundary))
    possible_b = i * boundary_sites
    possible_nb = i * (j - boundary_sites)
    return AgreementReport(
        narrative_id=matrix.narrative_id,
        subjects=i,
        sites=j,
        threshold=threshold,
        observed=observed_b + observed_nb,
        possible=possible_b + possible_nb,
        observed_boundary=observed_b,
        possible_boundary=possible_b,
        observed_non_boundary=observed_nb,
        possible_non_boundary=possible_nb,
    )


@dataclass(frozen=True, eq=False)
class BoundaryStrengths:
    """Sites grouped by how many subjects marked them, read off column totals.

    mask(t) is the 0/1 vector of the sites marked by at least t subjects,
    mask(t, exact=True) of those marked by exactly t; cumulative(t) and
    exact(t) are the same pools as BoundarySets. cumulative at the majority
    threshold is the conventional reference pool for evaluation.
    column_totals may also stack one row of totals per panel (the
    leave-one-out panels); mask then returns one row per panel.
    """

    narrative_id: str
    subjects: int
    column_totals: np.ndarray

    def mask(self, strength: int, exact: bool = False) -> np.ndarray:
        if not 1 <= strength <= self.subjects:
            raise ValidationError(
                f"strength {strength} outside [1, {self.subjects}]"
            )
        totals = self.column_totals
        return (totals == strength if exact else totals >= strength).astype(np.int64)

    def exact(self, strength: int) -> BoundarySet:
        return BoundarySet.of(self.narrative_id, np.flatnonzero(self.mask(strength, exact=True)))

    def cumulative(self, strength: int) -> BoundarySet:
        return BoundarySet.of(self.narrative_id, np.flatnonzero(self.mask(strength)))


def boundary_strengths(matrix: AnnotationMatrix) -> BoundaryStrengths:
    return BoundaryStrengths(matrix.narrative_id, matrix.subjects, matrix.column_totals)
