"""Agreement among annotators: percent agreement and the pooled target.

Percent agreement follows the pooled-opinion scheme: each site's majority
label (boundary when at least ceil((i+1)/2) of i subjects marked it) is the
reference, and every subject's judgement at every site counts as one
agreement opportunity. pooled_target states that rule once, over a panel's
column totals: the sites marked by at least t subjects, or by exactly t.
Ratios are kept as exact fractions; callers format them as they see fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .corpus import AnnotationMatrix
from .errors import ValidationError


def majority_threshold(subjects: int) -> int:
    """Smallest count that constitutes a strict majority (4 of 7)."""
    if not isinstance(subjects, (int, np.integer)) or isinstance(subjects, bool):
        raise ValidationError(f"subject count must be an integer, got {subjects!r}")
    if subjects < 1:
        raise ValidationError("subject count must be positive")
    return (subjects + 2) // 2


def pooled_target(
    subjects: int, column_totals: np.ndarray, threshold: int | None = None,
    exact: int | None = None,
) -> tuple[np.ndarray, str]:
    """The pooled reference mask over the sites and its label, "threshold=t" or "exact=t".

    The mask marks the sites whose total is at least threshold (by default
    the strict majority of the subjects) or exactly exact, as int64 0/1.
    column_totals may also stack one row of totals per panel (the
    leave-one-out panels); the mask then has one row per panel. A strength
    must be an integer in [1, subjects], and only one of the two is given.
    """
    if threshold is not None and exact is not None:
        raise ValidationError("give either threshold or exact, not both")
    kind, strength = ("threshold", threshold) if exact is None else ("exact", exact)
    if strength is None:
        strength = majority_threshold(subjects)
    if not isinstance(strength, (int, np.integer)) or isinstance(strength, bool):
        raise ValidationError(f"strength must be an integer, got {strength!r}")
    if not 1 <= strength <= subjects:
        raise ValidationError(f"strength {strength} outside [1, {subjects}]")
    mask = column_totals >= strength if exact is None else column_totals == strength
    return mask.astype(np.int64), f"{kind}={strength}"


@dataclass(frozen=True)
class AgreementReport:
    """Observed vs possible agreements with the majority, per site class.

    Class percents are None when the class is empty (no boundary sites, or
    none left over), never 0. marks counts the panel's 1-cells.
    """

    narrative_id: str
    subjects: int
    sites: int
    marks: int
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
    i, j = matrix.subjects, matrix.sites
    totals = matrix.column_totals
    boundary = pooled_target(i, totals, threshold)[0]
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
        marks=int(totals.sum()),
        threshold=threshold,
        observed=observed_b + observed_nb,
        possible=possible_b + possible_nb,
        observed_boundary=observed_b,
        possible_boundary=possible_b,
        observed_non_boundary=observed_nb,
        possible_non_boundary=possible_nb,
    )
