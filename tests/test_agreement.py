"""Majority pools, percent agreement, and strength pools.

The percent-agreement oracle is a direct double loop over cells, written
independently of the library's vectorized path.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from hypothesis.extra.numpy import arrays

from segtool import (
    AnnotationMatrix,
    ValidationError,
    boundary_strengths,
    majority_threshold,
    percent_agreement,
)
from segtool.evaluation import resolve_target


def target_sites(matrix, threshold=None) -> list[int]:
    """The sites of resolve_target's pooled mask, by default the majority's."""
    return np.flatnonzero(resolve_target(boundary_strengths(matrix), threshold, None)[0]).tolist()


def make_matrix(cells, narrative_id="m") -> AnnotationMatrix:
    cells = np.asarray(cells)
    return AnnotationMatrix(
        narrative_id, [f"s{i}" for i in range(cells.shape[0])], cells
    )


def brute_force_agreement(cells, threshold):
    """Straight-line re-count of observed agreements with the majority."""
    i = len(cells)
    j = len(cells[0])
    observed_b = observed_nb = possible_b = possible_nb = 0
    for k in range(j):
        total = sum(cells[s][k] for s in range(i))
        is_boundary = total >= threshold
        for s in range(i):
            if is_boundary:
                possible_b += 1
                if cells[s][k] == 1:
                    observed_b += 1
            else:
                possible_nb += 1
                if cells[s][k] == 0:
                    observed_nb += 1
    return observed_b, possible_b, observed_nb, possible_nb


binary_matrices = arrays(
    dtype=np.int8,
    shape=hst.tuples(hst.integers(2, 8), hst.integers(1, 12)),
    elements=hst.integers(0, 1),
)


class TestMajority:
    def test_threshold_is_strict_majority(self):
        assert majority_threshold(7) == 4
        assert majority_threshold(6) == 4
        assert majority_threshold(5) == 3
        assert majority_threshold(1) == 1

    @pytest.mark.parametrize("subjects", [0, -3])
    def test_threshold_needs_a_subject(self, subjects):
        with pytest.raises(ValidationError, match="^subject count must be positive$"):
            majority_threshold(subjects)

    def test_fixture_majority_sites(self, pear9):
        _, matrix = pear9
        assert percent_agreement(matrix).threshold == 4
        assert target_sites(matrix) == [0, 10]

    def test_threshold_override(self, pear9):
        _, matrix = pear9
        assert target_sites(matrix, threshold=1) == [0, 3, 4, 5, 8, 10]
        assert target_sites(matrix, threshold=7) == [10]

    def test_threshold_bounds(self, pear9):
        _, matrix = pear9
        with pytest.raises(ValidationError):
            percent_agreement(matrix, 0)
        with pytest.raises(ValidationError):
            percent_agreement(matrix, 8)


class TestPercentAgreement:
    def test_fixture_exact_rationals(self, pear9):
        _, matrix = pear9
        report = percent_agreement(matrix)
        assert (report.observed, report.possible) == (71, 77)
        assert report.percent == Fraction(71, 77)
        assert (report.observed_boundary, report.possible_boundary) == (13, 14)
        assert report.percent_boundary == Fraction(13, 14)
        assert (report.observed_non_boundary, report.possible_non_boundary) == (58, 63)
        assert report.percent_non_boundary == Fraction(58, 63)

    def test_single_site_four_of_seven(self):
        # 1 site marked by 4 of 7: the majority says boundary, the 4 markers
        # agree, so 4/7 by direct enumeration.
        matrix = make_matrix([[1], [1], [1], [1], [0], [0], [0]])
        report = percent_agreement(matrix)
        assert report.percent == Fraction(4, 7)
        assert report.percent_boundary == Fraction(4, 7)
        assert report.percent_non_boundary is None

    def test_no_boundary_class_is_undefined_not_zero(self):
        matrix = make_matrix([[0, 1], [1, 0], [0, 0]])
        report = percent_agreement(matrix)
        assert report.possible_boundary == 0
        assert report.percent_boundary is None
        assert report.percent == Fraction(4, 6)

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            i = int(rng.integers(2, 9))
            j = int(rng.integers(1, 15))
            cells = rng.integers(0, 2, size=(i, j))
            report = percent_agreement(make_matrix(cells))
            ob, pb, onb, pnb = brute_force_agreement(
                cells.tolist(), majority_threshold(i)
            )
            assert (report.observed_boundary, report.possible_boundary) == (ob, pb)
            assert (report.observed_non_boundary, report.possible_non_boundary) == (onb, pnb)
            assert report.observed == ob + onb
            assert report.possible == i * j
            assert report.marks == cells.sum()

    @settings(max_examples=60, deadline=None)
    @given(binary_matrices, hst.randoms(use_true_random=False))
    def test_invariant_under_row_and_column_permutation(self, cells, rnd):
        report = percent_agreement(make_matrix(cells))
        rows = list(range(cells.shape[0]))
        cols = list(range(cells.shape[1]))
        rnd.shuffle(rows)
        rnd.shuffle(cols)
        permuted = cells[np.ix_(rows, cols)]
        other = percent_agreement(make_matrix(permuted))
        assert report.percent == other.percent
        assert report.percent_boundary == other.percent_boundary
        assert report.percent_non_boundary == other.percent_non_boundary

    def test_boundary_site_counts(self, pear9):
        _, matrix = pear9
        report = percent_agreement(matrix)
        assert report.boundary_site_count == 2
        assert report.non_boundary_site_count == 9


def pool(strengths, strength, exact=False) -> frozenset[int]:
    """The sites of one strength pool's 0/1 mask."""
    return frozenset(np.flatnonzero(strengths.mask(strength, exact)).tolist())


class TestBoundaryStrengths:
    def test_fixture_pools(self, pear9):
        _, matrix = pear9
        strengths = boundary_strengths(matrix)
        assert pool(strengths, 1, exact=True) == frozenset({3, 4, 8})
        assert pool(strengths, 2, exact=True) == frozenset({5})
        assert pool(strengths, 3, exact=True) == frozenset()
        assert pool(strengths, 6, exact=True) == frozenset({0})
        assert pool(strengths, 7, exact=True) == frozenset({10})
        assert pool(strengths, 1) == frozenset({0, 3, 4, 5, 8, 10})
        assert pool(strengths, 4) == frozenset({0, 10})
        majority = pool(strengths, majority_threshold(matrix.subjects))
        assert majority == frozenset({0, 10})

    def test_strength_bounds(self, pear9):
        _, matrix = pear9
        strengths = boundary_strengths(matrix)
        with pytest.raises(ValidationError, match=r"^strength 0 outside \[1, 7\]$"):
            strengths.mask(0, exact=True)
        with pytest.raises(ValidationError, match=r"^strength 8 outside \[1, 7\]$"):
            strengths.mask(8)

    @settings(max_examples=60, deadline=None)
    @given(binary_matrices)
    def test_cumulative_nesting_and_exact_partition(self, cells):
        matrix = make_matrix(cells)
        strengths = boundary_strengths(matrix)
        i = matrix.subjects
        for t in range(1, i + 1):
            for exact in (False, True):
                mask = strengths.mask(t, exact)
                assert (mask.dtype, mask.shape) == (np.int64, (matrix.sites,))
                assert set(mask.tolist()) <= {0, 1}
        for t in range(1, i):
            assert pool(strengths, t + 1) <= pool(strengths, t)
        for t in range(1, i + 1):
            # The exact pools at t and above are disjoint and make up the cumulative pool.
            exact_pools = sum(strengths.mask(s, exact=True) for s in range(t, i + 1))
            assert exact_pools.tolist() == strengths.mask(t).tolist()
