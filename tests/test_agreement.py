"""Majority pools, percent agreement, and the pooled target.

The percent-agreement oracle is a direct double loop over cells, and the
pooled-target oracle a loop over sites, each written independently of the
library's vectorized path.
"""

from __future__ import annotations

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from hypothesis.extra.numpy import arrays

from segtool import (
    BatchItem,
    FIXTURE_NAMES,
    ValidationError,
    build_report,
    fixture_path,
    load_annotations,
    load_narrative,
    majority_threshold,
    percent_agreement,
    pooled_target,
)
from segtool.evaluation import score_units
from conftest import load_panel


def target_sites(matrix, threshold=None) -> list[int]:
    """The sites of pooled_target's mask, by default the majority's."""
    mask = pooled_target(matrix.subjects, matrix.column_totals, threshold)[0]
    return np.flatnonzero(mask).tolist()


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
        assert majority_threshold(np.int64(7)) == majority_threshold(np.uint8(7)) == 4

    @pytest.mark.parametrize("subjects", [0, -3])
    def test_threshold_needs_a_subject(self, subjects):
        with pytest.raises(ValidationError, match="^subject count must be positive$"):
            majority_threshold(subjects)

    @pytest.mark.parametrize("subjects", [True, False, np.bool_(True), 2.5, 7.0, "7", None])
    def test_threshold_needs_an_integer_count(self, subjects):
        with pytest.raises(ValidationError) as excinfo:
            majority_threshold(subjects)
        assert str(excinfo.value) == f"subject count must be an integer, got {subjects!r}"

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
        matrix = load_panel([[1], [1], [1], [1], [0], [0], [0]])
        report = percent_agreement(matrix)
        assert report.percent == Fraction(4, 7)
        assert report.percent_boundary == Fraction(4, 7)
        assert report.percent_non_boundary is None

    def test_no_boundary_class_is_undefined_not_zero(self):
        matrix = load_panel([[0, 1], [1, 0], [0, 0]])
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
            report = percent_agreement(load_panel(cells))
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
        report = percent_agreement(load_panel(cells))
        rows = list(range(cells.shape[0]))
        cols = list(range(cells.shape[1]))
        rnd.shuffle(rows)
        rnd.shuffle(cols)
        permuted = cells[np.ix_(rows, cols)]
        other = percent_agreement(load_panel(permuted))
        assert report.percent == other.percent
        assert report.percent_boundary == other.percent_boundary
        assert report.percent_non_boundary == other.percent_non_boundary

    def test_boundary_site_counts(self, pear9):
        _, matrix = pear9
        report = percent_agreement(matrix)
        assert report.boundary_site_count == 2
        assert report.non_boundary_site_count == 9


def strength_mask(matrix, strength, exact=False) -> np.ndarray:
    """The 0/1 mask of the sites marked by at least, or exactly, strength subjects."""
    option = "exact" if exact else "threshold"
    return pooled_target(matrix.subjects, matrix.column_totals, **{option: strength})[0]


def pool(matrix, strength, exact=False) -> frozenset[int]:
    """The sites of one strength pool's 0/1 mask."""
    return frozenset(np.flatnonzero(strength_mask(matrix, strength, exact)).tolist())


class TestBoundaryStrengths:
    def test_fixture_pools(self, pear9):
        _, matrix = pear9
        assert pool(matrix, 1, exact=True) == frozenset({3, 4, 8})
        assert pool(matrix, 2, exact=True) == frozenset({5})
        assert pool(matrix, 3, exact=True) == frozenset()
        assert pool(matrix, 6, exact=True) == frozenset({0})
        assert pool(matrix, 7, exact=True) == frozenset({10})
        assert pool(matrix, 1) == frozenset({0, 3, 4, 5, 8, 10})
        assert pool(matrix, 4) == frozenset({0, 10})
        majority = pool(matrix, majority_threshold(matrix.subjects))
        assert majority == frozenset({0, 10})

    def test_strength_bounds(self, pear9):
        _, matrix = pear9
        with pytest.raises(ValidationError, match=r"^strength 0 outside \[1, 7\]$"):
            strength_mask(matrix, 0, exact=True)
        with pytest.raises(ValidationError, match=r"^strength 8 outside \[1, 7\]$"):
            strength_mask(matrix, 8)

    @settings(max_examples=60, deadline=None)
    @given(binary_matrices)
    def test_cumulative_nesting_and_exact_partition(self, cells):
        matrix = load_panel(cells)
        i = matrix.subjects
        for t in range(1, i + 1):
            for exact in (False, True):
                mask = strength_mask(matrix, t, exact)
                assert (mask.dtype, mask.shape) == (np.int64, (matrix.sites,))
                assert set(mask.tolist()) <= {0, 1}
        for t in range(1, i):
            assert pool(matrix, t + 1) <= pool(matrix, t)
        for t in range(1, i + 1):
            # The exact pools at t and above are disjoint and make up the cumulative pool.
            exact_pools = sum(strength_mask(matrix, s, exact=True) for s in range(t, i + 1))
            assert exact_pools.tolist() == strength_mask(matrix, t).tolist()


def shipped_matrices():
    """Every annotation matrix shipped with the package."""
    for name in FIXTURE_NAMES:
        if name.endswith("_annotations.json"):
            narrative = load_narrative(fixture_path(name.replace("_annotations", "_narrative")))
            yield load_annotations(fixture_path(name), narrative)


def loop_target(cells, threshold=None, exact=None) -> tuple[list[int], str]:
    """The pooled target site by site: each column's marks counted against the rule."""
    subjects = len(cells)
    if exact is not None:
        rule, label = (lambda total: total == exact), f"exact={exact}"
    else:
        t = (subjects + 2) // 2 if threshold is None else threshold
        rule, label = (lambda total: total >= t), f"threshold={t}"
    return [int(rule(sum(row[k] for row in cells))) for k in range(len(cells[0]))], label


class TestPooledTarget:
    def test_shipped_matrices_match_site_loop(self):
        matrices = list(shipped_matrices())
        assert matrices
        for matrix in matrices:
            cells, i = matrix.cells.tolist(), matrix.subjects
            options = [{}, *({"threshold": t} for t in range(1, i + 1)),
                       *({"exact": t} for t in range(1, i + 1))]
            for option in options:
                mask, label = pooled_target(i, matrix.column_totals, **option)
                assert (mask.tolist(), label) == loop_target(cells, **option)
                assert mask.dtype == np.int64
                if i in option.values():
                    continue  # past the reduced panel below
                # The leave-one-out stack: row r is the panel without subject r,
                # and each row equals the 1-d call on that row's totals.
                stacked = matrix.column_totals - matrix.cells
                rows, stacked_label = pooled_target(i - 1, stacked, **option)
                assert rows.shape == (i, matrix.sites)
                for r in range(i):
                    row, row_label = pooled_target(i - 1, stacked[r], **option)
                    assert (rows[r].tolist(), stacked_label) == (row.tolist(), row_label)
                    others = cells[:r] + cells[r + 1:]
                    assert (row.tolist(), row_label) == loop_target(others, **option)

    def test_both_strengths_refused_first(self, pear9):
        _, matrix = pear9
        with pytest.raises(ValidationError, match="^give either threshold or exact, not both$"):
            pooled_target(matrix.subjects, matrix.column_totals, threshold=99, exact=True)

    def test_numpy_integer_strength_accepted(self, pear9):
        _, matrix = pear9
        mask, label = pooled_target(matrix.subjects, matrix.column_totals, np.int64(4))
        assert (np.flatnonzero(mask).tolist(), label) == ([0, 10], "threshold=4")
        mask, label = pooled_target(matrix.subjects, matrix.column_totals, exact=np.int8(2))
        assert (np.flatnonzero(mask).tolist(), label) == ([5], "exact=2")

    @pytest.mark.parametrize("strength", [True, False, np.True_, 2.5, 4.0, "4"],
                             ids=["True", "False", "numpy-True", "2.5", "4.0", "str"])
    def test_non_integer_strength_refused(self, pear9, strength):
        narrative, matrix = pear9
        message = f"^strength must be an integer, got {re.escape(repr(strength))}$"
        with pytest.raises(ValidationError, match=message):
            percent_agreement(matrix, strength)
        for option in ("threshold", "exact"):
            with pytest.raises(ValidationError, match=message):
                score_units(matrix, matrix.cells, **{option: strength})
        with pytest.raises(ValidationError, match=f"^{matrix.narrative_id}: strength must"):
            build_report([BatchItem(narrative, matrix)], threshold=strength)
