"""Retrieval-style scoring of boundary-site masks against pooled judgements."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from segtool import (
    ValidationError,
    cue_segment,
    metrics,
    pause_segment,
    percent_agreement,
    pooled_target,
)
from segtool.evaluation import (RATIOS, aggregate_cells, aggregate_pairs, confusion_table,
                                score_units)
from conftest import load_panel

F = Fraction


def site_mask(sites, universe: int) -> np.ndarray:
    """The 0/1 mask over universe sites of a set of site indices."""
    return np.array([int(k in sites) for k in range(universe)], dtype=np.int64)


def counts_of(predicted, target) -> tuple[int, int, int, int]:
    """The cells a, b, c, d of one 0/1 prediction mask against one 0/1 target mask."""
    cells = confusion_table(np.asarray(predicted)[None, :], np.asarray(target)[:, None])
    return tuple(int(cell[0, 0]) for cell in cells)


def algorithm_scores(mask, matrix, threshold=None, exact=None):
    """One site mask scored against the pooled target through score_units, as eval does."""
    cells = score_units(matrix, mask[None, :], threshold, exact)[2]
    return metrics(*cells[:, 0, 0].tolist())


class TestConfusion:
    def test_worked_example(self):
        counts = counts_of(site_mask({1, 10}, 11), site_mask({0, 10}, 11))
        assert counts == (1, 1, 1, 8)
        scores = metrics(*counts)
        assert scores["recall"] == F(1, 2)
        assert scores["precision"] == F(1, 2)
        assert scores["fallout"] == F(1, 9)
        assert scores["error"] == F(2, 11)

    def test_segmenter_mask_against_the_target(self, pear9):
        narrative, matrix = pear9
        target, _ = pooled_target(matrix.subjects, matrix.column_totals)
        assert counts_of(cue_segment(narrative), target) == (1, 1, 1, 8)

    def test_undefined_ratios_are_none(self):
        scores = metrics(*counts_of(site_mask(set(), 4), site_mask(set(), 4)))
        assert scores["recall"] is None
        assert scores["precision"] is None
        assert scores["fallout"] == F(0)
        assert scores["error"] == F(0)

        scores = metrics(*counts_of(site_mask({0, 1, 2, 3}, 4), site_mask({0, 1, 2, 3}, 4)))
        assert scores["fallout"] is None
        assert scores["recall"] == F(1)

        # With no site at all every ratio is undefined.
        empty = np.zeros(0, dtype=np.int64)
        assert metrics(*counts_of(empty, empty)) == dict.fromkeys(RATIOS)

    @settings(max_examples=200, deadline=None)
    @given(
        hst.integers(min_value=1, max_value=30).flatmap(
            lambda n: hst.tuples(
                hst.just(n),
                hst.sets(hst.integers(0, n - 1)),
                hst.sets(hst.integers(0, n - 1)),
            )
        )
    )
    def test_cell_identities(self, case):
        sites, predicted, target = case
        predicted_mask, target_mask = site_mask(predicted, sites), site_mask(target, sites)
        a, b, c, d = counts = counts_of(predicted_mask, target_mask)
        assert a == len(predicted & target)
        assert a + b == len(predicted)
        assert a + c == len(target)
        assert a + b + c + d == sites
        scores = metrics(*counts)
        if scores["error"] is not None:
            assert scores["error"] == F(b + c, sites)

        # Swapping roles swaps recall with precision and leaves error fixed.
        swapped = metrics(*counts_of(target_mask, predicted_mask))
        assert swapped["recall"] == scores["precision"]
        assert swapped["precision"] == scores["recall"]
        assert swapped["error"] == scores["error"]


class TestAlgorithmScores:
    def test_cue_against_majority(self, pear9):
        narrative, matrix = pear9
        scores = algorithm_scores(cue_segment(narrative), matrix)
        assert scores == {
            "recall": F(1, 2),
            "precision": F(1, 2),
            "fallout": F(1, 9),
            "error": F(2, 11),
        }

    def test_pause_against_majority(self, pear9):
        narrative, matrix = pear9
        scores = algorithm_scores(pause_segment(narrative), matrix)
        assert scores == {
            "recall": F(1),
            "precision": F(2, 7),
            "fallout": F(5, 9),
            "error": F(5, 11),
        }

    def test_exact_strength_target(self, pear9):
        narrative, matrix = pear9
        # Exactly-one-subject sites are {3, 4, 8}; the pause set hits 3.
        scores = algorithm_scores(pause_segment(narrative), matrix, exact=1)
        assert scores["recall"] == F(1, 3)

    def test_threshold_and_exact_conflict(self, pear9):
        narrative, matrix = pear9
        with pytest.raises(ValidationError, match="either threshold or exact"):
            algorithm_scores(cue_segment(narrative), matrix, threshold=4, exact=2)
        with pytest.raises(ValidationError, match="either threshold or exact"):
            pooled_target(matrix.subjects, matrix.column_totals, 4, 2)

    @pytest.mark.parametrize("method", [cue_segment, pause_segment], ids=["cue", "pause"])
    @pytest.mark.parametrize("threshold, exact", [(1, None), (4, None), (7, None),
                                                  (None, 1), (None, 2)])
    def test_cells_equal_the_site_set_counts(self, pear9, method, threshold, exact):
        """Column 0 of score_units counts the sites the mask and the pooled target share."""
        narrative, matrix = pear9
        mask = method(narrative)
        totals = matrix.column_totals.tolist()
        target = {k for k, n in enumerate(totals)
                  if (n == exact if exact is not None else n >= threshold)}
        predicted = set(np.flatnonzero(mask).tolist())
        cells = score_units(matrix, mask[None, :], threshold, exact)[2][:, 0, 0].tolist()
        assert cells == [len(predicted & target), len(predicted - target),
                         len(target - predicted), matrix.sites - len(predicted | target)]

    @pytest.mark.parametrize("shape", [(1, 0), (1, 10), (1, 12), (11,), (2, 1, 11)])
    def test_rows_of_another_width_are_refused(self, pear9, shape):
        _, matrix = pear9
        with pytest.raises(ValidationError) as excinfo:
            score_units(matrix, np.zeros(shape, dtype=np.int64))
        assert str(excinfo.value) == (
            f"narrative pear-09-excerpt: unit rows of shape {shape}, not (units, 11)")

    @pytest.mark.parametrize("value", [2, -1, 0.5])
    def test_rows_of_other_values_are_refused(self, pear9, value):
        narrative, matrix = pear9
        rows = np.stack([cue_segment(narrative), pause_segment(narrative)]).astype(type(value))
        rows[1, 4] = value
        with pytest.raises(ValidationError, match="^narrative pear-09-excerpt: unit rows hold "
                                                  "a value other than 0 or 1$"):
            score_units(matrix, rows)
        # A boolean mask is a 0/1 row.
        cells = score_units(matrix, rows[:1] != 0)[2]
        assert np.array_equal(cells, score_units(matrix, rows[:1].astype(np.int64))[2])


def per_cell_table(rows, targets):
    """The oracle: confusion_table as a loop over every row, target column and site."""
    m, sites = rows.shape
    cells = np.zeros((4, m, targets.shape[1]), dtype=np.int64)
    for r in range(m):
        for k in range(targets.shape[1]):
            for j in range(sites):
                predicted, marked = rows[r, j], targets[j, k]
                cells[0 if predicted and marked else 1 if predicted else 2 if marked else 3,
                      r, k] += 1
    return cells


class TestConfusionTable:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        hst.tuples(hst.integers(1, 5), hst.integers(0, 12), hst.integers(1, 4)).flatmap(
            lambda shape: hst.tuples(
                hst.lists(hst.lists(hst.integers(0, 1), min_size=shape[1], max_size=shape[1]),
                          min_size=shape[0], max_size=shape[0]),
                hst.lists(hst.lists(hst.integers(0, 1), min_size=shape[2], max_size=shape[2]),
                          min_size=shape[1], max_size=shape[1]),
                hst.just(shape),
            )
        )
    )
    def test_equals_the_per_cell_loop(self, case):
        rows, targets, (m, sites, k) = case
        rows = np.array(rows, dtype=np.int64).reshape(m, sites)
        targets = np.array(targets, dtype=np.int64).reshape(sites, k)
        cells = np.stack(confusion_table(rows, targets))
        assert cells.dtype == np.int64
        assert np.array_equal(cells, per_cell_table(rows, targets))
        assert (cells.sum(axis=0) == sites).all()


def fraction_pairs(values):
    """Each Fraction's numerator and denominator, None as 0 / 0, as two object arrays."""
    pairs = [(0, 0) if v is None else (v.numerator, v.denominator) for v in values]
    return tuple(np.array([pair[k] for pair in pairs], dtype=object) for k in (0, 1))


class TestAggregate:
    """aggregate_pairs on object arrays of Python ints, here the parts of Fractions."""

    def test_exact_mean_and_variance(self):
        agg = aggregate_pairs(*fraction_pairs([F(1, 2), F(1), None, F(3, 4)]))
        assert list(agg) == ["mean", "variance", "count", "skipped"]  # the JSON key order
        assert agg["count"] == 3
        assert agg["skipped"] == 1
        assert agg["mean"] == F(3, 4)
        assert agg["variance"] == F(1, 24)

    def test_zero_denominator_counts_skipped(self):
        agg = aggregate_pairs(np.array([1, 0], dtype=object), np.array([1, 0], dtype=object))
        assert (agg["mean"], agg["count"], agg["skipped"]) == (F(1), 1, 1)

    @settings(max_examples=300, deadline=None)
    @given(hst.lists(hst.one_of(hst.none(), hst.fractions(max_denominator=1000)), max_size=30))
    def test_matches_fraction_sums(self, values):
        kept = [v for v in values if v is not None]
        agg = aggregate_pairs(*fraction_pairs(values))
        assert (agg["count"], agg["skipped"]) == (len(kept), len(values) - len(kept))
        if kept:
            mean = sum(kept, F(0)) / len(kept)
            variance = sum(((v - mean) ** 2 for v in kept), F(0)) / len(kept)
            assert (agg["mean"], agg["variance"]) == (mean, variance)

    def test_all_none(self):
        agg = aggregate_pairs(*fraction_pairs([None, None]))
        assert agg["mean"] is None
        assert agg["variance"] is None
        assert agg["count"] == 0
        assert agg["skipped"] == 2


def fraction_sums(values):
    """Mean and population variance by plain Fraction sums, None skipped."""
    kept = [v for v in values if v is not None]
    if not kept:
        return {"mean": None, "variance": None, "count": 0, "skipped": len(values)}
    mean = sum(kept, F(0)) / len(kept)
    variance = sum(((v - mean) ** 2 for v in kept), F(0)) / len(kept)
    return {"mean": mean, "variance": variance, "count": len(kept),
            "skipped": len(values) - len(kept)}


cell_counts = hst.tuples(*[hst.integers(0, 60)] * 4)
pair_lists = hst.one_of(
    hst.lists(hst.tuples(hst.integers(-60, 60), hst.integers(0, 60)), max_size=40),
    hst.lists(hst.tuples(hst.integers(-60, 60), hst.just(0)), max_size=10),
)


class TestIntegerCore:
    @settings(max_examples=300, deadline=None)
    @given(cell_counts)
    def test_ratio_pairs_match_metrics(self, cells):
        scores = metrics(*cells)
        columns = [np.array([x, x]) for x in cells]
        assert list(RATIOS) == list(scores)
        for name, ratio in RATIOS.items():
            num, den = ratio(*cells)
            assert scores[name] == (F(num, den) if den else None)
            # The same table read over integer arrays gives the same pairs.
            assert [x.tolist() for x in ratio(*columns)] == [[num, num], [den, den]]

    @settings(max_examples=300, deadline=None)
    @given(pair_lists)
    def test_pairs_match_fraction_sums(self, pairs):
        numerators = np.array([n for n, _ in pairs], dtype=np.int64)
        denominators = np.array([d for _, d in pairs], dtype=np.int64)
        want = fraction_sums([F(n, d) if d else None for n, d in pairs])
        assert aggregate_pairs(numerators, denominators) == want

    def test_all_undefined_pairs(self):
        agg = aggregate_pairs(np.array([0, 3, 0]), np.array([0, 0, 0]))
        assert agg == {"mean": None, "variance": None, "count": 0, "skipped": 3}
        assert list(agg) == ["mean", "variance", "count", "skipped"]
        assert aggregate_pairs(np.array([], dtype=np.int64), np.array([], dtype=np.int64)) == (
            {"mean": None, "variance": None, "count": 0, "skipped": 0}
        )


def human_scores(matrix, threshold=None, exact=None, leave_one_out=False):
    """Each subject's row scored as if it were an algorithm's output, as eval --method humans
    does: the target, its mode, each subject's cells and the summary over the subjects."""
    target, mode, cells = score_units(matrix, matrix.cells, threshold, exact, leave_one_out)
    counts = cells[:, :, 0].T.tolist()
    return target, mode, counts, aggregate_cells(cells[:, :, 0])


class TestHumanScores:
    def test_fixture_per_subject(self, pear9):
        _, matrix = pear9
        target, mode, counts, summary = human_scores(matrix)
        assert np.flatnonzero(target).tolist() == [0, 10]
        assert mode == "threshold=4"
        by_id = dict(zip(matrix.subject_ids, counts))
        assert metrics(*by_id["s1"])["recall"] == F(1)
        assert metrics(*by_id["s1"])["error"] == F(0)
        assert metrics(*by_id["s4"])["precision"] == F(2, 3)
        assert by_id["s7"] == [1, 2, 1, 7]
        assert summary["recall"]["mean"] == F(13, 14)
        assert summary["recall"]["count"] == 7

    def test_mean_recall_matches_boundary_agreement(self, pear9):
        _, matrix = pear9
        report = percent_agreement(matrix)
        assert human_scores(matrix)[3]["recall"]["mean"] == report.percent_boundary

    @settings(max_examples=120, deadline=None)
    @given(
        hst.integers(min_value=2, max_value=6).flatmap(
            lambda j: hst.tuples(
                hst.just(j),
                hst.lists(
                    hst.lists(hst.integers(0, 1), min_size=5, max_size=5),
                    min_size=j,
                    max_size=j,
                ),
                hst.integers(min_value=1, max_value=j),
            )
        )
    )
    def test_identity_holds_at_every_threshold(self, case):
        _j, rows, threshold = case
        matrix = load_panel(rows)
        summary = human_scores(matrix, threshold=threshold)[3]
        report = percent_agreement(matrix, threshold=threshold)
        assert summary["recall"]["mean"] == report.percent_boundary

    def test_leave_one_out_smoke(self, pear9):
        _, matrix = pear9
        _, mode, counts, _ = human_scores(matrix, leave_one_out=True)
        assert mode.endswith("leave-one-out")
        # With s1 removed the remaining 6 subjects still put 5 marks on
        # site 0 and 6 on site 10, majority of 6 is 4, so the target for
        # s1 stays {0, 10} and the score is unchanged.
        assert metrics(*counts[0])["recall"] == F(1)
        # s7 is scored against the other six, whose extra marks all fall
        # below the reduced threshold.
        assert metrics(*counts[6])["recall"] == F(1, 2)

    def test_leave_one_out_needs_panel(self):
        matrix = load_panel([[1, 0, 1]])
        with pytest.raises(ValidationError, match="^leave-one-out needs at least 2 subjects$"):
            human_scores(matrix, leave_one_out=True)

    def test_leave_one_out_scores_only_the_subjects_rows(self):
        matrix = load_panel([[1, 0, 1], [0, 0, 1]])
        with pytest.raises(ValidationError, match="^leave-one-out scores the subjects' own rows$"):
            score_units(matrix, matrix.cells[::-1], leave_one_out=True)
        assert score_units(matrix, matrix.cells.copy(), leave_one_out=True)[2].shape == (4, 2, 1)
