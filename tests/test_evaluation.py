"""Retrieval-style scoring of boundary sets against pooled judgements."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from segtool import (
    AnnotationMatrix,
    BoundarySet,
    ConfusionCounts,
    MetricAggregate,
    ValidationError,
    aggregate_metric,
    confusion,
    cue_segment,
    evaluate_algorithm,
    evaluate_humans,
    metrics,
    pause_segment,
    percent_agreement,
    target_boundaries,
)
from segtool.evaluation import RATIOS, aggregate_pairs, score_units, site_mask

F = Fraction


def make_matrix(rows, narrative_id="n"):
    ids = [f"s{k + 1}" for k in range(len(rows))]
    return AnnotationMatrix(narrative_id, ids, np.array(rows, dtype=np.int64))


class TestConfusion:
    def test_worked_example(self):
        counts = confusion({1, 10}, {0, 10}, sites=11)
        assert counts == ConfusionCounts(a=1, b=1, c=1, d=8)
        scores = metrics(counts)
        assert scores.recall == F(1, 2)
        assert scores.precision == F(1, 2)
        assert scores.fallout == F(1, 9)
        assert scores.error == F(2, 11)

    def test_accepts_boundary_sets(self, pear9):
        narrative, matrix = pear9
        counts = confusion(
            cue_segment(narrative), target_boundaries(matrix), matrix.sites
        )
        assert (counts.a, counts.b, counts.c, counts.d) == (1, 1, 1, 8)

    def test_narrative_mismatch_rejected(self):
        left = BoundarySet("a", frozenset({0}))
        right = BoundarySet("b", frozenset({0}))
        with pytest.raises(ValidationError):
            confusion(left, right, sites=3)

    def test_out_of_range_site_rejected(self):
        with pytest.raises(ValidationError):
            confusion({5}, set(), sites=5)
        with pytest.raises(ValidationError):
            confusion(set(), {-1}, sites=5)

    def test_empty_universe_rejected(self):
        with pytest.raises(ValidationError):
            confusion(set(), set(), sites=0)

    def test_undefined_ratios_are_none(self):
        scores = metrics(confusion(set(), set(), sites=4))
        assert scores.recall is None
        assert scores.precision is None
        assert scores.fallout == F(0)
        assert scores.error == F(0)

        scores = metrics(confusion({0, 1, 2, 3}, {0, 1, 2, 3}, sites=4))
        assert scores.fallout is None
        assert scores.recall == F(1)

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
        counts = confusion(predicted, target, sites)
        assert counts.a + counts.b == len(predicted)
        assert counts.a + counts.c == len(target)
        assert counts.total == sites
        scores = metrics(counts)
        if scores.error is not None:
            assert scores.error == F(counts.b + counts.c, sites)

        # Swapping roles swaps recall with precision and leaves error fixed.
        swapped = metrics(confusion(target, predicted, sites))
        assert swapped.recall == scores.precision
        assert swapped.precision == scores.recall
        assert swapped.error == scores.error


# Values that are no site index, though int() would make one of each.
NOT_SITES = [1.7, 1.0, True, False, "1", np.float64(2.0), np.True_]


def per_site_mask(boundaries, sites: int, role: str) -> np.ndarray:
    """The oracle: site_mask as a loop that casts and sets one site at a time."""
    values = boundaries.sites if isinstance(boundaries, BoundarySet) else boundaries
    mask = np.zeros(sites, dtype=np.int64)
    for k in values:
        if not 0 <= int(k) <= sites - 1:
            raise ValidationError(f"{role} site {k} outside [0, {sites - 1}]")
        mask[int(k)] = 1
    return mask


def mask_or_error(mask, *args):
    try:
        return mask(*args).tolist()
    except ValidationError as exc:
        return str(exc)


class TestSiteRule:
    """BoundarySet.of and confusion hold sites to the constructor's rule."""

    @pytest.mark.parametrize("bad", NOT_SITES, ids=repr)
    def test_of_refuses_what_is_no_site(self, bad):
        with pytest.raises(ValidationError) as excinfo:
            BoundarySet.of("n", [0, bad, 2])
        assert str(excinfo.value) == f"bad site index {bad!r}"

    @pytest.mark.parametrize("bad", NOT_SITES, ids=repr)
    def test_confusion_refuses_what_is_no_site(self, bad):
        for predicted, target in (([bad], [1]), ([1], [0, bad])):
            with pytest.raises(ValidationError) as excinfo:
                confusion(predicted, target, sites=3)
            assert str(excinfo.value) == f"bad site index {bad!r}"

    def test_the_first_value_that_is_no_site_is_named(self):
        with pytest.raises(ValidationError, match=r"^bad site index '1'$"):
            BoundarySet.of("n", iter([0, "1", 1.5]))
        with pytest.raises(ValidationError, match=r"^bad site index 1\.5$"):
            confusion([7, 1.5, True], [], sites=3)

    @pytest.mark.parametrize("predicted, target, message", [
        ({5}, set(), "predicted site 5 outside [0, 4]"),
        ([1, 9, 7], set(), "predicted site 9 outside [0, 4]"),
        ([np.int64(6)], set(), "predicted site 6 outside [0, 4]"),
        (set(), {-1}, "target site -1 outside [0, 4]"),
        (set(), [2, -3, 9], "target site -3 outside [0, 4]"),
    ])
    def test_out_of_range_texts(self, predicted, target, message):
        with pytest.raises(ValidationError) as excinfo:
            confusion(predicted, target, sites=5)
        assert str(excinfo.value) == message

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        hst.integers(1, 40).flatmap(lambda n: hst.tuples(
            hst.just(n),
            hst.lists(hst.integers(-3, n + 3), max_size=12),
            hst.sampled_from([np.int64, np.int32, np.int8, np.uint8]),
        ))
    )
    def test_site_mask_equals_the_per_site_loop(self, case):
        sites, values, dtype = case
        if np.dtype(dtype).kind == "u":
            values = [abs(k) for k in values]
        array = np.array(values, dtype=dtype)
        given_sites = [values, set(values), array, list(array),
                       BoundarySet.of("n", [k for k in array if k >= 0])]
        for boundaries in given_sites:
            assert mask_or_error(site_mask, boundaries, sites, "target") == mask_or_error(
                per_site_mask, boundaries, sites, "target")

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(hst.lists(hst.integers(0, 1), min_size=1, max_size=60))
    def test_a_mask_survives_its_site_set(self, cells):
        mask = np.array(cells)
        sites = BoundarySet.of("n", np.flatnonzero(mask))
        assert all(type(k) is int for k in sites.sites)
        assert np.array_equal(site_mask(sites, len(mask), "target"), mask)


class TestAlgorithmScores:
    def test_cue_against_majority(self, pear9):
        narrative, matrix = pear9
        scores = evaluate_algorithm(cue_segment(narrative), matrix)
        assert scores.as_dict() == {
            "recall": F(1, 2),
            "precision": F(1, 2),
            "fallout": F(1, 9),
            "error": F(2, 11),
        }

    def test_pause_against_majority(self, pear9):
        narrative, matrix = pear9
        scores = evaluate_algorithm(pause_segment(narrative), matrix)
        assert scores.as_dict() == {
            "recall": F(1),
            "precision": F(2, 7),
            "fallout": F(5, 9),
            "error": F(5, 11),
        }

    def test_exact_strength_target(self, pear9):
        narrative, matrix = pear9
        # Exactly-one-subject sites are {3, 4, 8}; the pause set hits 3.
        scores = evaluate_algorithm(pause_segment(narrative), matrix, exact=1)
        assert scores.recall == F(1, 3)

    def test_threshold_and_exact_conflict(self, pear9):
        narrative, matrix = pear9
        with pytest.raises(ValidationError):
            evaluate_algorithm(cue_segment(narrative), matrix, threshold=4, exact=2)
        with pytest.raises(ValidationError):
            target_boundaries(matrix, threshold=4, exact=2)

    def test_wrong_narrative_rejected(self, pear9):
        _, matrix = pear9
        with pytest.raises(ValidationError):
            evaluate_algorithm(BoundarySet("other", frozenset({0})), matrix)


class TestAggregate:
    def test_exact_mean_and_variance(self):
        agg = aggregate_metric([F(1, 2), F(1), None, F(3, 4)])
        assert agg.count == 3
        assert agg.skipped == 1
        assert agg.mean == F(3, 4)
        assert agg.variance == F(1, 24)

    def test_generator_input_counts_skipped(self):
        agg = aggregate_metric(v for v in [F(1), None])
        assert (agg.mean, agg.count, agg.skipped) == (F(1), 1, 1)

    @settings(max_examples=300, deadline=None)
    @given(hst.lists(hst.one_of(hst.none(), hst.fractions(max_denominator=1000)), max_size=30))
    def test_matches_fraction_sums(self, values):
        kept = [v for v in values if v is not None]
        agg = aggregate_metric(values)
        assert (agg.count, agg.skipped) == (len(kept), len(values) - len(kept))
        if kept:
            mean = sum(kept, F(0)) / len(kept)
            variance = sum(((v - mean) ** 2 for v in kept), F(0)) / len(kept)
            assert (agg.mean, agg.variance) == (mean, variance)

    def test_all_none(self):
        agg = aggregate_metric([None, None])
        assert agg.mean is None
        assert agg.variance is None
        assert agg.count == 0
        assert agg.skipped == 2


def fraction_sums(values):
    """Mean and population variance by plain Fraction sums, None skipped."""
    kept = [v for v in values if v is not None]
    if not kept:
        return MetricAggregate(None, None, 0, len(values))
    mean = sum(kept, F(0)) / len(kept)
    variance = sum(((v - mean) ** 2 for v in kept), F(0)) / len(kept)
    return MetricAggregate(mean, variance, len(kept), len(values) - len(kept))


cell_counts = hst.tuples(*[hst.integers(0, 60)] * 4)
pair_lists = hst.one_of(
    hst.lists(hst.tuples(hst.integers(-60, 60), hst.integers(0, 60)), max_size=40),
    hst.lists(hst.tuples(hst.integers(-60, 60), hst.just(0)), max_size=10),
)


class TestIntegerCore:
    @settings(max_examples=300, deadline=None)
    @given(cell_counts)
    def test_ratio_pairs_match_metrics(self, cells):
        scores = metrics(ConfusionCounts(*cells)).as_dict()
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
        assert agg == MetricAggregate(None, None, 0, 3)
        assert aggregate_pairs(np.array([], dtype=np.int64), np.array([], dtype=np.int64)) == (
            MetricAggregate(None, None, 0, 0)
        )


class TestHumanScores:
    def test_fixture_per_subject(self, pear9):
        _, matrix = pear9
        result = evaluate_humans(matrix)
        assert result.target.sites == frozenset({0, 10})
        assert result.mode == "threshold=4"
        by_id = {s.subject_id: s for s in result.per_subject}
        assert by_id["s1"].scores.recall == F(1)
        assert by_id["s1"].scores.error == F(0)
        assert by_id["s4"].scores.precision == F(2, 3)
        assert by_id["s7"].counts == ConfusionCounts(a=1, b=2, c=1, d=7)
        assert result.summary["recall"].mean == F(13, 14)
        assert result.summary["recall"].count == 7

    def test_mean_recall_matches_boundary_agreement(self, pear9):
        _, matrix = pear9
        report = percent_agreement(matrix)
        result = evaluate_humans(matrix)
        assert result.summary["recall"].mean == report.percent_boundary

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
        matrix = make_matrix(rows)
        result = evaluate_humans(matrix, threshold=threshold)
        report = percent_agreement(matrix, threshold=threshold)
        assert result.summary["recall"].mean == report.percent_boundary

    def test_leave_one_out_smoke(self, pear9):
        _, matrix = pear9
        result = evaluate_humans(matrix, leave_one_out=True)
        assert result.mode.endswith("leave-one-out")
        # With s1 removed the remaining 6 subjects still put 5 marks on
        # site 0 and 6 on site 10, majority of 6 is 4, so the target for
        # s1 stays {0, 10} and the score is unchanged.
        assert result.per_subject[0].scores.recall == F(1)
        # s7 is scored against the other six, whose extra marks all fall
        # below the reduced threshold.
        assert result.per_subject[6].scores.recall == F(1, 2)

    def test_leave_one_out_needs_panel(self):
        matrix = make_matrix([[1, 0, 1]])
        with pytest.raises(ValidationError):
            evaluate_humans(matrix, leave_one_out=True)

    def test_leave_one_out_scores_only_the_subjects_rows(self):
        matrix = make_matrix([[1, 0, 1], [0, 0, 1]])
        with pytest.raises(ValidationError, match="^leave-one-out scores the subjects' own rows$"):
            score_units(matrix, matrix.cells[::-1], leave_one_out=True)
        assert score_units(matrix, matrix.cells.copy(), leave_one_out=True)[2].shape == (4, 2, 1)
