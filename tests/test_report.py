"""Batch report assembly: the three blocks and their exact cell values.

The batch used throughout mixes the transcript fixture (7 subjects, no
clause coding) with the two small coded narratives, given synthetic
3-subject panels. Every asserted number below is worked out by hand from
the confusion-cell definitions.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from segtool import (
    AnnotationMatrix,
    BatchItem,
    ValidationError,
    build_report,
    cue_segment,
    load_annotations,
    load_fic_coding,
    load_narrative,
    metrics,
    normalize_to_sites,
    np_segment,
    pause_segment,
    percent_agreement,
    render,
    segmenters,
    serialize_annotations,
    serialize_fic_coding,
    serialize_narrative,
)
from segtool.evaluation import aggregate_cells, score_units

F = Fraction


def make_matrix(narrative_id, rows):
    ids = [f"s{k + 1}" for k in range(len(rows))]
    return AnnotationMatrix(narrative_id, ids, np.array(rows, dtype=np.int64))


@pytest.fixture(scope="module")
def batch(pear9, three_link, shared_phrase):
    big_narrative, big_matrix = pear9
    link_narrative, link_coding = three_link
    shared_narrative, shared_coding = shared_phrase
    link_matrix = make_matrix(
        link_narrative.narrative_id, [[0, 0, 1], [0, 1, 1], [1, 0, 1]]
    )
    shared_matrix = make_matrix(shared_narrative.narrative_id, [[1], [1], [0]])
    return [
        BatchItem(big_narrative, big_matrix),
        BatchItem(link_narrative, link_matrix, link_coding),
        BatchItem(shared_narrative, shared_matrix, shared_coding),
    ]


@pytest.fixture(scope="module")
def report(batch):
    return build_report(batch)


def test_report_builds_no_np_trace(batch, monkeypatch):
    """The report keeps only the np boundaries; reading a trace is what builds its steps."""

    def refuse(*args, **kwargs):
        raise AssertionError("built an np trace step")

    expected = build_report(batch).to_tsv()
    monkeypatch.setattr(segmenters, "TraceStep", refuse)
    assert build_report(batch).to_tsv() == expected
    segmentation = np_segment(batch[1].coding)
    with pytest.raises(AssertionError, match="trace step"):
        segmentation.trace


def test_report_of_reloaded_files_is_unchanged(batch):
    """A batch reloaded from its serialized files gives the same report."""
    expected = build_report(batch).to_tsv()
    files = [[kind and json.dumps(serialize(kind)).encode() for kind, serialize in (
        (item.narrative, serialize_narrative), (item.matrix, serialize_annotations),
        (item.coding, serialize_fic_coding))] for item in batch]
    fresh = []
    for narrative, matrix, coding in files:
        narrative = load_narrative(narrative)
        fresh.append(BatchItem(narrative, load_annotations(matrix, narrative),
                               coding and load_fic_coding(coding, narrative)))
    assert [(item.narrative, item.coding) for item in fresh] == [
        (item.narrative, item.coding) for item in batch]
    assert build_report(fresh).to_tsv() == expected


class TestAgreementBlock:
    def test_rows(self, report):
        rows = {row.narrative_id: row for row in report.agreement_rows}
        assert list(rows) == ["pear-09-excerpt", "synthetic-links", "pear-06-excerpt"]
        assert rows["pear-09-excerpt"].percent == F(71, 77)
        assert rows["synthetic-links"].percent == F(7, 9)
        assert rows["synthetic-links"].percent_boundary == F(1)
        assert rows["pear-06-excerpt"].percent == F(2, 3)
        assert rows["pear-06-excerpt"].percent_non_boundary is None

    def test_summary(self, report):
        summary = report.agreement_summary
        assert summary["narratives"] == 3
        assert summary["opinions"] == 25
        assert summary["boundary_sites"] == 4
        assert summary["non_boundary_sites"] == 11
        assert summary["percent"]["mean"] == F(1640, 2079)
        assert summary["percent_boundary"]["mean"] == F(109, 126)
        assert summary["percent_non_boundary"]["mean"] == F(50, 63)
        assert summary["percent_non_boundary"]["count"] == 2
        assert summary["percent_non_boundary"]["skipped"] == 1


class TestMethodBlock:
    def test_np_aggregates_only_coded_narratives(self, report):
        np_row = report.method_table["np"]
        assert np_row["recall"]["mean"] == F(1)
        assert np_row["recall"]["count"] == 2
        assert np_row["precision"]["mean"] == F(1)
        assert np_row["error"]["mean"] == F(0)
        # Fallout is undefined on the one-site narrative.
        assert np_row["fallout"]["mean"] == F(0)
        assert np_row["fallout"]["count"] == 1
        assert np_row["fallout"]["skipped"] == 1

    def test_cue_aggregates(self, report):
        cue_row = report.method_table["cue"]
        assert cue_row["recall"]["mean"] == F(1, 2)
        assert cue_row["recall"]["variance"] == F(1, 6)
        assert cue_row["precision"]["mean"] == F(3, 4)
        assert cue_row["precision"]["skipped"] == 1
        assert cue_row["fallout"]["mean"] == F(1, 18)
        assert cue_row["error"]["mean"] == F(17, 99)

    def test_pause_aggregates(self, report):
        pause_row = report.method_table["pause"]
        assert pause_row["recall"]["mean"] == F(1, 3)
        assert pause_row["precision"]["mean"] == F(2, 7)
        assert pause_row["precision"]["count"] == 1
        assert pause_row["error"]["mean"] == F(59, 99)

    def test_humans_pool_subject_narrative_observations(self, report, batch):
        humans_row = report.method_table["humans"]
        assert humans_row["recall"]["count"] == 13
        assert humans_row["recall"]["mean"] == F(23, 26)
        # Each narrative's subjects scored on their own, pooled, and recomputed straight-line.
        cells = np.concatenate(
            [score_units(item.matrix, item.matrix.cells)[2][:, :, 0] for item in batch], axis=1)
        recalls = [metrics(*unit)["recall"] for unit in zip(*cells.tolist())]
        assert humans_row == aggregate_cells(cells)
        assert humans_row["recall"]["mean"] == sum(recalls, F(0)) / len(recalls)


class TestStrengthBlock:
    def test_levels_span_largest_panel(self, report):
        assert report.strength_levels == (1, 2, 3, 4, 5, 6, 7)

    def test_site_count_means(self, report):
        means = report.strength_site_counts
        assert means[1] == F(5, 3)
        assert means[2] == F(2, 3)
        assert means[3] == F(1, 3)
        assert means[4] == F(0)
        assert means[6] == F(1)
        assert means[7] == F(1)

    def test_spot_cells(self, report):
        table = report.strength_table
        assert table["cue"]["recall"][7]["mean"] == F(1)
        assert table["cue"]["recall"][6]["mean"] == F(0)
        assert table["pause"]["recall"][6]["mean"] == F(1)
        assert table["np"]["recall"][3]["mean"] == F(1)
        assert table["np"]["recall"][3]["count"] == 1
        assert table["humans"]["recall"][7]["mean"] == F(1)
        assert table["humans"]["recall"][7]["count"] == 7
        # Nobody has a strength-4 site, so recall is undefined everywhere.
        assert table["cue"]["recall"][4]["mean"] is None


class TestRendering:
    def test_tsv_block_shapes(self, report):
        blocks = report.to_tsv().split("\n\n")
        assert len(blocks) == 3
        agreement, methods, strengths = (b.rstrip("\n").split("\n") for b in blocks)

        assert agreement[0] == "# agreement"
        assert agreement[1].split("\t") == [
            "row",
            "pear-09-excerpt",
            "synthetic-links",
            "pear-06-excerpt",
            "all",
            "variance",
        ]
        assert len(agreement) == 8
        row = {line.split("\t")[0]: line.split("\t") for line in agreement[2:]}
        assert row["opinions"][1:] == ["18", "5", "2", "25", ""]
        assert row["percent"][1:] == ["0.92", "0.78", "0.67", "0.79", "0.0109"]
        assert row["percent_non_boundary"][3] == "NA"

        assert methods[0] == "# methods threshold=majority"
        assert methods[1].split("\t")[:3] == ["method", "recall", "recall_variance"]
        assert [line.split("\t")[0] for line in methods[2:]] == [
            "np",
            "cue",
            "pause",
            "humans",
        ]
        cue_cells = methods[3].split("\t")
        assert cue_cells[1:3] == ["0.50", "0.1667"]

        assert strengths[0] == "# strengths"
        assert strengths[1].split("\t") == ["strength", "1", "2", "3", "4", "5", "6", "7"]
        assert strengths[2].split("\t") == [
            "sites",
            "1.7",
            "0.7",
            "0.3",
            "0.0",
            "0.0",
            "1.0",
            "1.0",
        ]
        assert [line.split("\t")[0] for line in strengths[3:]] == [
            "np_recall",
            "np_precision",
            "cue_recall",
            "cue_precision",
            "pause_recall",
            "pause_precision",
            "humans_recall",
            "humans_precision",
        ]

    def test_json_round_trips(self, report):
        payload = json.loads(report.to_json())
        assert payload["threshold"] == "majority"
        assert payload["agreement"]["summary"]["opinions"] == 25
        assert payload["methods"]["np"]["recall"] == {
            "mean": 1.0,
            "variance": 0.0,
            "count": 2,
            "skipped": 0,
        }
        assert payload["strengths"]["levels"] == [1, 2, 3, 4, 5, 6, 7]
        assert payload["strengths"]["sites_mean"]["1"] == pytest.approx(5 / 3)
        assert payload["strengths"]["methods"]["humans"]["recall"]["7"]["count"] == 7

    def test_rendering_is_deterministic(self, batch):
        first = build_report(batch)
        second = build_report(batch)
        assert first.to_tsv() == second.to_tsv()
        assert first.to_json() == second.to_json()

    @pytest.mark.parametrize(
        "value",
        [object(), frozenset({1}), np.int64(1), percent_agreement(make_matrix("n", [[1]]))],
        ids=["object", "frozenset", "int64", "AgreementReport"],
    )
    def test_unrenderable_value_refused(self, value):
        message = f"^cannot render {type(value).__name__} as JSON$"
        with pytest.raises(TypeError, match=message):
            render.to_json({"cell": value})

    def test_threshold_override_is_labelled(self, batch):
        report = build_report(batch, threshold=1)
        assert "# methods threshold=1" in report.to_tsv()
        assert json.loads(report.to_json())["threshold"] == 1

    def test_numpy_integer_threshold_renders_as_an_int(self, batch):
        report, plain = build_report(batch, threshold=np.int64(1)), build_report(batch, threshold=1)
        assert (report.to_json(), report.to_tsv()) == (plain.to_json(), plain.to_tsv())


class TestValidation:
    def test_empty_batch(self):
        with pytest.raises(ValidationError):
            build_report([])

    def test_duplicate_ids(self, pear9):
        narrative, matrix = pear9
        item = BatchItem(narrative, matrix)
        with pytest.raises(ValidationError):
            build_report([item, item])

    def test_matrix_pairing_checked(self, pear9, three_link):
        narrative, _ = pear9
        link_narrative, _ = three_link
        wrong = make_matrix(link_narrative.narrative_id, [[0, 1, 0]])
        with pytest.raises(ValidationError):
            BatchItem(narrative, wrong)

    def test_coding_pairing_checked(self, pear9, three_link):
        narrative, matrix = pear9
        _, coding = three_link
        with pytest.raises(ValidationError):
            BatchItem(narrative, matrix, coding)

    def test_site_counts_checked(self, pear9, three_link):
        """The subjects' rows and the segmenters' masks are stacked site by site."""
        narrative, _ = pear9
        with pytest.raises(ValidationError, match="^matrix of 3 sites paired with narrative "
                                                  "pear-09-excerpt of 11$"):
            BatchItem(narrative, make_matrix(narrative.narrative_id, [[0, 1, 0]]))
        link_narrative, coding = three_link
        doc = serialize_narrative(link_narrative)
        doc["phrases"].append({**doc["phrases"][-1], "id": "99.1"})
        longer = load_narrative(json.dumps(doc).encode())
        rows = [[0] * longer.site_count]
        with pytest.raises(ValidationError, match="^coding of 3 sites paired with narrative "
                                                  "synthetic-links of 4$"):
            BatchItem(longer, make_matrix(longer.narrative_id, rows), coding)

    @pytest.mark.parametrize("sites", [1, 10, 12, 30])
    def test_a_matrix_of_any_other_site_count_is_refused(self, pear9, sites):
        narrative, _ = pear9
        with pytest.raises(ValidationError) as excinfo:
            BatchItem(narrative, make_matrix(narrative.narrative_id, [[0] * sites, [1] * sites]))
        assert str(excinfo.value) == (
            f"matrix of {sites} sites paired with narrative pear-09-excerpt of 11")

    def test_uncoded_batch_leaves_np_empty(self, pear9):
        narrative, matrix = pear9
        report = build_report([BatchItem(narrative, matrix)])
        np_row = report.method_table["np"]
        assert all(np_row[name]["count"] == 0 for name in np_row)
        assert all(np_row[name]["mean"] is None for name in np_row)
        tsv_lines = report.to_tsv().splitlines()
        np_line = next(line for line in tsv_lines if line.startswith("np\t"))
        assert np_line.split("\t")[1:] == ["NA"] * 8


# ---------------------------------------------------------------------------
# Oracle: every confusion cell recounted site by site, panel by panel.


@hst.composite
def panels(draw):
    """One narrative with a random panel: 1-6 subjects over 2-8 sites.

    Panels of 1 or 2 subjects are drawn often, and about one in five has no mark.
    """
    sites = draw(hst.integers(2, 8))
    subjects = draw(hst.sampled_from((1, 2)) | hst.integers(1, 6))
    rows = draw(hst.lists(
        hst.lists(hst.integers(0, 1), min_size=sites, max_size=sites),
        min_size=subjects, max_size=subjects,
    ))
    if draw(hst.integers(0, 4)) == 0:
        rows = [[0] * sites for _ in rows]
    words = draw(hst.lists(hst.sampled_from(["and", "so", "the", "man"]),
                           min_size=sites + 1, max_size=sites + 1))
    pauses = draw(hst.lists(hst.sampled_from([None, 0.0, 0.4]),
                            min_size=sites + 1, max_size=sites + 1))
    nid = f"n{draw(hst.integers(0, 10**6))}"
    narrative = load_narrative(json.dumps({"narrative_id": nid, "phrases": [
        {"id": f"{k + 1}.1", "text": [word, "rest"], "sentence_final": True, "pause_before": pause}
        for k, (word, pause) in enumerate(zip(words, pauses))
    ]}).encode())
    return BatchItem(narrative, make_matrix(nid, rows))


batches = hst.lists(panels(), min_size=1, max_size=3, unique_by=lambda i: i.narrative.narrative_id)


def loop_counts(row, target):
    """Confusion cells of one 0/1 row against one 0/1 target, site by site."""
    a = b = c = d = 0
    for predicted, marked in zip(row, target):
        if predicted and marked:
            a += 1
        elif predicted:
            b += 1
        elif marked:
            c += 1
        else:
            d += 1
    return [a, b, c, d]


def loop_scores(row, target):
    a, b, c, d = loop_counts(row, target)

    def ratio(num, den):
        return F(num, den) if den else None

    return {"recall": ratio(a, a + c), "precision": ratio(a, a + b),
            "fallout": ratio(b, b + d), "error": ratio(b + c, a + b + c + d)}


def loop_aggregate(values):
    kept = [v for v in values if v is not None]
    if not kept:
        return {"mean": None, "variance": None, "count": 0, "skipped": len(values)}
    mean = sum(kept, F(0)) / len(kept)
    variance = sum(((v - mean) ** 2 for v in kept), F(0)) / len(kept)
    return {"mean": mean, "variance": variance, "count": len(kept),
            "skipped": len(values) - len(kept)}


def loop_totals(rows):
    return [sum(row[k] for row in rows) for k in range(len(rows[0]))]


class TestOracle:
    @settings(max_examples=60, deadline=None)
    @given(batches, hst.data())
    def test_report_tables_match_site_loop(self, batch, data):
        smallest = min(item.matrix.subjects for item in batch)
        threshold = data.draw(hst.none() | hst.integers(1, smallest))
        report = build_report(batch, threshold=threshold)

        methods, strengths, sites = {}, {}, {}
        for item in batch:
            cells = item.matrix.cells.tolist()
            totals = loop_totals(cells)
            pooled = threshold or (len(cells) + 2) // 2
            scored = {
                "humans": cells,
                "cue": [cue_segment(item.narrative).tolist()],
                "pause": [pause_segment(item.narrative).tolist()],
            }
            for method, rows in scored.items():
                for row in rows:
                    for name, v in loop_scores(row, [x >= pooled for x in totals]).items():
                        methods.setdefault((method, name), []).append(v)
                    for t in range(1, len(cells) + 1):
                        exact = loop_scores(row, [x == t for x in totals])
                        for name in ("recall", "precision"):
                            strengths.setdefault((method, name, t), []).append(exact[name])
            for t in range(1, len(cells) + 1):
                sites.setdefault(t, []).append(sum(x == t for x in totals))

        for (method, name), values in methods.items():
            assert report.method_table[method][name] == loop_aggregate(values)
        for (method, name, t), values in strengths.items():
            assert report.strength_table[method][name][t] == loop_aggregate(values)
        assert report.strength_site_counts == {t: F(sum(c), len(c)) for t, c in sites.items()}

    @settings(max_examples=40, deadline=None)
    @given(hst.data())
    def test_np_row_matches_site_loop(self, bicycle, shared_phrase, three_link, data):
        items = []
        for narrative, coding in (bicycle, shared_phrase, three_link):
            sites = narrative.site_count
            rows = data.draw(hst.lists(
                hst.lists(hst.integers(0, 1), min_size=sites, max_size=sites),
                min_size=1, max_size=6,
            ))
            items.append(BatchItem(narrative, make_matrix(narrative.narrative_id, rows), coding))
        smallest = min(item.matrix.subjects for item in items)
        threshold = data.draw(hst.none() | hst.integers(1, smallest))
        report = build_report(items, threshold=threshold)

        methods, strengths = {}, {}
        for item in items:
            cells = item.matrix.cells.tolist()
            totals = loop_totals(cells)
            pooled = threshold or (len(cells) + 2) // 2
            row = normalize_to_sites(np_segment(item.coding)).tolist()
            assert len(row) == len(totals)
            for name, v in loop_scores(row, [x >= pooled for x in totals]).items():
                methods.setdefault(name, []).append(v)
            for t in range(1, len(cells) + 1):
                exact = loop_scores(row, [x == t for x in totals])
                for name in ("recall", "precision"):
                    strengths.setdefault((name, t), []).append(exact[name])

        assert set(methods) == set(report.method_table["np"])
        for name, values in methods.items():
            assert report.method_table["np"][name] == loop_aggregate(values)
        assert len(strengths) == 2 * len(report.strength_levels)
        for (name, t), values in strengths.items():
            assert report.strength_table["np"][name][t] == loop_aggregate(values)

    @settings(max_examples=60, deadline=None)
    @given(batches, hst.data())
    def test_leave_one_out_matches_reduced_panel(self, batch, data):
        for item in batch:
            cells = item.matrix.cells.tolist()
            if len(cells) < 2:
                continue
            exact = data.draw(hst.none() | hst.integers(1, len(cells) - 1))
            scored = score_units(item.matrix, item.matrix.cells, exact=exact, leave_one_out=True)[2]
            for r, counts in enumerate(scored[:, :, 0].T.tolist()):
                reduced = cells[:r] + cells[r + 1:]
                totals = loop_totals(reduced)
                if exact is None:
                    target = [x >= (len(reduced) + 2) // 2 for x in totals]
                else:
                    target = [x == exact for x in totals]
                assert counts == loop_counts(cells[r], target)

    @settings(max_examples=100, deadline=None)
    @given(batches, hst.data())
    def test_score_units_matches_site_loop(self, batch, data):
        """Each cell of score_units, in every target mode and exact-strength column.

        Each narrative draws a defaulted threshold, an explicit threshold or an
        exact strength, with or without leave-one-out; without it the rows are
        the subjects' plus up to two random unit rows.
        """
        for item in batch:
            cells = item.matrix.cells.tolist()
            subjects, totals = len(cells), loop_totals(cells)
            leave_one_out = data.draw(hst.booleans())
            kind = data.draw(hst.sampled_from(("default", "threshold", "exact")))
            level = data.draw(hst.integers(1, max(subjects - leave_one_out, 1)))
            threshold = level if kind == "threshold" else None
            exact = level if kind == "exact" else None
            rows = cells
            if not leave_one_out:
                rows = cells + data.draw(hst.lists(
                    hst.lists(hst.integers(0, 1), min_size=len(totals), max_size=len(totals)),
                    max_size=2,
                ))
            elif subjects < 2:
                with pytest.raises(ValidationError, match="^leave-one-out needs at least 2"):
                    score_units(item.matrix, item.matrix.cells, threshold, exact, True)
                continue

            def pooled(totals, panel):
                """The target of a panel of this size with these column totals."""
                if exact is not None:
                    return [x == exact for x in totals]
                return [x >= (threshold or (panel + 2) // 2) for x in totals]

            target, mode, table = score_units(
                item.matrix, np.array(rows, dtype=np.int64), threshold, exact, leave_one_out
            )
            assert target.tolist() == [int(x) for x in pooled(totals, subjects)]
            panel = subjects - leave_one_out
            label = (f"exact={exact}" if exact is not None
                     else f"threshold={threshold or (panel + 2) // 2}")
            assert mode == label + " leave-one-out" * leave_one_out
            if leave_one_out:
                assert table.shape == (4, subjects, 1)
                for r, row in enumerate(cells):
                    others = loop_totals(cells[:r] + cells[r + 1:])
                    assert table[:, r, 0].tolist() == loop_counts(
                        row, pooled(others, panel)
                    )
                continue
            assert table.shape == (4, len(rows), subjects + 1)
            for u, row in enumerate(rows):
                assert table[:, u, 0].tolist() == loop_counts(row, target)
                for t in range(1, subjects + 1):
                    assert table[:, u, t].tolist() == loop_counts(
                        row, [x == t for x in totals]
                    )
