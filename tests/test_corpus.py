"""Loaders, validation, serialization round trips, and the site map."""

from __future__ import annotations

import json

import numpy as np
import pytest

from segtool import (
    AnnotationMatrix,
    BoundarySet,
    PhraseId,
    SchemaError,
    ValidationError,
    fixture_path,
    load_annotations,
    load_fic_coding,
    load_narrative,
    serialize_annotations,
    serialize_fic_coding,
    serialize_narrative,
)


def dumps(obj) -> bytes:
    return json.dumps(obj).encode("utf-8")


def narrative_doc(n_phrases=3, narrative_id="toy"):
    return {
        "narrative_id": narrative_id,
        "phrases": [
            {
                "id": f"{k}.1",
                "sentence_final": True,
                "pause_before": None,
                "pause_truncated": False,
                "text": ["word"],
            }
            for k in range(1, n_phrases + 1)
        ],
    }


class TestPhraseId:
    def test_parse_and_render(self):
        pid = PhraseId.parse("3.3")
        assert (pid.sentence, pid.phrase) == (3, 3)
        assert str(pid) == "3.3"

    def test_ordering_is_transcript_order(self):
        assert PhraseId(3, 3) < PhraseId(4, 1) < PhraseId(4, 2) < PhraseId(10, 1)

    @pytest.mark.parametrize(
        "bad", ["3", "3.3.3", "a.b", "0.1", "1.0", "-1.2", "1.01", " 1 . 1", "+1.1"]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValidationError):
            PhraseId.parse(bad)

    @pytest.mark.parametrize("bad", [None, 3, 1.1, True, ["1.1"], {"1": 1}])
    def test_rejects_non_strings(self, bad):
        with pytest.raises(ValidationError, match="phrase id must look like"):
            PhraseId.parse(bad)


class TestNarrativeLoading:
    def test_fixture_loads(self, pear9):
        narrative, _ = pear9
        assert narrative.narrative_id == "pear-09-excerpt"
        assert len(narrative.phrases) == 12
        assert narrative.site_count == 11
        assert narrative.site_label(0) == "3.3→4.1"
        assert narrative.site_label(10) == "8.4→9.1"

    def test_round_trip(self, pear9):
        narrative, _ = pear9
        again = load_narrative(dumps(serialize_narrative(narrative)))
        assert again == narrative

    def test_pause_fields_survive(self, pear9):
        narrative, _ = pear9
        first = narrative.phrases[0]
        assert first.pause_before == 0.35
        assert first.pause_truncated
        assert narrative.phrases[3].pause_before is None

    def test_too_few_phrases(self):
        with pytest.raises(SchemaError):
            load_narrative(dumps(narrative_doc(n_phrases=1)))

    def test_out_of_order_ids(self):
        doc = narrative_doc()
        doc["phrases"][1]["id"] = "9.1"
        doc["phrases"][2]["id"] = "2.1"
        with pytest.raises(SchemaError):
            load_narrative(dumps(doc))

    def test_duplicate_ids(self):
        doc = narrative_doc()
        doc["phrases"][1]["id"] = doc["phrases"][0]["id"]
        with pytest.raises(SchemaError):
            load_narrative(dumps(doc))

    def test_bad_pause_type_names_location(self):
        doc = narrative_doc()
        doc["phrases"][1]["pause_before"] = "long"
        with pytest.raises(SchemaError) as excinfo:
            load_narrative(dumps(doc))
        assert "phrases[1].pause_before" in str(excinfo.value)

    def test_boolean_pause_rejected(self):
        doc = narrative_doc()
        doc["phrases"][1]["pause_before"] = True
        with pytest.raises(SchemaError) as excinfo:
            load_narrative(dumps(doc))
        assert str(excinfo.value) == "phrases[1].pause_before: expected number or null"

    def test_pause_past_float_range_rejected(self):
        doc = narrative_doc()
        doc["phrases"][1]["pause_before"] = 10**400  # JSON reads it back as an int
        with pytest.raises(SchemaError) as excinfo:
            load_narrative(dumps(doc))
        assert str(excinfo.value) == "phrases[1].pause_before: expected number or null"

    def test_truncated_without_pause(self):
        doc = narrative_doc()
        doc["phrases"][1]["pause_truncated"] = True
        with pytest.raises(SchemaError):
            load_narrative(dumps(doc))

    def test_empty_text(self):
        doc = narrative_doc()
        doc["phrases"][0]["text"] = []
        with pytest.raises(SchemaError):
            load_narrative(dumps(doc))

    def test_not_json(self):
        with pytest.raises(SchemaError):
            load_narrative(b"{not json")

    @pytest.mark.parametrize(
        "text",
        [b'{"narrative_id": 1' + b"0" * 5000 + b"}", b"[" * 100_000 + b"]" * 100_000],
        ids=["int-past-digit-limit", "nested-too-deep"],
    )
    def test_json_python_cannot_read(self, text):
        with pytest.raises(SchemaError, match="^<file>: not valid JSON: "):
            load_narrative(text)

    def test_lone_surrogate_rejected(self):
        doc = narrative_doc(narrative_id="\udcff")
        with pytest.raises(SchemaError) as excinfo:
            load_narrative(dumps(doc))  # ensure_ascii writes it as an escape
        assert str(excinfo.value) == "<file>: not valid UTF-8: lone surrogate '\\udcff'"

    def test_surrogate_pair_accepted(self):
        assert load_narrative(dumps(narrative_doc(narrative_id="\U0001f600"))).narrative_id == "\U0001f600"

    def test_missing_field_named(self):
        doc = narrative_doc()
        del doc["phrases"][2]["sentence_final"]
        with pytest.raises(SchemaError) as excinfo:
            load_narrative(dumps(doc))
        assert "phrases[2]" in str(excinfo.value)


class TestAnnotationLoading:
    def test_fixture_totals(self, pear9):
        _, matrix = pear9
        assert matrix.subjects == 7
        assert matrix.sites == 11
        assert list(matrix.column_totals) == [6, 0, 0, 1, 1, 2, 0, 0, 1, 0, 7]
        assert int(matrix.column_totals.sum()) == 18
        assert list(matrix.row_totals) == [2, 2, 2, 3, 3, 3, 3]

    def test_round_trip(self, pear9):
        narrative, matrix = pear9
        again = load_annotations(dumps(serialize_annotations(matrix)), narrative)
        assert again == matrix

    def test_cells_read_only(self, pear9):
        _, matrix = pear9
        with pytest.raises(ValueError):
            matrix.cells[0, 0] = 1

    def test_random_round_trips(self):
        rng = np.random.default_rng(11)
        narrative = load_narrative(dumps(narrative_doc(n_phrases=9, narrative_id="rt")))
        for _ in range(25):
            cells = rng.integers(0, 2, size=(5, 8))
            matrix = AnnotationMatrix("rt", [f"s{i}" for i in range(5)], cells)
            again = load_annotations(dumps(serialize_annotations(matrix)), narrative)
            assert again == matrix

    def test_site_count_mismatch(self, pear9):
        narrative, matrix = pear9
        doc = serialize_annotations(matrix)
        doc["sites"] = 10
        doc["matrix"] = [row[:10] for row in doc["matrix"]]
        with pytest.raises(ValidationError):
            load_annotations(dumps(doc), narrative)

    def test_narrative_id_mismatch(self, pear9):
        narrative, matrix = pear9
        doc = serialize_annotations(matrix)
        doc["narrative_id"] = "someone-else"
        with pytest.raises(ValidationError):
            load_annotations(dumps(doc), narrative)

    def test_non_binary_cell_named(self, pear9):
        narrative, matrix = pear9
        doc = serialize_annotations(matrix)
        doc["matrix"][2][5] = 2
        with pytest.raises(SchemaError) as excinfo:
            load_annotations(dumps(doc), narrative)
        assert "matrix[2][5]" in str(excinfo.value)

    @pytest.mark.parametrize("cell", [True, False, 2, -1, 0.5, None, "1", [1], {"v": 1}])
    def test_bad_cell_kinds_named(self, pear9, cell):
        narrative, matrix = pear9
        doc = serialize_annotations(matrix)
        doc["matrix"][4][7] = cell
        with pytest.raises(SchemaError) as excinfo:
            load_annotations(dumps(doc), narrative)
        assert str(excinfo.value) == "matrix[4][7]: expected 0 or 1"

    def test_float_cells_read_as_integers(self, pear9):
        narrative, matrix = pear9
        doc = serialize_annotations(matrix)
        doc["matrix"] = [[float(cell) for cell in row] for row in doc["matrix"]]
        assert load_annotations(dumps(doc), narrative) == matrix

    def test_boolean_site_count_rejected(self):
        narrative = load_narrative(dumps(narrative_doc(n_phrases=2)))
        doc = {"narrative_id": "toy", "subjects": ["a"], "sites": True, "matrix": [[1]]}
        with pytest.raises(SchemaError) as excinfo:
            load_annotations(dumps(doc), narrative)
        assert str(excinfo.value) == "sites: expected a positive integer"

    def test_duplicate_subjects(self, pear9):
        narrative, matrix = pear9
        doc = serialize_annotations(matrix)
        doc["subjects"][1] = doc["subjects"][0]
        with pytest.raises(SchemaError):
            load_annotations(dumps(doc), narrative)

    def test_ragged_rows(self, pear9):
        narrative, matrix = pear9
        doc = serialize_annotations(matrix)
        doc["matrix"][3] = doc["matrix"][3][:-1]
        with pytest.raises(SchemaError):
            load_annotations(dumps(doc), narrative)


class TestFicCodingLoading:
    def test_single_clause_fixture(self, bicycle):
        _, coding = bicycle
        assert len(coding.fics) == 1
        fic = coding.fics[0]
        assert fic.index == 25
        assert str(fic.phrase_span[0]) == "16.1"
        assert str(fic.phrase_span[1]) == "16.2"
        wheels = fic.nps[1]
        assert wheels.referent == 13
        assert wheels.inferential == frozenset({(13, "r1", 12)})
        assert coding.site_map == {}

    def test_round_trip(self, three_link):
        narrative, coding = three_link
        again = load_fic_coding(dumps(serialize_fic_coding(coding)), narrative)
        assert again == coding
        assert again.site_map == coding.site_map

    def test_site_map_total_over_adjacent_pairs(self, three_link):
        _, coding = three_link
        assert set(coding.site_map) == set(coding.adjacent_pairs())
        assert [m.site for m in coding.site_map.values()] == [0, 1, 2]
        assert not any(m.intra_phrase for m in coding.site_map.values())

    def test_intra_phrase_junction_flagged(self, shared_phrase):
        _, coding = shared_phrase
        assert coding.site_map[(6, 7)].intra_phrase
        assert coding.site_map[(6, 7)].site == 0
        assert not coding.site_map[(7, 8)].intra_phrase
        assert coding.site_map[(7, 8)].site == 0

    def test_intra_phrase_in_final_phrase_has_no_site(self, shared_phrase):
        narrative, _ = shared_phrase
        doc = {
            "narrative_id": "pear-06-excerpt",
            "fics": [
                {"index": 1, "span": ["3.1", "3.1"],
                 "nps": [{"form": "he", "referent": 1, "pronoun3": True, "inferential": []}]},
                {"index": 2, "span": ["3.2", "3.2"],
                 "nps": [{"form": "the pears", "referent": 2, "pronoun3": False, "inferential": []}]},
                {"index": 3, "span": ["3.2", "3.2"],
                 "nps": [{"form": "a dog", "referent": 3, "pronoun3": False, "inferential": []}]},
            ],
        }
        coding = load_fic_coding(dumps(doc), narrative)
        assert coding.site_map[(2, 3)].intra_phrase
        assert coding.site_map[(2, 3)].site is None

    def test_gap_in_indices(self, three_link):
        narrative, coding = three_link
        doc = serialize_fic_coding(coding)
        doc["fics"][2]["index"] = 9
        with pytest.raises(SchemaError):
            load_fic_coding(dumps(doc), narrative)

    def test_unknown_phrase(self, three_link):
        narrative, coding = three_link
        doc = serialize_fic_coding(coding)
        doc["fics"][0]["span"] = ["1.1", "8.8"]
        with pytest.raises(SchemaError):
            load_fic_coding(dumps(doc), narrative)

    def test_unknown_relation_tag(self, three_link):
        narrative, coding = three_link
        doc = serialize_fic_coding(coding)
        doc["fics"][2]["nps"][0]["inferential"] = [[2, "r9", 1]]
        with pytest.raises(SchemaError):
            load_fic_coding(dumps(doc), narrative)

    @pytest.mark.parametrize("rel", [[True, "r1", 2], [1, "r1", True], [1, "r1", False]])
    def test_boolean_relation_ends_rejected(self, three_link, rel):
        narrative, coding = three_link
        doc = serialize_fic_coding(coding)
        doc["fics"][2]["nps"][0]["referent"] = 1
        doc["fics"][2]["nps"][0]["inferential"] = [[1, "r2", 2], rel]
        with pytest.raises(SchemaError) as excinfo:
            load_fic_coding(dumps(doc), narrative)
        assert str(excinfo.value) == (
            "fics[2].nps[0].inferential[1]: expected [source, tag, target]"
        )

    def test_relation_source_must_be_own_referent(self, three_link):
        narrative, coding = three_link
        doc = serialize_fic_coding(coding)
        doc["fics"][2]["nps"][0]["inferential"] = [[7, "r1", 1]]
        with pytest.raises(SchemaError):
            load_fic_coding(dumps(doc), narrative)

    def test_span_order_within_clause(self, three_link):
        narrative, coding = three_link
        doc = serialize_fic_coding(coding)
        doc["fics"][1]["span"] = ["2.1", "1.1"]
        with pytest.raises(SchemaError):
            load_fic_coding(dumps(doc), narrative)

    def test_clauses_must_not_move_backwards(self, three_link):
        narrative, coding = three_link
        doc = serialize_fic_coding(coding)
        doc["fics"][2]["span"] = ["1.1", "1.1"]
        with pytest.raises(SchemaError):
            load_fic_coding(dumps(doc), narrative)

    def test_id_mismatch(self, three_link):
        narrative, coding = three_link
        doc = serialize_fic_coding(coding)
        doc["narrative_id"] = "other"
        with pytest.raises(ValidationError):
            load_fic_coding(dumps(doc), narrative)


class TestBoundarySet:
    def test_labels_render_phrase_pairs(self, pear9):
        narrative, _ = pear9
        bs = BoundarySet.of("pear-09-excerpt", {10, 0})
        assert bs.labels(narrative) == ("3.3→4.1", "8.4→9.1")

    def test_labels_reject_other_narrative(self, pear9):
        narrative, _ = pear9
        with pytest.raises(ValidationError):
            BoundarySet.of("elsewhere", {0}).labels(narrative)

    def test_site_bounds_checked(self, pear9):
        narrative, _ = pear9
        with pytest.raises(ValidationError):
            BoundarySet.of("pear-09-excerpt", {11}).labels(narrative)
