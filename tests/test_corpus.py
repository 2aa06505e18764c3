"""Loaders, validation, serialization round trips, and the site map."""

from __future__ import annotations

import copy
import gc
import io
import itertools
import json
import sys
from itertools import compress
from operator import itemgetter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from segtool import corpus
from segtool import (
    AnnotationMatrix,
    CueLexicon,
    FicCoding,
    Narrative,
    SchemaError,
    ValidationError,
    cue_segment,
    default_cue_lexicon,
    fixture_path,
    load_annotations,
    load_fic_coding,
    load_narrative,
    pause_segment,
    serialize_annotations,
    serialize_fic_coding,
    serialize_narrative,
)
from segtool.corpus import load_manifest
from segtool.segmenters import TraceStep, np_segment
from conftest import first_word, load_panel, made_up_transcript
from test_segmenters import np_oracle


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
        narrative = load_narrative(dumps(planted(toy_transcript(), ("phrases", 4, "id"), "3.3")))
        assert narrative.id_ints[-2:] == (3, 3)
        assert narrative.ids[-1] == "3.3"
        assert serialize_narrative(narrative)["phrases"][-1]["id"] == "3.3"

    def test_ordering_is_transcript_order(self):
        ids = ["3.3", "4.1", "4.2", "10.1"]  # "10.1" sorts before "4.2" as text
        doc = {"narrative_id": "n", "phrases": [{**narrative_doc(1)["phrases"][0], "id": pid}
                                                for pid in ids]}
        assert load_narrative(dumps(doc)).ids == tuple(ids)

    @staticmethod
    def refused(bad):
        """A transcript's phrase id and a coding's span id of bad are refused as such."""
        transcript = planted(toy_transcript(), ("phrases", 0, "id"), bad)
        with pytest.raises(SchemaError) as excinfo:
            load_narrative(dumps(transcript))
        assert str(excinfo.value) == f"phrases[0].id: {ID_TEXT}{bad!r}"
        narrative = load_narrative(dumps(toy_transcript()))
        coding = planted(toy_coding(), ("fics", 0, "span", 1), bad)
        with pytest.raises(SchemaError) as excinfo:
            load_fic_coding(dumps(coding), narrative)
        assert str(excinfo.value) == f"fics[0].span: {ID_TEXT}{bad!r}"

    @pytest.mark.parametrize(
        "bad",
        ["3", "3.3.3", "a.b", "0.1", "1.0", "-1.2", "1.01", " 1 . 1", "+1.1", "1_0.1", "\u0661.1",
         "1.1\n", ""],
    )
    def test_rejects_malformed(self, bad):
        self.refused(bad)

    @pytest.mark.parametrize("bad", [None, 3, 1.1, True, ["1.1"], {"1": 1}])
    def test_rejects_non_strings(self, bad):
        self.refused(bad)

    @given(hst.tuples(hst.integers(1, 10**30), hst.integers(1, 10**30)),
           hst.tuples(hst.integers(1, 10**30), hst.integers(1, 10**30)))
    def test_ids_order_as_their_integer_pairs(self, a, b):
        doc = narrative_doc(2)
        doc["phrases"][0]["id"], doc["phrases"][1]["id"] = "%s.%s" % a, "%s.%s" % b
        if a < b:
            narrative = load_narrative(dumps(doc))
            assert narrative.id_ints == (*a, *b)
            assert narrative.ids == ("%s.%s" % a, "%s.%s" % b)
        else:
            with pytest.raises(SchemaError, match="^phrases: narrative toy: phrase ids out of"):
                load_narrative(dumps(doc))

    def test_parts_have_at_most_the_digits_int_reads_by_default(self):
        widest = "9" * 4300 + ".1"
        narrative = load_narrative(dumps(planted(toy_transcript(), ("phrases", 4, "id"), widest)))
        assert narrative.ids[-1] == widest and narrative.id_ints[-2] == int("9" * 4300)
        for bad in ("1" * 4301 + ".1", "1." + "1" * 4301):
            with pytest.raises(SchemaError, match=r"^phrases\[4\]\.id: phrase id must look like"):
                load_narrative(dumps(planted(toy_transcript(), ("phrases", 4, "id"), bad)))

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit")
    def test_an_id_past_a_lowered_int_digit_limit_is_a_schema_error(self):
        long_id = "1" * 1000 + ".1"
        transcript = toy_transcript()
        transcript["phrases"][0]["id"] = long_id
        coding = toy_coding()
        coding["fics"][0]["span"][1] = long_id
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            with pytest.raises(SchemaError) as excinfo:
                load_narrative(dumps(transcript))
            assert str(excinfo.value) == f"phrases[0]: {ID_TEXT}{long_id!r}"
            narrative = load_narrative(dumps(toy_transcript()))
            with pytest.raises(SchemaError, match=r"^fics\[0\]\.span: phrase id must look"):
                load_fic_coding(dumps(coding), narrative)
        finally:
            sys.set_int_max_str_digits(limit)


class TestNarrativeLoading:
    def test_fixture_loads(self, pear9):
        narrative, _ = pear9
        assert narrative.narrative_id == "pear-09-excerpt"
        assert len(narrative.ids) == 12
        assert narrative.site_count == 11
        assert narrative.site_labels(np.eye(11, dtype=np.int64)[0]) == ("3.3→4.1",)
        assert narrative.site_labels(np.eye(11, dtype=np.int64)[10]) == ("8.4→9.1",)

    def test_round_trip(self, pear9):
        narrative, _ = pear9
        again = load_narrative(dumps(serialize_narrative(narrative)))
        assert again == narrative

    def test_pause_fields_survive(self, pear9):
        narrative, _ = pear9
        assert narrative.pauses[0] == 0.35
        assert narrative.truncated[0]
        assert narrative.pauses[3] is None

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

    def test_streams_read_like_bytes(self):
        raw = dumps(narrative_doc())
        expected = corpus.read_json(raw)
        assert corpus.read_json(io.BytesIO(raw)) == expected
        assert corpus.read_json(io.StringIO(raw.decode("utf-8"))) == expected
        with pytest.raises(TypeError, match="^cannot read JSON from int$"):
            corpus.read_json(3)

    def test_not_json(self):
        with pytest.raises(SchemaError):
            load_narrative(b"{not json")

    @pytest.mark.parametrize(
        "text",
        [b'{"narrative_id": 1' + b"0" * 5000 + b"}", b"[" * 100_000 + b"]" * 100_000,
         b"\xef\xbb\xbf" + dumps(narrative_doc())],
        ids=["int-past-digit-limit", "nested-too-deep", "byte-order-mark"],
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
            matrix = load_panel(cells, narrative)
            assert matrix.cells.tolist() == cells.tolist()
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

    @pytest.mark.parametrize("change, message", [
        (lambda doc: doc.update(subjects="s1"), "subjects: expected a list of non-empty strings"),
        (lambda doc: doc.update(subjects=3), "subjects: expected a list of non-empty strings"),
        (lambda doc: doc["matrix"][0].pop(), "matrix[0]: expected 11 cells"),
        (lambda doc: doc["matrix"].pop(), "matrix: expected 7 rows"),
    ], ids=["subjects-string", "subjects-number", "short-first-row", "missing-row"])
    def test_panel_shape_named(self, pear9, change, message):
        narrative, matrix = pear9
        doc = serialize_annotations(matrix)
        change(doc)
        with pytest.raises(SchemaError) as excinfo:
            load_annotations(dumps(doc), narrative)
        assert str(excinfo.value) == message

    def test_empty_panel_names_subjects(self):
        narrative = load_narrative(dumps(narrative_doc(n_phrases=2)))
        doc = {"narrative_id": "toy", "subjects": [], "sites": 1, "matrix": []}
        with pytest.raises(SchemaError) as excinfo:
            load_annotations(dumps(doc), narrative)
        assert str(excinfo.value) == "subjects: expected at least one subject"


# Each would split a TSV cell: a tab, or anything str.splitlines() splits at.
CELL_BREAKING_IDS = ["pear\t9", "pear\t9\nx", "pear9\n", "pear\r9", "pear\x0c9", "pear\u20289"]


class TestIdsFitOneTsvCell:
    @pytest.mark.parametrize("bad", CELL_BREAKING_IDS)
    def test_narrative_id(self, bad):
        with pytest.raises(SchemaError) as excinfo:
            load_narrative(dumps(narrative_doc(narrative_id=bad)))
        assert str(excinfo.value) == "narrative_id: expected no tab or line break"

    @pytest.mark.parametrize("fixture, serialize, load", [
        ("pear9", serialize_annotations, load_annotations),
        ("three_link", serialize_fic_coding, load_fic_coding),
    ], ids=["annotations", "coding"])
    def test_narrative_id_of_a_file_read_against_a_transcript(
        self, request, fixture, serialize, load
    ):
        narrative, parsed = request.getfixturevalue(fixture)
        doc = serialize(parsed)
        doc["narrative_id"] = narrative.narrative_id + "\n"
        with pytest.raises(SchemaError) as excinfo:
            load(dumps(doc), narrative)
        assert str(excinfo.value) == "narrative_id: expected no tab or line break"

    @pytest.mark.parametrize("bad", CELL_BREAKING_IDS)
    def test_subject_id(self, pear9, bad):
        narrative, matrix = pear9
        doc = serialize_annotations(matrix)
        doc["subjects"][2] = bad
        with pytest.raises(SchemaError) as excinfo:
            load_annotations(dumps(doc), narrative)
        assert str(excinfo.value) == "subjects[2]: expected no tab or line break"

    def test_other_characters_load(self, pear9):
        narrative, matrix = pear9
        doc = serialize_annotations(matrix)
        doc["subjects"][0] = "s 1\x00\U0001f600"
        assert load_annotations(dumps(doc), narrative).subject_ids[0] == "s 1\x00\U0001f600"


def load_rows(subjects: list, rows: list):
    """load_annotations of rows under subjects, against a made-up transcript of 2 sites."""
    doc = {"narrative_id": "m", "subjects": subjects, "sites": 2, "matrix": rows}
    return load_annotations(dumps(doc), made_up_transcript("m", 2))


class TestAnnotationMatrixConstruction:
    """The loader holds rows to the file format's 0/1 rule, before any cast."""

    @pytest.mark.parametrize("cell", ["1", 0.5, 1.9, True, None])
    def test_bad_cell_named(self, cell):
        with pytest.raises(ValidationError) as excinfo:
            load_rows(["a", "b"], [[0, 1], [1, cell]])
        assert str(excinfo.value) == "matrix[1][1]: expected 0 or 1"

    @pytest.mark.parametrize("row", [[1], [1, 0, 1], 5, None])
    def test_ragged_row_named(self, row):
        with pytest.raises(ValidationError) as excinfo:
            load_rows(["a", "b"], [[0, 1], row])
        assert str(excinfo.value) == "matrix[1]: expected 2 cells"


class TestAnnotationMatrixSubjectIds:
    """The loader holds subject ids to their rule, with its messages."""

    @pytest.mark.parametrize("bad", ["", 1, None, ["s"]])
    def test_non_string_or_empty_id(self, bad):
        with pytest.raises(SchemaError) as excinfo:
            load_rows(["a", bad], [[0, 1], [1, 0]])
        assert str(excinfo.value) == "subjects: expected a list of non-empty strings"

    @pytest.mark.parametrize("bad", CELL_BREAKING_IDS)
    def test_cell_breaking_id(self, bad):
        with pytest.raises(SchemaError) as excinfo:
            load_rows(["a", "b", bad], [[0, 1], [1, 0], [1, 1]])
        assert str(excinfo.value) == "subjects[2]: expected no tab or line break"


class TestManifestLoading:
    def test_paths_resolve_against_the_manifest(self, tmp_path):
        absolute = (tmp_path / "elsewhere" / "a.json").resolve()
        path = tmp_path / "batch.json"
        path.write_text(json.dumps({
            "items": [{"narrative": "n.json", "annotations": str(absolute), "coding": "c.json"},
                      {"narrative": "n2.json", "annotations": "a2.json"}],
            "cues": "cues.txt",
        }))
        manifest = load_manifest(path)
        assert tuple(manifest.items()) == (
            (tmp_path / "n.json", absolute, tmp_path / "c.json"),
            (tmp_path / "n2.json", tmp_path / "a2.json", None),
        )
        assert manifest.cues == tmp_path / "cues.txt"
        assert manifest.format == "tsv"

    @pytest.mark.parametrize("entry", [3, "n.json", None, ["n.json", "a.json"]])
    def test_item_that_is_no_object(self, entry):
        manifest = load_manifest(dumps({"items": [entry]}))
        with pytest.raises(ValidationError) as excinfo:
            next(manifest.items())
        assert str(excinfo.value) == "items[0]: each item needs narrative and annotations paths"

    def test_fields_are_checked_when_read(self):
        doc = {"items": [{"narrative": "n.json", "annotations": "a.json"}, {"narrative": 5}],
               "cues": 5, "format": "xml"}
        manifest = load_manifest(dumps(doc))
        items = manifest.items()
        assert next(items) == (Path("n.json"), Path("a.json"), None)
        with pytest.raises(SchemaError, match=r"^items\[1\]\.narrative: expected a path string$"):
            next(items)
        with pytest.raises(SchemaError, match=r"^cues: expected a path string$"):
            manifest.cues
        with pytest.raises(ValidationError, match="^manifest format must be .* got 'xml'$"):
            manifest.format


def spans_of(coding: FicCoding) -> list[list[str]]:
    """Each clause's [start, end] phrase ids."""
    return [fic["span"] for fic in serialize_fic_coding(coding)["fics"]]


class TestFicCodingLoading:
    def test_single_clause_fixture(self, bicycle):
        _, coding = bicycle
        assert coding.indices == range(25, 26)
        (fic,) = serialize_fic_coding(coding)["fics"]
        assert fic["span"] == ["16.1", "16.2"]
        wheels = fic["nps"][1]
        assert wheels["referent"] == coding.referents[1] == 13
        assert wheels["inferential"] == [[13, "r1", 12]]
        assert coding.junction_sites == {}

    def test_round_trip(self, three_link):
        narrative, coding = three_link
        again = load_fic_coding(dumps(serialize_fic_coding(coding)), narrative)
        assert again == coding
        assert again.junction_sites == coding.junction_sites

    def test_junction_sites_total_over_adjacent_pairs(self, three_link):
        _, coding = three_link
        spans = spans_of(coding)
        assert list(coding.junction_sites) == [(1, 2), (2, 3), (3, 4)]
        assert list(coding.junction_sites.values()) == [0, 1, 2]
        assert all(spans[n][1] != spans[n + 1][0] for n in range(3))

    def test_intra_phrase_junction_flagged(self, shared_phrase):
        _, coding = shared_phrase
        spans = spans_of(coding)
        # Clauses 6 and 7 share phrase 3.1; clause 8 starts the next phrase.
        assert spans[0][1] == spans[1][0]
        assert coding.junction_sites[(6, 7)] == 0
        assert spans[1][1] != spans[2][0]
        assert coding.junction_sites[(7, 8)] == 0

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
        spans = spans_of(coding)
        assert spans[1][1] == spans[2][0]
        assert coding.junction_sites[(2, 3)] is None

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

    def test_first_faulty_relation_in_the_file_is_named(self):
        narrative = load_narrative(dumps(toy_transcript()))
        for rels, problem in (([[1, "r1", 0], [1, "r9", 2]], "relation target must be positive"),
                              ([[1, "r9", 2], [1, "r1", 0]], "unknown relation tag 'r9'"),
                              ([[1, "r1", 2], [3, "r1", 2], [2, "r1", 2]],
                               "relation source 3 differs from the NP's referent 1")):
            doc = planted(toy_coding(), ("fics", 1, "nps", 0, "inferential"), rels)
            with pytest.raises(SchemaError) as excinfo:
                load_fic_coding(dumps(doc), narrative)
            assert str(excinfo.value) == f"fics[1].nps[0]: fic 2 NP 'he': {problem}"

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


class TestIndexOf:
    """A phrase's position by its id text, as a coding file's span gives it."""

    def test_each_id_text_gives_its_position(self):
        narrative = load_narrative(dumps(toy_transcript()))
        assert [narrative.index_of(pid) for pid in TOY_IDS] == list(range(len(TOY_IDS)))

    @pytest.mark.parametrize(
        "bad", ["9.9", "01.1", "1.1 ", "1.1.1", "", "1,1", (1, 1), ["1.1"], 1, None], ids=repr)
    def test_only_an_id_text_of_the_narrative_is_found(self, bad):
        narrative = load_narrative(dumps(toy_transcript()))
        with pytest.raises(ValidationError) as excinfo:
            narrative.index_of(bad)
        assert str(excinfo.value) == f"narrative toy: no phrase {bad}"


class TestSiteLabels:
    def test_labels_render_phrase_pairs(self, pear9):
        narrative, _ = pear9
        mask = np.zeros(11, dtype=np.int64)
        mask[[10, 0]] = 1
        assert narrative.site_labels(mask) == ("3.3→4.1", "8.4→9.1")
        assert narrative.site_labels(mask.tolist()) == ("3.3→4.1", "8.4→9.1")
        assert narrative.site_labels(np.zeros(11, dtype=np.int64)) == ()

    @pytest.mark.parametrize("shape", [(0,), (1,), (10,), (12,), (11, 11), (1, 11), ()])
    def test_a_mask_of_another_shape_is_refused(self, pear9, shape):
        narrative, _ = pear9
        with pytest.raises(ValidationError) as excinfo:
            narrative.site_labels(np.ones(shape, dtype=np.int64))
        assert str(excinfo.value) == (
            f"narrative pear-09-excerpt: a site mask of shape {shape}, not (11,)")

    @pytest.mark.parametrize("form", [
        lambda mask: mask, list, tuple, lambda mask: mask.astype(bool),
        lambda mask: mask.astype(np.int8), lambda mask: mask.astype(np.uint8),
    ], ids=["int64", "list", "tuple", "bool", "int8", "uint8"])
    def test_every_mask_form_gives_the_same_labels(self, pear9, form):
        narrative, _ = pear9
        mask = np.zeros(11, dtype=np.int64)
        mask[[0, 3, 10]] = 1
        assert narrative.site_labels(form(mask)) == ("3.3→4.1", "4.3→5.1", "8.4→9.1")

    @pytest.mark.parametrize("name", ["pear9_excerpt", "shared_phrase", "three_link_tests",
                                      "bicycle_wheels"])
    def test_each_site_of_a_shipped_narrative(self, name):
        narrative = load_narrative(fixture_path(f"{name}_narrative.json"))
        ids, sites = narrative.ids, narrative.site_count
        assert sites == len(ids) - 1
        units = np.eye(sites, dtype=np.int64)
        labels = [f"{ids[k]}→{ids[k + 1]}" for k in range(sites)]
        assert [narrative.site_labels(unit) for unit in units] == [(label,) for label in labels]
        assert narrative.site_labels(np.ones(sites, dtype=np.int64)) == tuple(labels)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(hst.one_of(hst.lists(hst.integers(0, 1), min_size=11, max_size=11),
                      hst.lists(hst.integers(0, 1), max_size=14)))
    def test_labels_equal_the_per_site_loop(self, pear9, cells):
        narrative, _ = pear9
        mask = np.array(cells, dtype=np.int64)
        if len(cells) != narrative.site_count:
            with pytest.raises(ValidationError, match=rf"^narrative pear-09-excerpt: a site mask "
                               rf"of shape \({len(cells)},\), not \(11,\)$"):
                narrative.site_labels(mask)
            return
        ids = narrative.ids
        labels = []
        for k, cell in enumerate(cells):
            if cell:
                labels.append(f"{ids[k]}→{ids[k + 1]}")
        assert narrative.site_labels(mask) == tuple(labels)


class TestTopLevelShape:
    """A file whose top level is no object is named by its path, or <file>."""

    @pytest.mark.parametrize("top, kind", [([], "list"), ("x", "str"), (3, "int"), (None, "NoneType")])
    def test_transcript(self, tmp_path, top, kind):
        path = tmp_path / "n.json"
        path.write_text(json.dumps(top))
        with pytest.raises(SchemaError) as excinfo:
            load_narrative(path)
        assert str(excinfo.value) == f"{path}: expected an object, got {kind}"
        with pytest.raises(SchemaError, match=f"^<file>: expected an object, got {kind}$"):
            load_narrative(dumps(top))

    @pytest.mark.parametrize("fixture, load", [
        ("pear9", load_annotations), ("three_link", load_fic_coding),
    ], ids=["annotations", "coding"])
    def test_file_read_against_a_transcript(self, request, tmp_path, fixture, load):
        narrative, _ = request.getfixturevalue(fixture)
        path = tmp_path / "a.json"
        path.write_text("[1, 2]")
        with pytest.raises(SchemaError) as excinfo:
            load(str(path), narrative)
        assert str(excinfo.value) == f"{path}: expected an object, got list"
        with pytest.raises(SchemaError, match="^<file>: expected an object, got list$"):
            load(b"[1, 2]", narrative)


# A five-phrase transcript and a five-clause coding of it; clause k spans
# phrase k and holds two NPs, the second with no optional field.
TOY_IDS = ["1.1", "1.2", "2.1", "3.1", "3.2"]
DELETE = object()


def toy_transcript():
    return {"narrative_id": "toy", "phrases": [
        {"id": pid, "sentence_final": k % 2 == 1, "pause_before": 0.25 if k else None,
         "pause_truncated": False, "text": ["word", str(k)]}
        for k, pid in enumerate(TOY_IDS)
    ]}


def toy_coding():
    return {"narrative_id": "toy", "fics": [
        {"index": k + 1, "span": [pid, pid], "nps": [
            {"form": "he", "referent": 1, "pronoun3": True, "inferential": [[1, "r1", 2]]},
            {"form": "the pears", "referent": 2},
        ]}
        for k, pid in enumerate(TOY_IDS)
    ]}


def planted(doc, path, value):
    """A copy of doc with the value at path replaced, or deleted for DELETE."""
    doc = copy.deepcopy(doc)
    *parents, last = path
    target = doc
    for step in parents:
        target = target[step]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return doc


ID_TEXT = "phrase id must look like 's.p', e.g. '3.1': "
LISTS = "expected a non-empty list of non-empty strings"
# Canonical in form, but its sentence part is past int()'s 4300-digit limit.
LONG_ID = "1" * 4301 + ".1"
# Each element field's faults as (value, problem). The problems are the
# per-element walk's texts, which the column pass must not change.
PHRASE_FAULTS = {
    "id": [(DELETE, "missing field"), (11, ID_TEXT + "11"), (["1.1"], ID_TEXT + "['1.1']"),
           (True, ID_TEXT + "True"), ("03.1", ID_TEXT + "'03.1'"), ("1.1 ", ID_TEXT + "'1.1 '"),
           ("+1.1", ID_TEXT + "'+1.1'"), ("1_0.1", ID_TEXT + "'1_0.1'"), ("0.1", ID_TEXT + "'0.1'"),
           (LONG_ID, ID_TEXT + repr(LONG_ID))],
    "sentence_final": [(DELETE, "missing field"), ("yes", "expected true or false"),
                       (1, "expected true or false"), (None, "expected true or false")],
    "pause_before": [(DELETE, "missing field"), ("long", "expected number or null"),
                     (True, "expected number or null"), ([0.5], "expected number or null"),
                     (10**400, "expected number or null")],
    "pause_truncated": [("no", "expected true or false"), (0, "expected true or false")],
    "text": [(DELETE, "missing field"), ("word", LISTS), ([3], LISTS), ([], LISTS),
             (["ok", ""], LISTS), (True, LISTS)],
}
FIC_FAULTS = {
    "index": [(DELETE, "missing field"), ("1", "expected a positive integer"),
              (True, "expected a positive integer"), (1.0, "expected a positive integer"),
              (0, "expected a positive integer")],
    "span": [(DELETE, "missing field"), ("1.1", "expected a [start, end] pair"),
             (["1.1"], "expected a [start, end] pair"), (True, "expected a [start, end] pair"),
             (["1.1", "1.1", "1.1"], "expected a [start, end] pair"),
             ([11, "1.1"], ID_TEXT + "11"), (["1.1", True], ID_TEXT + "True"),
             (["1.1", None], ID_TEXT + "None"), ([["1.1"], "1.1"], ID_TEXT + "['1.1']"),
             (["03.1", "1.1"], ID_TEXT + "'03.1'"), (["1.1", "1.1 "], ID_TEXT + "'1.1 '"),
             (["+1.1", "1.1"], ID_TEXT + "'+1.1'"), (["1_0.1", "1.1"], ID_TEXT + "'1_0.1'"),
             (["1.1", LONG_ID], ID_TEXT + repr(LONG_ID)),
             (["8.8", "8.8"], "narrative toy: no phrase 8.8"),
             (["1.1", "9.9"], "narrative toy: no phrase 9.9")],
    "nps": [(DELETE, "missing field"), ("he", "expected a list"), ({}, "expected a list"),
            (True, "expected a list")],
}
NP_FAULTS = {
    "form": [(DELETE, "missing field"), (3, "expected a non-empty string"),
             ("", "expected a non-empty string"), (True, "expected a non-empty string")],
    "referent": [(DELETE, "missing field"), ("1", "expected an integer"),
                 (True, "expected an integer"), (1.5, "expected an integer")],
    "pronoun3": [("yes", "expected true or false"), (1, "expected true or false"),
                 (None, "expected true or false")],
    "inferential": [("r1", "expected a list"), ({}, "expected a list"), (True, "expected a list")],
}
BAD_RELATIONS = [[[1, "r1"]], [[True, "r1", 2]], [[1, 2, 2]], [[1, "r1", 2.0]], ["x"],
                 [[1, "r1", 2, 3]], [[1, "r1", 2], [1, "r2"]]]
NOT_OBJECTS = [([], "list"), ("1.1", "str"), (3, "int"), (None, "NoneType"), (True, "bool")]
FIRST_MIDDLE_LAST = (0, 2, 4)
# The NP at the first, a middle and the last place of the coding's ten.
NP_PLACES = ((0, 0), (2, 1), (4, 1))


def transcript_faults():
    """(document, the message) for every single top-level and phrase fault."""
    base = toy_transcript()
    for value in (3, None, ""):
        yield planted(base, ("narrative_id",), value), "narrative_id: expected a non-empty string"
    for value in ("1.1", {}):
        yield planted(base, ("phrases",), value), "phrases: expected a list"
    yield planted(base, ("phrases",), []), "phrases: narrative toy: needs at least 2 phrases (got 0)"
    for k in FIRST_MIDDLE_LAST:
        at = f"phrases[{k}]"
        for key, faults in PHRASE_FAULTS.items():
            for value, problem in faults:
                yield planted(base, ("phrases", k, key), value), f"{at}.{key}: {problem}"
        for value, kind in NOT_OBJECTS:
            yield planted(base, ("phrases", k), value), f"{at}: expected an object, got {kind}"
        # Out of order: a phrase takes its neighbour's id.
        twin = TOY_IDS[k - 1] if k else TOY_IDS[1]
        yield planted(base, ("phrases", k, "id"), twin), (
            f"phrases: narrative toy: phrase ids out of order ({twin} then {twin})"
        )
        yield planted(base, ("phrases", k, "pause_before"), -1), (
            f"{at}: phrase {TOY_IDS[k]}: pause_before must be finite and non-negative"
        )


def coding_faults():
    """(document, the message) for every single top-level, clause, NP and relation fault."""
    base = toy_coding()
    for value in ({}, []):
        yield planted(base, ("fics",), value), "fics: expected a non-empty list"
    for n in FIRST_MIDDLE_LAST:
        at = f"fics[{n}]"
        for key, faults in FIC_FAULTS.items():
            for value, problem in faults:
                yield planted(base, ("fics", n, key), value), f"{at}.{key}: {problem}"
        for value, kind in NOT_OBJECTS:
            yield planted(base, ("fics", n), value), f"{at}: expected an object, got {kind}"
        # Out of order: a gap in the clause indices, a span running backwards.
        gap = 9 if n else 7
        pair = f"{gap} then 2" if n == 0 else f"{n} then {gap}"
        yield planted(base, ("fics", n, "index"), gap), (
            f"fics: coding toy: clause indices must be consecutive ({pair})"
        )
        back = [TOY_IDS[max(n, 1)], TOY_IDS[max(n, 1) - 1]]
        yield planted(base, ("fics", n, "span"), back), (
            f"{at}: fic {n + 1}: span end {back[1]} precedes start {back[0]}"
        )
    for n in (2, 4):  # a clause starting before the one before it ends
        yield planted(base, ("fics", n, "span"), [TOY_IDS[0], TOY_IDS[n]]), (
            f"fics: coding toy: clause {n + 1} starts at 1.1, before clause {n} ends at "
            f"{TOY_IDS[n - 1]}"
        )
    for n, m in NP_PLACES:
        at = f"fics[{n}].nps[{m}]"
        for key, faults in NP_FAULTS.items():
            for value, problem in faults:
                yield planted(base, ("fics", n, "nps", m, key), value), f"{at}.{key}: {problem}"
        for value, kind in NOT_OBJECTS:
            yield planted(base, ("fics", n, "nps", m), value), f"{at}: expected an object, got {kind}"
        for rels in BAD_RELATIONS:
            yield planted(base, ("fics", n, "nps", m, "inferential"), rels), (
                f"{at}.inferential[{len(rels) - 1}]: expected [source, tag, target]"
            )
        form, referent = ("he", 1) if m == 0 else ("the pears", 2)
        yield planted(base, ("fics", n, "nps", m, "inferential"), [[referent, "r9", 2]]), (
            f"{at}: fic {n + 1} NP '{form}': unknown relation tag 'r9'"
        )
        yield planted(base, ("fics", n, "nps", m, "referent"), 0), (
            f"{at}: fic {n + 1} NP '{form}': referent must be positive"
        )
        yield planted(base, ("fics", n, "nps", m, "inferential"), [[referent, "r1", 0]]), (
            f"{at}: fic {n + 1} NP '{form}': relation target must be positive"
        )


def _case_id(case):
    message = case[1]
    return message if len(message) < 200 else message[:80] + "..."


class TestEverySingleFaultIsNamed:
    """The exact text of each fault, at the first, a middle and the last element.

    The loaders are the one way to build a transcript, a panel or a coding, so
    none is built that skipped a rule.
    """

    def test_toy_files_load(self):
        narrative = load_narrative(dumps(toy_transcript()))
        coding = load_fic_coding(dumps(toy_coding()), narrative)
        assert len(narrative.ids) == len(coding.indices) == 5

    def test_only_the_loaders_build(self):
        narrative = load_narrative(dumps(toy_transcript()))
        for cls, loader in ((Narrative, "load_narrative"), (AnnotationMatrix, "load_annotations"),
                            (FicCoding, "load_fic_coding"),
                            (CueLexicon, "CueLexicon.from_file")):
            article = "an" if cls is AnnotationMatrix else "a"
            for args in ((), ("toy", ()), (narrative, ())):
                with pytest.raises(TypeError,
                                   match=f"^{article} {cls.__name__} is built by {loader}$"):
                    cls(*args)

    @pytest.mark.parametrize(
        "name", ["pear9_excerpt", "bicycle_wheels", "shared_phrase", "three_link_tests"])
    def test_shipped_fixtures_load(self, name):
        narrative = load_narrative(fixture_path(f"{name}_narrative.json"))
        if name != "pear9_excerpt":  # the one transcript shipped without a coding
            load_fic_coding(fixture_path(f"{name}_coding.json"), narrative)

    @pytest.mark.parametrize("case", list(transcript_faults()), ids=_case_id)
    def test_transcript(self, case):
        doc, message = case
        with pytest.raises(SchemaError) as excinfo:
            load_narrative(dumps(doc))
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("case", list(coding_faults()), ids=_case_id)
    def test_coding(self, case):
        doc, message = case
        narrative = load_narrative(dumps(toy_transcript()))
        with pytest.raises(SchemaError) as excinfo:
            load_fic_coding(dumps(doc), narrative)
        assert str(excinfo.value) == message


# Words, cue words, bracketed notations and punctuation-only tokens.
TOKENS = ["so", "the", "man", "um", "And", "A-nd", "[.5]", "..", "Oh.", "well"]


@hst.composite
def transcript_and_coding(draw):
    """A valid transcript and a valid coding of it."""
    count = draw(hst.integers(2, 7))
    ids, sentence, phrase = [], 1, 0
    for _ in range(count):
        if phrase and draw(hst.booleans()):
            sentence, phrase = sentence + draw(hst.integers(1, 3)), 1
        else:
            phrase += draw(hst.integers(1, 2))
        ids.append(f"{sentence}.{phrase}")
    phrases = []
    for pid in ids:
        pause = draw(hst.none() | hst.sampled_from([0, 2]) | hst.floats(0, 5, allow_nan=False))
        raw = {"id": pid, "sentence_final": draw(hst.booleans()), "pause_before": pause,
               "text": draw(hst.lists(hst.sampled_from(TOKENS), min_size=1, max_size=3))}
        if draw(hst.booleans()):
            raw["pause_truncated"] = pause is not None and draw(hst.booleans())
        phrases.append(raw)
    clauses = draw(hst.integers(1, 5))
    ends = sorted(draw(hst.lists(hst.integers(0, count - 1), min_size=2 * clauses,
                                 max_size=2 * clauses)))
    first = draw(hst.integers(1, 30))
    fics = []
    for n in range(clauses):
        nps = []
        for _ in range(draw(hst.integers(0, 2))):
            referent = draw(hst.integers(1, 4))
            raw_np = {"form": draw(hst.sampled_from(["he", "the pears", "a goat"])),
                      "referent": referent}
            if draw(hst.booleans()):
                raw_np["pronoun3"] = draw(hst.booleans())
            if draw(hst.booleans()):
                raw_np["inferential"] = draw(hst.lists(hst.tuples(
                    hst.just(referent), hst.sampled_from(sorted(corpus.RELATION_TAGS)),
                    hst.integers(1, 4)).map(list), max_size=2))
            nps.append(raw_np)
        fics.append({"index": first + n, "span": [ids[ends[2 * n]], ids[ends[2 * n + 1]]],
                     "nps": nps})
    return ({"narrative_id": "drawn", "phrases": phrases},
            {"narrative_id": "drawn", "fics": fics})


def _field_faults(table):
    return [(key, value) for key, faults in table.items() for value, _ in faults]


# Faults that stay inside one element: the walk names the first such element.
LOCAL_FAULTS = {
    "phrase": _field_faults(PHRASE_FAULTS) + [(None, value) for value, _ in NOT_OBJECTS],
    "fic": _field_faults(FIC_FAULTS) + [(None, value) for value, _ in NOT_OBJECTS],
    "np": _field_faults(NP_FAULTS) + [("inferential", rels) for rels in BAD_RELATIONS]
          + [("inferential", [[99, "r1", 1]]), (None, [])],
}


def outcome(load, *args):
    """What a loader gives: an equality-comparable object, or the error text."""
    try:
        loaded = load(*args)
    except ValidationError as exc:
        return type(exc).__name__, str(exc)
    return loaded, getattr(loaded, "junction_sites", None)


def walked(load, *args):
    """The fault the per-element walk names when the column pass always finds one.

    None when the walk finds no fault (a valid file, or a rule across
    elements): the column pass's own KeyError then escapes the loader.
    """
    with mock.patch.object(corpus, "_columns", side_effect=KeyError):
        try:
            return outcome(load, *args)
        except KeyError:
            return None


class TestColumnPassAgreesWithTheWalk:
    """The column pass is never looser than the per-element walk, nor names another fault."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(files=transcript_and_coding(), data=hst.data())
    def test_planted_faults(self, files, data):
        transcript, coding = files
        target = data.draw(hst.sampled_from(["phrase", "fic", "np"]))
        if target == "phrase":
            doc, places = transcript, [("phrases", k) for k in range(len(transcript["phrases"]))]
        else:
            doc = coding
            places = [("fics", n) for n in range(len(coding["fics"]))]
            if target == "np":
                places = [("fics", n, "nps", m) for n, fic in enumerate(coding["fics"])
                          for m in range(len(fic["nps"]))]
        faults = data.draw(hst.integers(0, min(2, len(places))))
        chosen = sorted(data.draw(hst.sets(hst.integers(0, len(places) - 1),
                                           min_size=faults, max_size=faults))) if faults else []
        planted_docs = []
        for k in chosen:
            key, value = data.draw(hst.sampled_from(LOCAL_FAULTS[target]))
            path = places[k] if key is None else (*places[k], key)
            doc = planted(doc, path, value)
            planted_docs.append(planted(transcript if target == "phrase" else coding,
                                        path, value))
        if target == "phrase":
            load, args, first_alone = load_narrative, (dumps(doc),), (
                (dumps(planted_docs[0]),) if planted_docs else None)
        else:
            narrative = load_narrative(dumps(transcript))
            load, args, first_alone = load_fic_coding, (dumps(doc), narrative), (
                (dumps(planted_docs[0]), narrative) if planted_docs else None)
        got = outcome(load, *args)
        assert walked(load, *args) == (got if chosen else None)
        if not chosen:
            # A valid file is built by the column pass alone, holding what its document gives.
            with mock.patch.object(corpus, "_phrases_by_element", side_effect=AssertionError), \
                    mock.patch.object(corpus, "_fics_by_element", side_effect=AssertionError):
                assert outcome(load, *args) == got
            if target == "phrase":
                assert columns(got[0]) == transcript_columns(doc)
            else:
                assert serialize_fic_coding(got[0]) == coding_document(doc)
                assert got[1] == record_oracles(transcript, doc)["junction_sites"]
        elif len(chosen) == 2 and places[chosen[0]][:2] != places[chosen[1]][:2]:
            # Two faults in different elements: the first in document order is named.
            assert got == outcome(load, *first_alone)


# Cell and row faults of a panel: each is named at its cell, or at its row.
PANEL_FAULTS = [("cell", value) for value in (True, False, 2, 0.5, "1", None, [1])] + [
    ("row", change) for change in (lambda row: row[:-1], lambda row: row + [0],
                                   lambda row: 5, lambda row: None, lambda row: {})]


@hst.composite
def panel_docs(draw):
    """A valid annotation file of 1-5 subjects over 1-6 sites; a cell may be 0.0 or 1.0."""
    subjects, sites = draw(hst.integers(1, 5)), draw(hst.integers(1, 6))
    rows = draw(hst.lists(hst.lists(hst.sampled_from([0, 1, 0.0, 1.0]), min_size=sites,
                                    max_size=sites), min_size=subjects, max_size=subjects))
    return {"narrative_id": "drawn", "subjects": [f"s{k}" for k in range(subjects)],
            "sites": sites, "matrix": rows}


class TestAnnotationColumnPassAgreesWithTheWalk:
    """The panel's column pass is never looser than its located walk, nor names another fault."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(doc=panel_docs(), data=hst.data())
    def test_planted_faults(self, doc, data):
        sites, rows = doc["sites"], doc["matrix"]
        narrative = made_up_transcript("drawn", sites)
        places = [(r, k) for r in range(len(rows)) for k in range(sites)]
        chosen = data.draw(hst.lists(hst.sampled_from(places), max_size=2, unique=True))
        faults = [(*data.draw(hst.sampled_from(PANEL_FAULTS)), r, k) for r, k in chosen]
        row_faults = [r for kind, _, r, _ in faults if kind == "row"]
        assume(len(set(row_faults)) == len(row_faults))  # a second change could undo the first
        planted_doc = copy.deepcopy(doc)
        matrix, named = planted_doc["matrix"], []
        # Cells first ("cell" < "row"), so that a row fault can take the place of a row that
        # holds one; the walk names a row's width before any of its cells.
        for kind, fault, r, k in sorted(faults, key=itemgetter(0)):
            if kind == "row":
                matrix[r] = fault(matrix[r])
                named.append(((r, -1), f"matrix[{r}]: expected {sites} cells"))
            else:
                matrix[r][k] = fault
                named.append(((r, k), f"matrix[{r}][{k}]: expected 0 or 1"))
        args = dumps(planted_doc), narrative
        got = outcome(load_annotations, *args)
        with mock.patch.object(corpus, "_binary_rows", return_value=False):
            assert outcome(load_annotations, *args) == got
        if not faults:
            # A valid file is built by the column pass alone, holding its rows as int64.
            with mock.patch.object(corpus, "_matrix_by_element", side_effect=AssertionError):
                assert outcome(load_annotations, *args) == got
            assert got[0].cells.dtype == np.int64
            assert np.array_equal(got[0].cells, np.array(rows))
        else:
            # One fault, or the first of two in row-major order, at its place.
            assert got == ("SchemaError", min(named)[1])


# File-level faults of a 2 x 3 panel, in the order the loader reports them.
PANEL = {"narrative_id": "pair", "subjects": ["a", "b"], "sites": 3,
         "matrix": [[0, 1, 0], [1, 1, 0]]}
FILE_FAULTS = [  # (fields touched, the change, the message)
    ({"narrative_id"}, lambda doc: doc.update(narrative_id=3),
     "narrative_id: expected a non-empty string"),
    ({"narrative_id"}, lambda doc: doc.update(narrative_id="other"),
     "annotations are for 'other' but the transcript is 'pair'"),
    ({"subjects"}, lambda doc: doc.update(subjects="ab"),
     "subjects: expected a list of non-empty strings"),
    ({"subjects"}, lambda doc: doc.update(subjects=["a", "b\t"]),
     "subjects[1]: expected no tab or line break"),
    ({"sites"}, lambda doc: doc.update(sites=True), "sites: expected a positive integer"),
    ({"sites"}, lambda doc: doc.update(sites=4),
     "annotations declare 4 sites but narrative pair has 3"),
    ({"matrix", "rows", "row 0", "row 1"}, lambda doc: doc.pop("matrix"), "matrix: missing field"),
    ({"row 0"}, lambda doc: doc["matrix"][0].pop(), "matrix[0]: expected 3 cells"),
    ({"subjects"}, lambda doc: doc.update(subjects=[]), "subjects: expected at least one subject"),
    ({"matrix", "rows", "row 0", "row 1"}, lambda doc: doc.update(matrix={}),
     "matrix: expected 2 rows"),
    ({"rows"}, lambda doc: doc["matrix"].append([0, 0, 0]), "matrix: expected 2 rows"),
    ({"row 0"}, lambda doc: doc["matrix"][0].__setitem__(1, 0.5), "matrix[0][1]: expected 0 or 1"),
    ({"row 1"}, lambda doc: doc["matrix"].__setitem__(1, [1]), "matrix[1]: expected 3 cells"),
    ({"row 1"}, lambda doc: doc["matrix"][1].__setitem__(2, "1"), "matrix[1][2]: expected 0 or 1"),
    ({"subjects"}, lambda doc: doc.update(subjects=["a", "a"]),
     "matrix: subject ids must be distinct"),
]
FAULT_PAIRS = [(first, second) for first, second in itertools.combinations(FILE_FAULTS, 2)
               if not first[0] & second[0]]


class TestAnnotationFileFaults:
    """Of two faults in an annotation file, the one the loader checks first is named."""

    @pytest.mark.parametrize("fault", FILE_FAULTS, ids=lambda fault: fault[2])
    def test_alone(self, fault):
        self.assert_named([fault], fault[2])

    @pytest.mark.parametrize("first, second", FAULT_PAIRS,
                             ids=[f"{a[2]} + {b[2]}" for a, b in FAULT_PAIRS])
    def test_pair(self, first, second):
        self.assert_named([second, first], first[2])

    @staticmethod
    def assert_named(faults, message):
        doc = copy.deepcopy(PANEL)
        for _, change, _ in faults:
            change(doc)
        with pytest.raises(ValidationError) as excinfo:
            load_annotations(dumps(doc), made_up_transcript("pair", 3))
        assert str(excinfo.value) == message


# Each clause, NP and coding rule that the column pass checks, planted alone
# in the toy coding, with its located message.
COLUMN_RULES = [
    (("fics", 2, "nps", 1, "referent"), 0,
     "fics[2].nps[1]: fic 3 NP 'the pears': referent must be positive"),
    (("fics", 2, "nps", 0, "inferential"), [[1, "r6", 2]],
     "fics[2].nps[0]: fic 3 NP 'he': unknown relation tag 'r6'"),
    (("fics", 2, "nps", 0, "inferential"), [[1, "r1", 2], [2, "r1", 1]],
     "fics[2].nps[0]: fic 3 NP 'he': relation source 2 differs from the NP's referent 1"),
    (("fics", 2, "nps", 0, "inferential"), [[1, "r1", 0]],
     "fics[2].nps[0]: fic 3 NP 'he': relation target must be positive"),
    (("fics", 2, "span"), ["3.1", "2.1"], "fics[2]: fic 3: span end 2.1 precedes start 3.1"),
    (("fics", 2, "index"), 5, "fics: coding toy: clause indices must be consecutive (2 then 5)"),
    (("fics",), [], "fics: expected a non-empty list"),
    (("fics", 2, "span"), ["1.1", "2.1"],
     "fics: coding toy: clause 3 starts at 1.1, before clause 2 ends at 1.2"),
]


# Each phrase id, phrase and transcript rule that the column pass checks,
# planted alone in the toy transcript, with its located message.
TRANSCRIPT_RULES = [
    (("phrases", 2, "pause_before"), value,
     "phrases[2]: phrase 2.1: pause_before must be finite and non-negative")
    for value in (float("nan"), float("inf"), -0.5)
] + [
    (("phrases", 0, "pause_truncated"), True,
     "phrases[0]: phrase 1.1: pause_truncated set without a pause_before value"),
    (("phrases", 3, "pause_before"), 10**400, "phrases[3].pause_before: expected number or null"),
    (("phrases", 1, "text"), [], f"phrases[1].text: {LISTS}"),
    (("phrases", 4, "text"), ["a", ""], f"phrases[4].text: {LISTS}"),
    (("phrases", 4, "text"), ["a", 3], f"phrases[4].text: {LISTS}"),
    (("phrases",), [toy_transcript()["phrases"][0]],
     "phrases: narrative toy: needs at least 2 phrases (got 1)"),
    (("phrases", 3, "id"), "2.1", "phrases: narrative toy: phrase ids out of order (2.1 then 2.1)"),
]


class TestColumnRules:
    """Each rule the column pass checks, planted alone, is named as the walk names it.

    A rule across elements (its message located at the list, not at one
    element) is the narrative's or the coding's own; the walk finds no fault there.
    """

    @pytest.mark.parametrize("path, value, message", TRANSCRIPT_RULES, ids=lambda x: str(x)[:40])
    def test_planted_alone_in_a_transcript(self, path, value, message):
        doc = dumps(planted(toy_transcript(), path, value))
        got = outcome(load_narrative, doc)
        assert got == ("SchemaError", message)
        assert walked(load_narrative, doc) == (got if message.startswith("phrases[") else None)

    @pytest.mark.parametrize("path, value, message", COLUMN_RULES, ids=lambda x: str(x)[:40])
    def test_planted_alone(self, path, value, message):
        narrative = load_narrative(dumps(toy_transcript()))
        doc = dumps(planted(toy_coding(), path, value))
        got = outcome(load_fic_coding, doc, narrative)
        assert got == ("SchemaError", message)
        assert walked(load_fic_coding, doc, narrative) == (
            got if message.startswith("fics[") else None)

    @pytest.mark.parametrize("path, value, message", TRANSCRIPT_RULES + COLUMN_RULES,
                             ids=lambda x: str(x)[:40])
    def test_every_public_construction_path_checks_the_rules(self, tmp_path, path, value,
                                                             message):
        """A path, its text, the bytes and a byte or text stream of a file give one message."""
        if message.startswith("phrases"):
            load, args, doc = load_narrative, (), planted(toy_transcript(), path, value)
        else:
            load, args = load_fic_coding, (load_narrative(dumps(toy_transcript())),)
            doc = planted(toy_coding(), path, value)
        raw = dumps(doc)
        file = tmp_path / "planted.json"
        file.write_bytes(raw)
        for source in (file, str(file), raw, io.BytesIO(raw), io.StringIO(raw.decode())):
            assert outcome(load, source, *args) == ("SchemaError", message)


TRANSCRIPT_COLUMNS = ("narrative_id", "ids", "id_ints", "tokens", "token_offsets",
                      "sentence_finals", "pauses", "truncated")


def columns(narrative: Narrative) -> dict:
    return {name: getattr(narrative, name) for name in TRANSCRIPT_COLUMNS}


def transcript_columns(doc) -> dict:
    """The columns of a valid transcript document, read phrase by phrase."""
    phrases = doc["phrases"]
    offsets = [0]
    for raw in phrases:
        offsets.append(offsets[-1] + len(raw["text"]))
    return {
        "narrative_id": doc["narrative_id"],
        "ids": tuple(raw["id"] for raw in phrases),
        "id_ints": tuple(int(part) for raw in phrases for part in raw["id"].split(".")),
        "tokens": tuple(token for raw in phrases for token in raw["text"]),
        "token_offsets": tuple(offsets),
        "sentence_finals": tuple(raw["sentence_final"] for raw in phrases),
        "pauses": tuple(None if raw["pause_before"] is None else float(raw["pause_before"])
                        for raw in phrases),
        "truncated": tuple(raw.get("pause_truncated", False) for raw in phrases),
    }


def coding_document(doc) -> dict:
    """A valid coding document with each NP's optional fields filled with their defaults and
    its relations, a set, as a sorted list without repeats."""
    return {"narrative_id": doc["narrative_id"], "fics": [
        {"index": fic["index"], "span": list(fic["span"]), "nps": [
            {"form": np_["form"], "referent": np_["referent"],
             "pronoun3": np_.get("pronoun3", False),
             "inferential": sorted(map(list, set(map(tuple, np_.get("inferential", [])))))}
            for np_ in fic["nps"]
        ]}
        for fic in doc["fics"]
    ]}


# Single-field changes to the toy transcript and coding that keep them valid.
TRANSCRIPT_CHANGES = [
    (("narrative_id",), "other"), (("phrases", 2, "id"), "2.2"),
    (("phrases", 2, "text"), ["word", "3"]), (("phrases", 2, "sentence_final"), True),
    (("phrases", 2, "pause_before"), 0.5), (("phrases", 2, "pause_truncated"), True),
    (("phrases", 0, "pause_before"), 0),
]
CODING_CHANGES = [
    (("fics", 4, "span"), ["3.1", "3.2"]), (("fics", 2, "nps", 0, "form"), "she"),
    (("fics", 2, "nps", 1, "referent"), 3), (("fics", 2, "nps", 1, "pronoun3"), True),
    (("fics", 2, "nps", 0, "inferential"), [[1, "r2", 2]]),
    (("fics", 2, "nps"), [{"form": "he", "referent": 1}]),
]


class TestNarrativeColumns:
    """A loaded transcript or coding holds what its document gives, and compares and hashes
    by it."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(files=transcript_and_coding())
    def test_a_loaded_transcript_holds_its_documents_columns(self, files):
        doc = files[0]
        phrases, expected = doc["phrases"], transcript_columns(doc)
        loaded, again = load_narrative(dumps(doc)), load_narrative(dumps(doc))
        assert columns(loaded) == expected
        assert list(map(type, loaded.pauses)) == list(map(type, expected["pauses"]))
        assert (loaded, hash(loaded)) == (again, hash(again))
        pairs = [f"{left['id']}→{right['id']}" for left, right in zip(phrases, phrases[1:])]
        assert loaded.site_labels(np.ones(loaded.site_count, dtype=np.int64)) == tuple(pairs)
        assert serialize_narrative(loaded) == {**doc, "phrases": [
            {"pause_truncated": False, **raw} for raw in phrases]}
        lexicon = default_cue_lexicon()
        cues = [first_word(raw["text"]) in lexicon for raw in phrases[1:]]
        pauses = [raw["pause_before"] is not None
                  and (raw["pause_before"] > 0 or raw.get("pause_truncated", False))
                  for raw in phrases[1:]]
        # Each segmenter's mask is the per-site loop's marks, and its labels those sites'
        # phrase pairs.
        for mask, marks in ((cue_segment(loaded, lexicon), cues), (pause_segment(loaded), pauses)):
            assert (type(mask), mask.dtype) == (np.ndarray, np.int64)
            assert mask.tolist() == list(map(int, marks))
            assert loaded.site_labels(mask) == tuple(compress(pairs, marks))
            with pytest.raises(ValidationError, match=r"^narrative .*: a site mask of shape "
                               rf"\(\d+,\), not \({loaded.site_count},\)$"):
                loaded.site_labels(mask[1:])

    def test_integer_pauses_are_stored_as_floats(self):
        doc = planted(planted(toy_transcript(), ("phrases", 1, "pause_before"), 0),
                      ("phrases", 2, "pause_before"), 2)
        narrative = load_narrative(dumps(doc))
        assert narrative.pauses[1:3] == (0.0, 2.0)
        assert [type(p) for p in narrative.pauses[1:3]] == [float, float]
        assert serialize_narrative(narrative)["phrases"][1]["pause_before"] == 0.0

    @pytest.mark.parametrize("path, value", TRANSCRIPT_CHANGES, ids=lambda x: str(x)[:30])
    def test_one_transcript_field_changes_equality(self, path, value):
        base, changed = toy_transcript(), planted(toy_transcript(), path, value)
        loaded, again = (load_narrative(dumps(changed)) for _ in range(2))
        assert columns(loaded) == transcript_columns(changed)
        assert (loaded, hash(loaded)) == (again, hash(again))
        assert loaded != load_narrative(dumps(base))

    @pytest.mark.parametrize("path, value", CODING_CHANGES, ids=lambda x: str(x)[:30])
    def test_one_coding_field_changes_equality(self, path, value):
        narrative, twin = (load_narrative(dumps(toy_transcript())) for _ in range(2))
        base = load_fic_coding(dumps(toy_coding()), narrative)
        changed = planted(toy_coding(), path, value)
        loaded, again = (load_fic_coding(dumps(changed), n) for n in (narrative, twin))
        assert serialize_fic_coding(loaded) == coding_document(changed)
        assert (loaded, hash(loaded)) == (again, hash(again))
        assert loaded != base

    def test_codings_differ_in_what_no_single_field_holds(self):
        """The same NPs in other clauses, the same relations on another NP, the same clauses
        under other indices or transcript."""
        narrative = load_narrative(dumps(toy_transcript()))
        linked = planted(toy_coding(), ("fics", 0, "nps", 1, "referent"), 1)
        relinked = planted(planted(linked, ("fics", 0, "nps", 0, "inferential"), []),
                           ("fics", 0, "nps", 1, "inferential"), [[1, "r1", 2]])
        assert load_fic_coding(dumps(relinked), narrative) != load_fic_coding(dumps(linked),
                                                                              narrative)
        base = load_fic_coding(dumps(toy_coding()), narrative)
        moved = toy_coding()
        moved["fics"][2]["nps"].insert(0, moved["fics"][1]["nps"].pop())
        shifted = toy_coding()
        for fic in shifted["fics"]:
            fic["index"] += 1
        other = load_narrative(dumps(planted(toy_transcript(), ("narrative_id",), "other")))
        for doc, against in ((moved, narrative), (shifted, narrative),
                             (planted(toy_coding(), ("narrative_id",), "other"), other)):
            loaded = load_fic_coding(dumps(doc), against)
            assert serialize_fic_coding(loaded) == coding_document(doc)
            assert loaded != base


def record_oracles(transcript, coding) -> dict:
    """The per-element views of a valid transcript and coding document, derived from
    the documents clause by clause, as the per-element columns once held them."""
    phrases, fics = transcript["phrases"], coding["fics"]
    position = {raw["id"]: k for k, raw in enumerate(phrases)}
    neighbours: dict[int, set[int]] = {}
    for fic in fics:
        for np_ in fic["nps"]:
            for src, _tag, tgt in np_.get("inferential", []):
                neighbours.setdefault(src, set()).add(tgt)
                neighbours.setdefault(tgt, set()).add(src)
    starts = [position[fic["span"][0]] for fic in fics]
    ends = [position[fic["span"][1]] for fic in fics]
    last = len(phrases) - 1
    junctions = {}
    for n in range(1, len(fics)):
        # A junction inside one phrase projects to the site at its end, if there is one.
        start = starts[n]
        site = start - 1 if start > ends[n - 1] else start if start < last else None
        junctions[fics[n - 1]["index"], fics[n]["index"]] = site
    return {
        "texts": tuple(tuple(raw["text"]) for raw in phrases),
        "clause_referents": [frozenset(np_["referent"] for np_ in fic["nps"]) for fic in fics],
        "pronoun_referents": [frozenset(np_["referent"] for np_ in fic["nps"]
                                        if np_.get("pronoun3")) for fic in fics],
        "neighbours": neighbours,
        "junction_sites": junctions,
    }


# A trace step's test outcomes, by the test that held (None: a boundary).
TEST_OUTCOMES = {
    "coreference": (("coreference", True),),
    "inference": (("coreference", False), ("inference", True)),
    "pronoun": (("coreference", False), ("inference", False), ("pronoun", True)),
    None: (("coreference", False), ("inference", False), ("pronoun", False)),
}


class TestColumnViews:
    """A loaded transcript and coding give the per-element views that the documents give,
    the np walk over their columns gives the reference walk, and the coding serializes as
    its document."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(files=transcript_and_coding())
    def test_views_and_walk(self, files):
        transcript, coding_doc = files
        oracles = record_oracles(transcript, coding_doc)
        narrative = load_narrative(dumps(transcript))
        assert narrative.texts == oracles["texts"]
        coding = load_fic_coding(dumps(coding_doc), narrative)
        assert coding.junction_sites == oracles["junction_sites"]
        assert {referent: set(peers) for referent, peers in coding.peers.items()} == (
            oracles["neighbours"])
        segmentation = np_segment(coding)
        boundaries, steps = np_oracle(coding_doc)
        assert segmentation.boundaries == boundaries
        assert [(linked_by, set(pool)) for linked_by, pool in segmentation.steps] == steps
        referents, pronouns = oracles["clause_referents"], oracles["pronoun_referents"]
        assert segmentation.trace == tuple(
            TraceStep(coding_doc["fics"][n]["index"], referents[n], frozenset(
                peer for referent in referents[n]
                for peer in oracles["neighbours"].get(referent, ())),
                      pronouns[n], TEST_OUTCOMES[linked_by], linked_by, pool)
            for n, (linked_by, pool) in enumerate(steps, start=1))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(files=transcript_and_coding())
    def test_a_coding_serializes_as_its_document(self, files):
        transcript, coding_doc = files
        narrative = load_narrative(dumps(transcript))
        coding = load_fic_coding(dumps(coding_doc), narrative)
        assert serialize_fic_coding(coding) == coding_document(coding_doc)

    @pytest.mark.parametrize(
        "name", ["pear9_excerpt", "bicycle_wheels", "shared_phrase", "three_link_tests"])
    def test_shipped_files_serialize_as_their_documents(self, name):
        path = fixture_path(f"{name}_narrative.json")
        transcript = json.loads(path.read_text(encoding="utf-8"))
        narrative = load_narrative(path)
        assert serialize_narrative(narrative) == {**transcript, "phrases": [
            {"pause_truncated": False, **raw} for raw in transcript["phrases"]]}
        if name != "pear9_excerpt":  # the one transcript shipped without a coding
            path = fixture_path(f"{name}_coding.json")
            coding = load_fic_coding(path, narrative)
            doc = json.loads(path.read_text(encoding="utf-8"))
            assert serialize_fic_coding(coding) == coding_document(doc)


def long_files(clauses: int = 60) -> tuple[dict, dict]:
    """A transcript of one phrase a clause, and a coding whose every clause has a
    pronoun, two linked NPs and three relations."""
    ids = [f"{k}.1" for k in range(1, clauses + 1)]
    transcript = {"narrative_id": "long", "phrases": [
        {"id": pid, "sentence_final": True, "pause_before": 0.5,
         "text": ["[.5]", "and", "then", "he", "left"]}
        for pid in ids
    ]}
    coding = {"narrative_id": "long", "fics": [
        {"index": k + 1, "span": [pid, pid], "nps": [
            {"form": "he", "referent": 1, "pronoun3": True, "inferential": [[1, "r1", k + 2]]},
            {"form": "a pear", "referent": k + 2,
             "inferential": [[k + 2, "r2", 1], [k + 2, "r3", k + 3]]},
            {"form": "the tree", "referent": k + 3},
        ]}
        for k, pid in enumerate(ids)
    ]}
    return transcript, coding


class TestLoadedFilesKeepFlatColumns:
    """A loaded file keeps no container per phrase, clause, NP or relation."""

    def test_tracked_objects_kept_after_a_collection(self):
        transcript, coding = map(dumps, long_files())
        load_fic_coding(coding, load_narrative(transcript))  # first-call caches, if any
        kept = []

        def tracked() -> int:
            gc.collect()
            return len(gc.get_objects())

        before = tracked()
        kept.append(load_narrative(transcript))
        after_narrative = tracked()
        kept.append(load_fic_coding(coding, kept[0]))
        after_coding = tracked()
        assert len(kept[1].indices) >= 50
        assert after_narrative - before < 20
        assert after_coding - after_narrative < 20
