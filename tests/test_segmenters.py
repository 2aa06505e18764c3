"""The three boundary-proposing algorithms and site normalization."""

from __future__ import annotations

import dataclasses
import json
from importlib import resources
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from segtool import (
    CueLexicon,
    ValidationError,
    cue_segment,
    default_cue_lexicon,
    load_fic_coding,
    load_narrative,
    normalize_to_sites,
    np_segment,
    pause_segment,
    serialize_fic_coding,
    serialize_narrative,
)
from segtool import segmenters
from segtool.segmenters import first_lexical_token, normalize_token, segment_by


def phrase(pid, tokens, pause=None, truncated=False, final=True):
    """One phrase of a transcript document."""
    return {"id": pid, "text": list(tokens), "sentence_final": final, "pause_before": pause,
            "pause_truncated": truncated}


def marked(mask) -> frozenset[int]:
    """The sites a 0/1 site mask marks."""
    return frozenset(np.flatnonzero(mask).tolist())


def assert_site_mask(mask, narrative) -> None:
    """A boundary set's one form: an int64 0/1 vector over the narrative's sites."""
    assert isinstance(mask, np.ndarray)
    assert (mask.dtype, mask.shape) == (np.int64, (narrative.site_count,))
    assert set(mask.tolist()) <= {0, 1}


def narrative_of(narrative_id, phrases):
    """The loaded transcript of phrase documents."""
    doc = {"narrative_id": narrative_id, "phrases": list(phrases)}
    return load_narrative(json.dumps(doc).encode())


def coding_doc(narrative_id, clauses):
    """clauses: list of (index, span_pair, [(referent, pronoun3, relations)])."""
    return {"narrative_id": narrative_id, "fics": [
        {"index": index, "span": list(span), "nps": [
            {"form": f"np{referent}", "referent": referent, "pronoun3": pronoun3,
             "inferential": [list(rel) for rel in relations]}
            for referent, pronoun3, relations in nps
        ]}
        for index, span, nps in clauses
    ]}


def coding_from(narrative, clauses):
    """The loaded coding of narrative that the clauses give."""
    doc = coding_doc(narrative.narrative_id, clauses)
    return load_fic_coding(json.dumps(doc).encode(), narrative)


class TestTokenNormalization:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("A-nd", "and"),
            ("a-nd", "and"),
            ("Oh.", "oh"),
            ("/you", "you"),
            ("know/", "know"),
            ("don't,", "don't"),
            ("basket.", "basket"),
            ("he-", "he"),
        ],
    )
    def test_normalize(self, raw, expected):
        assert normalize_token(raw) == expected

    @given(hst.text(hst.one_of(hst.sampled_from("-'.,[]09aZİßéK\u212a"), hst.characters()),
                    max_size=12))
    def test_plain_words_skip_the_regex_with_the_same_result(self, token):
        assert normalize_token(token) == segmenters._EDGE_PUNCT.sub(
            "", token.lower().replace("-", ""))

    def test_first_lexical_skips_pause_and_noise_tokens(self):
        assert first_lexical_token(["[.9]", "A-nd", "um"]) == "and"
        assert first_lexical_token(["[.35]", "..", "...", "he-"]) == "he"
        assert first_lexical_token(["[.2]", "[1.15]"]) is None

    @settings(max_examples=300, deadline=None)
    @given(hst.lists(hst.lists(hst.one_of(
        hst.sampled_from(["[.9]", "[1.15]", "[laughs]", "..", "...", "-", "'", "A-nd", "he-",
                          "And", "SO", "Oh.", "Über", "éé", "İ", "ß", "\u212a", "don't,", "0"]),
        hst.text(hst.sampled_from("-'.,[]09aZİßéK\u212a"), min_size=1, max_size=5),
    ), max_size=5), max_size=8))
    def test_first_words_are_first_lexical_tokens(self, texts):
        """The one-call memo of cue_segment, over the lists as a flat token column with
        offsets, gives each list's first word, as the loop does."""

        def first_word(tokens):
            for token in tokens:
                if token.startswith("[") or not segmenters._HAS_ALPHA.search(token):
                    continue
                word = normalize_token(token)
                if word:
                    return word
            return None

        expected = [first_word(tokens) for tokens in texts]
        assert [first_lexical_token(tokens) for tokens in texts] == expected
        tokens = [token for tokens in texts for token in tokens]
        offsets = list(accumulate(map(len, texts), initial=0))
        assert segmenters._first_words(tokens, offsets) == expected


class TestCueLexicon:
    def test_default_contents(self):
        lexicon = default_cue_lexicon()
        assert lexicon.label == "builtin"
        assert "and" in lexicon
        assert "because" in lexicon
        # A bare exclamation opens phrases without signalling structure, so
        # the default list leaves it out.
        assert "oh" not in lexicon

    def test_default_reads_the_packaged_file(self):
        path = resources.files("segtool").joinpath("data/cue_words.txt")
        assert default_cue_lexicon().words == CueLexicon.from_file(str(path)).words

    def test_from_file(self, tmp_path):
        path = tmp_path / "cues.txt"
        path.write_text("# comment\nAnd\nwell  # trailing\n\nnow\n")
        lexicon = CueLexicon.from_file(path)
        assert lexicon.words == frozenset({"and", "well", "now"})

    def test_byte_order_mark_is_not_part_of_the_first_word(self, tmp_path):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes(b"and\nso\n")
        marked.write_bytes(b"\xef\xbb\xbfand\nso\n")
        assert CueLexicon.from_file(marked).words == CueLexicon.from_file(plain).words

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "cues.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(ValidationError) as excinfo:
            CueLexicon.from_file(path)
        assert str(excinfo.value) == f"{path}: no cue words found"

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "cues.txt"
        path.write_text("")
        with pytest.raises(ValidationError) as excinfo:
            CueLexicon.from_file(path)
        assert str(excinfo.value) == f"{path}: no cue words found"

    def test_rejects_multiword(self, tmp_path):
        path = tmp_path / "cues.txt"
        path.write_text("you know\n")
        with pytest.raises(ValidationError) as excinfo:
            CueLexicon.from_file(path)
        assert str(excinfo.value) == f"{path}:1: cue entries must be single words, got 'you know'"

    def test_multiword_message_counts_every_line(self, tmp_path):
        path = tmp_path / "cues.txt"
        path.write_text("# cues\n\nwell\na b  # two words\n")
        with pytest.raises(ValidationError) as excinfo:
            CueLexicon.from_file(path)
        assert str(excinfo.value) == f"{path}:4: cue entries must be single words, got 'a b'"

    def test_constructor_validation(self):
        with pytest.raises(ValidationError, match="^cue lexicon must be non-empty$"):
            CueLexicon(frozenset())
        for word in ("And", "So"):
            with pytest.raises(ValidationError) as excinfo:
                CueLexicon(frozenset({word}))
            assert str(excinfo.value) == (
                f"cue lexicon entries must be single lowercase words: {word!r}"
            )


class TestCueSegmenter:
    def test_fixture_marks(self, pear9):
        narrative, _ = pear9
        assert marked(cue_segment(narrative)) == frozenset({1, 10})

    def test_oh_phrase_not_marked(self, pear9):
        narrative, _ = pear9
        # Site 3 precedes the bare "Oh." phrase; the default lexicon must
        # not fire there.
        assert 3 not in marked(cue_segment(narrative))

    def test_custom_lexicon(self, pear9):
        narrative, _ = pear9
        maybe_only = CueLexicon(frozenset({"maybe"}))
        assert marked(cue_segment(narrative, maybe_only)) == frozenset({9})

    def test_first_phrase_never_yields_a_site(self):
        narrative = narrative_of(
            "n",
            (
                phrase("1.1", ["and", "so", "on"]),
                phrase("1.2", ["more"]),
            ),
        )
        assert marked(cue_segment(narrative)) == frozenset()

    @settings(max_examples=60, deadline=None)
    @given(
        hst.lists(
            hst.sampled_from(["and", "well", "now", "so", "the", "cat", "ran"]),
            min_size=2,
            max_size=8,
        ),
        hst.sets(hst.sampled_from(["and", "well", "now", "so"]), min_size=1),
        hst.sets(hst.sampled_from(["the", "cat", "ran"]), min_size=0),
    )
    def test_larger_lexicon_only_adds_sites(self, openers, base, extra):
        narrative = narrative_of(
            "n",
            tuple(
                phrase(f"{k}.1", [word, "rest"]) for k, word in enumerate(openers, 1)
            ),
        )
        small = cue_segment(narrative, CueLexicon(frozenset(base)))
        large = cue_segment(narrative, CueLexicon(frozenset(base | extra)))
        assert (small <= large).all()


class TestPauseSegmenter:
    def test_fixture_marks(self, pear9):
        narrative, _ = pear9
        assert marked(pause_segment(narrative)) == frozenset({0, 1, 3, 5, 6, 9, 10})

    def test_duration_is_ignored_beyond_presence(self, pear9):
        narrative, _ = pear9
        doc = serialize_narrative(narrative)
        flattened = narrative_of(
            narrative.narrative_id,
            (
                {**p, "pause_before": None if p["pause_before"] is None else 1.0,
                 "pause_truncated": False}
                for p in doc["phrases"]
            ),
        )
        assert pause_segment(flattened).tolist() == pause_segment(narrative).tolist()

    def test_zero_pause_counts_only_when_truncated(self):
        narrative = narrative_of(
            "n",
            (
                phrase("1.1", ["a"]),
                phrase("1.2", ["b"], pause=0.0),
                phrase("1.3", ["c"], pause=0.0, truncated=True),
            ),
        )
        assert pause_segment(narrative).tolist() == [0, 1]


class TestNpSegmenter:
    def test_three_link_cascade(self, three_link):
        _, coding = three_link
        result = np_segment(coding)
        assert result.boundaries == ((3, 4),)
        step2, step3, step4 = result.trace
        assert step2.linked_by == "coreference"
        assert step2.tests == (("coreference", True),)
        assert step3.linked_by == "inference"
        assert step3.tests == (("coreference", False), ("inference", True))
        assert step4.linked_by is None
        assert step4.tests == (
            ("coreference", False),
            ("inference", False),
            ("pronoun", False),
        )

    def test_segment_pool_resets_at_boundary(self, three_link):
        _, coding = three_link
        result = np_segment(coding)
        assert result.trace[1].segment_referents == frozenset({1, 2})
        assert result.trace[2].segment_referents == frozenset({3})

    def test_shared_phrase_boundaries(self, shared_phrase):
        _, coding = shared_phrase
        result = np_segment(coding)
        assert result.boundaries == ((6, 7), (7, 8))

    def test_single_clause_has_no_decisions(self, bicycle):
        _, coding = bicycle
        result = np_segment(coding)
        assert result.boundaries == ()
        assert result.trace == ()

    def test_pronoun_link_reaches_back_past_previous_clause(self):
        narrative = narrative_of(
            "n",
            (
                phrase("1.1", ["a", "farmer", "stood", "by", "a", "tree"]),
                phrase("2.1", ["the", "tree", "swayed"]),
                phrase("3.1", ["he", "waved"]),
            ),
        )
        coding = coding_from(
            narrative,
            [
                (1, ("1.1", "1.1"), [(1, False, []), (2, False, [])]),
                (2, ("2.1", "2.1"), [(2, False, [])]),
                (3, ("3.1", "3.1"), [(1, True, [])]),
            ],
        )
        result = np_segment(coding)
        assert result.boundaries == ()
        assert result.trace[1].linked_by == "pronoun"
        assert result.trace[1].tests[-1] == ("pronoun", True)

    def test_pronoun_outside_segment_does_not_link(self):
        narrative = narrative_of(
            "n",
            (
                phrase("1.1", ["a", "farmer"]),
                phrase("2.1", ["a", "goat"]),
                phrase("3.1", ["the", "ladder", "and", "he"]),
            ),
        )
        coding = coding_from(
            narrative,
            [
                (1, ("1.1", "1.1"), [(1, False, [])]),
                (2, ("2.1", "2.1"), [(2, False, [])]),
                (3, ("3.1", "3.1"), [(3, False, []), (1, True, [])]),
            ],
        )
        result = np_segment(coding)
        # The pronoun's referent was mentioned before the last boundary, so
        # it cannot hold the segment open.
        assert result.boundaries == ((1, 2), (2, 3))

    def test_inferential_link_works_in_either_direction(self):
        narrative = narrative_of(
            "n",
            (
                phrase("1.1", ["wheels"]),
                phrase("2.1", ["the", "bicycle"]),
            ),
        )
        # The relation is stored on the first clause's NP; the second
        # clause's referent is its target.
        coding = coding_from(
            narrative,
            [
                (1, ("1.1", "1.1"), [(13, False, [(13, "r1", 12)])]),
                (2, ("2.1", "2.1"), [(12, False, [])]),
            ],
        )
        result = np_segment(coding)
        assert result.boundaries == ()
        assert result.trace[0].linked_by == "inference"

    def test_trace_pool_is_union_of_segment_clauses(self):
        import numpy as np

        rng = np.random.default_rng(53)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            narrative = narrative_of(
                "n", tuple(phrase(f"{k}.1", ["w"]) for k in range(1, n + 1))
            )
            clauses = []
            for index in range(1, n + 1):
                nps = []
                for _ in range(int(rng.integers(1, 4))):
                    referent = int(rng.integers(1, 7))
                    pronoun3 = bool(rng.random() < 0.3)
                    relations = []
                    if rng.random() < 0.3:
                        relations.append((referent, "r1", int(rng.integers(1, 7))))
                    nps.append((referent, pronoun3, relations))
                clauses.append((index, (f"{index}.1", f"{index}.1"), nps))
            coding = coding_from(narrative, clauses)
            result = np_segment(coding)

            # Re-derive the running pool from the clause referent sets and
            # the emitted boundaries alone.
            referents = {index: {referent for referent, _, _ in nps}
                         for index, _, nps in clauses}
            cuts = {right for _left, right in result.boundaries}
            pool = set(referents[1])
            for step in result.trace:
                if step.fic in cuts:
                    pool = set(referents[step.fic])
                else:
                    pool |= referents[step.fic]
                assert step.segment_referents == pool

    def test_rerun_stability(self, three_link):
        _, coding = three_link
        payloads = set()
        for _ in range(5):
            result = np_segment(coding)
            payloads.add(
                json.dumps(
                    {
                        "boundaries": list(result.boundaries),
                        "trace": [
                            [step.fic, step.linked_by, sorted(step.segment_referents)]
                            for step in result.trace
                        ],
                    }
                )
            )
        assert len(payloads) == 1


def np_oracle(doc):
    """The np walk by the letter of its rule over a coding document, as (boundaries,
    per-clause steps).

    Nothing is carried from one clause to the next but the position of the
    open segment's first clause: the pool and the inferential links are
    rebuilt from the clauses at every step. A step is (linked_by, pool).
    """
    fics = doc["fics"]
    referents = [{np_["referent"] for np_ in fic["nps"]} for fic in fics]
    boundaries, steps, start = [], [], 0
    for n in range(1, len(fics)):
        current, previous = referents[n], referents[n - 1]
        links = {frozenset((src, tgt)) for fic in fics for np_ in fic["nps"]
                 for src, _tag, tgt in np_.get("inferential", [])}
        pool = set().union(*referents[start:n])
        pronouns = {np_["referent"] for np_ in fics[n]["nps"] if np_.get("pronoun3")}
        if current & previous:
            linked_by = "coreference"
        elif any(frozenset((r, p)) in links for r in current for p in previous):
            linked_by = "inference"
        elif pronouns & pool:
            linked_by = "pronoun"
        else:
            linked_by = None
            boundaries.append((fics[n - 1]["index"], fics[n]["index"]))
            start = n
        steps.append((linked_by, set().union(*referents[start:n + 1])))
    return tuple(boundaries), steps


@hst.composite
def random_codings(draw):
    """A one-phrase-per-clause coding, plus a final uncoded phrase, with random
    referents, pronouns and inferential links, as (narrative, coding, coding document).

    Each NP may carry an inferential link to any referent, so links run both
    forward and backward in the narrative.
    """
    referent = hst.integers(1, 8)
    size = draw(hst.integers(1, 12))
    narrative = narrative_of("n", tuple(phrase(f"{k}.1", ["w"]) for k in range(1, size + 2)))
    clauses = []
    for index in range(1, size + 1):
        nps = []
        for ref in draw(hst.lists(referent, min_size=1, max_size=3)):
            targets = draw(hst.lists(referent, max_size=2))
            nps.append((ref, draw(hst.booleans()), [(ref, "r1", t) for t in targets]))
        clauses.append((index, (f"{index}.1", f"{index}.1"), nps))
    return narrative, coding_from(narrative, clauses), coding_doc("n", clauses)


class TestNpWalkOracle:
    @settings(max_examples=300, deadline=None)
    @given(case=random_codings())
    def test_both_walks_match_the_oracle(self, case):
        narrative, coding, doc = case
        boundaries, steps = np_oracle(doc)
        traced = np_segment(coding)
        sites, untraced = segment_by("np", narrative, coding)
        assert traced.boundaries == untraced.boundaries == boundaries
        assert (untraced, untraced.trace) == (traced, traced.trace)
        # Clause n spans phrase n.1 alone, so the junction after it is site n - 1.
        assert_site_mask(sites, narrative)
        assert marked(sites) == {left - 1 for left, _ in boundaries}
        assert np.array_equal(sites, normalize_to_sites(traced))
        assert [(step.linked_by, step.segment_referents) for step in traced.trace] == steps

    @settings(max_examples=200, deadline=None)
    @given(case=random_codings())
    def test_a_loaded_coding_walks_its_columns(self, case):
        """A coding reloaded from its serialized document equals the coding, and the walks
        over its columns give the oracle's walk over that document."""
        narrative, coding, doc = case
        written = serialize_fic_coding(coding)
        loaded = load_fic_coding(json.dumps(written).encode(), narrative)
        assert (loaded, hash(loaded)) == (coding, hash(coding))
        assert loaded.junction_sites == coding.junction_sites
        boundaries, steps = np_oracle(written)
        assert (boundaries, steps) == np_oracle(doc)
        traced = np_segment(loaded)
        sites, untraced = segment_by("np", narrative, loaded)
        assert traced.boundaries == untraced.boundaries == boundaries
        assert np.array_equal(sites, normalize_to_sites(traced))
        assert [(step.linked_by, step.segment_referents) for step in traced.trace] == steps

    @settings(max_examples=200, deadline=None)
    @given(case=random_codings())
    def test_each_step_names_the_first_test_whose_set_meets(self, case):
        """A step's test sets are full sets, and the first that meets its own target decides."""
        _, coding, doc = case
        segmentation = np_segment(coding)
        clause_sets = [{np_["referent"] for np_ in fic["nps"]} for fic in doc["fics"]]
        pool = clause_sets[0]
        for n, step in enumerate(segmentation.trace, start=1):
            previous = clause_sets[n - 1]
            met = [name for name, referents, target in (
                ("coreference", step.clause_referents, previous),
                ("inference", step.inferable_referents, previous),
                ("pronoun", step.pronoun_referents, pool),
            ) if referents & target]
            assert step.linked_by == (met[0] if met else None)
            assert step.inferable_referents == {
                peer for referent in step.clause_referents
                for peer in coding.peers.get(referent, ())}
            pool = step.segment_referents


class TestTraceView:
    def test_steps_hold_each_decision(self, three_link):
        _, coding = three_link
        segmentation = np_segment(coding)
        assert segmentation.coding is coding
        assert segmentation.steps == tuple(
            (step.linked_by, step.segment_referents) for step in segmentation.trace
        )

    def test_a_second_read_builds_no_step(self, three_link, monkeypatch):
        segmentation = np_segment(three_link[1])
        built, step = [], segmenters.TraceStep

        def counted(*fields):
            built.append(fields)
            return step(*fields)

        monkeypatch.setattr(segmenters, "TraceStep", counted)
        first = segmentation.trace
        assert len(built) == len(first) == 3
        assert segmentation.trace is first
        assert len(built) == 3

    def test_segmentations_of_different_codings_differ(self):
        """A link behind a coreference tie leaves the steps alone but changes the trace."""
        narrative = narrative_of("n", (phrase("1.1", ["the", "man"]), phrase("2.1", ["he", "left"])))
        first = (1, ("1.1", "1.1"), [(5, False, [])])
        plain = np_segment(coding_from(narrative, [first, (2, ("2.1", "2.1"), [(5, False, [])])]))
        linked = np_segment(coding_from(
            narrative, [first, (2, ("2.1", "2.1"), [(5, False, [(5, "r1", 5)])])]
        ))
        assert (plain.boundaries, plain.steps) == (linked.boundaries, linked.steps)
        assert plain.trace[0].inferable_referents == frozenset()
        assert linked.trace[0].inferable_referents == frozenset({5})
        assert plain != linked
        assert plain == np_segment(
            coding_from(narrative, [first, (2, ("2.1", "2.1"), [(5, False, [])])])
        )


class TestSegmentBy:
    def test_each_method_runs_its_segmenter(self, three_link):
        narrative, coding = three_link
        lexicon = CueLexicon(frozenset({"and"}))
        segmentation = np_segment(coding)
        sites, segmented = segment_by("np", narrative, coding)
        assert np.array_equal(sites, normalize_to_sites(segmentation))
        assert segmented == segmentation
        assert segmented.trace == segmentation.trace
        for (mask, none), want in (
            (segment_by("cue", narrative, lexicon=lexicon), cue_segment(narrative, lexicon)),
            (segment_by("cue", narrative), cue_segment(narrative)),
            (segment_by("pause", narrative), pause_segment(narrative)),
        ):
            assert none is None
            assert np.array_equal(mask, want)

    @pytest.mark.parametrize("fixture, method", [
        *((name, method) for name in ("three_link", "shared_phrase", "bicycle")
          for method in ("np", "cue", "pause")),
        ("pear9", "cue"), ("pear9", "pause"),
    ])
    def test_every_method_gives_a_site_mask(self, request, fixture, method):
        narrative, coding = request.getfixturevalue(fixture)
        coding = None if fixture == "pear9" else coding
        mask, segmentation = segment_by(method, narrative, coding)
        assert_site_mask(mask, narrative)
        direct = {"cue": lambda: cue_segment(narrative), "pause": lambda: pause_segment(narrative),
                  "np": lambda: normalize_to_sites(np_segment(coding))}[method]()
        assert_site_mask(direct, narrative)
        assert np.array_equal(mask, direct)
        assert (segmentation is None) == (method != "np")

    def test_unknown_method(self, pear9):
        with pytest.raises(ValidationError, match="^unknown segmentation method 'humans'$"):
            segment_by("humans", pear9[0])

    def test_np_needs_a_coding(self, pear9):
        with pytest.raises(ValidationError, match="^method np needs a clause coding$"):
            segment_by("np", pear9[0])


class TestNormalizeToSites:
    def test_merges_shared_phrase_boundaries(self, shared_phrase):
        narrative, coding = shared_phrase
        result = np_segment(coding)
        # Both clause junctions lie inside phrase 3.1, so both project to the site at its end.
        assert result.boundaries == ((6, 7), (7, 8))
        assert coding.junction_sites == {(6, 7): 0, (7, 8): 0}
        sites = normalize_to_sites(result)
        assert sites.tolist() == [1]
        assert narrative.site_labels(sites) == ("3.1→3.2",)

    def test_three_link_projection(self, three_link):
        _, coding = three_link
        assert marked(normalize_to_sites(np_segment(coding))) == frozenset({2})

    def test_final_phrase_junction_dropped(self):
        narrative = narrative_of(
            "n",
            (
                phrase("1.1", ["a"]),
                phrase("2.1", ["b", "c"]),
            ),
        )
        coding = coding_from(
            narrative,
            [
                (1, ("1.1", "1.1"), [(1, False, [])]),
                (2, ("2.1", "2.1"), [(2, False, [])]),
                (3, ("2.1", "2.1"), [(3, False, [])]),
            ],
        )
        result = np_segment(coding)
        assert result.boundaries == ((1, 2), (2, 3))
        # (1,2) lands on site 0; (2,3) sits inside the final phrase and has
        # no site to land on.
        assert coding.junction_sites == {(1, 2): 0, (2, 3): None}
        assert normalize_to_sites(result).tolist() == [1]

    @pytest.mark.parametrize("fixture", ["shared_phrase", "three_link", "bicycle"])
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=hst.data())
    def test_mask_equals_the_per_junction_loop(self, request, fixture, data):
        """Any subset of the clause junctions lands on the sites junction_sites gives them."""
        narrative, coding = request.getfixturevalue(fixture)
        junctions = list(coding.junction_sites)
        chosen = data.draw(hst.lists(hst.sampled_from(junctions), unique=True)
                           if junctions else hst.just([]))
        segmentation = dataclasses.replace(np_segment(coding), boundaries=tuple(sorted(chosen)))
        expected = [0] * narrative.site_count
        for junction in chosen:
            site = coding.junction_sites[junction]
            if site is not None:
                expected[site] = 1
        mask = normalize_to_sites(segmentation)
        assert_site_mask(mask, narrative)
        assert mask.tolist() == expected

    def test_cardinality_never_grows(self, shared_phrase, three_link):
        for _, coding in (shared_phrase, three_link):
            result = np_segment(coding)
            sites = normalize_to_sites(result)
            assert sites.sum() <= len(result.boundaries)
        _, link_coding = three_link
        no_intra = normalize_to_sites(np_segment(link_coding))
        assert no_intra.sum() == len(np_segment(link_coding).boundaries)
