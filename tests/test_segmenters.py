"""The three boundary-proposing algorithms and site normalization."""

from __future__ import annotations

import json
from importlib import resources
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from segtool import (
    CueLexicon,
    Fic,
    FicCoding,
    Narrative,
    PhraseId,
    ProsodicPhrase,
    ReferentialNp,
    ValidationError,
    cue_segment,
    default_cue_lexicon,
    load_fic_coding,
    normalize_to_sites,
    np_segment,
    pause_segment,
    serialize_fic_coding,
)
from segtool import segmenters
from segtool.segmenters import first_lexical_token, normalize_token, segment_by


def phrase(pid, tokens, pause=None, truncated=False, final=True):
    return ProsodicPhrase(
        id=PhraseId.parse(pid),
        text=tuple(tokens),
        sentence_final=final,
        pause_before=pause,
        pause_truncated=truncated,
    )


def coding_from(narrative, clauses):
    """clauses: list of (index, span_pair, [(referent, pronoun3, relations)])."""
    fics = []
    for index, span, nps in clauses:
        fics.append(
            Fic(
                index=index,
                phrase_span=(PhraseId.parse(span[0]), PhraseId.parse(span[1])),
                nps=tuple(
                    ReferentialNp(
                        fic=index,
                        surface=f"np{referent}",
                        referent=referent,
                        pronoun3=pronoun3,
                        inferential=frozenset(relations),
                    )
                    for referent, pronoun3, relations in nps
                ),
            )
        )
    return FicCoding(narrative, fics)


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
        assert cue_segment(narrative).sites == frozenset({1, 10})

    def test_oh_phrase_not_marked(self, pear9):
        narrative, _ = pear9
        # Site 3 precedes the bare "Oh." phrase; the default lexicon must
        # not fire there.
        assert 3 not in cue_segment(narrative).sites

    def test_custom_lexicon(self, pear9):
        narrative, _ = pear9
        maybe_only = CueLexicon(frozenset({"maybe"}))
        assert cue_segment(narrative, maybe_only).sites == frozenset({9})

    def test_first_phrase_never_yields_a_site(self):
        narrative = Narrative(
            "n",
            (
                phrase("1.1", ["and", "so", "on"]),
                phrase("1.2", ["more"]),
            ),
        )
        assert cue_segment(narrative).sites == frozenset()

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
        narrative = Narrative(
            "n",
            tuple(
                phrase(f"{k}.1", [word, "rest"]) for k, word in enumerate(openers, 1)
            ),
        )
        small = cue_segment(narrative, CueLexicon(frozenset(base)))
        large = cue_segment(narrative, CueLexicon(frozenset(base | extra)))
        assert small.sites <= large.sites


class TestPauseSegmenter:
    def test_fixture_marks(self, pear9):
        narrative, _ = pear9
        assert pause_segment(narrative).sites == frozenset({0, 1, 3, 5, 6, 9, 10})

    def test_duration_is_ignored_beyond_presence(self, pear9):
        narrative, _ = pear9
        flattened = Narrative(
            narrative.narrative_id,
            tuple(
                ProsodicPhrase(
                    p.id,
                    p.text,
                    p.sentence_final,
                    None if p.pause_before is None else 1.0,
                    False,
                )
                for p in narrative.phrases
            ),
        )
        assert pause_segment(flattened).sites == pause_segment(narrative).sites

    def test_zero_pause_counts_only_when_truncated(self):
        narrative = Narrative(
            "n",
            (
                phrase("1.1", ["a"]),
                phrase("1.2", ["b"], pause=0.0),
                phrase("1.3", ["c"], pause=0.0, truncated=True),
            ),
        )
        assert pause_segment(narrative).sites == frozenset({1})


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
        narrative = Narrative(
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
        narrative = Narrative(
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
        narrative = Narrative(
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
            narrative = Narrative(
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
            referents = {fic.index: {np_.referent for np_ in fic.nps} for fic in coding.fics}
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


def np_oracle(coding):
    """The np walk by the letter of its rule, as (boundaries, per-clause steps).

    Nothing is carried from one clause to the next but the position of the
    open segment's first clause: the pool and the inferential links are
    rebuilt from the clauses at every step. A step is (linked_by, pool).
    """
    fics = coding.fics
    boundaries, steps, start = [], [], 0
    for n in range(1, len(fics)):
        current = {np_.referent for np_ in fics[n].nps}
        previous = {np_.referent for np_ in fics[n - 1].nps}
        links = {frozenset((src, tgt)) for fic in fics for np_ in fic.nps
                 for src, _tag, tgt in np_.inferential}
        pool = {np_.referent for fic in fics[start:n] for np_ in fic.nps}
        pronouns = {np_.referent for np_ in fics[n].nps if np_.pronoun3}
        if current & previous:
            linked_by = "coreference"
        elif any(frozenset((r, p)) in links for r in current for p in previous):
            linked_by = "inference"
        elif pronouns & pool:
            linked_by = "pronoun"
        else:
            linked_by = None
            boundaries.append((fics[n - 1].index, fics[n].index))
            start = n
        steps.append((linked_by, {np_.referent for fic in fics[start:n + 1] for np_ in fic.nps}))
    return tuple(boundaries), steps


@hst.composite
def random_codings(draw):
    """A one-phrase-per-clause coding, plus a final uncoded phrase, with random
    referents, pronouns and inferential links.

    Each NP may carry an inferential link to any referent, so links run both
    forward and backward in the narrative.
    """
    referent = hst.integers(1, 8)
    size = draw(hst.integers(1, 12))
    narrative = Narrative("n", tuple(phrase(f"{k}.1", ["w"]) for k in range(1, size + 2)))
    clauses = []
    for index in range(1, size + 1):
        nps = []
        for ref in draw(hst.lists(referent, min_size=1, max_size=3)):
            targets = draw(hst.lists(referent, max_size=2))
            nps.append((ref, draw(hst.booleans()), [(ref, "r1", t) for t in targets]))
        clauses.append((index, (f"{index}.1", f"{index}.1"), nps))
    return narrative, coding_from(narrative, clauses)


class TestNpWalkOracle:
    @settings(max_examples=300, deadline=None)
    @given(case=random_codings())
    def test_both_walks_match_the_oracle(self, case):
        narrative, coding = case
        boundaries, steps = np_oracle(coding)
        traced = np_segment(coding)
        sites, untraced = segment_by("np", narrative, coding)
        assert traced.boundaries == untraced.boundaries == boundaries
        assert (untraced, untraced.trace) == (traced, traced.trace)
        assert sites == normalize_to_sites(traced, coding)
        assert [(step.linked_by, step.segment_referents) for step in traced.trace] == steps

    @settings(max_examples=200, deadline=None)
    @given(case=random_codings())
    def test_a_loaded_coding_walks_its_columns(self, case):
        """The loader keeps columns; the walks read them, the oracle the records built from them."""
        narrative, coding = case
        loaded = load_fic_coding(json.dumps(serialize_fic_coding(coding)).encode(), narrative)
        traced = np_segment(loaded)
        sites, untraced = segment_by("np", narrative, loaded)
        assert loaded.fics == coding.fics
        assert loaded.site_map == coding.site_map
        boundaries, steps = np_oracle(loaded)
        assert traced.boundaries == untraced.boundaries == boundaries
        assert sites == normalize_to_sites(traced, coding)
        assert [(step.linked_by, step.segment_referents) for step in traced.trace] == steps


    @settings(max_examples=200, deadline=None)
    @given(case=random_codings())
    def test_each_step_names_the_first_test_whose_set_meets(self, case):
        """A step's test sets are full sets, and the first that meets its own target decides."""
        _, coding = case
        segmentation = np_segment(coding)
        pool = coding.clause_referents[0]
        for n, step in enumerate(segmentation.trace, start=1):
            previous = coding.clause_referents[n - 1]
            met = [name for name, referents, target in (
                ("coreference", step.clause_referents, previous),
                ("inference", step.inferable_referents, previous),
                ("pronoun", step.pronoun_referents, pool),
            ) if referents & target]
            assert step.linked_by == (met[0] if met else None)
            assert step.inferable_referents == {
                peer for referent in step.clause_referents
                for peer in coding.neighbours.get(referent, ())}
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
        narrative = Narrative("n", (phrase("1.1", ["the", "man"]), phrase("2.1", ["he", "left"])))
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
        assert (sites, segmented) == (normalize_to_sites(segmentation, coding), segmentation)
        assert segmented.trace == segmentation.trace
        assert segment_by("cue", narrative, lexicon=lexicon) == (
            cue_segment(narrative, lexicon), None
        )
        assert segment_by("cue", narrative) == (cue_segment(narrative), None)
        assert segment_by("pause", narrative) == (pause_segment(narrative), None)

    def test_unknown_method(self, pear9):
        with pytest.raises(ValidationError, match="^unknown segmentation method 'humans'$"):
            segment_by("humans", pear9[0])

    def test_np_needs_a_coding(self, pear9):
        with pytest.raises(ValidationError, match="^method np needs a clause coding$"):
            segment_by("np", pear9[0])


class TestNormalizeToSites:
    def test_merges_shared_phrase_boundaries(self, shared_phrase):
        _, coding = shared_phrase
        result = np_segment(coding)
        assert normalize_to_sites(result, coding).sites == frozenset({0})

    def test_three_link_projection(self, three_link):
        _, coding = three_link
        assert normalize_to_sites(np_segment(coding), coding).sites == frozenset({2})

    def test_accepts_raw_pairs(self, shared_phrase):
        _, coding = shared_phrase
        assert normalize_to_sites(((6, 7), (7, 8)), coding).sites == frozenset({0})

    def test_unknown_pair_rejected(self, shared_phrase):
        _, coding = shared_phrase
        with pytest.raises(ValidationError):
            normalize_to_sites(((6, 8),), coding)

    def test_narrative_mismatch_rejected(self, shared_phrase, three_link):
        _, shared_coding = shared_phrase
        _, link_coding = three_link
        with pytest.raises(ValidationError):
            normalize_to_sites(np_segment(link_coding), shared_coding)

    def test_final_phrase_junction_dropped(self):
        narrative = Narrative(
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
        assert normalize_to_sites(result, coding).sites == frozenset({0})

    def test_cardinality_never_grows(self, shared_phrase, three_link):
        for _, coding in (shared_phrase, three_link):
            result = np_segment(coding)
            sites = normalize_to_sites(result, coding)
            assert len(sites.sites) <= len(result.boundaries)
        _, link_coding = three_link
        no_intra = normalize_to_sites(np_segment(link_coding), link_coding)
        assert len(no_intra.sites) == len(np_segment(link_coding).boundaries)
