"""Boundary-proposing algorithms over transcripts and clause codings.

Three algorithms are provided. The noun-phrase segmenter walks the coded
clauses in order and keeps the current segment open while the new clause is
referentially tied to what came before, by direct coreference with the
previous clause, by an inferential link to it, or by a third-person pronoun
whose referent is already in the segment; when all three ties fail it emits
a boundary between the two clauses. The cue-word and pause segmenters are
phrase-level baselines keyed on the first word of a phrase and on the
presence of any preceding pause.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .corpus import BoundarySet, FicCoding, Narrative
from .errors import ValidationError

COREFERENCE = "coreference"
INFERENCE = "inference"
PRONOUN = "pronoun"

_EDGE_PUNCT = re.compile(r"^[^a-z0-9]+|[^a-z0-9]+$")
_HAS_ALPHA = re.compile(r"[A-Za-z]")


def normalize_token(token: str) -> str:
    """Transcript token to plain lookup form.

    Lowercases, removes lengthening hyphens ("A-nd" to "and"), and strips
    punctuation from both edges while keeping word-internal apostrophes.
    """
    core = token.lower().replace("-", "")
    return _EDGE_PUNCT.sub("", core)


def first_lexical_token(tokens) -> str | None:
    """The first actual word of a phrase, normalized.

    Bracketed pause and noise notations and punctuation-only tokens do not
    count as words.
    """
    for token in tokens:
        if token.startswith("[") or not _HAS_ALPHA.search(token):
            continue
        word = normalize_token(token)
        if word:
            return word
    return None


@dataclass(frozen=True)
class CueLexicon:
    """A set of lowercase single-word cue forms with a provenance label."""

    words: frozenset[str]
    label: str = "custom"

    def __post_init__(self):
        if not self.words:
            raise ValidationError("cue lexicon must be non-empty")
        for word in self.words:
            if not word or word != word.lower() or re.search(r"\s", word):
                raise ValidationError(
                    f"cue lexicon entries must be single lowercase words: {word!r}"
                )

    def __contains__(self, word: str) -> bool:
        return word in self.words

    @classmethod
    def from_file(cls, path, label: str | None = None) -> "CueLexicon":
        """Read one word per line; blank lines and # comments are skipped."""
        words = set()
        try:
            text = Path(path).read_text(encoding="utf-8-sig")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not valid UTF-8: {exc}") from None
        for lineno, line in enumerate(text.splitlines(), start=1):
            entry = line.split("#", 1)[0].strip()
            if not entry:
                continue
            if re.search(r"\s", entry):
                raise ValidationError(
                    f"{path}:{lineno}: cue entries must be single words, got {entry!r}"
                )
            words.add(entry.lower())
        if not words:
            raise ValidationError(f"{path}: no cue words found")
        return cls(frozenset(words), label=label or str(path))


def default_cue_lexicon() -> CueLexicon:
    """The lexicon shipped with the package (data/cue_words.txt)."""
    path = resources.files("segtool").joinpath("data/cue_words.txt")
    return CueLexicon.from_file(str(path), label="builtin")


def _phrase_sites(narrative: Narrative, test) -> BoundarySet:
    """The site before every phrase after the first that passes test."""
    sites = [site for site, phrase in enumerate(narrative.phrases[1:]) if test(phrase)]
    return BoundarySet.of(narrative.narrative_id, sites)


def cue_segment(narrative: Narrative, lexicon: CueLexicon | None = None) -> BoundarySet:
    """Mark a boundary before every phrase that opens with a cue word."""
    if lexicon is None:
        lexicon = default_cue_lexicon()
    return _phrase_sites(narrative, lambda phrase: first_lexical_token(phrase.text) in lexicon)


def pause_segment(narrative: Narrative) -> BoundarySet:
    """Mark a boundary wherever adjacent phrases are separated by a pause.

    Presence is all that matters; durations are not thresholded. A
    truncated measurement counts as present whatever its recorded value.
    """

    def paused(phrase) -> bool:
        pause = phrase.pause_before
        return pause is not None and (pause > 0 or phrase.pause_truncated)

    return _phrase_sites(narrative, paused)


@dataclass(frozen=True)
class TraceStep:
    """One decision of the noun-phrase segmenter.

    tests lists the link tests in the order they were evaluated with their
    outcomes; linked_by names the test that held, or is None when a
    boundary was emitted before this clause. segment_referents is the open
    segment's referent pool after the decision.
    """

    fic: int
    clause_referents: frozenset[int]
    inferable_referents: frozenset[int]
    pronoun_referents: frozenset[int]
    tests: tuple[tuple[str, bool], ...]
    linked_by: str | None
    segment_referents: frozenset[int]


@dataclass(frozen=True)
class NpSegmentation:
    """Clause-level boundaries, plus the per-clause decision trace (None if not asked for)."""

    narrative_id: str
    boundaries: tuple[tuple[int, int], ...]
    trace: tuple[TraceStep, ...] | None


def _one_hop_neighbours(coding: FicCoding) -> dict[int, set[int]]:
    """Referents reachable over exactly one inferential link, either direction."""
    neighbours: dict[int, set[int]] = defaultdict(set)
    for fic in coding.fics:
        for np_ in fic.nps:
            for src, _tag, tgt in np_.inferential:
                neighbours[src].add(tgt)
                neighbours[tgt].add(src)
    return neighbours


# The link tests in the order they run, as (name, the clause's referents under
# test): coreference and inference test them against the previous clause's
# referents, the pronoun test against the open segment's pool.
_LINK_TESTS = (
    (COREFERENCE, lambda fic, current, neighbours: current),
    (INFERENCE, lambda fic, current, neighbours: frozenset(
        peer for r in current for peer in neighbours.get(r, ()))),
    (PRONOUN, lambda fic, current, neighbours: frozenset(
        np_.referent for np_ in fic.nps if np_.pronoun3)),
)
# A trace step's test outcomes, by the test that held (None: a boundary).
_OUTCOMES = {
    linked_by: tuple((name, name == linked_by) for name, _ in _LINK_TESTS[:stop])
    for stop, linked_by in ((1, COREFERENCE), (2, INFERENCE), (3, PRONOUN), (3, None))
}


def np_segment(coding: FicCoding, _traced: bool = True) -> NpSegmentation:
    """Segment a narrative by referential ties between adjacent clauses.

    For each clause after the first, three tests run in a fixed order and
    the first that holds keeps the segment open:

    1. coreference: the clause mentions a referent of the previous clause
    2. inference: a referent one inferential link away from the clause's
       referents occurs in the previous clause
    3. pronoun: a third-person definite pronoun in the clause refers to
       something mentioned anywhere in the current segment

    When none holds, a boundary is emitted between the previous clause and
    this one and the segment pool restarts from this clause. The returned
    trace records every decision, so the walk can be audited step by step;
    segment_by leaves it out (None) unless its caller asks for it.
    """
    fics = coding.fics
    neighbours = _one_hop_neighbours(coding)
    boundaries: list[tuple[int, int]] = []
    trace: list[TraceStep] = []
    # Trace steps share the segment pool, so it is replaced, never updated in place.
    previous = segment = fics[0].referents()
    for n in range(1, len(fics)):
        fic = fics[n]
        current = fic.referents()
        # The trace shows every clause set; untraced, one is built only if its test runs.
        clause_sets = [make(fic, current, neighbours) for _, make in _LINK_TESTS] if _traced else ()
        for k, (name, make) in enumerate(_LINK_TESTS):
            referents = clause_sets[k] if _traced else make(fic, current, neighbours)
            if not referents.isdisjoint(segment if name == PRONOUN else previous):
                linked_by = name
                segment = segment | current
                break
        else:
            linked_by = None
            boundaries.append((fics[n - 1].index, fic.index))
            segment = current
        if _traced:
            trace.append(TraceStep(fic.index, *clause_sets, _OUTCOMES[linked_by], linked_by, segment))
        previous = current
    return NpSegmentation(coding.narrative_id, tuple(boundaries), tuple(trace) if _traced else None)


def normalize_to_sites(
    segmentation: NpSegmentation | tuple[tuple[int, int], ...],
    coding: FicCoding,
) -> BoundarySet:
    """Project clause-level boundaries onto the transcript's boundary sites.

    Junctions that coincide with a phrase boundary map straight to its
    site. Junctions inside a single phrase all project to the site at that
    phrase's end, so several clause boundaries can merge into one site; a
    junction inside the narrative's final phrase has no following site and
    is dropped.
    """
    if isinstance(segmentation, NpSegmentation):
        if segmentation.narrative_id != coding.narrative_id:
            raise ValidationError(
                f"segmentation of {segmentation.narrative_id} normalized against "
                f"coding of {coding.narrative_id}"
            )
        pairs = segmentation.boundaries
    else:
        pairs = tuple(segmentation)
    sites = set()
    for pair in pairs:
        mapping = coding.site_map.get(tuple(pair))
        if mapping is None:
            raise ValidationError(f"no adjacent clause pair {pair} in the coding")
        if mapping.site is not None:
            sites.add(mapping.site)
    return BoundarySet.of(coding.narrative_id, sites)


def segment_by(
    method: str,
    narrative: Narrative,
    coding: FicCoding | None = None,
    lexicon: CueLexicon | None = None,
    *,
    trace: bool = False,
) -> tuple[BoundarySet, NpSegmentation | None]:
    """The boundary set of method np, cue or pause, plus the clause segmentation for np.

    np reads only the coding, cue the narrative and the lexicon (the
    builtin one when None), pause the narrative. The np segmentation
    carries its decision trace only when trace is set.
    """
    if method == "np":
        if coding is None:
            raise ValidationError("method np needs a clause coding")
        segmentation = np_segment(coding, _traced=trace)
        return normalize_to_sites(segmentation, coding), segmentation
    if method == "cue":
        return cue_segment(narrative, lexicon), None
    if method == "pause":
        return pause_segment(narrative), None
    raise ValidationError(f"unknown segmentation method {method!r}")
