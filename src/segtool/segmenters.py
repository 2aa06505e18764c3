"""Boundary-proposing algorithms over transcripts and clause codings.

Three algorithms are provided. The noun-phrase segmenter walks the coded
clauses in order and keeps the current segment open while the new clause is
referentially tied to what came before, by direct coreference with the
previous clause, by an inferential link to it, or by a third-person pronoun
whose referent is already in the segment; when all three ties fail it emits
a boundary between the two clauses. The cue-word and pause segmenters are
phrase-level baselines keyed on the first word of a phrase and on the
presence of any preceding pause. Each segmenter gives its boundaries as an
int64 0/1 mask over the narrative's sites.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from itertools import chain, compress, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .corpus import FicCoding, Narrative
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
    word = token.lower()
    if word.isascii() and word.isalnum():  # only [a-z0-9]: nothing to remove
        return word
    return _EDGE_PUNCT.sub("", word.replace("-", ""))


def _word(token: str) -> str:
    """The token's normalized word; "" for a bracketed notation or a token with no word."""
    if token.startswith("[") or not _HAS_ALPHA.search(token):
        return ""
    return normalize_token(token)


def first_lexical_token(tokens) -> str | None:
    """The first actual word of a phrase, normalized.

    Bracketed pause and noise notations and punctuation-only tokens do not
    count as words.
    """
    return next(filter(None, map(_word, tokens)), None)


def _first_words(tokens, offsets) -> list[str | None]:
    """first_lexical_token of each phrase, tokens[offsets[k]:offsets[k + 1]] of a flat
    token column, read in place; each distinct token is normalized once."""
    words: dict[str, str] = {}
    firsts = []
    for start, stop in zip(offsets, offsets[1:]):
        while start < stop:
            token = tokens[start]
            word = words.get(token)
            if word is None:
                word = words[token] = _word(token)
            if word:
                break
            start += 1
        else:
            word = None
        firsts.append(word)
    return firsts


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


def cue_segment(narrative: Narrative, lexicon: CueLexicon | None = None) -> np.ndarray:
    """Mark a boundary before every phrase that opens with a cue word."""
    if lexicon is None:
        lexicon = default_cue_lexicon()
    firsts = _first_words(narrative.tokens, narrative.token_offsets[1:])
    return np.fromiter(map(lexicon.__contains__, firsts), np.int64, narrative.site_count)


def pause_segment(narrative: Narrative) -> np.ndarray:
    """Mark a boundary wherever adjacent phrases are separated by a pause.

    Presence is all that matters; durations are not thresholded. A
    truncated measurement counts as present whatever its recorded value.
    """
    pauses = zip(narrative.pauses[1:], narrative.truncated[1:])
    return np.fromiter((pause is not None and (pause > 0 or truncated)
                        for pause, truncated in pauses), np.int64, narrative.site_count)


class TraceStep(NamedTuple):
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
    """Clause-level boundaries, with each later clause's (test that held or None, pool) step."""

    boundaries: tuple[tuple[int, int], ...]
    steps: tuple[tuple[str | None, frozenset[int]], ...]
    coding: FicCoding

    @cached_property
    def trace(self) -> tuple[TraceStep, ...]:
        """The per-clause decision trace, built from the steps on first read.

        Each clause's three test sets are built once, from its slice of the NP columns.
        """
        coding = self.coding
        offsets, referents, pronoun3s = coding.np_offsets, coding.referents, coding.pronoun3s
        peers, steps = coding.peers.get, []
        for n, (linked_by, pool) in enumerate(self.steps, start=1):
            a, b = offsets[n], offsets[n + 1]
            clause = referents[a:b]
            steps.append(TraceStep(
                coding.indices[n], frozenset(clause),
                frozenset(chain.from_iterable(map(peers, clause, repeat(())))),
                frozenset(compress(clause, pronoun3s[a:b])), _OUTCOMES[linked_by], linked_by, pool,
            ))
        return tuple(steps)


# A trace step's test outcomes, by the test that held (None: a boundary).
_OUTCOMES = {
    linked_by: tuple((name, name == linked_by) for name in (COREFERENCE, INFERENCE, PRONOUN)[:run])
    for run, linked_by in ((1, COREFERENCE), (2, INFERENCE), (3, PRONOUN), (3, None))
}


def np_segment(coding: FicCoding) -> NpSegmentation:
    """Segment a narrative by referential ties between adjacent clauses.

    For each clause after the first, three tests run in a fixed order and
    the first that holds keeps the segment open:

    1. coreference: the clause mentions a referent of the previous clause
    2. inference: a referent one inferential link away from the clause's
       referents occurs in the previous clause
    3. pronoun: a third-person definite pronoun in the clause refers to
       something mentioned anywhere in the current segment

    When none holds, a boundary is emitted between the previous clause and
    this one and the segment pool restarts from this clause. Every decision
    is kept, so the trace can audit the walk step by step.
    """
    indices, offsets = coding.indices, coding.np_offsets
    referents, pronoun3s, peers = coding.referents, coding.pronoun3s, coding.peers.get
    boundaries: list[tuple[int, int]] = []
    steps: list[tuple[str | None, frozenset[int]]] = []
    # Steps share the segment pool, so it is replaced, never updated in place.
    # A clause's referent set is built once, when the walk reaches the clause,
    # and the inference test's referents are given lazily, so it stops at the
    # first one found.
    previous = segment = frozenset(referents[: offsets[1]])
    for n in range(1, len(indices)):
        a, b = offsets[n], offsets[n + 1]
        clause = referents[a:b]
        current = frozenset(clause)
        if not previous.isdisjoint(current):
            linked_by = COREFERENCE
        elif not previous.isdisjoint(chain.from_iterable(map(peers, clause, repeat(())))):
            linked_by = INFERENCE
        elif not segment.isdisjoint(compress(clause, pronoun3s[a:b])):
            linked_by = PRONOUN
        else:
            linked_by = None
            boundaries.append((indices[n - 1], indices[n]))
        segment = segment | current if linked_by else current
        steps.append((linked_by, segment))
        previous = current
    return NpSegmentation(tuple(boundaries), tuple(steps), coding)


def normalize_to_sites(segmentation: NpSegmentation) -> np.ndarray:
    """Project clause-level boundaries onto the boundary sites of the segmentation's coding.

    Junctions that coincide with a phrase boundary map straight to its
    site. Junctions inside a single phrase all project to the site at that
    phrase's end, so several clause boundaries can merge into one site; a
    junction inside the narrative's final phrase has no following site and
    is dropped.
    """
    coding = segmentation.coding
    sites = map(coding.junction_sites.__getitem__, segmentation.boundaries)
    mask = np.zeros(coding.site_count, dtype=np.int64)
    mask[[k for k in sites if k is not None]] = 1
    return mask


def segment_by(
    method: str,
    narrative: Narrative,
    coding: FicCoding | None = None,
    lexicon: CueLexicon | None = None,
) -> tuple[np.ndarray, NpSegmentation | None]:
    """The site mask of method np, cue or pause, plus the clause segmentation for np.

    np reads only the coding, cue the narrative and the lexicon (the
    builtin one when None), pause the narrative.
    """
    if method == "np":
        if coding is None:
            raise ValidationError("method np needs a clause coding")
        segmentation = np_segment(coding)
        return normalize_to_sites(segmentation), segmentation
    if method == "cue":
        return cue_segment(narrative, lexicon), None
    if method == "pause":
        return pause_segment(narrative), None
    raise ValidationError(f"unknown segmentation method {method!r}")
