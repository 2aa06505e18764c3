"""Data model and loaders for segmentation corpora.

Four JSON file kinds are handled; the constructors check the invariants,
and the loaders the JSON shape and the location of nested objects:

* transcripts: ordered prosodic phrases with pause and contour annotations
* annotation matrices: one 0/1 row per subject over a transcript's
  boundary sites
* clause codings: functionally independent clauses (FICs) carrying the
  referential noun phrases used by the noun-phrase segmenter
* report manifests: the files of each narrative in a batch report

A transcript of n phrases has n-1 boundary sites; site k lies between
phrases k and k+1, 0-based. All downstream joins are on those site
indices, and this module is the only place they get computed.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

import numpy as np

from .errors import SchemaError, ValidationError

RELATION_TAGS = frozenset({"r1", "r2", "r3", "r4", "r5"})
# A \uD800-\uDFFF escape, which may leave a lone surrogate in a string.
_SURROGATE_ESCAPE = re.compile(rb"\\u[dD][89a-fA-F]")


@dataclass(frozen=True, order=True)
class PhraseId:
    """Position of a prosodic phrase, rendered "sentence.phrase" (e.g. "3.3").

    Lexicographic order on (sentence, phrase) is transcript order.
    """

    sentence: int
    phrase: int

    def __post_init__(self):
        if self.sentence < 1 or self.phrase < 1:
            raise ValidationError(
                f"phrase id parts must be positive: {self.sentence}.{self.phrase}"
            )

    def __str__(self) -> str:
        return f"{self.sentence}.{self.phrase}"

    @classmethod
    def parse(cls, text: str) -> "PhraseId":
        """Read the canonical form only, so str() gives back the same text."""
        try:
            sentence, phrase = text.split(".")
            pid = cls(int(sentence), int(phrase))
            if str(pid) == text:
                return pid
        except (AttributeError, TypeError, ValueError, ValidationError):
            pass
        raise ValidationError(f"phrase id must look like 's.p', e.g. '3.1': {text!r}")


@dataclass(frozen=True)
class ProsodicPhrase:
    """One intonation unit of a transcript.

    pause_before is the silence separating this phrase from its predecessor,
    in seconds; None means no pause was transcribed. pause_truncated marks a
    measurement cut short, so the true duration is at least the given value.
    Tokens keep their transcript surface form (case, lengthening hyphens,
    bracketed in-phrase pauses) untouched.
    """

    id: PhraseId
    text: tuple[str, ...]
    sentence_final: bool
    pause_before: float | None = None
    pause_truncated: bool = False

    def __post_init__(self):
        if not self.text or not _nonempty_strings(self.text):
            raise SchemaError("text", "expected a non-empty list of non-empty strings")
        if self.pause_before is not None:
            try:
                p = float(self.pause_before)
            except OverflowError:  # an int past the float range
                raise SchemaError("pause_before", "expected number or null") from None
            if not math.isfinite(p) or p < 0:
                raise ValidationError(
                    f"phrase {self.id}: pause_before must be finite and non-negative"
                )
            object.__setattr__(self, "pause_before", p)
        elif self.pause_truncated:
            raise ValidationError(
                f"phrase {self.id}: pause_truncated set without a pause_before value"
            )


@dataclass(frozen=True)
class Narrative:
    """An ordered transcript of at least two prosodic phrases."""

    narrative_id: str
    phrases: tuple[ProsodicPhrase, ...]
    _index: dict[PhraseId, int] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self):
        _narrative_id(self.narrative_id)
        if len(self.phrases) < 2:
            raise SchemaError(
                "phrases",
                f"narrative {self.narrative_id}: needs at least 2 phrases "
                f"(got {len(self.phrases)})",
            )
        for prev, cur in zip(self.phrases, self.phrases[1:]):
            if not prev.id < cur.id:
                raise SchemaError(
                    "phrases",
                    f"narrative {self.narrative_id}: phrase ids out of order "
                    f"({prev.id} then {cur.id})"
                )
        self._index.update({p.id: k for k, p in enumerate(self.phrases)})

    @property
    def site_count(self) -> int:
        return len(self.phrases) - 1

    def index_of(self, phrase_id: PhraseId) -> int:
        try:
            return self._index[phrase_id]
        except KeyError:
            raise ValidationError(
                f"narrative {self.narrative_id}: no phrase {phrase_id}"
            ) from None

    def site_pair(self, site: int) -> tuple[PhraseId, PhraseId]:
        if not 0 <= site < self.site_count:
            raise ValidationError(
                f"narrative {self.narrative_id}: site {site} out of range "
                f"[0, {self.site_count - 1}]"
            )
        return self.phrases[site].id, self.phrases[site + 1].id

    def site_label(self, site: int) -> str:
        left, right = self.site_pair(site)
        return f"{left}→{right}"


class AnnotationMatrix:
    """Binary subjects x sites matrix of boundary judgements.

    Cell (s, k) is 1 when subject s placed a boundary at site k. Row totals
    give each subject's boundary count; column totals give per-site agreement
    strength. The cell array is read-only once constructed.

    cells are rows of equal length or a 2-d array; each cell must be the
    number 0 or 1 before any cast, so true, 0.5 or "1" is refused.
    """

    def __init__(self, narrative_id: str, subject_ids: Iterable[str], cells):
        _narrative_id(narrative_id)
        subject_ids = tuple(str(s) for s in subject_ids)
        if not subject_ids:
            raise SchemaError("subjects", "expected at least one subject")
        rows = cells.tolist() if isinstance(cells, np.ndarray) else cells
        if not isinstance(rows, list) or len(rows) != len(subject_ids):
            raise SchemaError("matrix", f"expected {len(subject_ids)} rows")
        width = len(rows[0]) if isinstance(rows[0], list) else 0
        if not width:
            raise SchemaError("matrix[0]", "expected a non-empty list of cells")
        for r, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != width:
                raise SchemaError(f"matrix[{r}]", f"expected {width} cells")
            # One pass in C for a good row; the type test comes first, as it
            # also keeps unhashable cells away from set(row).
            if set(map(type, row)) <= {int, float} and set(row) <= {0, 1}:
                continue
            for k, cell in enumerate(row):
                if cell not in (0, 1) or isinstance(cell, bool):
                    raise SchemaError(f"matrix[{r}][{k}]", "expected 0 or 1")
        if len(set(subject_ids)) != len(subject_ids):
            raise SchemaError("matrix", "subject ids must be distinct")
        cells = np.array(rows, dtype=np.int64)
        cells.setflags(write=False)
        self.narrative_id = narrative_id
        self.subject_ids = subject_ids
        self.cells = cells
        self._row_totals = cells.sum(axis=1)
        self._col_totals = cells.sum(axis=0)
        self._row_totals.setflags(write=False)
        self._col_totals.setflags(write=False)

    @property
    def subjects(self) -> int:
        return self.cells.shape[0]

    @property
    def sites(self) -> int:
        return self.cells.shape[1]

    @property
    def row_totals(self) -> np.ndarray:
        """Boundary count per subject."""
        return self._row_totals

    @property
    def column_totals(self) -> np.ndarray:
        """Number of subjects marking each site."""
        return self._col_totals

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AnnotationMatrix)
            and self.narrative_id == other.narrative_id
            and self.subject_ids == other.subject_ids
            and np.array_equal(self.cells, other.cells)
        )

    def __repr__(self) -> str:
        return (
            f"AnnotationMatrix({self.narrative_id!r}, "
            f"{self.subjects}x{self.sites})"
        )


@dataclass(frozen=True)
class ReferentialNp:
    """A referential noun phrase inside one coded clause.

    inferential holds (source, tag, target) referent links; the source is
    always this NP's own referent and tags come from a fixed closed set.
    pronoun3 marks third-person definite pronouns.
    """

    fic: int
    surface: str
    referent: int
    pronoun3: bool = False
    inferential: frozenset[tuple[int, str, int]] = frozenset()

    def __post_init__(self):
        if self.referent < 1:
            raise ValidationError(
                f"fic {self.fic} NP {self.surface!r}: referent must be positive"
            )
        for src, tag, tgt in self.inferential:
            if tag not in RELATION_TAGS:
                raise ValidationError(
                    f"fic {self.fic} NP {self.surface!r}: unknown relation tag {tag!r}"
                )
            if src != self.referent:
                raise ValidationError(
                    f"fic {self.fic} NP {self.surface!r}: relation source {src} "
                    f"differs from the NP's referent {self.referent}"
                )
            if tgt < 1:
                raise ValidationError(
                    f"fic {self.fic} NP {self.surface!r}: relation target must be positive"
                )


@dataclass(frozen=True)
class Fic:
    """A functionally independent clause spanning one or more phrases."""

    index: int
    phrase_span: tuple[PhraseId, PhraseId]
    nps: tuple[ReferentialNp, ...]

    def __post_init__(self):
        start, end = self.phrase_span
        if end < start:
            raise ValidationError(
                f"fic {self.index}: span end {end} precedes start {start}"
            )
        for np_ in self.nps:
            if np_.fic != self.index:
                raise ValidationError(
                    f"fic {self.index}: NP {np_.surface!r} tagged for fic {np_.fic}"
                )

    def referents(self) -> frozenset[int]:
        return frozenset(np_.referent for np_ in self.nps)


@dataclass(frozen=True)
class SiteMapping:
    """Where the junction between two adjacent FICs falls.

    site is the boundary-site index the junction projects to, or None when
    the junction sits inside the narrative's final phrase and so has no
    following site. intra_phrase marks junctions inside a single phrase;
    those project to the site at the end of the shared phrase.
    """

    site: int | None
    intra_phrase: bool


@dataclass(frozen=True)
class FicCoding:
    """The clause coding of one narrative, with the derived site map.

    site_map has one entry per adjacent FIC pair (by index). Pairs whose
    junction coincides with a phrase boundary map injectively onto sites;
    intra-phrase junctions share the site at the end of their phrase.
    """

    narrative_id: str
    fics: tuple[Fic, ...]
    site_map: dict[tuple[int, int], SiteMapping] = field(compare=False, default_factory=dict)

    def __post_init__(self):
        if not self.fics:
            raise SchemaError("fics", "expected a non-empty list")
        for prev, cur in zip(self.fics, self.fics[1:]):
            if cur.index != prev.index + 1:
                raise SchemaError(
                    "fics",
                    f"coding {self.narrative_id}: clause indices must be consecutive "
                    f"({prev.index} then {cur.index})"
                )

    def adjacent_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (prev.index, cur.index) for prev, cur in zip(self.fics, self.fics[1:])
        )


@dataclass(frozen=True)
class BoundarySet:
    """A set of boundary-site indices for one narrative."""

    narrative_id: str
    sites: frozenset[int]

    def __post_init__(self):
        for k in self.sites:
            if not isinstance(k, int) or k < 0:
                raise ValidationError(f"bad site index {k!r}")

    @classmethod
    def of(cls, narrative_id: str, sites: Iterable[int]) -> "BoundarySet":
        return cls(narrative_id, frozenset(int(k) for k in sites))

    def labels(self, narrative: Narrative) -> tuple[str, ...]:
        """Ascending "left→right" phrase-pair labels for the sites."""
        if narrative.narrative_id != self.narrative_id:
            raise ValidationError(
                f"boundary set for {self.narrative_id} rendered against "
                f"narrative {narrative.narrative_id}"
            )
        return tuple(narrative.site_label(k) for k in sorted(self.sites))


# ---------------------------------------------------------------------------
# JSON loading


def read_json(source) -> Any:
    """Parse JSON from a path (str or Path), bytes, or file-like source."""
    location = str(source) if isinstance(source, (str, Path)) else "<file>"
    if isinstance(source, (str, Path)):
        with open(source, "rb") as handle:
            raw = handle.read()
    elif isinstance(source, bytes):
        raw = source
    elif hasattr(source, "read"):
        raw = source.read()
        if isinstance(raw, str):
            raw = raw.encode("utf-8")
    else:
        raise TypeError(f"cannot read JSON from {type(source).__name__}")
    try:
        data = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise SchemaError(location, f"not valid UTF-8: {exc}") from None
    except (ValueError, RecursionError) as exc:  # also over-long ints, deep nesting
        raise SchemaError(location, f"not valid JSON: {exc}") from None
    if _SURROGATE_ESCAPE.search(raw):
        # Escaped pairs are fine; a lone surrogate could not be printed as UTF-8.
        try:
            json.dumps(data, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            lone = exc.object[exc.start : exc.end]
            raise SchemaError(location, f"not valid UTF-8: lone surrogate {lone!r}") from None
    return data


def _is_int(value: Any) -> bool:
    """A JSON integer; true and false are not numbers here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _nonempty_strings(values: list) -> bool:
    """Every item is a non-empty string, tested in C rather than per item."""
    return set(map(type, values)) <= {str} and "" not in values


def _one_line(text: str) -> bool:
    """No tab and nothing str.splitlines() splits at, so one TSV cell holds it."""
    return "\t" not in text and text.splitlines() == [text]


def _require(obj: dict, key: str, where: str) -> Any:
    if not isinstance(obj, dict):
        raise SchemaError(where, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise SchemaError(f"{where}.{key}" if where else key, "missing field")
    return obj[key]


def _narrative_id(value: Any, narrative: Narrative | None = None, kind: str = "") -> str:
    """A non-empty string; for a file read against a transcript, its id."""
    if not isinstance(value, str) or not value:
        raise SchemaError("narrative_id", "expected a non-empty string")
    if not _one_line(value):
        raise SchemaError("narrative_id", "expected no tab or line break")
    if narrative is not None and value != narrative.narrative_id:
        raise ValidationError(
            f"{kind} for {value!r} but the transcript is {narrative.narrative_id!r}"
        )
    return value


def load_narrative(source) -> Narrative:
    """Load and validate a transcript file."""
    data = read_json(source)
    narrative_id = _narrative_id(_require(data, "narrative_id", ""))
    raw_phrases = _require(data, "phrases", "")
    if not isinstance(raw_phrases, list):
        raise SchemaError("phrases", "expected a list")
    phrases = []
    for k, raw in enumerate(raw_phrases):
        where = f"phrases[{k}]"
        pid_text = _require(raw, "id", where)
        try:
            pid = PhraseId.parse(pid_text)
        except ValidationError as exc:
            raise SchemaError(f"{where}.id", str(exc)) from None
        final = _require(raw, "sentence_final", where)
        if not isinstance(final, bool):
            raise SchemaError(f"{where}.sentence_final", "expected true or false")
        pause = _require(raw, "pause_before", where)
        if pause is not None and (not isinstance(pause, (int, float)) or isinstance(pause, bool)):
            raise SchemaError(f"{where}.pause_before", "expected number or null")
        truncated = raw.get("pause_truncated", False)
        if not isinstance(truncated, bool):
            raise SchemaError(f"{where}.pause_truncated", "expected true or false")
        tokens = _require(raw, "text", where)
        if not isinstance(tokens, list):
            raise SchemaError(f"{where}.text", "expected a non-empty list of non-empty strings")
        try:
            phrases.append(
                ProsodicPhrase(
                    id=pid,
                    text=tuple(tokens),
                    sentence_final=final,
                    pause_before=pause,
                    pause_truncated=truncated,
                )
            )
        except SchemaError as exc:
            raise SchemaError(f"{where}.{exc.location}", exc.problem) from None
        except ValidationError as exc:
            raise SchemaError(where, str(exc)) from None
    return Narrative(narrative_id=narrative_id, phrases=tuple(phrases))


def serialize_narrative(narrative: Narrative) -> dict:
    """Inverse of load_narrative, as a JSON-ready dict."""
    return {
        "narrative_id": narrative.narrative_id,
        "phrases": [
            {
                "id": str(p.id),
                "sentence_final": p.sentence_final,
                "pause_before": p.pause_before,
                "pause_truncated": p.pause_truncated,
                "text": list(p.text),
            }
            for p in narrative.phrases
        ],
    }


def load_annotations(source, narrative: Narrative) -> AnnotationMatrix:
    """Load a subjects x sites boundary matrix tied to a transcript.

    The declared site count must equal the transcript's, and the two files
    must name the same narrative, so later joins on site indices are safe.
    """
    data = read_json(source)
    narrative_id = _narrative_id(_require(data, "narrative_id", ""), narrative, "annotations are")
    subjects = _require(data, "subjects", "")
    if not isinstance(subjects, list) or not _nonempty_strings(subjects):
        raise SchemaError("subjects", "expected a list of non-empty strings")
    for k, subject in enumerate(subjects):
        if not _one_line(subject):
            raise SchemaError(f"subjects[{k}]", "expected no tab or line break")
    sites = _require(data, "sites", "")
    if not _is_int(sites) or sites < 1:
        raise SchemaError("sites", "expected a positive integer")
    if sites != narrative.site_count:
        raise ValidationError(
            f"annotations declare {sites} sites but narrative "
            f"{narrative.narrative_id} has {narrative.site_count}"
        )
    rows = _require(data, "matrix", "")
    # The constructor holds every row to the first one's width; sites sets it.
    if isinstance(rows, list) and rows and (
        not isinstance(rows[0], list) or len(rows[0]) != sites
    ):
        raise SchemaError("matrix[0]", f"expected {sites} cells")
    return AnnotationMatrix(narrative_id, subjects, rows)


def serialize_annotations(matrix: AnnotationMatrix) -> dict:
    return {
        "narrative_id": matrix.narrative_id,
        "subjects": list(matrix.subject_ids),
        "sites": matrix.sites,
        "matrix": matrix.cells.tolist(),
    }


def _build_site_map(
    fics: tuple[Fic, ...],
    narrative: Narrative,
    spans: list[tuple[int, int]],
) -> dict[tuple[int, int], SiteMapping]:
    """spans holds each clause's (start, end) phrase indices."""
    site_map: dict[tuple[int, int], SiteMapping] = {}
    last_site = narrative.site_count - 1
    for prev, cur, (_, end_idx), (start_idx, _) in zip(fics, fics[1:], spans, spans[1:]):
        if start_idx < end_idx:
            raise SchemaError(
                "fics",
                f"coding {narrative.narrative_id}: clause {cur.index} starts at "
                f"{cur.phrase_span[0]}, before clause {prev.index} ends at "
                f"{prev.phrase_span[1]}"
            )
        if start_idx == end_idx:
            # Junction inside one phrase: project to the site at its end,
            # which does not exist when the shared phrase is the last one.
            site = start_idx if start_idx <= last_site else None
            site_map[(prev.index, cur.index)] = SiteMapping(site, intra_phrase=True)
        else:
            site_map[(prev.index, cur.index)] = SiteMapping(
                start_idx - 1, intra_phrase=False
            )
    return site_map


def load_fic_coding(source, narrative: Narrative) -> FicCoding:
    """Load a clause coding and derive its junction-to-site map."""
    data = read_json(source)
    narrative_id = _narrative_id(_require(data, "narrative_id", ""), narrative, "coding is")
    raw_fics = _require(data, "fics", "")
    if not isinstance(raw_fics, list):
        raise SchemaError("fics", "expected a non-empty list")
    fics, spans = [], []
    for n, raw in enumerate(raw_fics):
        where = f"fics[{n}]"
        index = _require(raw, "index", where)
        if not _is_int(index) or index < 1:
            raise SchemaError(f"{where}.index", "expected a positive integer")
        span = _require(raw, "span", where)
        if not isinstance(span, list) or len(span) != 2:
            raise SchemaError(f"{where}.span", "expected a [start, end] pair")
        try:
            start, end = PhraseId.parse(span[0]), PhraseId.parse(span[1])
            spans.append((narrative.index_of(start), narrative.index_of(end)))
        except ValidationError as exc:
            raise SchemaError(f"{where}.span", str(exc)) from None
        raw_nps = _require(raw, "nps", where)
        if not isinstance(raw_nps, list):
            raise SchemaError(f"{where}.nps", "expected a list")
        nps = []
        for m, raw_np in enumerate(raw_nps):
            np_where = f"{where}.nps[{m}]"
            form = _require(raw_np, "form", np_where)
            if not isinstance(form, str) or not form:
                raise SchemaError(f"{np_where}.form", "expected a non-empty string")
            referent = _require(raw_np, "referent", np_where)
            if not _is_int(referent):
                raise SchemaError(f"{np_where}.referent", "expected an integer")
            pronoun3 = raw_np.get("pronoun3", False)
            if not isinstance(pronoun3, bool):
                raise SchemaError(f"{np_where}.pronoun3", "expected true or false")
            raw_rels = raw_np.get("inferential", [])
            if not isinstance(raw_rels, list):
                raise SchemaError(f"{np_where}.inferential", "expected a list")
            rels = set()
            for r, rel in enumerate(raw_rels):
                if (
                    not isinstance(rel, list)
                    or len(rel) != 3
                    or not _is_int(rel[0])
                    or not isinstance(rel[1], str)
                    or not _is_int(rel[2])
                ):
                    raise SchemaError(
                        f"{np_where}.inferential[{r}]",
                        "expected [source, tag, target]",
                    )
                rels.add((rel[0], rel[1], rel[2]))
            try:
                nps.append(
                    ReferentialNp(
                        fic=index,
                        surface=form,
                        referent=referent,
                        pronoun3=pronoun3,
                        inferential=frozenset(rels),
                    )
                )
            except ValidationError as exc:
                raise SchemaError(np_where, str(exc)) from None
        try:
            fics.append(Fic(index=index, phrase_span=(start, end), nps=tuple(nps)))
        except ValidationError as exc:
            raise SchemaError(where, str(exc)) from None
    fics = tuple(fics)
    site_map = _build_site_map(fics, narrative, spans)
    return FicCoding(narrative_id=narrative_id, fics=fics, site_map=site_map)


def serialize_fic_coding(coding: FicCoding) -> dict:
    return {
        "narrative_id": coding.narrative_id,
        "fics": [
            {
                "index": fic.index,
                "span": [str(fic.phrase_span[0]), str(fic.phrase_span[1])],
                "nps": [
                    {
                        "form": np_.surface,
                        "referent": np_.referent,
                        "pronoun3": np_.pronoun3,
                        "inferential": sorted(
                            [src, tag, tgt] for src, tag, tgt in np_.inferential
                        ),
                    }
                    for np_ in fic.nps
                ],
            }
            for fic in coding.fics
        ],
    }


@dataclass(frozen=True)
class Manifest:
    """A batch-report manifest whose fields are checked as they are read.

    A command-line value used in place of cues or format thus leaves a bad
    one unread. Relative paths resolve against the manifest's directory.
    """

    _data: dict
    _base: Path

    def items(self) -> Iterator[tuple[Path, Path, Path | None]]:
        """Each item's (narrative, annotations, coding or None) paths."""
        for k, entry in enumerate(self._data["items"]):
            if not isinstance(entry, dict):
                raise ValidationError(
                    f"items[{k}]: each item needs narrative and annotations paths"
                )
            where = f"items[{k}]."
            narrative = self._path(entry, "narrative", where)
            annotations = self._path(entry, "annotations", where)
            coding = self._path(entry, "coding", where) if "coding" in entry else None
            yield narrative, annotations, coding

    @property
    def cues(self) -> Path | None:
        """The cue lexicon file, None for the built-in lexicon."""
        return self._path(self._data, "cues") if "cues" in self._data else None

    @property
    def format(self) -> str:
        fmt = self._data.get("format", "tsv")
        if fmt not in ("tsv", "json"):
            raise ValidationError(f"manifest format must be 'tsv' or 'json', got {fmt!r}")
        return fmt

    def _path(self, entry: dict, key: str, where: str = "") -> Path:
        value = entry.get(key)
        if not isinstance(value, str) or not value or "\0" in value:
            raise SchemaError(f"{where}{key}", "expected a path string")
        return self._base / value  # an absolute value replaces the base


def load_manifest(source) -> Manifest:
    """Load a batch-report manifest; the files it names are read by the caller."""
    data = read_json(source)
    if not isinstance(data, dict) or not isinstance(data.get("items"), list) or not data["items"]:
        raise ValidationError("manifest must be an object with a non-empty items list")
    return Manifest(data, Path(source).parent if isinstance(source, (str, Path)) else Path())
