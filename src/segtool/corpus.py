"""Data model and loaders for segmentation corpora.

Four JSON file kinds are handled, and each loader is the only way to build its
kind. Each element rule is stated once, in a function over columns: a loader
applies it to a file's whole columns, and a broken rule raises a
ValidationError (a SchemaError for a JSON shape fault). The loaders also check
the JSON shape, and at a fault walk the file element by element, applying the
same functions to one-element columns, to name the first faulty element with
its location:

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
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import eq, is_, itemgetter, le, lt
from pathlib import Path
from typing import Any, Iterable, Iterator

import numpy as np

from .errors import SchemaError, ValidationError

RELATION_TAGS = frozenset({"r1", "r2", "r3", "r4", "r5"})
# A \uD800-\uDFFF escape, which may leave a lone surrogate in a string.
_SURROGATE_ESCAPE = re.compile(rb"\\u[dD][89a-fA-F]")
# The canonical "sentence.phrase" text of two positive integers; each part has
# at most 4300 digits, the most int() reads by default.
_PHRASE_ID = re.compile(r"[1-9][0-9]{0,4299}\.[1-9][0-9]{0,4299}")
_ID_PROBLEM = "phrase id must look like 's.p', e.g. '3.1': {!r}"


def _canonical_ids(ids: list) -> bool:
    """The phrase-id rule: each id is the canonical "sentence.phrase" text of two positive
    integers."""
    return all(map(_PHRASE_ID.fullmatch, ids))


def _id_rule(text: Any) -> None:
    """The phrase-id rule for one id of any type, whose parts int() must also read."""
    try:
        if _canonical_ids([text]) and all(map(int, text.split("."))):
            return
    except (TypeError, ValueError):  # no string, or a part past a lowered int() digit limit
        pass
    raise ValidationError(_ID_PROBLEM.format(text))


def _phrase_rules(name: str, texts: list, pauses: list, truncated: list) -> tuple[list, list]:
    """A text is a non-empty list of non-empty strings; a pause, None or a number, is finite
    and non-negative as a float; a truncated phrase has a pause. The texts are lists and the
    pauses None, ints or floats. Gives the flat tokens and the pauses as floats."""
    tokens = list(chain.from_iterable(texts))
    if not all(texts) or not _nonempty_strings(tokens):
        raise SchemaError("text", "expected a non-empty list of non-empty strings")
    try:
        pauses = [None if pause is None else float(pause) for pause in pauses]
    except OverflowError:  # an int past the float range
        raise SchemaError("pause_before", "expected number or null") from None
    timed = [pause for pause in pauses if pause is not None]
    if not all(map(math.isfinite, timed)) or min(timed, default=0.0) < 0:
        raise ValidationError(f"{name}: pause_before must be finite and non-negative")
    if any(compress(map(is_, pauses, repeat(None)), truncated)):
        raise ValidationError(f"{name}: pause_truncated set without a pause_before value")
    return tokens, pauses


def _clause_rules(name: str, ids, starts: list, ends: list, referents=(), counts=(), sources=(),
                  tags=(), targets=()) -> None:
    """A span, given as the positions of its ends in ids, ends no earlier than it starts. An
    NP's referent is positive, and each of its relations has that referent as source, a tag
    in RELATION_TAGS and a positive target; NP k's counts[k] relations follow those of the
    NPs before it. Referents and relation ends are integers."""
    in_order = list(map(le, starts, ends))
    if not all(in_order):
        k = in_order.index(False)
        raise ValidationError(f"{name}: span end {ids[ends[k]]} precedes start {ids[starts[k]]}")
    if min(referents, default=1) < 1:
        raise ValidationError(f"{name}: referent must be positive")
    known = list(map(RELATION_TAGS.__contains__, tags))
    if not all(known):
        raise ValidationError(f"{name}: unknown relation tag {tags[known.index(False)]!r}")
    owners = list(chain.from_iterable(  # only the NPs with relations repeat their referent
        map(repeat, compress(referents, counts), compress(counts, counts))))
    agree = list(map(eq, sources, owners))
    if not all(agree):
        r = agree.index(False)
        raise ValidationError(f"{name}: relation source {sources[r]} differs from the NP's "
                              f"referent {owners[r]}")
    if min(targets, default=1) < 1:
        raise ValidationError(f"{name}: relation target must be positive")


class Narrative:
    """An ordered transcript of at least two prosodic phrases, held as flat columns.

    Phrase k has id text ids[k], sentence and phrase numbers id_ints[2k] and
    id_ints[2k + 1], tokens tokens[token_offsets[k]:token_offsets[k + 1]] in
    their transcript surface form, sentence-final flag sentence_finals[k],
    pause pauses[k] and truncation flag truncated[k]. A pause is the silence
    before the phrase in seconds, as a float, or None when none was
    transcribed; a truncated one was cut short, so the true duration is at
    least its value. Each phrase's token tuple, texts, is built on first
    access. Only load_narrative builds a narrative.
    """

    def __init__(self, *args, **kwargs):
        raise TypeError("a Narrative is built by load_narrative")

    @classmethod
    def _of_columns(cls, narrative_id, ids, id_ints, tokens, token_offsets, sentence_finals,
                    pauses, truncated) -> "Narrative":
        """The narrative of the loader's columns, which keep every rule of one phrase; checks
        the rules across phrases."""
        if len(ids) < 2:
            raise SchemaError(
                "phrases", f"narrative {narrative_id}: needs at least 2 phrases (got {len(ids)})"
            )
        parts = list(zip(id_ints[::2], id_ints[1::2]))
        in_order = list(map(lt, parts, parts[1:]))
        if not all(in_order):
            k = in_order.index(False)
            raise SchemaError("phrases", f"narrative {narrative_id}: phrase ids out of order "
                              f"({ids[k]} then {ids[k + 1]})")
        narrative = cls.__new__(cls)
        narrative.narrative_id, narrative.ids, narrative.id_ints = narrative_id, ids, id_ints
        narrative.tokens, narrative.token_offsets = tokens, token_offsets
        narrative.sentence_finals, narrative.pauses = sentence_finals, pauses
        narrative.truncated = truncated
        narrative._index = dict(zip(ids, count()))  # by id text, as a coding file's spans give it
        return narrative

    @cached_property
    def texts(self) -> tuple[tuple[str, ...], ...]:
        """Each phrase's token tuple, built on first access."""
        tokens, offsets = self.tokens, self.token_offsets
        return tuple(tokens[a:b] for a, b in zip(offsets, offsets[1:]))

    @property
    def site_count(self) -> int:
        return len(self.ids) - 1

    def index_of(self, phrase_id: str) -> int:
        """The position of the phrase with id text phrase_id."""
        k = self._index.get(phrase_id) if isinstance(phrase_id, str) else None
        if k is None:
            raise ValidationError(f"narrative {self.narrative_id}: no phrase {phrase_id}")
        return k

    def site_labels(self, mask) -> tuple[str, ...]:
        """Ascending "left→right" phrase-pair labels of the sites a 0/1 site mask marks."""
        if np.shape(mask) != (self.site_count,):
            raise ValidationError(f"narrative {self.narrative_id}: a site mask of shape "
                                  f"{np.shape(mask)}, not ({self.site_count},)")
        ids = self.ids
        return tuple(f"{ids[k]}→{ids[k + 1]}" for k in np.flatnonzero(mask).tolist())

    def _key(self) -> tuple:
        return (self.narrative_id, self.id_ints, self.tokens, self.token_offsets,
                self.sentence_finals, self.pauses, self.truncated)

    def __eq__(self, other) -> bool:
        return isinstance(other, Narrative) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Narrative({self.narrative_id!r}, {len(self.ids)} phrases)"


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
        subject_ids = _subject_ids(tuple(subject_ids))
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


class FicCoding:
    """The clause coding of one narrative, held as flat columns.

    Clause n has index indices[n], and its NPs are positions np_offsets[n]
    up to np_offsets[n + 1] of the NP columns surfaces, referents and
    pronoun3s (third-person definite pronouns). NP k's relation_counts[k]
    (source, tag, target) inferential relations follow NP by NP in the
    columns sources, tags and targets.

    Built on first access: peers maps a referent to those one inferential
    link away, either direction; junction_sites maps each adjacent clause
    pair (by index) to the site its junction projects to. Junctions at a
    phrase boundary map injectively onto sites; a junction inside one phrase
    maps to the site at the end of that phrase, or to None when it is the
    last phrase. Only load_fic_coding builds a coding.
    """

    def __init__(self, *args, **kwargs):
        raise TypeError("a FicCoding is built by load_fic_coding")

    @classmethod
    def _of_columns(cls, narrative, indices, starts, ends, np_offsets, surfaces, referents,
                    pronoun3s, relation_counts, sources, tags, targets) -> "FicCoding":
        """The coding of the loader's columns, which keep every rule of one clause and NP;
        checks the rules across clauses."""
        narrative_id, ids = narrative.narrative_id, narrative.ids
        in_order = list(map(le, ends, starts[1:]))
        if not all(in_order):
            n = in_order.index(False) + 1
            raise SchemaError("fics", f"coding {narrative_id}: clause {indices[n]} starts at "
                              f"{ids[starts[n]]}, before clause {indices[n - 1]} ends at "
                              f"{ids[ends[n - 1]]}")
        if not indices:
            raise SchemaError("fics", "expected a non-empty list")
        consecutive = range(indices[0], indices[0] + len(indices))
        if list(indices) != list(consecutive):
            n = next(n for n in count(1) if indices[n] != indices[n - 1] + 1)
            raise SchemaError("fics", f"coding {narrative_id}: clause indices must be "
                              f"consecutive ({indices[n - 1]} then {indices[n]})")
        coding = cls.__new__(cls)
        coding.narrative_id, coding.indices = narrative_id, consecutive
        coding._ids, coding._starts, coding._ends = ids, starts, ends
        coding.np_offsets, coding.surfaces, coding.referents = np_offsets, surfaces, referents
        coding.pronoun3s, coding.relation_counts = pronoun3s, relation_counts
        coding.sources, coding.tags, coding.targets = sources, tags, targets
        return coding

    @cached_property
    def peers(self) -> dict[int, tuple[int, ...]]:
        """Each linked referent's referents one inferential link away, built on first access."""
        found = defaultdict(list)
        for referent, peer in zip(chain(self.sources, self.targets),
                                  chain(self.targets, self.sources)):
            found[referent].append(peer)
        return {referent: tuple(peers) for referent, peers in found.items()}

    @property
    def site_count(self) -> int:
        """The site count of the coded transcript."""
        return len(self._ids) - 1

    @cached_property
    def junction_sites(self) -> dict[tuple[int, int], int | None]:
        """Each adjacent clause pair's site, built on first access."""
        # A junction inside one phrase projects to the site at its end, which
        # does not exist when the shared phrase is the last one.
        last = self.site_count
        sites = [start - 1 if start > end else start if start < last else None
                 for end, start in zip(self._ends, self._starts[1:])]
        return dict(zip(zip(self.indices, self.indices[1:]), sites))

    def _relations(self) -> Iterator[frozenset[tuple[int, str, int]]]:
        """Each NP's relation set."""
        triples = zip(self.sources, self.tags, self.targets)
        return (frozenset(islice(triples, size)) for size in self.relation_counts)

    def _key(self) -> tuple:
        """The coding read off the columns: span ids, NP fields by clause, and the relation
        set of each NP that has relations, by its position."""
        spans = tuple(map(self._ids.__getitem__, chain(self._starts, self._ends)))
        links = tuple(compress(enumerate(self._relations()), self.relation_counts))
        return (self.narrative_id, self.indices, spans, tuple(self.np_offsets),
                tuple(self.surfaces), tuple(self.referents), tuple(self.pronoun3s), links)

    def __eq__(self, other) -> bool:
        return isinstance(other, FicCoding) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"FicCoding({self.narrative_id!r}, {len(self.indices)} clauses)"


# ---------------------------------------------------------------------------
# JSON loading


def _location(source) -> str:
    """The file's name in a message: its path, or <file> for bytes or a stream."""
    return str(source) if isinstance(source, (str, Path)) else "<file>"


def read_json(source) -> Any:
    """Parse JSON from a path (str or Path), bytes, or file-like source."""
    location = _location(source)
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


def _nonempty_strings(values: list) -> bool:
    """Every item is a non-empty string, tested by one join in C rather than per item."""
    try:
        "".join(values)
    except TypeError:  # an item that is no string
        return False
    return "" not in values


def _one_line(text: str) -> bool:
    """No tab and nothing str.splitlines() splits at, so one TSV cell holds it."""
    return "\t" not in text and text.splitlines() == [text]


def _read_object(source) -> dict:
    """read_json for a file whose top level must be an object."""
    data = read_json(source)
    if not isinstance(data, dict):
        raise SchemaError(_location(source), f"expected an object, got {type(data).__name__}")
    return data


def _require(obj: dict, key: str, where: str) -> Any:
    if not isinstance(obj, dict):
        raise SchemaError(where, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise SchemaError(f"{where}.{key}" if where else key, "missing field")
    return obj[key]


# What a column pass raises at a fault: a missing key, a non-object, or a failed check or rule.
_FAULTS = (KeyError, TypeError, ValueError, ValidationError)
# An element's fields as (key, default or _REQUIRED, the JSON types allowed, the
# problem reported, a further test of a column of allowed values or None), in the
# order _fields checks them; _columns reads them too. JSON gives exact built-in types.
_REQUIRED = object()
_PHRASE_FIELDS = (
    ("id", _REQUIRED, {str}, _ID_PROBLEM, _canonical_ids),
    ("sentence_final", _REQUIRED, {bool}, "expected true or false", None),
    ("pause_before", _REQUIRED, {int, float, type(None)}, "expected number or null", None),
    ("pause_truncated", False, {bool}, "expected true or false", None),
    ("text", _REQUIRED, {list}, "expected a non-empty list of non-empty strings", None),
)
_FIC_FIELDS = (
    ("index", _REQUIRED, {int}, "expected a positive integer",
     lambda indices: min(indices, default=1) > 0),
    ("span", _REQUIRED, {list}, "expected a [start, end] pair",
     lambda spans: set(map(len, spans)) <= {2}),
    ("nps", _REQUIRED, {list}, "expected a list", None),
)
_NP_FIELDS = (
    ("form", _REQUIRED, {str}, "expected a non-empty string", all),
    ("referent", _REQUIRED, {int}, "expected an integer", None),
    ("pronoun3", False, {bool}, "expected true or false", None),
    ("inferential", [], {list}, "expected a list", None),
)


def _fields(raw: Any, table: tuple, where: str) -> Iterator[Any]:
    """One element's fields; the first fault raises, located under where."""
    for key, default, types, problem, test in table:
        value = _require(raw, key, where) if default is _REQUIRED else raw.get(key, default)
        if type(value) not in types or test and not test([value]):
            raise SchemaError(f"{where}.{key}", problem.format(value))
        yield value


def _columns(items: list, table: tuple) -> Iterator[list]:
    """_fields for all elements at once, a column at a time in C; faults raise _FAULTS."""
    for key, default, types, _, test in table:
        column = list(
            map(itemgetter(key), items) if default is _REQUIRED
            else map(dict.get, items, repeat(key), repeat(default))
        )
        if not set(map(type, column)) <= types or test and not test(column):
            raise ValueError(key)
        yield column


def _relation_columns(rels: list) -> list[tuple]:
    """The source, tag and target columns of [source, tag, target] lists with integer ends
    and a string tag, each test a column at a time."""
    if not set(map(type, rels)) <= {list} or not set(map(len, rels)) <= {3}:
        raise ValidationError("expected [source, tag, target]")
    sources, tags, targets = columns = list(zip(*rels)) or [()] * 3
    if not set(map(type, chain(sources, targets))) <= {int} or not set(map(type, tags)) <= {str}:
        raise ValidationError("expected [source, tag, target]")
    return columns


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


def _subject_ids(value: Any) -> tuple[str, ...]:
    """Non-empty strings that each fit in one TSV cell."""
    if not isinstance(value, (list, tuple)) or not _nonempty_strings(value):
        raise SchemaError("subjects", "expected a list of non-empty strings")
    for k, subject in enumerate(value):
        if not _one_line(subject):
            raise SchemaError(f"subjects[{k}]", "expected no tab or line break")
    return tuple(value)


def _located(where: str, build, *args):
    """build(*args), its fault located under where."""
    try:
        return build(*args)
    except SchemaError as exc:
        raise SchemaError(f"{where}.{exc.location}", exc.problem) from None
    except ValidationError as exc:
        raise SchemaError(where, str(exc)) from None


def _phrases_by_element(raw_phrases: list) -> None:
    """Raise at the first faulty phrase, with its location."""
    for k, raw in enumerate(raw_phrases):
        where = f"phrases[{k}]"
        pid, _, pause, truncated, text = _fields(raw, _PHRASE_FIELDS, where)
        _located(where, _id_rule, pid)
        _located(where, _phrase_rules, f"phrase {pid}", [text], [pause], [truncated])


def load_narrative(source) -> Narrative:
    """Load and validate a transcript file."""
    data = _read_object(source)
    narrative_id = _narrative_id(_require(data, "narrative_id", ""))
    raw_phrases = _require(data, "phrases", "")
    if not isinstance(raw_phrases, list):
        raise SchemaError("phrases", "expected a list")
    try:
        ids, finals, pauses, truncated, texts = _columns(raw_phrases, _PHRASE_FIELDS)
        id_ints = list(map(int, ".".join(ids).split("."))) if ids else []
        tokens, pauses = _phrase_rules(f"narrative {narrative_id}", texts, pauses, truncated)
    except _FAULTS:
        _phrases_by_element(raw_phrases)  # names the fault the column pass met
        raise
    return Narrative._of_columns(narrative_id, tuple(ids), tuple(id_ints), tuple(tokens),
                                 tuple(accumulate(map(len, texts), initial=0)), tuple(finals),
                                 tuple(pauses), tuple(truncated))


def serialize_narrative(narrative: Narrative) -> dict:
    """Inverse of load_narrative, as a JSON-ready dict."""
    columns = (narrative.ids, narrative.sentence_finals, narrative.pauses, narrative.truncated,
               narrative.texts)
    return {
        "narrative_id": narrative.narrative_id,
        "phrases": [
            {
                "id": pid,
                "sentence_final": final,
                "pause_before": pause,
                "pause_truncated": truncated,
                "text": list(text),
            }
            for pid, final, pause, truncated, text in zip(*columns)
        ],
    }


def load_annotations(source, narrative: Narrative) -> AnnotationMatrix:
    """Load a subjects x sites boundary matrix tied to a transcript.

    The declared site count must equal the transcript's, and the two files
    must name the same narrative, so later joins on site indices are safe.
    """
    data = _read_object(source)
    narrative_id = _narrative_id(_require(data, "narrative_id", ""), narrative, "annotations are")
    subjects = _subject_ids(_require(data, "subjects", ""))
    sites = _require(data, "sites", "")
    if type(sites) is not int or sites < 1:
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


def _fics_by_element(raw_fics: list, narrative: Narrative) -> None:
    """Raise at the first faulty clause, with its location."""
    for n, raw in enumerate(raw_fics):
        where = f"fics[{n}]"
        index, span = _fields(raw, _FIC_FIELDS[:2], where)  # the span before the NPs
        for pid in span:
            _located(f"{where}.span", _id_rule, pid)
        start, end = [_located(f"{where}.span", narrative.index_of, pid) for pid in span]
        (raw_nps,) = _fields(raw, _FIC_FIELDS[2:], where)
        for m, raw_np in enumerate(raw_nps):
            np_where = f"{where}.nps[{m}]"
            form, referent, _, rels = _fields(raw_np, _NP_FIELDS, np_where)
            for r, rel in enumerate(rels):
                _located(f"{np_where}.inferential[{r}]", _relation_columns, [rel])
            name = f"fic {index} NP {form!r}"
            _located(np_where, _clause_rules, name, (), [], [], [referent])
            for source, tag, target in rels:  # one at a time, so the first faulty one is named
                _located(np_where, _clause_rules, name, (), [], [], [referent], [1], [source],
                         [tag], [target])
        _located(where, _clause_rules, f"fic {index}", narrative.ids, [start], [end])


def load_fic_coding(source, narrative: Narrative) -> FicCoding:
    """Load and validate a clause coding of a transcript."""
    data = _read_object(source)
    _narrative_id(_require(data, "narrative_id", ""), narrative, "coding is")
    raw_fics = _require(data, "fics", "")
    if not isinstance(raw_fics, list):
        raise SchemaError("fics", "expected a non-empty list")
    try:
        indices, raw_spans, raw_nps = _columns(raw_fics, _FIC_FIELDS)
        all_nps = list(chain.from_iterable(raw_nps))
        forms, referents, pronoun3s, raw_rels = _columns(all_nps, _NP_FIELDS)
        sources, tags, targets = _relation_columns(list(chain.from_iterable(raw_rels)))
        # Span ids are looked up by their text, so a non-canonical one is no key.
        ends = list(map(narrative._index.__getitem__, chain.from_iterable(raw_spans)))
        starts, ends = ends[::2], ends[1::2]
        counts = list(map(len, raw_rels))
        _clause_rules(f"coding {narrative.narrative_id}", narrative.ids, starts, ends, referents,
                      counts, sources, tags, targets)
    except _FAULTS:
        _fics_by_element(raw_fics, narrative)  # names the fault the column pass met
        raise
    return FicCoding._of_columns(narrative, indices, starts, ends,
                                 list(accumulate(map(len, raw_nps), initial=0)), forms,
                                 referents, pronoun3s, counts, sources, tags, targets)


def serialize_fic_coding(coding: FicCoding) -> dict:
    """Inverse of load_fic_coding, as a JSON-ready dict; each NP's relations are sorted."""
    nps = [
        {
            "form": form,
            "referent": referent,
            "pronoun3": pronoun3,
            "inferential": sorted(map(list, relations)),
        }
        for form, referent, pronoun3, relations in zip(
            coding.surfaces, coding.referents, coding.pronoun3s, coding._relations())
    ]
    ids, offsets = coding._ids, coding.np_offsets
    return {
        "narrative_id": coding.narrative_id,
        "fics": [
            {"index": index, "span": [ids[start], ids[end]], "nps": nps[a:b]}
            for index, start, end, a, b in zip(coding.indices, coding._starts, coding._ends,
                                               offsets, offsets[1:])
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
