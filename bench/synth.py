"""Seeded synthetic corpora for the segtool benchmark.

Every narrative is drawn from a planted-boundary model, and the generator
keeps what it planted next to the files it writes, so the benchmark can
check segtool's outputs against facts it did not compute with segtool:

* true sites: annotators mark them with high probability and every other
  site with low probability, which gives the bimodal strength profile of
  real panels;
* cue and pause sites: the phrase after the site opens with a lexicon cue
  word, or carries a pause (possibly truncated); both are likelier at true
  sites;
* clause codings: segment boundaries are planted at clause junctions, and
  every clause inside a segment is tied to its context by exactly the
  planted link (coreference, one-hop inference or a third-person pronoun),
  so the noun-phrase segmenter's boundaries and trace are known.

The same (seed, shape) gives the same bytes.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# First words of cue-initial phrases, as a transcript spells them; each
# normalises to an entry of segtool's built-in lexicon.
CUE_FORMS = ("and", "A-nd", "So,", "so", "now", "Then", "well", "but", "because", "anyway", "okay")
# First words of other phrases; none normalises to a lexicon entry.
PLAIN_FORMS = ("the", "he", "she", "it", "there", "this", "they", "a", "his", "um", "The")
FILLER = (
    "man", "was", "picking", "pears", "boy", "comes", "by", "on", "bicycle",
    "takes", "basket", "of", "and", "goat", "tree", "ladder", "hat", "falls",
    "down", "three", "kids", "help", "him", "walks", "away", "...", "uh",
)
NOUNS = ("man", "boy", "goat", "tree", "ladder", "hat", "basket", "bicycle", "pears", "rock", "kids")
PRONOUNS = ("he", "she", "it", "they")
TAGS = ("r1", "r2", "r3", "r4", "r5")


@dataclass(frozen=True)
class Shape:
    """How many narratives, subjects and sites; codings on or off."""

    narratives: int
    subjects: int
    sites: int
    site_jitter: int
    codings: bool


PAPER = Shape(narratives=20, subjects=7, sites=100, site_jitter=10, codings=True)
STRESS = Shape(narratives=5, subjects=40, sites=1000, site_jitter=0, codings=False)


@dataclass
class Planted:
    """What the generator put into one narrative.

    cells is the subjects x sites matrix written to the annotation file;
    labels[k] is the "left→right" phrase-pair label of site k.
    np_sites and links describe the coding and are None without one;
    links[n] is the planted tie of clause n + 2 (1-based), None at a
    segment boundary.
    """

    narrative_id: str
    cells: np.ndarray
    labels: list[str]
    cue_sites: frozenset[int]
    pause_sites: frozenset[int]
    clauses: int | None = None
    np_sites: frozenset[int] | None = None
    links: list[str | None] | None = None


@dataclass
class Corpus:
    """Generated files on disk plus the planted facts, one entry per narrative."""

    root: Path
    manifest: Path
    items: list[dict[str, Path]]
    planted: list[Planted]


def _site_counts(shape: Shape, rng: np.random.Generator) -> list[int]:
    # Offsets cancel in pairs, so every seed has the same total site count
    # and the per-op work does not drift with the seed.
    half = rng.integers(-shape.site_jitter, shape.site_jitter + 1, size=shape.narratives // 2)
    offsets = np.concatenate([half, -half, np.zeros(shape.narratives % 2, dtype=np.int64)])
    return [shape.sites + int(x) for x in rng.permutation(offsets)]


def _phrase_ids(count: int, rng: np.random.Generator) -> tuple[list[str], list[bool]]:
    ids, finals = [], []
    sentence, phrase = 1, 1
    length = int(rng.integers(1, 5))
    for _ in range(count):
        ids.append(f"{sentence}.{phrase}")
        final = phrase == length
        finals.append(final)
        if final:
            sentence, phrase, length = sentence + 1, 1, int(rng.integers(1, 5))
        else:
            phrase += 1
    return ids, finals


def _clauses(phrases: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Clause spans as (first, last) phrase indices covering the transcript.

    About one junction in ten falls inside a phrase; the clause after such
    a junction starts in the phrase where the previous one ended.
    """
    spans = []
    start = 0
    while start < phrases:
        end = min(start + int(rng.choice(3, p=(0.6, 0.3, 0.1))), phrases - 1)
        spans.append((start, end))
        intra = end > start and rng.random() < 0.1 and (not spans[:-1] or spans[-2][1] < start)
        start = end if intra else end + 1
    return spans


def _junction_site(prev: tuple[int, int], cur: tuple[int, int], last_site: int) -> int | None:
    if cur[0] == prev[1]:
        return cur[0] if cur[0] <= last_site else None
    return cur[0] - 1


def _coding(spans, ids, boundary_before, rng):
    """Referring expressions whose ties plant the np segmenter's decisions."""
    neighbours: dict[int, set[int]] = {}
    next_ref = 1

    def fresh(count):
        nonlocal next_ref
        refs = list(range(next_ref, next_ref + count))
        next_ref += count
        return refs

    def np_(ref, pronoun=False, links=()):
        form = str(rng.choice(PRONOUNS)) if pronoun else "the " + str(rng.choice(NOUNS))
        return {"form": form, "referent": ref, "pronoun3": pronoun,
                "inferential": [[ref, tag, tgt] for tag, tgt in links]}

    fics, ties = [], []
    segment: set[int] = set()
    prev: list[int] = []
    for n, (first, last) in enumerate(spans):
        extra = fresh(int(rng.integers(0, 2)))
        if n == 0 or boundary_before[n]:
            tie = None
            refs = fresh(1) + extra
            nps = [np_(r, pronoun=rng.random() < 0.2) for r in refs]
            segment = set()
        else:
            pronoun_ok = [
                r for r in sorted(segment - set(prev))
                if not neighbours.get(r, set()) & set(prev)
            ]
            roll = rng.random()
            if roll < 0.2 and pronoun_ok:
                tie = "pronoun"
                anchor = int(rng.choice(pronoun_ok))
                nps = [np_(anchor, pronoun=True)] + [np_(r) for r in extra]
            elif roll < 0.45:
                tie = "inference"
                target = int(rng.choice(prev))
                (new,) = fresh(1)
                tag = str(rng.choice(TAGS))
                neighbours.setdefault(new, set()).add(target)
                neighbours.setdefault(target, set()).add(new)
                nps = [np_(new, links=[(tag, target)])] + [np_(r) for r in extra]
            else:
                tie = "coreference"
                anchor = int(rng.choice(prev))
                nps = [np_(anchor, pronoun=rng.random() < 0.5)] + [np_(r) for r in extra]
        refs = [x["referent"] for x in nps]
        segment |= set(refs)
        prev = refs
        if n:
            ties.append(tie)
        fics.append({"index": n + 1, "span": [ids[first], ids[last]], "nps": nps})
    return fics, ties


def _phrase(pid, final, first_word, pause, rng):
    tokens = []
    if rng.random() < 0.15:
        tokens.append(f"[.{int(rng.integers(1, 10))}]")
    tokens.append(first_word)
    tokens += [str(w) for w in rng.choice(FILLER, size=int(rng.integers(2, 9)))]
    value, truncated = pause
    return {"id": pid, "sentence_final": final, "pause_before": value,
            "pause_truncated": truncated, "text": tokens}


def _pause(is_pause: bool, rng) -> tuple[float | None, bool]:
    if is_pause:
        if rng.random() < 0.05:
            return 0.0, True
        return round(float(rng.uniform(0.05, 1.5)), 2), bool(rng.random() < 0.2)
    return (0.0, False) if rng.random() < 0.1 else (None, False)


def _narrative(name: str, subjects: int, sites: int, codings: bool, rng):
    phrases = sites + 1
    ids, finals = _phrase_ids(phrases, rng)
    labels = [f"{ids[k]}→{ids[k + 1]}" for k in range(sites)]
    coding = ties = np_sites = None
    if codings:
        spans = _clauses(phrases, rng)
        boundary_before = [n > 0 and rng.random() < 0.3 for n in range(len(spans))]
        coding, ties = _coding(spans, ids, boundary_before, rng)
        junctions = [_junction_site(spans[n - 1], spans[n], sites - 1) for n in range(1, len(spans))]
        np_sites = frozenset(s for s, b in zip(junctions, boundary_before[1:]) if b and s is not None)
        true = np.zeros(sites, dtype=bool)
        true[list(np_sites)] = True
        true |= rng.random(sites) < 0.03
    else:
        true = rng.random(sites) < 0.15

    cue = np.where(true, rng.random(sites) < 0.5, rng.random(sites) < 0.1)
    pause = np.where(true, rng.random(sites) < 0.7, rng.random(sites) < 0.25)
    phrase_list = [_phrase(ids[0], finals[0], str(rng.choice(PLAIN_FORMS)), _pause(bool(rng.random() < 0.5), rng), rng)]
    for k in range(sites):
        word = str(rng.choice(CUE_FORMS if cue[k] else PLAIN_FORMS))
        phrase_list.append(_phrase(ids[k + 1], finals[k + 1], word, _pause(bool(pause[k]), rng), rng))
    pause_sites = frozenset(
        k for k in range(sites)
        if phrase_list[k + 1]["pause_truncated"] or (phrase_list[k + 1]["pause_before"] or 0) > 0
    )

    # Subjects differ in how readily they hear a boundary.
    hit = rng.uniform(0.6, 0.9, size=(subjects, 1))
    noise = rng.uniform(0.02, 0.08, size=(subjects, 1))
    cells = (rng.random((subjects, sites)) < np.where(true, hit, noise)).astype(np.int64)
    docs = {
        "narrative": {"narrative_id": name, "phrases": phrase_list},
        "annotations": {
            "narrative_id": name,
            "subjects": [f"s{i + 1}" for i in range(subjects)],
            "sites": sites,
            "matrix": cells.tolist(),
        },
    }
    if coding is not None:
        docs["coding"] = {"narrative_id": name, "fics": coding}
    planted = Planted(
        narrative_id=name,
        cells=cells,
        labels=labels,
        cue_sites=frozenset(int(k) for k in np.flatnonzero(cue)),
        pause_sites=pause_sites,
        clauses=None if coding is None else len(coding),
        np_sites=np_sites,
        links=ties,
    )
    return docs, planted


def generate(root: Path, seed: int, tag: str, shape: Shape) -> Corpus:
    """Write one corpus and its batch manifest under root/tag."""
    root = Path(root) / tag
    root.mkdir(parents=True, exist_ok=True)
    stream = zlib.crc32(tag.encode())
    rng = np.random.default_rng([seed, stream])
    counts = _site_counts(shape, rng)
    items, planted = [], []
    for n, sites in enumerate(counts):
        name = f"{tag}-{n + 1:02d}"
        docs, facts = _narrative(name, shape.subjects, sites, shape.codings, np.random.default_rng([seed, stream, n + 1]))
        paths = {}
        for kind, doc in docs.items():
            path = root / f"{name}.{kind}.json"
            path.write_text(json.dumps(doc, ensure_ascii=False) + "\n", encoding="utf-8")
            paths[kind] = path
        items.append(paths)
        planted.append(facts)
    manifest = root / "batch.json"
    manifest.write_text(json.dumps({"items": [
        {kind: path.name for kind, path in paths.items()} for paths in items
    ]}, indent=2) + "\n", encoding="utf-8")
    return Corpus(root=root, manifest=manifest, items=items, planted=planted)
