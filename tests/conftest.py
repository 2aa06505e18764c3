"""Shared fixtures, the test helpers that build a panel and a cue lexicon, the first-word
oracle, and the acceptance summary hook."""

from __future__ import annotations

import json
from functools import cache
from itertools import count

import numpy as np
import pytest

from segtool import (
    AnnotationMatrix,
    CueLexicon,
    Narrative,
    fixture_path,
    load_annotations,
    load_fic_coding,
    load_narrative,
)
from segtool import segmenters


@cache
def made_up_transcript(narrative_id: str, sites: int) -> Narrative:
    """A transcript of sites + 1 one-word phrases, one sentence each."""
    return load_narrative(json.dumps({"narrative_id": narrative_id, "phrases": [
        {"id": f"{k}.1", "sentence_final": True, "pause_before": None, "text": ["word"]}
        for k in range(1, sites + 2)
    ]}).encode())


def annotations_doc(narrative_id: str, rows: list) -> dict:
    """The annotation file of rows (lists of cells), one per subject s1, s2, ..."""
    return {"narrative_id": narrative_id, "subjects": [f"s{k + 1}" for k in range(len(rows))],
            "sites": len(rows[0]), "matrix": rows}


def load_panel(rows, narrative: Narrative | str = "m") -> AnnotationMatrix:
    """rows (lists or a 2-d array of 0/1) loaded by load_annotations against narrative, or
    against a made-up transcript of that id with one site per column."""
    rows = np.asarray(rows).tolist()
    if isinstance(narrative, str):
        narrative = made_up_transcript(narrative, len(rows[0]))
    doc = annotations_doc(narrative.narrative_id, rows)
    return load_annotations(json.dumps(doc).encode(), narrative)


def first_word(tokens) -> str | None:
    """A phrase's first word by the plain loop: its first token that holds an ASCII letter
    and is no bracketed notation, normalized."""
    for token in tokens:
        if token.startswith("[") or not segmenters._HAS_ALPHA.search(token):
            continue
        word = segmenters.normalize_token(token)
        if word:
            return word
    return None


@pytest.fixture(scope="session")
def lexicon_of(tmp_path_factory):
    """A function of cue words giving CueLexicon.from_file of a new file that holds them one
    per line, in a session temporary directory (so a Hypothesis test may use it too)."""
    directory, names = tmp_path_factory.mktemp("cues"), count()

    def lexicon(words) -> CueLexicon:
        path = directory / f"cues-{next(names)}.txt"
        path.write_text("".join(f"{word}\n" for word in sorted(words)), encoding="utf-8")
        return CueLexicon.from_file(path)

    return lexicon


@pytest.fixture(scope="session")
def pear9():
    narrative = load_narrative(fixture_path("pear9_excerpt_narrative.json"))
    matrix = load_annotations(fixture_path("pear9_excerpt_annotations.json"), narrative)
    return narrative, matrix


@pytest.fixture(scope="session")
def shared_phrase():
    narrative = load_narrative(fixture_path("shared_phrase_narrative.json"))
    coding = load_fic_coding(fixture_path("shared_phrase_coding.json"), narrative)
    return narrative, coding


@pytest.fixture(scope="session")
def three_link():
    narrative = load_narrative(fixture_path("three_link_tests_narrative.json"))
    coding = load_fic_coding(fixture_path("three_link_tests_coding.json"), narrative)
    return narrative, coding


@pytest.fixture(scope="session")
def bicycle():
    narrative = load_narrative(fixture_path("bicycle_wheels_narrative.json"))
    coding = load_fic_coding(fixture_path("bicycle_wheels_coding.json"), narrative)
    return narrative, coding


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    results = {}
    for status, passed in (("passed", True), ("failed", False), ("error", False)):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py" not in nodeid:
                continue
            name = nodeid.split("::")[-1]
            if not passed:
                results[name] = False
            else:
                results.setdefault(name, True)
    if results:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name in sorted(results):
            verdict = "PASS" if results[name] else "FAIL"
            terminalreporter.write_line(f"{name}: {verdict}")
