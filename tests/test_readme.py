"""The README's file-format examples load through the real loaders."""

from __future__ import annotations

import json
import re
from pathlib import Path

from segtool import PhraseId, load_annotations, load_fic_coding, load_narrative
from segtool.corpus import load_manifest

README = Path(__file__).resolve().parents[1] / "README.md"


def _format_examples() -> dict[str, dict]:
    text = README.read_text(encoding="utf-8")
    section = text.split("## File formats", 1)[1].split("\n## ", 1)[0]
    blocks = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", section, re.S)]
    kinds = {"phrases": "narrative", "matrix": "annotations", "fics": "coding",
             "items": "manifest"}
    return {kinds[key]: block for block in blocks for key in kinds if key in block}


def _narrative(narrative_id: str, phrase_ids):
    """A transcript with one plain phrase per id, in transcript order."""
    return load_narrative(json.dumps({
        "narrative_id": narrative_id,
        "phrases": [
            {"id": str(pid), "text": ["word"], "sentence_final": True, "pause_before": None}
            for pid in sorted(phrase_ids)
        ],
    }).encode())


def test_every_format_has_an_example():
    assert set(_format_examples()) == {"narrative", "annotations", "coding", "manifest"}


def test_narrative_example_loads():
    doc = _format_examples()["narrative"]
    narrative = load_narrative(json.dumps(doc).encode())
    assert narrative.site_count == len(doc["phrases"]) - 1


def test_annotations_example_loads():
    doc = _format_examples()["annotations"]
    ids = [PhraseId(k, 1) for k in range(1, doc["sites"] + 2)]
    narrative = _narrative(doc["narrative_id"], ids)
    matrix = load_annotations(json.dumps(doc).encode(), narrative)
    assert matrix.cells.tolist() == doc["matrix"]


def test_coding_example_loads():
    doc = _format_examples()["coding"]
    ids = {PhraseId.parse(pid) for fic in doc["fics"] for pid in fic["span"]}
    last = max(ids)
    ids.add(PhraseId(last.sentence + 1, 1))
    coding = load_fic_coding(json.dumps(doc).encode(), _narrative(doc["narrative_id"], ids))
    assert [fic.index for fic in coding.fics] == [fic["index"] for fic in doc["fics"]]


def test_manifest_example_loads():
    doc = _format_examples()["manifest"]
    manifest = load_manifest(json.dumps(doc).encode())
    assert [[str(path) for path in item if path] for item in manifest.items()] == [
        [item[key] for key in ("narrative", "annotations", "coding") if key in item]
        for item in doc["items"]
    ]
    assert manifest.format == doc["format"]
