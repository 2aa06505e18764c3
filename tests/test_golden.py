"""Byte-for-byte pins of every subcommand's stdout on the shipped fixtures.

Each case runs the CLI in-process and compares stdout with a file under
tests/golden/. The expected files were captured from the CLI and are only
rewritten on purpose, by running this module as a script:

    PYTHONPATH=src python tests/test_golden.py

Narratives without shipped annotations get a small fixed matrix written by
the test, so every fixture can be scored and batched.
"""

from __future__ import annotations

import io
import json
import shutil
from pathlib import Path

import pytest

from segtool import fixture_path
from segtool.cli import run
from conftest import annotations_doc

GOLDEN = Path(__file__).with_name("golden")

# narrative file stem -> (narrative id, subjects x sites matrix)
MATRICES = {
    "three_link_tests": ("synthetic-links", [[0, 0, 1], [0, 1, 1], [1, 0, 1]]),
    "shared_phrase": ("pear-06-excerpt", [[1], [1], [0], [1]]),
    "bicycle_wheels": ("pear-04-excerpt", [[0], [1], [0]]),
}
CODED = tuple(MATRICES)
ALL = ("pear9_excerpt", *CODED)


def _pair(stem):
    return ("--narrative", f"{{d}}/{stem}_narrative.json",
            "--annotations", f"{{d}}/{stem}_annotations.json")


def _coding(stem):
    return ("--coding", f"{{d}}/{stem}_coding.json")


def _cases():
    cases = {}
    for stem in ALL:
        cases[f"agree-{stem}"] = ("agree", *_pair(stem))
        cases[f"strengths-{stem}"] = ("strengths", *_pair(stem))
        cases[f"segment-cue-{stem}"] = ("segment", "--method", "cue",
                                        "--narrative", f"{{d}}/{stem}_narrative.json")
        cases[f"segment-pause-{stem}"] = ("segment", "--method", "pause",
                                          "--narrative", f"{{d}}/{stem}_narrative.json")
        cases[f"eval-humans-{stem}"] = ("eval", "--method", "humans", *_pair(stem))
        cases[f"eval-cue-{stem}"] = ("eval", "--method", "cue", *_pair(stem))
        cases[f"eval-pause-{stem}"] = ("eval", "--method", "pause", *_pair(stem))
    for stem in CODED:
        narrative = ("--narrative", f"{{d}}/{stem}_narrative.json")
        cases[f"segment-np-{stem}"] = ("segment", "--method", "np", *narrative, *_coding(stem))
        cases[f"segment-np-trace-{stem}"] = ("segment", "--method", "np", "--trace",
                                             *narrative, *_coding(stem))
        cases[f"eval-np-{stem}"] = ("eval", "--method", "np", *_pair(stem), *_coding(stem))
        cases[f"eval-np-exact1-{stem}"] = ("eval", "--method", "np", "--exact", "1",
                                           *_pair(stem), *_coding(stem))
    pear = _pair("pear9_excerpt")
    cases.update({
        "agree-threshold1-pear9_excerpt": ("agree", "--threshold", "1", *pear),
        "cochran-pear9_excerpt": ("cochran", *pear),
        "cochran-three_link_tests": ("cochran", *_pair("three_link_tests")),
        "cochran-calibrate-pear9_excerpt": ("cochran", "--component-df", "count-1",
                                            "--calibrate", "1000", "--seed", "3", *pear),
        "segment-cue-lexicon-pear9_excerpt": ("segment", "--method", "cue", "--cues",
                                              "{d}/cues.txt", "--narrative",
                                              "{d}/pear9_excerpt_narrative.json"),
        "eval-humans-exact2-pear9_excerpt": ("eval", "--method", "humans", "--exact", "2",
                                             *pear),
        "eval-humans-threshold3-pear9_excerpt": ("eval", "--method", "humans",
                                                 "--threshold", "3", *pear),
        "eval-humans-loo-pear9_excerpt": ("eval", "--method", "humans",
                                          "--leave-one-out", *pear),
        "eval-humans-loo-exact1-pear9_excerpt": ("eval", "--method", "humans",
                                                 "--leave-one-out", "--exact", "1", *pear),
        "eval-cue-lexicon-threshold2-pear9_excerpt": ("eval", "--method", "cue", "--cues",
                                                      "{d}/cues.txt", "--threshold", "2",
                                                      *pear),
        "eval-pause-exact1-pear9_excerpt": ("eval", "--method", "pause", "--exact", "1",
                                            *pear),
        "report": ("report", "--batch", "{d}/batch.json"),
        "report-threshold2": ("report", "--threshold", "2", "--batch", "{d}/batch.json"),
        "report-cues": ("report", "--cues", "{d}/cues.txt", "--batch", "{d}/batch.json"),
    })
    return {
        f"{name}.{fmt}": (*argv, f"--{fmt}")
        for name, argv in sorted(cases.items())
        for fmt in ("tsv", "json")
    }


CASES = _cases()


def _write_inputs(root: Path) -> None:
    for stem in ALL:
        for kind in ("narrative", "annotations", "coding"):
            name = f"{stem}_{kind}.json"
            try:
                shutil.copy(fixture_path(name), root / name)
            except KeyError:
                pass
    for stem, (narrative_id, rows) in MATRICES.items():
        (root / f"{stem}_annotations.json").write_text(
            json.dumps(annotations_doc(narrative_id, rows))
        )
    (root / "cues.txt").write_text("# test lexicon\nand\nmaybe\n")
    items = [{"narrative": f"{stem}_narrative.json",
              "annotations": f"{stem}_annotations.json"} for stem in ALL]
    for item, stem in zip(items[1:], CODED):
        item["coding"] = f"{stem}_coding.json"
    (root / "batch.json").write_text(json.dumps({"items": items}))


def _stdout(root: Path, argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    rc = run([a.format(d=root) for a in argv], stdout=out, stderr=err)
    assert (rc, err.getvalue()) == (0, "")
    return out.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden-inputs")
    _write_inputs(root)
    return root


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(inputs, name):
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert _stdout(inputs, CASES[name]) == expected


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _write_inputs(Path(tmp))
        GOLDEN.mkdir(exist_ok=True)
        for stale in GOLDEN.iterdir():
            stale.unlink()
        for name, argv in CASES.items():
            (GOLDEN / name).write_text(_stdout(Path(tmp), argv), encoding="utf-8")
    print(f"wrote {len(CASES)} files to {GOLDEN}")
