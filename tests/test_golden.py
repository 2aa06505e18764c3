"""Byte-for-byte pins of every subcommand's stdout on the shipped fixtures.

Each case runs the CLI in-process and compares stdout with a file under
tests/golden/. The expected files were captured from the CLI and are only
rewritten on purpose, by running this module as a script that names what
the change may add:

    PYTHONPATH=src python tests/test_golden.py --key calibration.null_mean --row null_mean

A --key is a JSON key path, dot-separated, that passes through every item
of a list on its way (components.exact names each component's key); a
--row is the first cell of a TSV row, or of the first row of a block, that
may be added. The script writes nothing unless each regenerated file, with
every declared key, row and block dropped, reads as its old bytes, no old
file loses its case, and each declaration matches something added. A case
with no file yet is written as it comes.

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
from segtool.render import to_json, tsv
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


def _drop(value, path: list[str]) -> None:
    if isinstance(value, list):
        for item in value:
            _drop(item, path)
    elif isinstance(value, dict) and path[0] in value:
        if len(path) == 1:
            del value[path[0]]
        else:
            _drop(value[path[0]], path[1:])


def _without(name: str, text: str, keys=(), rows=()) -> str:
    """text as it reads with the declared additions dropped: each key path
    from a .json file, and from a .tsv file each block whose first row, and
    each row, has a declared first cell."""
    if name.endswith(".json"):
        doc = json.loads(text)
        for key in keys:
            _drop(doc, key.split("."))
        return to_json(doc)
    blocks = [block.split("\n") for block in text.removesuffix("\n").split("\n\n")]
    return "\n\n".join(
        "\n".join(line for line in lines if line.split("\t")[0] not in rows)
        for lines in blocks if lines[0].split("\t")[0] not in rows
    ) + "\n"


def refused(old: dict, new: dict, keys=(), rows=()) -> list[str]:
    """Why the new texts may not replace the old ones, by file name; empty when they may."""
    problems = [f"{name}: no case writes it" for name in sorted(old.keys() - new.keys())]
    problems += [f"{name}: changed beyond the declared keys and rows"
                 for name in sorted(old.keys() & new.keys())
                 if _without(name, new[name], keys, rows) != old[name]]
    problems += [f"--key {key}: no file adds it" for key in keys
                 if all(_without(name, text, keys=[key]) == text for name, text in new.items())]
    problems += [f"--row {row}: no file adds it" for row in rows
                 if all(_without(name, text, rows=[row]) == text for name, text in new.items())]
    return problems


def regenerate(golden: Path, new: dict, keys=(), rows=()) -> list[str]:
    """Write the new texts to golden, unless refused() finds a reason; returns the reasons."""
    old = {path.name: path.read_text(encoding="utf-8") for path in golden.glob("*")}
    problems = refused(old, new, keys, rows)
    if not problems:
        golden.mkdir(exist_ok=True)
        for name, text in new.items():
            if old.get(name) != text:
                (golden / name).write_text(text, encoding="utf-8")
    return problems


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


class TestDeclaredChanges:
    """The regeneration check, on synthetic old and new texts."""

    OLD = {
        "c.json": to_json({"q": 1.5, "components": [{"strength": 0}, {"strength": 2}],
                           "calibration": {"trials": 1000}}),
        "c.tsv": tsv([["statistic", "value"], ["q", "1.50"]],
                     [["# calibration trials=1000"], ["rejection_rate_05", "0.0310"]]),
    }
    ADDED = {
        "c.json": to_json({"q": 1.5, "components": [{"strength": 0, "exact": 1},
                                                    {"strength": 2, "exact": 2}],
                           "calibration": {"trials": 1000, "null_mean": 10.0}}),
        "c.tsv": tsv([["statistic", "value"], ["q", "1.50"]],
                     [["# calibration trials=1000"], ["rejection_rate_05", "0.0310"],
                      ["null_mean", "10.00"]],
                     [["# exact"], ["exact_p", "2.55e-07"]]),
    }
    KEYS, ROWS = ["calibration.null_mean", "components.exact"], ["null_mean", "# exact"]

    def test_declared_additions_are_accepted(self):
        assert refused(self.OLD, self.ADDED, self.KEYS, self.ROWS) == []

    @pytest.mark.parametrize("name, old, new", [
        ("c.json", '"q": 1.5', '"q": 2.5'),
        ("c.json", '"trials": 1000', '"trials": 1001'),
        ("c.json", '"strength": 2', '"strength": 3'),
        ("c.tsv", "q\t1.50", "q\t1.51"),
        ("c.tsv", "10.00\n", "10.00\nseed\t3\n"),
        ("c.tsv", "\n\n# exact", "\n\n# seed\n\n# exact"),
    ])
    def test_an_undeclared_change_is_refused(self, name, old, new):
        changed = {**self.ADDED, name: self.ADDED[name].replace(old, new, 1)}
        assert changed != self.ADDED
        assert refused(self.OLD, changed, self.KEYS, self.ROWS) == [
            f"{name}: changed beyond the declared keys and rows"]

    def test_additions_must_be_declared(self):
        assert refused(self.OLD, self.ADDED) == [
            "c.json: changed beyond the declared keys and rows",
            "c.tsv: changed beyond the declared keys and rows",
        ]

    def test_a_declaration_that_adds_nothing_is_refused(self):
        assert refused(self.OLD, self.ADDED, [*self.KEYS, "provenance"], [*self.ROWS, "mean"]) == [
            "--key provenance: no file adds it", "--row mean: no file adds it"]

    def test_a_file_without_a_case_is_refused(self):
        assert refused({**self.OLD, "gone.tsv": "x\n"}, self.ADDED, self.KEYS, self.ROWS) == [
            "gone.tsv: no case writes it"]

    def test_refused_texts_are_not_written(self, tmp_path):
        for name, text in self.OLD.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        assert regenerate(tmp_path, self.ADDED, self.KEYS[:1], self.ROWS) == [
            "c.json: changed beyond the declared keys and rows"]
        assert {p.name: p.read_text(encoding="utf-8") for p in tmp_path.iterdir()} == self.OLD
        assert regenerate(tmp_path, {**self.ADDED, "new.tsv": "x\n"}, self.KEYS, self.ROWS) == []
        assert {p.name: p.read_text(encoding="utf-8") for p in tmp_path.iterdir()} == {
            **self.ADDED, "new.tsv": "x\n"}


def test_golden_files_read_as_themselves_with_nothing_declared():
    """Dropping nothing gives each file's bytes back, so a declaration is checked exactly."""
    texts = {path.name: path.read_text(encoding="utf-8") for path in GOLDEN.iterdir()}
    assert [name for name, text in texts.items() if _without(name, text) != text] == []


if __name__ == "__main__":
    import argparse
    import sys
    import tempfile

    parser = argparse.ArgumentParser(description="Rewrite tests/golden from the CLI, "
                                     "refusing every change but the declared additions.")
    parser.add_argument("--key", action="append", default=[], metavar="PATH",
                        help="a JSON key path that may be added, such as calibration.null_mean")
    parser.add_argument("--row", action="append", default=[], metavar="LABEL",
                        help="the first cell of a TSV row, or of a block's first row, "
                             "that may be added")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        _write_inputs(Path(tmp))
        texts = {name: _stdout(Path(tmp), argv) for name, argv in CASES.items()}
    problems = regenerate(GOLDEN, texts, args.key, args.row)
    if problems:
        sys.exit("refused; nothing written:\n" + "\n".join(problems))
    print(f"wrote {GOLDEN}: {len(CASES)} files, every change declared")
