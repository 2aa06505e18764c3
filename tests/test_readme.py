"""The README's examples run: file formats load, commands and library calls
give what the README shows."""

from __future__ import annotations

import io
import json
import re
import shlex
from fractions import Fraction
from pathlib import Path

from segtool import fixture_path, load_annotations, load_fic_coding, load_narrative
from segtool import significance
from segtool.cli import run
from segtool.corpus import load_manifest

README = Path(__file__).resolve().parents[1] / "README.md"


def _section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    return text.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def _blocks(title: str, language: str) -> list[str]:
    return re.findall(rf"```{language}\n(.*?)```", _section(title), re.S)


def _format_examples() -> dict[str, dict]:
    blocks = [json.loads(b) for b in _blocks("File formats", "json")]
    kinds = {"phrases": "narrative", "matrix": "annotations", "fics": "coding",
             "items": "manifest"}
    return {kinds[key]: block for block in blocks for key in kinds if key in block}


def _narrative(narrative_id: str, phrase_ids):
    """A transcript with one plain phrase per (sentence, phrase) pair, in transcript order."""
    return load_narrative(json.dumps({
        "narrative_id": narrative_id,
        "phrases": [
            {"id": "%s.%s" % pid, "text": ["word"], "sentence_final": True, "pause_before": None}
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
    ids = [(k, 1) for k in range(1, doc["sites"] + 2)]
    narrative = _narrative(doc["narrative_id"], ids)
    matrix = load_annotations(json.dumps(doc).encode(), narrative)
    assert matrix.cells.tolist() == doc["matrix"]


def test_coding_example_loads():
    doc = _format_examples()["coding"]
    ids = {tuple(map(int, pid.split("."))) for fic in doc["fics"] for pid in fic["span"]}
    ids.add((max(ids)[0] + 1, 1))
    coding = load_fic_coding(json.dumps(doc).encode(), _narrative(doc["narrative_id"], ids))
    assert list(coding.indices) == [fic["index"] for fic in doc["fics"]]


def test_manifest_example_loads():
    doc = _format_examples()["manifest"]
    manifest = load_manifest(json.dumps(doc).encode())
    assert [[str(path) for path in item if path] for item in manifest.items()] == [
        [item[key] for key in ("narrative", "annotations", "coding") if key in item]
        for item in doc["items"]
    ]
    assert manifest.format == doc["format"]


def test_calibration_chunk_formula_is_the_code():
    text = " ".join(_section("Command line").split())
    assert re.search(r"Trials run in chunks of max\(1, (\d+) // sites\)", text)[1] == str(
        significance._CHUNK_CELLS)


def _cli_examples() -> tuple[dict[str, str], list[tuple[list[str], list[str]]]]:
    """The shell variables' fixture paths, and each segtool line's argv with
    the commented lines that follow it."""
    variables, commands = {}, []
    for block in _blocks("Command line", "sh"):
        for line in block.splitlines():
            assignment = re.fullmatch(
                r"""(\w+)=\$\(python3 -c "from segtool import fixture_path; """
                r"""print\(fixture_path\('([\w.]+)'\)\)"\)""", line)
            if assignment:
                variables[assignment[1]] = str(fixture_path(assignment[2]))
            elif line.startswith("segtool "):
                for name, path in variables.items():
                    line = line.replace(f"${name}", path)
                commands.append((shlex.split(line)[1:], []))
            elif line.startswith("# "):
                commands[-1][1].append(line[2:])
    return variables, commands


def test_command_line_examples_run(tmp_path, monkeypatch):
    variables, commands = _cli_examples()
    assert set(variables) == {"NARR", "ANNS", "CNARR", "CCOD"}
    assert {argv[0] for argv, _ in commands} == {
        "agree", "strengths", "cochran", "segment", "eval", "report"
    }
    # The report line names batch.json and report.tsv in the working directory.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "batch.json").write_text(json.dumps({"items": [
        {"narrative": variables["NARR"], "annotations": variables["ANNS"]},
    ]}))
    for argv, table in commands:
        out, err = io.StringIO(), io.StringIO()
        assert run(argv, out, err) == 0, (argv, err.getvalue())
        assert [line.split() for line in table] == (
            [row.split("\t") for row in out.getvalue().splitlines()] if table else []
        )
    assert (tmp_path / "report.tsv").read_text(encoding="utf-8").startswith("# agreement\n")
    agree = next(table for argv, table in commands if argv[0] == "agree")
    assert len(agree) == 4


def test_library_example_values():
    """The Library block run on the pear9 fixture, each commented value checked."""
    block = _blocks("Library", "python")[0]
    for name in ("narrative", "annotations"):
        path = fixture_path(f"pear9_excerpt_{name}.json")
        block = block.replace(f'"{name}.json"', repr(str(path)))
    imports, statements = block.split("\n\n", 1)
    namespace = {}
    exec(imports, namespace)
    checks = {
        "the >= 4 pool as a 0/1 vector over sites": lambda value: (
            value.tolist() == [int(k in namespace["strengths"].cumulative(4).sites)
                               for k in range(namespace["matrix"].sites)]
        ),
        "float survival probability": lambda value: isinstance(value, float) and 0 < value < 1,
    }
    checked = []
    for line in statements.splitlines():
        code, _, comment = (part.strip() for part in line.partition("#"))
        if re.fullmatch(r"\w+ = .*", code):
            exec(code, namespace)
        elif code:
            value = eval(code, namespace)
            literal = re.search(r"(Fraction\(\d+, \d+\)|\{[\d, ]*\})$", comment)
            if literal:
                assert value == eval(literal[1], {"Fraction": Fraction}), (code, value)
                checked.append(code)
            elif comment in checks:
                assert checks[comment](value), (code, value)
                checked.append(code)
    assert checked == [
        "percent_agreement(matrix).percent",
        "strengths.cumulative(4).sites",
        "strengths.exact(2).sites",
        "strengths.mask(4)",
        "cochran_q(matrix).p",
    ]
