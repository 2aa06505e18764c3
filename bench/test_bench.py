"""Tests of the benchmark itself, kept out of the repository's test run.

    python3 -m pytest bench
"""

from __future__ import annotations

import io
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import synth  # noqa: E402

SMALL = synth.Shape(narratives=3, subjects=7, sites=30, site_jitter=5, codings=True)


def _files(root: Path, seed: int) -> dict[str, bytes]:
    corpus = synth.generate(root, seed, "paper", SMALL)
    return {path.name: path.read_bytes() for path in sorted(corpus.root.iterdir())}


def test_generator_is_deterministic_per_seed(tmp_path):
    first = _files(tmp_path / "a", 5)
    assert first == _files(tmp_path / "b", 5)
    assert first != _files(tmp_path / "c", 6)


@pytest.fixture(scope="module")
def cli():
    return run.load_segtool()[0]


@pytest.fixture(scope="module")
def ops(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    return run.commands(root, 3)[1][:6] + run.report_paper(root, 3)[1]


class _Corrupting:
    """Runs segtool, then changes the first digit after the output's first line."""

    def __init__(self, cli):
        self.cli = cli

    def run(self, argv, out, err):
        buffer = io.StringIO()
        code = self.cli.run(argv, buffer, err)
        text = buffer.getvalue()
        match = re.compile(r"\d").search(text, text.index("\n"))
        out.write(text[:match.start()] + str((int(match.group()) + 5) % 10) + text[match.end():])
        return code


@pytest.mark.parametrize("kind", ["agree", "strengths", "cochran", "segment", "eval-humans",
                                  "eval-cue", "report"])
def test_corrupted_output_counts_as_failed(cli, ops, kind):
    op = next(op for op in ops if op.key.split(":")[0] == kind)
    assert run.measure(cli, [op], 0, {}).failed == 0
    assert run.measure(_Corrupting(cli), [op], 0, {}).failed == 1


def test_self_time_on_hand_built_tree():
    # op, parent, name, layer, start, end, size
    tree = [
        [0, -1, "cli.run", "cli", 0, 100, 0],
        [0, 0, "corpus.load_narrative", "corpus", 10, 30, 7],
        [0, 0, "report.build_report", "report", 30, 90, 0],
        [0, 2, "evaluation.confusion", "evaluation", 40, 60, 0],
        [0, 2, "evaluation.confusion", "evaluation", 60, 70, 0],
        [1, -1, "cli.run", "cli", 200, 250, 0],
        [1, 5, "significance.null_calibration", "significance", 205, 245, 1000],
    ]
    stats = spans.per_op(tree)
    assert dict(stats[0]["self_ns"]) == {"cli": 20, "corpus": 20, "report": 30, "evaluation": 30}
    assert dict(stats[1]["self_ns"]) == {"cli": 10, "significance": 40}
    assert stats[0]["name_calls"]["evaluation.confusion"] == 2
    assert stats[0]["name_ns"]["report.build_report"] == 60
    assert stats[0]["name_size"]["corpus.load_narrative"] == 7


def test_recorder_sees_imported_names_and_restores_them(cli, ops):
    import segtool.evaluation
    import segtool.report

    originals = (cli.run, segtool.report.evaluate_humans, segtool.evaluation.boundary_strengths)
    with spans.Recorder() as recorder:
        run.measure(cli, [ops[-1]], 0, {}, recorder)
    names = {span[spans.NAME] for span in recorder.spans}
    assert {"cli.run", "evaluation.evaluate_humans", "agreement.boundary_strengths",
            "report.Report.to_tsv"} <= names
    assert (cli.run, segtool.report.evaluate_humans,
            segtool.evaluation.boundary_strengths) == originals


def test_normalised_metrics_scale_by_probe_time():
    # Ops of 100 and 300 ms while the 10 ms reference probe took 20 ms:
    # the machine ran at half the reference speed.
    phase = run.Phase([0.1, 0.3], cells=400, failed=0, probes=[0.02, 0.02])
    rows = {name: value for name, value, *_ in run.end_to_end(phase, 10.0, [0.2], 2, 0)}
    assert rows["op_ms_mean"] == pytest.approx(200)
    assert rows["op_ms_norm"] == pytest.approx(100)
    assert rows["cells_per_s"] == pytest.approx(1000)
    assert rows["cells_per_s_norm"] == pytest.approx(2000)
    assert rows["setup_s"] == pytest.approx(0.2)
