"""Acceptance gate: one test per shipped guarantee.

Each test is one externally checkable promise about the toolkit, verified
with independent oracles (scipy for the chi-square tail, straight-line
recomputation elsewhere). The terminal summary prints one PASS/FAIL line
per criterion.
"""

from __future__ import annotations

import io
import json
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from segtool import (
    BatchItem,
    build_report,
    chi_square_sf,
    cochran_q,
    cue_segment,
    fixture_path,
    majority_threshold,
    metrics,
    normalize_to_sites,
    np_segment,
    null_calibration,
    pause_segment,
    percent_agreement,
    pooled_target,
)
from segtool.cli import run
from segtool.evaluation import aggregate_cells, confusion_table, score_units
from conftest import load_panel

F = Fraction


def test_criterion_01_agreement_reconstruction(pear9):
    """Fixture agreement: 71/77, 13/14, 58/63 exact; under 0.1 s."""
    _, matrix = pear9
    assert list(matrix.column_totals) == [6, 0, 0, 1, 1, 2, 0, 0, 1, 0, 7]

    report = percent_agreement(matrix)
    assert report.percent == F(71, 77)
    assert report.percent_boundary == F(13, 14)
    assert report.percent_non_boundary == F(58, 63)

    out = io.StringIO()
    start = time.perf_counter()
    rc = run(
        [
            "agree",
            "--narrative", str(fixture_path("pear9_excerpt_narrative.json")),
            "--annotations", str(fixture_path("pear9_excerpt_annotations.json")),
        ],
        stdout=out,
        stderr=io.StringIO(),
    )
    elapsed = time.perf_counter() - start
    assert rc == 0
    text = out.getvalue()
    assert "\tall\t71\t77\t0.92" in text
    assert "\tboundary\t13\t14\t0.93" in text
    assert "\tnon_boundary\t58\t63\t0.92" in text
    assert elapsed < 0.1


def test_criterion_02_majority_boundaries(pear9):
    """The panel majority validates exactly two of the eleven sites."""
    narrative, matrix = pear9
    majority = pooled_target(matrix.subjects, matrix.column_totals,
                             majority_threshold(matrix.subjects))[0]
    assert np.flatnonzero(majority).tolist() == [0, 10]
    assert narrative.site_labels(majority) == ("3.3→4.1", "8.4→9.1")
    target, mode = pooled_target(matrix.subjects, matrix.column_totals)
    assert (target.tolist(), mode) == (majority.tolist(), "threshold=4")


def test_criterion_03_cue_and_pause_marks(pear9):
    """Cue and pause segmenters reproduce the transcript's marks exactly."""
    narrative, matrix = pear9
    cue = cue_segment(narrative)
    assert narrative.site_labels(cue) == ("4.1→4.2", "8.4→9.1")
    pause = pause_segment(narrative)
    assert narrative.site_labels(pause) == (
        "3.3→4.1",
        "4.1→4.2",
        "4.3→5.1",
        "6.1→7.1",
        "7.1→8.1",
        "8.3→8.4",
        "8.4→9.1",
    )
    rows = np.vstack([pause, cue])
    cells = score_units(matrix, rows, threshold=4)[2][:, :, 0].tolist()
    assert [metrics(*unit)["recall"] for unit in zip(*cells)] == [F(1), F(1, 2)]


def test_criterion_04_cochran_q():
    """q=0/p=1 on balanced columns; worked 3x4 example; exact partition."""
    for rows in ([[1, 0], [0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]):
        balanced = cochran_q(load_panel(rows))
        assert balanced["q"] == 0.0
        assert balanced["p"] == 1.0

    worked = cochran_q(load_panel([[1, 1, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]]))
    assert worked["q"] == pytest.approx(7.2, abs=1e-12)
    assert worked["df"] == 3
    assert worked["p"] == pytest.approx(0.0658, abs=1e-3)
    assert worked["p"] == pytest.approx(scipy.stats.chi2.sf(7.2, 3), abs=1e-12)

    rng = np.random.default_rng(11)
    for _ in range(1000):
        cells = (rng.random((7, 50)) < rng.uniform(0.1, 0.6)).astype(np.int64)
        if not (cells.sum(axis=1) % 50).all():
            cells[0, 0] ^= 1  # keep every row non-constant
        matrix = load_panel(cells.tolist())
        result = cochran_q(matrix)
        total = sum(comp["q"] for comp in result["components"])
        assert abs(total - result["q"]) <= 1e-12 * max(1.0, abs(result["q"]))


def test_criterion_05_chi_square_tail():
    """Tail values at the textbook point, exact at zero, monotone in x."""
    assert chi_square_sf(3.841, 1) == pytest.approx(0.0500, abs=1e-3)
    for df in (1, 2, 5, 10, 100):
        assert chi_square_sf(0.0, df) == 1.0
    grid = np.linspace(0.0, 100.0, 10_000)
    values = [chi_square_sf(float(x), 3) for x in grid]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_criterion_06_null_calibration():
    """Q's chi-square approximation holds at a 16% boundary rate."""
    start = time.perf_counter()
    result = null_calibration((16,) * 7, sites=100, trials=10_000, seed=0)
    elapsed = time.perf_counter() - start
    assert 0.03 <= result["rejection_rate_05"] <= 0.07
    assert elapsed < 10.0


def test_criterion_07_recall_agreement_identity():
    """Mean subject recall against the >= 4 pool is the boundary agreement."""
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(500):
        cells = (rng.random((7, 100)) < rng.uniform(0.05, 0.5)).astype(np.int64)
        matrix = load_panel(cells.tolist())
        cells = score_units(matrix, matrix.cells, threshold=4)[2][:, :, 0]
        mean_recall = aggregate_cells(cells, ("recall",))["recall"]["mean"]
        boundary_agreement = percent_agreement(matrix, threshold=4).percent_boundary
        assert mean_recall == boundary_agreement
        if mean_recall is not None:
            checked += 1
    assert checked >= 400  # the identity must be exercised, not vacuous


def test_criterion_08_np_algorithm(three_link, shared_phrase):
    """Cascade order, the one boundary, site merging, and determinism."""
    _, coding = three_link
    result = np_segment(coding)
    assert result.boundaries == ((3, 4),)
    assert [step.linked_by for step in result.trace] == [
        "coreference",
        "inference",
        None,
    ]
    assert result.trace[0].tests == (("coreference", True),)
    assert result.trace[1].tests == (("coreference", False), ("inference", True))
    assert result.trace[2].tests == (
        ("coreference", False),
        ("inference", False),
        ("pronoun", False),
    )

    shared_narrative, shared_coding = shared_phrase
    shared = np_segment(shared_coding)
    assert shared.boundaries == ((6, 7), (7, 8))
    merged = normalize_to_sites(shared)
    assert merged.tolist() == [1]
    assert shared_narrative.site_labels(merged) == ("3.1→3.2",)

    argv = [
        "segment", "--method", "np", "--trace", "--json",
        "--narrative", str(fixture_path("three_link_tests_narrative.json")),
        "--coding", str(fixture_path("three_link_tests_coding.json")),
    ]
    outputs = set()
    for _ in range(100):
        out = io.StringIO()
        assert run(argv, stdout=out, stderr=io.StringIO()) == 0
        outputs.add(out.getvalue().encode("utf-8"))
    assert len(outputs) == 1


def test_criterion_09_metric_identities():
    """Confusion-cell identities over 10,000 random site triples."""
    rng = np.random.default_rng(31)

    def counts_of(predicted, target):
        cells = confusion_table(predicted[None, :], target[:, None])
        return tuple(int(cell[0, 0]) for cell in cells)

    for _ in range(10_000):
        sites = int(rng.integers(1, 61))
        predicted = (rng.random(sites) < 0.3).astype(np.int64)
        target = (rng.random(sites) < 0.3).astype(np.int64)
        a, b, c, d = counts = counts_of(predicted, target)
        assert a + b == predicted.sum()
        assert a + c == target.sum()
        assert a + b + c + d == sites
        scored = metrics(*counts)
        assert scored["error"] == F(b + c, sites)
        swapped = metrics(*counts_of(target, predicted))
        assert swapped["recall"] == scored["precision"]
        assert swapped["precision"] == scored["recall"]


def test_criterion_10_report_shapes(pear9, three_link, shared_phrase):
    """Corpus-scale tables render in shape from a synthetic 3-item batch."""
    big_narrative, big_matrix = pear9
    link_narrative, link_coding = three_link
    shared_narrative, shared_coding = shared_phrase
    batch = [
        BatchItem(big_narrative, big_matrix),
        BatchItem(
            link_narrative,
            load_panel([[0, 0, 1], [0, 1, 1], [1, 0, 1]], link_narrative),
            link_coding,
        ),
        BatchItem(
            shared_narrative,
            load_panel([[1], [1], [0]], shared_narrative),
            shared_coding,
        ),
    ]
    report = build_report(batch)

    # Hand-computed cells of the synthetic batch.
    assert report.agreement_summary["percent"]["mean"] == F(1640, 2079)
    assert report.method_table["np"]["recall"]["mean"] == F(1)
    assert report.method_table["humans"]["recall"]["mean"] == F(23, 26)
    assert report.strength_site_counts[1] == F(5, 3)

    blocks = report.to_tsv().split("\n\n")
    assert len(blocks) == 3
    agreement, methods, strengths = (b.rstrip("\n").split("\n") for b in blocks)

    # Narrative-average agreement table: one column per narrative plus the
    # pooled mean and its variance.
    assert agreement[0] == "# agreement"
    assert agreement[1].split("\t")[0] == "row"
    assert agreement[1].split("\t")[-2:] == ["all", "variance"]
    assert [line.split("\t")[0] for line in agreement[2:]] == [
        "opinions",
        "percent",
        "boundary_sites",
        "percent_boundary",
        "non_boundary_sites",
        "percent_non_boundary",
    ]

    # Methods-by-metrics table: np/cue/pause/humans rows, four metric
    # columns each with a variance beside it.
    assert methods[0].startswith("# methods threshold=")
    header = methods[1].split("\t")
    assert header == [
        "method",
        "recall", "recall_variance",
        "precision", "precision_variance",
        "fallout", "fallout_variance",
        "error", "error_variance",
    ]
    assert [line.split("\t")[0] for line in methods[2:]] == [
        "np", "cue", "pause", "humans",
    ]
    assert all(len(line.split("\t")) == 9 for line in methods[2:])

    # Per-strength table: sites row then recall and precision per method.
    assert strengths[0] == "# strengths"
    assert strengths[1].split("\t") == ["strength", "1", "2", "3", "4", "5", "6", "7"]
    assert strengths[2].split("\t")[0] == "sites"
    assert [line.split("\t")[0] for line in strengths[3:]] == [
        "np_recall", "np_precision",
        "cue_recall", "cue_precision",
        "pause_recall", "pause_precision",
        "humans_recall", "humans_precision",
    ]

    payload = json.loads(report.to_json())
    assert set(payload) == {"threshold", "agreement", "methods", "strengths"}
    assert set(payload["methods"]) == {"np", "cue", "pause", "humans"}
