"""segtool benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload report_paper --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all

One process drives one workload as a closed loop with a single client: an
op is one in-process `segtool.cli.run(argv)` call, which reads the
generated files, computes, and writes its stdout into memory; the next op
starts when the previous one has returned. No threads or child workers
take part, so the numbers hold on a two-core machine, and each workload
runs in its own process so that its peak memory is its own.

Before timing, the benchmark generates its corpora from --seed (see
synth.py), loads every file once through segtool's loaders, and runs each
distinct op once. Every op's output is checked (see checks.py); a non-zero
exit, any stderr, or a failed check counts the op as failed.

--trace 0 prints the end-to-end metrics. A fixed reference computation
(see probe.py) runs between timed ops, a tenth of the op time. The scored
latency and throughput are given at the reference machine speed: wall
time scaled by the probe's reference time over its mean time in the same
run. On a shared machine whose speed changes from minute to minute, these
repeat from run to run where raw wall times do not; the raw figures are
printed too. setup_s stays wall time, as cold starts do not follow the
probe.

--trace 1 spends a third of the time untraced and the rest with every
public function of segtool's modules wrapped in a span (see spans.py),
and prints per-layer metrics: per-op means over the traced ops, plus the
tracing overhead, traced op_ms_p50 minus untraced op_ms_p50. Spans are
written to
.bench_out/spans-<workload>.jsonl.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it list every metric with
its unit and sample count. The result line leaves out the metrics in
UNSCORED.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import probe
import spans
import synth

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Why each workload exists. BENCHMARK.json scores report_paper, calibrate
# and commands, which between them reach every layer. report_stress stays
# here for traced runs, where it shows the per-strength re-evaluation at
# its worst, but is not scored: a 30 s run holds only about fifteen of its
# 2 s ops, and its work changes with the seed by about 10%, so its spread
# from seed to seed reached 0.3 even after probe normalisation.
WORKLOADS = {
    "report_paper": "report --tsv at paper scale (20 narratives x 7 subjects x ~100 sites, "
                    "with codings): loading, segmenters and TSV rendering are a real share",
    "report_stress": "report --json at stress scale (5 x 40 x 1000, no codings): per-strength "
                     "human evaluation and Fraction aggregation dominate",
    "calibrate": "cochran --calibrate, 3:1 mix of 7x100 at 10k trials and 40x1000 at 2k "
                 "trials: only the null simulation works, report layers idle",
    "commands": "round-robin of agree, strengths, cochran, segment np, eval humans "
                "leave-one-out and eval cue: parser build and loading dominate",
}
COLD_STARTS = 11
# Probe time as a share of op time, spread over the run.
PROBE_SHARE = 0.1
# The probe parts whose slow-downs follow each workload's ops. The null
# calibration is a loop of small numpy calls and follows small_numpy
# alone; the other workloads follow the whole mix. Measured as the spread
# of op time over probe time across 10-15 s windows of one run: 1.5% for
# calibrate against small_numpy (4% against the mix), 3% for report_paper
# against the mix (7% against small_numpy).
PROBE_PARTS = {"calibrate": ("small_numpy",)}
# Printed with the other metrics but left out of the result line, which
# must hold only metrics that repeat within their bound from run to run.
# Failures are already counted by its "failed" field. Raw wall times
# follow the shared machine's speed, which can halve for a minute at a
# time: op_ms_mean and cells_per_s move by up to 2x between runs of the
# same code, so their probe-normalised forms are scored in their place.
# On such a machine op latencies are also bimodal, so the median jumps
# between the two levels from run to run, and the ten-beyond tail is set
# by scheduler stalls.
UNSCORED = {"failed_ratio", "op_ms_p50", "op_ms_mean", "op_ms_tail", "cells_per_s", "probe_ms"}


@dataclass
class Op:
    key: str
    argv: list[str]
    cells: int
    check: Callable[[str], list[str]]


@dataclass
class Phase:
    latencies: list[float]
    cells: int
    failed: int
    probes: list[float] = field(default_factory=list)


def load_segtool():
    """Import the checkout's segtool; exit 2 when it is not there."""
    if not (SRC / "segtool" / "cli.py").is_file():
        sys.exit(f"error: no segtool sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import segtool.cli
    import segtool.corpus

    if not Path(segtool.cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: imported segtool from {segtool.cli.__file__}, not {SRC}")
    return segtool.cli, segtool.corpus


# ---------------------------------------------------------------------------
# Workloads


def _cells(planted) -> int:
    return int(planted.cells.size)


def _report(work, seed, tag, shape, fmt, check):
    corpus = synth.generate(work, seed, tag, shape)
    want = checks.expected_report(corpus.planted)
    argv = ["report", f"--{fmt}", "--batch", str(corpus.manifest)]
    cells = sum(_cells(p) for p in corpus.planted)
    return [corpus], [Op("report", argv, cells, lambda out: check(out, want))]


def report_paper(work, seed):
    return _report(work, seed, "paper", synth.PAPER, "tsv", checks.report_tsv)


def report_stress(work, seed):
    return _report(work, seed, "stress", synth.STRESS, "json", checks.report_json)


def calibrate(work, seed):
    corpora, distinct = [], []
    for tag, shape, trials in (("calibrate-paper", synth.Shape(1, 7, 100, 0, False), 10_000),
                               ("calibrate-stress", synth.Shape(1, 40, 1000, 0, False), 2_000)):
        corpus = synth.generate(work, seed, tag, shape)
        corpora.append(corpus)
        item, planted = corpus.items[0], corpus.planted[0]
        argv = ["cochran", "--json", "--calibrate", str(trials), "--seed", str(seed),
                "--narrative", str(item["narrative"]), "--annotations", str(item["annotations"])]
        first: list[str] = []

        def check(out, planted=planted, trials=trials, first=first):
            # A repeated identical op must print identical bytes.
            first[:] = first or [out]
            if out != first[0]:
                return ["output differs from the first identical op"]
            return checks.calibration_json(out, planted, trials, seed)

        distinct.append(Op(tag, argv, trials * _cells(planted), check))
    paper, stress = distinct
    return corpora, [paper, paper, paper, stress]


def commands(work, seed):
    corpus = synth.generate(work, seed, "paper", synth.PAPER)
    ops = []
    for item, planted in zip(corpus.items, corpus.planted):
        n, a, c = (str(item[kind]) for kind in ("narrative", "annotations", "coding"))
        pair = ["--narrative", n, "--annotations", a]
        cells = _cells(planted)
        for key, argv, op_cells, check in (
            ("agree", ["agree", *pair], cells, checks.agree_tsv),
            ("strengths", ["strengths", *pair], cells, checks.strengths_tsv),
            ("cochran", ["cochran", *pair], cells, checks.cochran_tsv),
            ("segment", ["segment", "--method", "np", "--trace", "--narrative", n, "--coding", c],
             0, checks.segment_np_tsv),
            ("eval-humans", ["eval", "--method", "humans", "--leave-one-out", *pair], cells,
             checks.eval_humans_loo_tsv),
            ("eval-cue", ["eval", "--method", "cue", "--json", *pair], cells, checks.eval_cue_json),
        ):
            ops.append(Op(f"{key}:{planted.narrative_id}", argv, op_cells,
                          lambda out, check=check, planted=planted: check(out, planted)))
    return [corpus], ops


PREPARE = {"report_paper": report_paper, "report_stress": report_stress,
            "calibrate": calibrate, "commands": commands}


# ---------------------------------------------------------------------------
# Measurement


def preload(corpus_module, corpora) -> None:
    """Load every generated file once through segtool's loaders."""
    for corpus in corpora:
        for item in corpus.items:
            narrative = corpus_module.load_narrative(item["narrative"])
            corpus_module.load_annotations(item["annotations"], narrative)
            if "coding" in item:
                corpus_module.load_fic_coding(item["coding"], narrative)


def cold_start() -> float:
    """Wall time of a fresh interpreter that imports segtool.cli and builds its parser.

    The child prints the clock when its parser is built; on Linux
    perf_counter is the system-wide monotonic clock, so the two readings
    compare. Timing the child's exit instead would add interpreter
    teardown and, with a timeout, subprocess's 50 ms wait polling.
    """
    code = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); import segtool.cli; "
            "code = segtool.cli.run(['--help']); print(time.perf_counter()); sys.exit(code)")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE, text=True, timeout=60)
    return float(done.stdout.split()[-1]) - start


def _ok(op: Op, code: int, out: str, err: str, verdicts: dict) -> bool:
    key = (op.key, code, out, err)
    if key not in verdicts:
        problems = [f"exit code {code}"] if code else []
        if err:
            problems.append(f"stderr {err[:200]!r}")
        if not problems:
            try:
                problems = op.check(out)
            except Exception as exc:  # malformed output is a failed op, not a crash
                problems = [f"unreadable output: {exc!r}"]
        if problems:
            print(f"failed {op.key}: {'; '.join(problems[:3])}", file=sys.stderr)
        verdicts[key] = not problems
    return verdicts[key]


def measure(cli, ops: list[Op], seconds: float, verdicts: dict, recorder=None,
            between_rounds=None, probe_parts=()) -> Phase:
    """Run whole rounds of ops until seconds have passed.

    Stopping only at the end of a round keeps a workload's mix of ops the
    same in every run. With probe_parts, the reference probe runs after an
    op until probes have taken PROBE_SHARE of the op time so far; their time
    counts toward seconds. between_rounds(elapsed) runs after each round;
    its own time does not count toward seconds.
    """
    phase = Phase([], 0, 0)
    start = time.perf_counter()
    paused = 0.0
    for i in range(sys.maxsize):
        op = ops[i % len(ops)]
        out, err = io.StringIO(), io.StringIO()
        if recorder is not None:
            recorder.begin_op()
        t0 = time.perf_counter()
        code = cli.run(op.argv, out, err)
        t1 = time.perf_counter()
        phase.latencies.append(t1 - t0)
        phase.cells += op.cells
        phase.failed += not _ok(op, code, out.getvalue(), err.getvalue(), verdicts)
        if probe_parts:
            while sum(phase.probes) < PROBE_SHARE * sum(phase.latencies):
                phase.probes.append(probe.timed(probe_parts))
            t1 = time.perf_counter()
        if (i + 1) % len(ops) == 0:
            if t1 - start - paused >= seconds:
                break
            if between_rounds is not None:
                between_rounds(t1 - start - paused)
                paused += time.perf_counter() - t1
    return phase


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten ops beyond it, never below the median.

    Returns (value, percentile).
    """
    ordered = sorted(latencies)
    rank = max(len(ordered) - 10, len(ordered) // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(phase: Phase, reference_ms: float, setup: list[float], attempted: int,
               failed: int) -> list[tuple]:
    """(name, value, unit, samples) rows."""
    ms = [x * 1000 for x in phase.latencies]
    tail_ms, pct = tail(ms)
    n = len(ms)
    probe_ms = statistics.fmean(phase.probes) * 1000
    speed = reference_ms / probe_ms
    cells_per_s = phase.cells / sum(phase.latencies)
    return [
        ("op_ms_norm", statistics.fmean(ms) * speed, "ms", n),
        ("cells_per_s_norm", cells_per_s / speed, "cells/s", n),
        ("op_ms_p50", statistics.median(ms), "ms", n),
        ("op_ms_mean", statistics.fmean(ms), "ms", n),
        ("op_ms_tail", tail_ms, "ms", f"{n} ops, p{pct:.1f}"),
        ("cells_per_s", cells_per_s, "cells/s", n),
        ("probe_ms", probe_ms, "ms", len(phase.probes)),
        ("failed_ratio", failed / attempted, "ratio", attempted),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        ("setup_s", statistics.median(setup), "s", len(setup)),
    ]


def per_layer(stats: dict, overhead_ms: float) -> list[tuple]:
    """(name, value, unit, samples) rows: totals over traced ops, per op.

    A mean, not a median: in a mixed workload a median over ops reads zero
    for every layer that fewer than half of the commands use.
    """
    ops = len(stats)

    def total(kind, name):
        return sum(s[kind][name] for s in stats.values())

    def ratio(num, den):
        return num / den if den else 0.0

    def per_op(kind, name, scale=1.0):
        return total(kind, name) / scale / ops

    def self_ms(layer):
        return per_op("self_ns", layer, 1e6)

    def calls(layer):
        return per_op("calls", layer)

    narratives = total("name_calls", "corpus.load_narrative")
    loaders = ("corpus.load_narrative", "corpus.load_annotations", "corpus.load_fic_coding")
    calibration = "significance.null_calibration"
    rows = [
        ("corpus.self_ms", self_ms("corpus"), "ms"),
        ("corpus.calls", calls("corpus"), "count"),
        ("corpus.bytes_in", sum(per_op("name_size", x) for x in loaders), "B"),
        ("agreement.self_ms", self_ms("agreement"), "ms"),
        ("agreement.calls", calls("agreement"), "count"),
        ("agreement.strength_builds_per_narrative",
         ratio(total("name_calls", "agreement.boundary_strengths"), narratives), "ratio"),
        ("evaluation.self_ms", self_ms("evaluation"), "ms"),
        ("evaluation.calls", calls("evaluation"), "count"),
        ("evaluation.confusion_calls", per_op("name_calls", "evaluation.confusion"), "count"),
        ("evaluation.aggregate_ms", per_op("name_ns", "evaluation.aggregate_metric", 1e6), "ms"),
        ("evaluation.human_evals_per_narrative",
         ratio(total("name_calls", "evaluation.evaluate_humans"), narratives), "ratio"),
        ("significance.self_ms", self_ms("significance"), "ms"),
        ("significance.calls", calls("significance"), "count"),
        ("significance.calibration_ms", per_op("name_ns", calibration, 1e6), "ms"),
        ("significance.trials_per_s",
         ratio(total("name_size", calibration), total("name_ns", calibration) / 1e9), "1/s"),
        ("significance.chi2_sf_calls", per_op("name_calls", "significance.chi_square_sf"), "count"),
        ("segmenters.self_ms", self_ms("segmenters"), "ms"),
        ("segmenters.calls", calls("segmenters"), "count"),
        ("segmenters.lexicon_loads", per_op("name_calls", "segmenters.default_cue_lexicon"), "count"),
        ("report.self_ms", self_ms("report"), "ms"),
        ("report.render_ms", per_op("name_ns", "report.Report.to_tsv", 1e6)
         + per_op("name_ns", "report.Report.to_json", 1e6), "ms"),
        ("cli.self_ms", self_ms("cli"), "ms"),
        ("trace.overhead_ms", overhead_ms, "ms"),
    ]
    return [(name, value, unit, ops) for name, value, unit in rows]


def shares(stats: dict) -> dict[str, float]:
    """Each layer's share of all traced self time."""
    totals: dict[str, int] = {}
    for s in stats.values():
        for layer, ns in s["self_ns"].items():
            totals[layer] = totals.get(layer, 0) + ns
    whole = sum(totals.values()) or 1
    return {layer: round(ns / whole, 4) for layer, ns in sorted(totals.items())}


# ---------------------------------------------------------------------------
# Entry points


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> None:
    cli, corpus_module = load_segtool()
    work = OUT / name
    shutil.rmtree(work, ignore_errors=True)
    corpora, ops = PREPARE[name](work, seed)
    preload(corpus_module, corpora)

    verdicts: dict = {}
    warm = measure(cli, list({op.key: op for op in ops}.values()), 0, verdicts)
    if traced:
        untraced = measure(cli, ops, seconds / 3, verdicts)
        with spans.Recorder() as recorder:
            timed = measure(cli, ops, seconds * 2 / 3, verdicts, recorder)
        recorder.write(OUT / f"spans-{name}.jsonl")
        phases = [warm, untraced, timed]
    else:
        # Cold starts are spread over the run, so setup_s sees the same
        # machine conditions as the ops; the first may still be writing
        # bytecode caches and is not counted.
        cold_start()
        setup: list[float] = []

        def start_when_due(elapsed):
            if len(setup) < COLD_STARTS and elapsed >= len(setup) * seconds / COLD_STARTS:
                setup.append(cold_start())

        parts = PROBE_PARTS.get(name, tuple(probe.PARTS))
        probe.run(parts)
        timed = measure(cli, ops, seconds, verdicts, between_rounds=start_when_due,
                        probe_parts=parts)
        setup += [cold_start() for _ in range(COLD_STARTS - len(setup))]
        phases = [warm, timed]
    attempted = sum(len(p.latencies) for p in phases)
    failed = sum(p.failed for p in phases)

    print(f"# workload {name} seed {seed}: {WORKLOADS[name]}")
    print(f"# {attempted} ops attempted, {failed} failed; {'traced' if traced else 'untraced'}")
    if traced:
        stats = spans.per_op(recorder.spans)
        p50 = [statistics.median(p.latencies) * 1000 for p in (untraced, timed)]
        print(f"# op_ms_p50 untraced {p50[0]:.3f} ({len(untraced.latencies)} ops), "
              f"traced {p50[1]:.3f} ({len(timed.latencies)} ops)")
        print(f"# self time share {json.dumps(shares(stats))}")
        rows = per_layer(stats, p50[1] - p50[0])
    else:
        rows = end_to_end(timed, probe.reference_ms(parts), setup, attempted, failed)
    for metric, value, unit, samples in rows:
        print(f"{metric:44s} {value:>16.6g} {unit:8s} n={samples}")
    scored = {metric for metric, *_ in rows} - UNSCORED
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, value, unit, _ in rows if metric in scored},
    }))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload != "all":
        run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        return
    # Each workload in its own process, so peak_rss_mb is its own.
    for name in WORKLOADS:
        subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", str(args.trace)], check=True)


if __name__ == "__main__":
    main()
