"""Time the library calls behind the ROADMAP's quoted baselines, traced by layer.

    python3 bench/baselines.py --seed 1 --repeats 5

Each target runs under the span recorder: `build_report` at paper scale
(20 x 7 x ~100) and stress scale (5 x 40 x 1000), the stress report with
`to_tsv`, and `null_calibration` at 7 x 11 (the shipped pear9 excerpt),
7 x 100 at 10k trials and 40 x 1000 at 2k trials. Inputs are generated and
loaded before timing. The output gives each target's median wall time over
the repeats and the median self time of every layer that did work.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import run
import spans
import synth

# The figures the ROADMAP quotes, in ms, for comparison.
ROADMAP_MS = {
    "build_report paper": 171,
    "build_report stress": 2070,
    "build_report+to_tsv stress": 2160,
    "null_calibration 7x11 10k": 1000,
    "null_calibration 7x100 10k": 1000,
    "null_calibration 40x1000 2k": 1500,
}


def _items(corpus_module, report_module, corpus):
    items = []
    for item in corpus.items:
        narrative = corpus_module.load_narrative(item["narrative"])
        matrix = corpus_module.load_annotations(item["annotations"], narrative)
        coding = corpus_module.load_fic_coding(item["coding"], narrative) if "coding" in item else None
        items.append(report_module.BatchItem(narrative=narrative, matrix=matrix, coding=coding))
    return items


def targets(seed: int) -> dict:
    run.load_segtool()
    from segtool import corpus, fixture_path, report, significance

    work = run.OUT / "baselines"
    paper = _items(corpus, report, synth.generate(work, seed, "paper", synth.PAPER))
    stress = _items(corpus, report, synth.generate(work, seed, "stress", synth.STRESS))
    pear = corpus.load_narrative(fixture_path("pear9_excerpt_narrative.json"))
    pear_matrix = corpus.load_annotations(fixture_path("pear9_excerpt_annotations.json"), pear)
    shapes = {
        "7x11": pear_matrix,
        "7x100": _items(corpus, report, synth.generate(work, seed, "calibrate-paper",
                                                       synth.Shape(1, 7, 100, 0, False)))[0].matrix,
        "40x1000": _items(corpus, report, synth.generate(work, seed, "calibrate-stress",
                                                         synth.Shape(1, 40, 1000, 0, False)))[0].matrix,
    }

    def calibration(matrix, trials):
        rows = [int(x) for x in matrix.row_totals]
        return lambda: significance.null_calibration(rows, matrix.sites, trials=trials, seed=seed)

    # Look the functions up at call time, so the recorder's wrappers run.
    return {
        "build_report paper": lambda: report.build_report(paper),
        "build_report stress": lambda: report.build_report(stress),
        "build_report+to_tsv stress": lambda: report.build_report(stress).to_tsv(),
        "null_calibration 7x11 10k": calibration(shapes["7x11"], 10_000),
        "null_calibration 7x100 10k": calibration(shapes["7x100"], 10_000),
        "null_calibration 40x1000 2k": calibration(shapes["40x1000"], 2_000),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    results = {}
    for name, call in targets(args.seed).items():
        call()  # warm
        with spans.Recorder() as recorder:
            for _ in range(args.repeats):
                recorder.begin_op()
                call()
        stats = spans.per_op(recorder.spans).values()
        wall = statistics.median(sum(s["self_ns"].values()) / 1e6 for s in stats)
        layers = {layer: round(statistics.median(s["self_ns"][layer] / 1e6 for s in stats), 1)
                  for layer in spans.LAYERS if any(s["self_ns"][layer] for s in stats)}
        results[name] = {"ms": round(wall, 1), "roadmap_ms": ROADMAP_MS[name],
                         "layers_self_ms": layers}
        print(f"{name:30s} {wall:9.1f} ms  (ROADMAP {ROADMAP_MS[name]} ms)  {layers}",
              file=sys.stderr)
    print(json.dumps({"seed": args.seed, "repeats": args.repeats, "python": sys.version.split()[0],
                      "targets": results}, indent=2))


if __name__ == "__main__":
    main()
