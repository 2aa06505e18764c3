"""Command-line front end.

Subcommands: agree, strengths, cochran, segment, eval, report. Exit codes:
0 success, 1 invalid input or usage, 2 I/O failure, 3 statistic undefined
for the given data. Output goes to stdout only after all computation has
succeeded, as TSV tables (ratios to 2 decimals, p-values in scientific
notation) or as JSON with full float precision under --json. For fixed
arguments, input files, and seed the output is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .agreement import boundary_strengths, percent_agreement
from .corpus import load_annotations, load_fic_coding, load_narrative, read_json
from .errors import DegenerateDataError, SchemaError, ValidationError
from .evaluation import METRIC_NAMES, confusion, evaluate_humans, metrics, resolve_target
from .render import PVALUE, RATIO, VARIANCE, num, sites_text, to_json, tsv
from .report import BatchItem, build_report
from .segmenters import CueLexicon, cue_segment, normalize_to_sites, np_segment, pause_segment
from .significance import MAX_TRIALS, cochran_q, null_calibration

# Each optional input of segment and eval belongs to exactly one --method.
_FLAG_METHOD = {"coding": "np", "trace": "np", "cues": "cue", "leave_one_out": "humans"}


class _UsageError(Exception):
    def __init__(self, parser: argparse.ArgumentParser, message: str):
        self.parser = parser
        super().__init__(message)


class _Help(Exception):
    """--help was given; carries the text for run() to write to its stdout."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(self, message)

    def print_help(self, file=None):
        if file is not None:
            return super().print_help(file)
        raise _Help(self.format_help())


def _load_pair(args):
    narrative = load_narrative(args.narrative)
    return narrative, load_annotations(args.annotations, narrative)


def _check_method_flags(args) -> None:
    for flag, method in _FLAG_METHOD.items():
        if getattr(args, flag, None) not in (None, False) and args.method != method:
            raise ValidationError(f"--{flag.replace('_', '-')} only applies to --method {method}")
    if args.method == "np" and args.coding is None:
        raise ValidationError("--method np requires --coding")


def _predict(args, narrative):
    """The --method's boundary set, plus the clause segmentation for np."""
    if args.method == "np":
        coding = load_fic_coding(args.coding, narrative)
        segmentation = np_segment(coding)
        return normalize_to_sites(segmentation, coding), segmentation
    if args.method == "cue":
        lexicon = None if args.cues is None else CueLexicon.from_file(args.cues)
        return cue_segment(narrative, lexicon), None
    return pause_segment(narrative), None


# ---------------------------------------------------------------------------
# Subcommand handlers, each returning the full stdout payload.


def _cmd_agree(args) -> str:
    report = percent_agreement(_load_pair(args)[1], args.threshold)
    classes = (  # TSV label, JSON key, observed, possible, percent
        ("all", "total", report.observed, report.possible, report.percent),
        ("boundary", "boundary", report.observed_boundary, report.possible_boundary,
         report.percent_boundary),
        ("non_boundary", "non_boundary", report.observed_non_boundary,
         report.possible_non_boundary, report.percent_non_boundary),
    )
    if args.format == "json":
        return to_json({
            "narrative_id": report.narrative_id,
            "subjects": report.subjects,
            "sites": report.sites,
            "threshold": report.threshold,
            **{
                key: {"observed": observed, "possible": possible, "percent": percent}
                for _, key, observed, possible, percent in classes
            },
        })
    return tsv([
        ["narrative", "class", "observed", "possible", "percent"],
        *[
            [report.narrative_id, label, observed, possible, num(percent)]
            for label, _, observed, possible, percent in classes
        ],
    ])


def _cmd_strengths(args) -> str:
    narrative, matrix = _load_pair(args)
    strengths = boundary_strengths(matrix)
    levels = range(1, matrix.subjects + 1)
    labels = {
        (t, kind): getattr(strengths, kind)(t).labels(narrative)
        for t in levels
        for kind in ("exact", "cumulative")
    }
    if args.format == "json":
        return to_json({
            "narrative_id": matrix.narrative_id,
            "subjects": matrix.subjects,
            "sites": matrix.sites,
            "strengths": [
                {
                    "strength": t,
                    **{
                        kind: {"count": len(labels[t, kind]), "sites": labels[t, kind]}
                        for kind in ("exact", "cumulative")
                    },
                }
                for t in levels
            ],
        })
    return tsv([
        ["strength", "kind", "count", "sites"],
        *[[t, kind, len(sites), sites_text(sites)] for (t, kind), sites in labels.items()],
    ])


def _cmd_cochran(args) -> str:
    matrix = _load_pair(args)[1]
    result = cochran_q(matrix, component_df=args.component_df)
    components = [result.components[t] for t in sorted(result.components)]
    calibration = None
    if args.calibrate is not None:
        calibration = null_calibration(
            [int(x) for x in matrix.row_totals],
            matrix.sites,
            trials=args.calibrate,
            seed=args.seed,
            observed_q=result.q,
        )
    if args.format == "json":
        payload = {
            "narrative_id": matrix.narrative_id,
            "q": result.q,
            "df": result.df,
            "p": result.p,
            "components": [
                {"strength": c.strength, "sites": c.site_count, "q": c.q, "df": c.df, "p": c.p}
                for c in components
            ],
        }
        if calibration is not None:
            payload["calibration"] = {
                "trials": calibration.trials,
                "seed": calibration.seed,
                "degenerate_trials": calibration.degenerate_trials,
                "quantiles": {num(k): v for k, v in sorted(calibration.quantiles.items())},
                "chi_square_quantiles": {
                    num(k): v for k, v in sorted(calibration.reference_quantiles.items())
                },
                "rejection_rate_05": calibration.rejection_rate_05,
                "rejection_rate_05_se": calibration.rejection_rate_05_se,
                "empirical_p": calibration.empirical_p,
                "empirical_p_se": calibration.empirical_p_se,
            }
        return to_json(payload)
    blocks = [
        [["statistic", "value"], ["q", num(result.q)], ["df", result.df],
         ["p", num(result.p, PVALUE)]],
        [
            ["strength", "sites", "q", "df", "p"],
            *[[c.strength, c.site_count, num(c.q), c.df, num(c.p, PVALUE)] for c in components],
        ],
    ]
    if calibration is not None:
        blocks.append([
            [f"# calibration trials={calibration.trials} seed={calibration.seed}"],
            ["level", "empirical_q", "chi_square_q"],
            *[
                [num(level), num(q), num(calibration.reference_quantiles[level])]
                for level, q in sorted(calibration.quantiles.items())
            ],
            ["rejection_rate_05", num(calibration.rejection_rate_05, VARIANCE), ""],
            ["rejection_rate_05_se", num(calibration.rejection_rate_05_se, VARIANCE), ""],
            ["empirical_p", num(calibration.empirical_p, PVALUE), ""],
            ["empirical_p_se", num(calibration.empirical_p_se, PVALUE), ""],
        ])
    return tsv(*blocks)


def _cmd_segment(args) -> str:
    _check_method_flags(args)
    narrative = load_narrative(args.narrative)
    boundaries, segmentation = _predict(args, narrative)
    sites = sorted(boundaries.sites)
    labels = boundaries.labels(narrative)
    if args.format == "json":
        payload = {
            "narrative_id": narrative.narrative_id,
            "method": args.method,
            "sites": sites,
            "pairs": labels,
        }
        if segmentation is not None:
            payload["clause_boundaries"] = segmentation.boundaries
        if args.trace:
            payload["trace"] = [
                {
                    "fic": step.fic,
                    "tests": step.tests,
                    "linked_by": step.linked_by,
                    "clause_referents": step.clause_referents,
                    "inferable_referents": step.inferable_referents,
                    "pronoun_referents": step.pronoun_referents,
                    "segment_referents": step.segment_referents,
                }
                for step in segmentation.trace
            ]
        return to_json(payload)
    blocks = [[["site", "pair"], *zip(sites, labels)]]
    if segmentation is not None:
        blocks.append([["# clause_boundaries"], ["left", "right"], *segmentation.boundaries])
    if args.trace:
        blocks.append([
            ["# trace"],
            ["fic", "tests", "linked_by", "clause_referents", "inferable", "pronouns", "segment"],
            *[
                [
                    step.fic,
                    ",".join(f"{name}:{'pass' if ok else 'fail'}" for name, ok in step.tests),
                    step.linked_by or "boundary",
                    *[
                        sites_text(sorted(referents))
                        for referents in (
                            step.clause_referents,
                            step.inferable_referents,
                            step.pronoun_referents,
                            step.segment_referents,
                        )
                    ],
                ]
                for step in segmentation.trace
            ],
        ])
    return tsv(*blocks)


def _cmd_eval(args) -> str:
    _check_method_flags(args)
    narrative, matrix = _load_pair(args)
    if args.method == "humans":
        human = evaluate_humans(
            matrix,
            threshold=args.threshold,
            exact=args.exact,
            leave_one_out=args.leave_one_out,
        )
        mode = human.mode
        scored = [(s.subject_id, s.counts, s.scores) for s in human.per_subject]
    else:
        target, mode = resolve_target(boundary_strengths(matrix), args.threshold, args.exact)
        counts = confusion(_predict(args, narrative)[0], target.nonzero()[0], matrix.sites)
        scored = [("algorithm", counts, metrics(counts))]
    if args.format == "json":
        head = {"narrative_id": matrix.narrative_id, "method": args.method, "target": mode}
        if args.method != "humans":
            _, counts, scores = scored[0]
            return to_json({**head, "confusion": counts, "metrics": scores.as_dict()})
        return to_json({
            **head,
            "subjects": [
                {"subject": unit, "confusion": counts, "metrics": scores.as_dict()}
                for unit, counts, scores in scored
            ],
            "summary": human.summary,
        })
    lead = [matrix.narrative_id, args.method, mode]
    rows = [
        [*lead, unit, counts.a, counts.b, counts.c, counts.d,
         *[num(v) for v in scores.as_dict().values()]]
        for unit, counts, scores in scored
    ]
    if args.method == "humans":
        for label, spec in (("mean", RATIO), ("variance", VARIANCE)):
            rows.append([
                *lead, label, "", "", "", "",
                *[num(getattr(human.summary[name], label), spec) for name in METRIC_NAMES],
            ])
    return tsv(
        [["narrative", "method", "target", "unit", "a", "b", "c", "d", *METRIC_NAMES], *rows]
    )


def _manifest_path(entry: dict, key: str, where: str, base: Path) -> Path:
    value = entry.get(key)
    if not isinstance(value, str) or not value or "\0" in value:
        raise SchemaError(f"{where}{key}", "expected a path string")
    return base / value  # an absolute value replaces base


def _cmd_report(args) -> str:
    manifest = read_json(args.batch)
    if (
        not isinstance(manifest, dict)
        or not isinstance(manifest.get("items"), list)
        or not manifest["items"]
    ):
        raise ValidationError("manifest must be an object with a non-empty items list")
    base = Path(args.batch).parent
    items = []
    for k, entry in enumerate(manifest["items"]):
        if not isinstance(entry, dict):
            raise ValidationError(f"items[{k}]: each item needs narrative and annotations paths")
        where = f"items[{k}]."
        narrative = load_narrative(_manifest_path(entry, "narrative", where, base))
        matrix = load_annotations(_manifest_path(entry, "annotations", where, base), narrative)
        coding = None
        if "coding" in entry:
            coding = load_fic_coding(_manifest_path(entry, "coding", where, base), narrative)
        items.append(BatchItem(narrative=narrative, matrix=matrix, coding=coding))

    lexicon = None
    if args.cues is not None:
        lexicon = CueLexicon.from_file(args.cues)
    elif "cues" in manifest:
        lexicon = CueLexicon.from_file(_manifest_path(manifest, "cues", "", base))

    fmt = args.format or manifest.get("format", "tsv")
    if fmt not in ("tsv", "json"):
        raise ValidationError(f"manifest format must be 'tsv' or 'json', got {fmt!r}")

    report = build_report(items, cue_lexicon=lexicon, threshold=args.threshold)
    text = report.to_json() if fmt == "json" else report.to_tsv()
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        return ""
    return text


# ---------------------------------------------------------------------------
# Argument wiring


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process and shared by every run().

    It holds no per-call state: parse_args returns a fresh namespace, and
    --help hands its text back to run() rather than printing it.
    """
    parser = _Parser(prog="segtool", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    def formats(p, default="tsv"):
        group = p.add_mutually_exclusive_group()
        group.add_argument(
            "--json", dest="format", action="store_const", const="json",
            help="machine-readable output, full precision",
        )
        group.add_argument(
            "--tsv", dest="format", action="store_const", const="tsv",
            help="tab-separated tables, ratios to 2 decimals",
        )
        p.set_defaults(format=default)

    agree = sub.add_parser("agree", help="percent agreement with the majority opinion")
    agree.add_argument("--narrative", required=True, help="transcript JSON file")
    agree.add_argument("--annotations", required=True, help="annotation matrix JSON file")
    agree.add_argument("--threshold", type=int, default=None,
                       help="boundary threshold, default strict majority")
    formats(agree)
    agree.set_defaults(handler=_cmd_agree)

    strengths = sub.add_parser("strengths", help="sites grouped by agreement strength")
    strengths.add_argument("--narrative", required=True)
    strengths.add_argument("--annotations", required=True)
    formats(strengths)
    strengths.set_defaults(handler=_cmd_strengths)

    cochran = sub.add_parser("cochran", help="Cochran's Q with per-strength partition")
    cochran.add_argument("--narrative", required=True)
    cochran.add_argument("--annotations", required=True)
    cochran.add_argument("--component-df", choices=("count", "count-1"), default="count",
                         help="degrees of freedom rule for partition components")
    cochran.add_argument("--calibrate", type=int, default=None, metavar="TRIALS",
                         help=f"also simulate the null with this many trials (1000 to {MAX_TRIALS})")
    cochran.add_argument("--seed", type=int, default=0, help="simulation seed")
    formats(cochran)
    cochran.set_defaults(handler=_cmd_cochran)

    segment = sub.add_parser("segment", help="propose boundaries for a transcript")
    segment.add_argument("--method", required=True, choices=("np", "cue", "pause"))
    segment.add_argument("--narrative", required=True)
    segment.add_argument("--coding", default=None, help="clause coding JSON (np only)")
    segment.add_argument("--cues", default=None, help="cue lexicon file (cue only)")
    segment.add_argument("--trace", action="store_true",
                         help="include the per-clause decision trace (np only)")
    formats(segment)
    segment.set_defaults(handler=_cmd_segment)

    evaluate = sub.add_parser("eval", help="score a method against the pooled opinion")
    evaluate.add_argument("--method", required=True, choices=("np", "cue", "pause", "humans"))
    evaluate.add_argument("--narrative", required=True)
    evaluate.add_argument("--annotations", required=True)
    evaluate.add_argument("--coding", default=None)
    evaluate.add_argument("--cues", default=None)
    target = evaluate.add_mutually_exclusive_group()
    target.add_argument("--threshold", type=int, default=None,
                        help="score against sites with at least this many marks")
    target.add_argument("--exact", type=int, default=None,
                        help="score against sites with exactly this many marks")
    evaluate.add_argument("--leave-one-out", action="store_true",
                          help="score each subject against the others only (humans)")
    formats(evaluate)
    evaluate.set_defaults(handler=_cmd_eval)

    report = sub.add_parser("report", help="batch report: agreement, methods, strengths")
    report.add_argument("--batch", required=True, help="manifest JSON file")
    report.add_argument("--out", default=None, help="write the report here instead of stdout")
    report.add_argument("--cues", default=None)
    report.add_argument("--threshold", type=int, default=None)
    formats(report, default=None)
    report.set_defaults(handler=_cmd_report)

    return parser


def run(argv, stdout=None, stderr=None) -> int:
    """Parse argv, execute, and write the result; returns the exit code.

    Everything, --help included, goes to stdout and stderr (default: the
    process's streams).
    """
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    parser = _build_parser()
    try:
        if any("\0" in arg for arg in argv or ()):
            parser.error("an argument contains a NUL byte")
        args = parser.parse_args(argv)
    except _UsageError as exc:
        err.write(exc.parser.format_usage())
        err.write(f"error: {exc}\n")
        return 1
    except _Help as exc:
        out.write(exc.args[0])
        return 0
    if getattr(args, "handler", None) is None:
        err.write(parser.format_usage())
        err.write("error: a subcommand is required\n")
        return 1
    try:
        text = args.handler(args)
    except DegenerateDataError as exc:
        err.write(f"error: {exc}\n")
        return 3
    except ValidationError as exc:
        err.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        err.write(f"error: {exc}\n")
        return 2
    out.write(text)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
