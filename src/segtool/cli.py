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
import io
import os
import sys

import numpy as np

from .agreement import percent_agreement, pooled_target
from .corpus import load_annotations, load_fic_coding, load_manifest, load_narrative
from .errors import DegenerateDataError, ValidationError
from .evaluation import METRIC_NAMES, aggregate_cells, metrics, score_units
from .render import PVALUE, RATIO, VARIANCE, num, sites_text, to_json, tsv
from .report import BatchItem, build_report
from .segmenters import CueLexicon, segment_by
from .significance import MAX_TRIALS, cochran_q, null_calibration

# Each optional input of segment and eval belongs to exactly one --method.
_FLAG_METHOD = {"coding": "np", "trace": "np", "cues": "cue", "leave_one_out": "humans"}
# Output fields, each listed once for both --json and --tsv. Partition
# columns: (JSON key and TSV column, attribute, TSV format or None for ints).
# Calibration statistics map to a TSV format, trace referent sets to a column.
_COMPONENT_FIELDS = (("strength", "strength", None), ("sites", "site_count", None),
                     ("q", "q", RATIO), ("df", "df", None), ("p", "p", PVALUE))
_CALIBRATION_STATS = {"rejection_rate_05": VARIANCE, "rejection_rate_05_se": VARIANCE,
                      "empirical_p": PVALUE, "empirical_p_se": PVALUE}
_TRACE_SETS = {"clause_referents": "clause_referents", "inferable_referents": "inferable",
               "pronoun_referents": "pronouns", "segment_referents": "segment"}


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
    """The --method's site mask, plus the clause segmentation for np."""
    coding = None if args.coding is None else load_fic_coding(args.coding, narrative)
    lexicon = None if args.cues is None else CueLexicon.from_file(args.cues)
    return segment_by(args.method, narrative, coding, lexicon)


# ---------------------------------------------------------------------------
# Subcommand handlers, each returning the full stdout payload.


def _output(args, payload: dict, *blocks) -> str:
    """The --json payload or the TSV blocks, whichever args.format asks for."""
    return to_json(payload) if args.format == "json" else tsv(*blocks)


def _cmd_agree(args) -> str:
    report = percent_agreement(_load_pair(args)[1], args.threshold)
    payload = {
        "narrative_id": report.narrative_id,
        "subjects": report.subjects,
        "sites": report.sites,
        "threshold": report.threshold,
    }
    rows = [["narrative", "class", "observed", "possible", "percent"]]
    for label, key, suffix in (  # TSV label, JSON key, report attribute suffix
        ("all", "total", ""),
        ("boundary", "boundary", "_boundary"),
        ("non_boundary", "non_boundary", "_non_boundary"),
    ):
        observed, possible, percent = (
            getattr(report, stat + suffix) for stat in ("observed", "possible", "percent")
        )
        payload[key] = {"observed": observed, "possible": possible, "percent": percent}
        rows.append([report.narrative_id, label, observed, possible, num(percent)])
    return _output(args, payload, rows)


def _cmd_strengths(args) -> str:
    narrative, matrix = _load_pair(args)
    levels = []
    rows = [["strength", "kind", "count", "sites"]]
    for t in range(1, matrix.subjects + 1):
        level = {"strength": t}
        for kind, option in (("exact", "exact"), ("cumulative", "threshold")):
            mask = pooled_target(matrix.subjects, matrix.column_totals, **{option: t})[0]
            sites = narrative.site_labels(mask)
            level[kind] = {"count": len(sites), "sites": sites}
            rows.append([t, kind, len(sites), sites_text(sites)])
        levels.append(level)
    payload = {
        "narrative_id": matrix.narrative_id,
        "subjects": matrix.subjects,
        "sites": matrix.sites,
        "strengths": levels,
    }
    return _output(args, payload, rows)


def _cmd_cochran(args) -> str:
    if args.seed is not None and args.calibrate is None:
        raise ValidationError("--seed only applies with --calibrate")
    matrix = _load_pair(args)[1]
    result = cochran_q(matrix, component_df=args.component_df)
    components = result.components.values()  # built in ascending strength
    payload = {
        "narrative_id": matrix.narrative_id,
        "q": result.q,
        "df": result.df,
        "p": result.p,
        "components": [
            {key: getattr(c, attr) for key, attr, _ in _COMPONENT_FIELDS} for c in components
        ],
    }
    blocks = [
        [["statistic", "value"], ["q", num(result.q)], ["df", result.df],
         ["p", num(result.p, PVALUE)]],
        [
            [key for key, _, _ in _COMPONENT_FIELDS],
            *[[getattr(c, attr) if spec is None else num(getattr(c, attr), spec)
               for _, attr, spec in _COMPONENT_FIELDS] for c in components],
        ],
    ]
    if args.calibrate is not None:
        calibration = null_calibration(
            [int(x) for x in matrix.row_totals],
            matrix.sites,
            trials=args.calibrate,
            seed=0 if args.seed is None else args.seed,
            observed_q=result.q,
        )
        payload["calibration"] = {
            "trials": calibration.trials,
            "seed": calibration.seed,
            # A degenerate panel raised in cochran_q above, so no trial is
            # degenerate; the key stays, as the JSON output has always held it.
            "degenerate_trials": 0,
            "quantiles": {num(k): v for k, v in calibration.quantiles.items()},
            "chi_square_quantiles": {
                num(k): v for k, v in calibration.reference_quantiles.items()
            },
            **{name: getattr(calibration, name) for name in _CALIBRATION_STATS},
        }
        blocks.append([
            [f"# calibration trials={calibration.trials} seed={calibration.seed}"],
            ["level", "empirical_q", "chi_square_q"],
            *[
                [num(level), num(q), num(calibration.reference_quantiles[level])]
                for level, q in calibration.quantiles.items()
            ],
            *[[name, num(getattr(calibration, name), spec), ""]
              for name, spec in _CALIBRATION_STATS.items()],
        ])
    return _output(args, payload, *blocks)


def _cmd_segment(args) -> str:
    _check_method_flags(args)
    narrative = load_narrative(args.narrative)
    mask, segmentation = _predict(args, narrative)
    sites = np.flatnonzero(mask).tolist()
    labels = narrative.site_labels(mask)
    payload = {
        "narrative_id": narrative.narrative_id,
        "method": args.method,
        "sites": sites,
        "pairs": labels,
    }
    blocks = [[["site", "pair"], *zip(sites, labels)]]
    if segmentation is not None:
        payload["clause_boundaries"] = segmentation.boundaries
        blocks.append([["# clause_boundaries"], ["left", "right"], *segmentation.boundaries])
    if args.trace:
        steps = payload["trace"] = []
        rows = [["# trace"], ["fic", "tests", "linked_by", *_TRACE_SETS.values()]]
        for step in segmentation.trace:
            sets = {key: sorted(getattr(step, key)) for key in _TRACE_SETS}
            steps.append({
                "fic": step.fic,
                "tests": step.tests,
                "linked_by": step.linked_by,
                **sets,
            })
            rows.append([
                step.fic,
                ",".join(f"{name}:{'pass' if ok else 'fail'}" for name, ok in step.tests),
                step.linked_by or "boundary",
                *map(sites_text, sets.values()),
            ])
        blocks.append(rows)
    return _output(args, payload, *blocks)


def _cmd_eval(args) -> str:
    _check_method_flags(args)
    narrative, matrix = _load_pair(args)
    if args.method == "humans":
        units, rows = matrix.subject_ids, matrix.cells
    else:
        # A target outside the panel is reported before --coding or --cues is read.
        pooled_target(matrix.subjects, matrix.column_totals, args.threshold, args.exact)
        units = ["algorithm"]
        rows = _predict(args, narrative)[0][None, :]
    _, mode, cells = score_units(matrix, rows, args.threshold, args.exact, args.leave_one_out)
    scored = [(unit, c, metrics(*c)) for unit, c in zip(units, cells[:, :, 0].T.tolist())]
    lead = [matrix.narrative_id, args.method, mode]
    payload = {"narrative_id": matrix.narrative_id, "method": args.method, "target": mode}
    table = [
        ["narrative", "method", "target", "unit", "a", "b", "c", "d", *METRIC_NAMES],
        *[[*lead, unit, *c, *map(num, scores.values())] for unit, c, scores in scored],
    ]
    if args.method == "humans":
        summary = aggregate_cells(cells[:, :, 0])
        payload["subjects"] = [{"subject": unit, "confusion": dict(zip("abcd", c)),
                                "metrics": scores} for unit, c, scores in scored]
        payload["summary"] = summary
        table += [[*lead, label, "", "", "", "",
                   *[num(summary[name][label], spec) for name in METRIC_NAMES]]
                  for label, spec in (("mean", RATIO), ("variance", VARIANCE))]
    else:
        _, c, scores = scored[0]
        payload.update(confusion=dict(zip("abcd", c)), metrics=scores)
    return _output(args, payload, table)


def _cmd_report(args) -> str:
    manifest = load_manifest(args.batch)
    items = []
    for narrative_path, annotations_path, coding_path in manifest.items():
        narrative = load_narrative(narrative_path)
        matrix = load_annotations(annotations_path, narrative)
        coding = None if coding_path is None else load_fic_coding(coding_path, narrative)
        items.append(BatchItem(narrative=narrative, matrix=matrix, coding=coding))
    # --cues, --json and --tsv replace the manifest's values, left unread.
    cues = args.cues if args.cues is not None else manifest.cues
    lexicon = None if cues is None else CueLexicon.from_file(cues)
    fmt = args.format or manifest.format
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
    cochran.add_argument("--seed", type=int, default=None,
                         help="simulation seed (with --calibrate; default 0)")
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
    """The console entry point: run() with its stdout written as UTF-8 bytes.

    The bytes do not depend on the locale or PYTHONIOENCODING. A failed
    write, such as to a closed pipe, exits 2 with one error line.
    """
    out = io.StringIO()
    code = run(sys.argv[1:], out)
    data = out.getvalue().encode("utf-8")
    if not data:
        sys.exit(code)
    stream = getattr(sys.stdout, "buffer", None)  # None when fd 1 was closed at start
    try:
        if stream is None:
            raise OSError("stdout is closed")
        stream.write(data)
        stream.flush()
    except OSError as exc:
        if stream is not None:
            # The interpreter flushes stdout again at exit; send that flush to
            # the null device, as the SIGPIPE note in the signal docs shows.
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        sys.stderr.write(f"error: cannot write the output: {exc.strerror or exc}\n")
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
