"""Batch reports: agreement, method scores, and per-strength breakdowns.

A batch is a list of narratives with their annotation matrices and,
optionally, clause codings. The report has three blocks:

* agreement: per-narrative percent agreement with a pooled column of
  unweighted means and population variances over narratives
* methods: recall/precision/fallout/error for the three segmenters and for
  the human subjects, averaged with variances
* strengths: recall and precision against sites of each exact agreement
  strength, plus the mean number of such sites

Algorithm scores aggregate per narrative; human scores aggregate per
subject-narrative observation. Undefined ratios are skipped, and the
report records how many observations each cell kept.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .agreement import AgreementReport, percent_agreement
from .corpus import AnnotationMatrix, FicCoding, Narrative
from .errors import ValidationError
from .evaluation import METRIC_NAMES, aggregate_cells, aggregate_pairs, score_units
from .render import MEAN_COUNT, VARIANCE, num, to_json, tsv
from .segmenters import CueLexicon, default_cue_lexicon, segment_by

METHODS = ("np", "cue", "pause", "humans")


@dataclass(frozen=True)
class BatchItem:
    """One narrative's inputs; the coding is optional."""

    narrative: Narrative
    matrix: AnnotationMatrix
    coding: FicCoding | None = None

    def __post_init__(self):
        nid = self.narrative.narrative_id
        if self.matrix.narrative_id != nid:
            raise ValidationError(
                f"matrix of {self.matrix.narrative_id} paired with narrative {nid}"
            )
        if self.coding is not None and self.coding.narrative_id != nid:
            raise ValidationError(
                f"coding of {self.coding.narrative_id} paired with narrative {nid}"
            )
        # The subjects' rows and each segmenter's site mask are stacked site by site.
        sites = self.narrative.site_count
        for kind, count in (("matrix", self.matrix.sites),
                            ("coding", sites if self.coding is None else self.coding.site_count)):
            if count != sites:
                raise ValidationError(f"{kind} of {count} sites paired with narrative {nid} "
                                      f"of {sites}")


def _agreement_row(report: AgreementReport) -> dict:
    """One narrative's agreement as the report's JSON object; the TSV reads the same values."""
    return {
        "narrative_id": report.narrative_id,
        "subjects": report.subjects,
        "sites": report.sites,
        "opinions": report.marks,
        "boundary_sites": report.boundary_site_count,
        "non_boundary_sites": report.non_boundary_site_count,
        "percent": report.percent,
        "percent_boundary": report.percent_boundary,
        "percent_non_boundary": report.percent_non_boundary,
    }


@dataclass(frozen=True)
class Report:
    threshold: int | None
    agreement_rows: tuple[AgreementReport, ...]
    agreement_summary: dict[str, object]
    method_table: dict[str, dict[str, dict]]
    strength_levels: tuple[int, ...]
    strength_site_counts: dict[int, Fraction]
    strength_table: dict[str, dict[str, dict[int, dict]]]

    @property
    def _threshold_label(self) -> int | str:
        return "majority" if self.threshold is None else int(self.threshold)  # a numpy int too

    def to_json(self) -> str:
        return to_json({
            "threshold": self._threshold_label,
            "agreement": {
                "narratives": [_agreement_row(row) for row in self.agreement_rows],
                "summary": self.agreement_summary,
            },
            "methods": self.method_table,
            "strengths": {
                "levels": self.strength_levels,
                "sites_mean": self.strength_site_counts,
                "methods": self.strength_table,
            },
        })

    def to_tsv(self) -> str:
        rows = [_agreement_row(row) for row in self.agreement_rows]
        agreement = [
            ["# agreement"],
            ["row", *[row["narrative_id"] for row in rows], "all", "variance"],
        ]
        for key in (
            "opinions",
            "percent",
            "boundary_sites",
            "percent_boundary",
            "non_boundary_sites",
            "percent_non_boundary",
        ):
            pooled = self.agreement_summary[key]
            if isinstance(pooled, dict):
                agreement.append([
                    key,
                    *[num(row[key]) for row in rows],
                    num(pooled["mean"]),
                    num(pooled["variance"], VARIANCE),
                ])
            else:
                agreement.append([key, *[row[key] for row in rows], pooled, ""])

        methods = [
            [f"# methods threshold={self._threshold_label}"],
            ["method", *[c for name in METRIC_NAMES for c in (name, f"{name}_variance")]],
        ]
        for method in METHODS:
            cells = [method]
            for name in METRIC_NAMES:
                agg = self.method_table[method][name]
                cells += [num(agg["mean"]), num(agg["variance"], VARIANCE)]
            methods.append(cells)

        levels = self.strength_levels
        strengths = [
            ["# strengths"],
            ["strength", *levels],
            ["sites", *[num(self.strength_site_counts[t], MEAN_COUNT) for t in levels]],
            *[
                [f"{method}_{name}", *[num(agg["mean"]) for agg in by_level.values()]]
                for method in METHODS
                for name, by_level in self.strength_table[method].items()
            ],
        ]
        return tsv(agreement, methods, strengths)


def build_report(
    items,
    cue_lexicon: CueLexicon | None = None,
    threshold: int | None = None,
) -> Report:
    """Assemble the three report blocks for a batch.

    threshold of None means each narrative's strict majority. Narratives
    without a coding simply contribute nothing to the np cells.
    """
    items = list(items)
    if not items:
        raise ValidationError("empty batch")
    ids = [item.narrative.narrative_id for item in items]
    if len(set(ids)) != len(ids):
        raise ValidationError("narrative ids in a batch must be distinct")

    lexicon = default_cue_lexicon() if cue_lexicon is None else cue_lexicon
    levels = tuple(range(1, max(item.matrix.subjects for item in items) + 1))
    agreement_rows = []
    # Per method, one (4, units, 1 + subjects) block of the cells a, b, c, d
    # per narrative; the empty first block makes every column exist.
    scored = {m: [np.zeros((4, 0, len(levels) + 1), dtype=np.int64)] for m in METHODS}
    site_counts: dict[int, list] = {t: [] for t in levels}

    for item in items:
        matrix = item.matrix
        try:
            agreement_rows.append(percent_agreement(matrix, threshold))
        except ValidationError as exc:  # a threshold beyond this narrative's panel
            raise ValidationError(f"{matrix.narrative_id}: {exc}") from exc

        # Every subject and segmenter is scored against the pooled target
        # (column 0) and the sites of each exact strength t (column t).
        units = {"humans": matrix.cells}
        for method in ("cue", "pause") if item.coding is None else ("np", "cue", "pause"):
            units[method] = segment_by(method, item.narrative, item.coding, lexicon)[0][None, :]
        table = score_units(matrix, np.vstack(list(units.values())), threshold)[2]
        bounds = np.cumsum([len(rows) for rows in units.values()])[:-1]
        for method, block in zip(units, np.split(table, bounds, axis=1)):
            scored[method].append(block)
        # Any unit's a + c in column t counts the sites of exact strength t.
        for t, count in zip(levels, (table[0, 0, 1:] + table[2, 0, 1:]).tolist()):
            site_counts[t].append(count)

    def pooled(method: str, column: int, names) -> dict[str, dict]:
        """Aggregate one column over every narrative whose panel has it."""
        cells = np.concatenate(
            [block[:, :, column] for block in scored[method] if block.shape[2] > column], axis=1
        )
        return aggregate_cells(cells, names)

    agreement_summary = {
        "narratives": len(agreement_rows),
        "opinions": sum(row.marks for row in agreement_rows),
        "boundary_sites": sum(row.boundary_site_count for row in agreement_rows),
        "non_boundary_sites": sum(row.non_boundary_site_count for row in agreement_rows),
        **{
            f"percent{part}": aggregate_pairs(
                *[[getattr(row, stat + part) for row in agreement_rows]
                  for stat in ("observed", "possible")]
            )
            for part in ("", "_boundary", "_non_boundary")
        },
    }

    method_table = {m: pooled(m, 0, METRIC_NAMES) for m in METHODS}
    # The narrative with the largest panel counts sites at every level.
    strength_site_counts = {t: Fraction(sum(c), len(c)) for t, c in site_counts.items()}
    strength_table = {m: {"recall": {}, "precision": {}} for m in METHODS}
    for m, t in itertools.product(METHODS, levels):
        for name, agg in pooled(m, t, ("recall", "precision")).items():
            strength_table[m][name][t] = agg
    return Report(
        threshold=threshold,
        agreement_rows=tuple(agreement_rows),
        agreement_summary=agreement_summary,
        method_table=method_table,
        strength_levels=levels,
        strength_site_counts=strength_site_counts,
        strength_table=strength_table,
    )
