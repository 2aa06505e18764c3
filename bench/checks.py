"""Output checks for the segtool benchmark.

Each check parses one command's stdout and compares it with values
recomputed here from the generated inputs: numpy for counts and ratios,
scipy for chi-square tails, and the generator's planted facts for what the
segmenters should find. Where no cheap oracle exists (the Monte-Carlo
null), invariants are checked instead. A check returns a list of problems;
an empty list means the output is correct.

TSV prints ratios to 2 decimals, variances to 4 and p-values to 3
significant digits, so a TSV value passes when it is within half a unit of
its last printed digit; JSON values must match to near float precision.
"""

from __future__ import annotations

import json

import numpy as np
from scipy.stats import chi2

METRICS = ("recall", "precision", "fallout", "error")
METHODS = ("np", "cue", "pause", "humans")
LEVELS = (0.5, 0.9, 0.95, 0.99)


# ---------------------------------------------------------------------------
# Oracles


def majority(subjects: int) -> int:
    return (subjects + 2) // 2


def _ratio(num, den):
    return None if den == 0 else num / den


def scores(pred: np.ndarray, target: np.ndarray) -> dict:
    """Confusion cells and ratios of 0/1 predictions against a 0/1 target."""
    pred, target = pred.astype(bool), target.astype(bool)
    a = int((pred & target).sum())
    b = int((pred & ~target).sum())
    c = int((~pred & target).sum())
    d = target.size - a - b - c
    return {"a": a, "b": b, "c": c, "d": d, "recall": _ratio(a, a + c),
            "precision": _ratio(a, a + b), "fallout": _ratio(b, b + d),
            "error": _ratio(b + c, target.size)}


def aggregate(values) -> dict:
    kept = np.array([v for v in values if v is not None], dtype=np.float64)
    if not kept.size:
        return {"mean": None, "variance": None, "count": 0, "skipped": len(values)}
    mean = kept.mean()
    return {"mean": float(mean), "variance": float(((kept - mean) ** 2).mean()),
            "count": int(kept.size), "skipped": len(values) - int(kept.size)}


def mask(sites, size: int) -> np.ndarray:
    out = np.zeros(size, dtype=bool)
    out[list(sites)] = True
    return out


def agreement(cells: np.ndarray) -> dict:
    subjects, sites = cells.shape
    totals = cells.sum(axis=0)
    boundary = totals >= majority(subjects)
    ob = int(totals[boundary].sum())
    onb = int((subjects - totals[~boundary]).sum())
    pb, pnb = subjects * int(boundary.sum()), subjects * int((~boundary).sum())
    return {
        "all": (ob + onb, pb + pnb, _ratio(ob + onb, pb + pnb)),
        "boundary": (ob, pb, _ratio(ob, pb)),
        "non_boundary": (onb, pnb, _ratio(onb, pnb)),
        "boundary_sites": int(boundary.sum()),
        "non_boundary_sites": int((~boundary).sum()),
    }


def predictions(planted) -> dict:
    sites = planted.cells.shape[1]
    out = {"cue": mask(planted.cue_sites, sites), "pause": mask(planted.pause_sites, sites)}
    if planted.np_sites is not None:
        out["np"] = mask(planted.np_sites, sites)
    return out


def expected_report(planted_list) -> dict:
    """The report segtool should print for a generated batch."""
    levels = list(range(1, max(p.cells.shape[0] for p in planted_list) + 1))
    rows = []
    method_values = {m: {name: [] for name in METRICS} for m in METHODS}
    strength_values = {m: {name: {t: [] for t in levels} for name in ("recall", "precision")}
                       for m in METHODS}
    site_counts = {t: [] for t in levels}
    for p in planted_list:
        cells = p.cells.astype(bool)
        subjects = cells.shape[0]
        totals = p.cells.sum(axis=0)
        agree = agreement(p.cells)
        agree["opinions"] = int(p.cells.sum())
        rows.append(agree)
        target = totals >= majority(subjects)
        preds = predictions(p)
        for method, pred in preds.items():
            got = scores(pred, target)
            for name in METRICS:
                method_values[method][name].append(got[name])
        for row in cells:
            got = scores(row, target)
            for name in METRICS:
                method_values["humans"][name].append(got[name])
        for t in levels:
            if t > subjects:
                continue
            exact = totals == t
            site_counts[t].append(int(exact.sum()))
            for method, pred in preds.items():
                got = scores(pred, exact)
                for name in ("recall", "precision"):
                    strength_values[method][name][t].append(got[name])
            hits = (cells & exact).sum(axis=1)
            marked = cells.sum(axis=1)
            for a, n_marked in zip(hits, marked):
                strength_values["humans"]["recall"][t].append(_ratio(int(a), int(exact.sum())))
                strength_values["humans"]["precision"][t].append(_ratio(int(a), int(n_marked)))
    summary = {
        "opinions": sum(r["opinions"] for r in rows),
        "boundary_sites": sum(r["boundary_sites"] for r in rows),
        "non_boundary_sites": sum(r["non_boundary_sites"] for r in rows),
        "percent": aggregate([r["all"][2] for r in rows]),
        "percent_boundary": aggregate([r["boundary"][2] for r in rows]),
        "percent_non_boundary": aggregate([r["non_boundary"][2] for r in rows]),
    }
    return {
        "ids": [p.narrative_id for p in planted_list],
        "rows": rows,
        "summary": summary,
        "methods": {m: {name: aggregate(method_values[m][name]) for name in METRICS}
                    for m in METHODS},
        "levels": levels,
        "sites_mean": {t: float(np.mean(site_counts[t])) if site_counts[t] else 0.0
                       for t in levels},
        "strengths": {m: {name: {t: aggregate(strength_values[m][name][t]) for t in levels}
                          for name in ("recall", "precision")} for m in METHODS},
    }


def cochran(cells: np.ndarray) -> dict:
    """Q, its chi-square p and the per-strength partition, in floats."""
    subjects, sites = cells.shape
    rows = cells.sum(axis=1).astype(np.float64)
    totals = cells.sum(axis=0)
    total = rows.sum()
    denom = sites * total - (rows ** 2).sum()
    dev = (sites * totals - total) ** 2
    q = (sites - 1) * dev.sum() / (sites * denom)
    components = {}
    for t, n_t in enumerate(np.bincount(totals, minlength=subjects + 1)):
        if n_t:
            q_t = (sites - 1) * n_t * (sites * t - total) ** 2 / (sites * denom)
            components[t] = (int(n_t), q_t, float(chi2.sf(q_t, int(n_t))))
    return {"q": q, "df": sites - 1, "p": float(chi2.sf(q, sites - 1)), "components": components}


# ---------------------------------------------------------------------------
# Comparison helpers


class Problems(list):
    def same(self, where, got, want):
        if got != want:
            self.append(f"{where}: got {got!r}, want {want!r}")

    def close(self, where, got, want, tol):
        """got is a parsed number, "NA" or None; want a float or None."""
        if want is None or got in (None, "NA"):
            if not (want is None and got in (None, "NA")):
                self.append(f"{where}: got {got!r}, want {want!r}")
            return
        got = float(got)
        if not abs(got - want) <= tol + 1e-9 * abs(want):
            self.append(f"{where}: got {got!r}, want {want!r}")

    def pvalue(self, where, got, want, rel):
        if got in (None, "NA"):
            self.append(f"{where}: got {got!r}, want {want!r}")
            return
        got = float(got)
        # Both tails underflow differently near the smallest doubles.
        if max(got, want) < 1e-290:
            return
        if not abs(got - want) <= rel * want:
            self.append(f"{where}: got {got!r}, want {want!r}")


TSV_RATIO = 0.005
TSV_VAR = 0.00005
JSON = 1e-12


def _tsv_blocks(text: str) -> dict[str, list[list[str]]]:
    blocks, name = {}, None
    for line in text.rstrip("\n").split("\n"):
        if line.startswith("# "):
            name = line[2:].split(" ")[0]
            blocks[name] = []
        elif line and name is not None:
            blocks[name].append(line.split("\t"))
    return blocks


def _agg(problems, where, got: dict, want: dict, tol):
    problems.close(f"{where}.mean", got["mean"], want["mean"], tol)
    problems.close(f"{where}.variance", got["variance"], want["variance"], tol)
    problems.same(f"{where}.count", got["count"], want["count"])
    problems.same(f"{where}.skipped", got["skipped"], want["skipped"])


# ---------------------------------------------------------------------------
# report


def report_tsv(text: str, want: dict) -> list[str]:
    problems = Problems()
    blocks = _tsv_blocks(text)
    problems.same("blocks", sorted(blocks), ["agreement", "methods", "strengths"])
    if problems:
        return problems
    agree = {row[0]: row[1:] for row in blocks["agreement"]}
    problems.same("agreement.header", agree.get("row"), [*want["ids"], "all", "variance"])
    n = len(want["ids"])
    s = want["summary"]
    for label, key in (("opinions", "opinions"), ("boundary_sites", "boundary_sites"),
                       ("non_boundary_sites", "non_boundary_sites")):
        row = agree.get(label, [])
        problems.same(label, row, [str(r[key]) for r in want["rows"]] + [str(s[key]), ""])
    for label, key in (("percent", "all"), ("percent_boundary", "boundary"),
                       ("percent_non_boundary", "non_boundary")):
        row = agree.get(label, [])
        if len(row) != n + 2:
            problems.append(f"{label}: {len(row)} cells")
            continue
        for k, r in enumerate(want["rows"]):
            problems.close(f"{label}[{k}]", row[k], r[key][2], TSV_RATIO)
        problems.close(f"{label}.mean", row[n], s[label]["mean"], TSV_RATIO)
        problems.close(f"{label}.variance", row[n + 1], s[label]["variance"], TSV_VAR)

    methods = {row[0]: row[1:] for row in blocks["methods"]}
    for method in METHODS:
        row = methods.get(method, [])
        if len(row) != 2 * len(METRICS):
            problems.append(f"methods.{method}: {len(row)} cells")
            continue
        for k, name in enumerate(METRICS):
            agg = want["methods"][method][name]
            problems.close(f"{method}.{name}", row[2 * k], agg["mean"], TSV_RATIO)
            problems.close(f"{method}.{name}_variance", row[2 * k + 1], agg["variance"], TSV_VAR)

    strengths = {row[0]: row[1:] for row in blocks["strengths"]}
    levels = want["levels"]
    problems.same("strength", strengths.get("strength"), [str(t) for t in levels])
    for k, t in enumerate(levels):
        problems.close(f"sites[{t}]", strengths.get("sites", ["NA"] * len(levels))[k],
                       want["sites_mean"][t], 0.05)
    for method in METHODS:
        for name in ("recall", "precision"):
            row = strengths.get(f"{method}_{name}", [])
            if len(row) != len(levels):
                problems.append(f"{method}_{name}: {len(row)} cells")
                continue
            for k, t in enumerate(levels):
                problems.close(f"{method}_{name}[{t}]", row[k],
                               want["strengths"][method][name][t]["mean"], TSV_RATIO)
    return problems


def report_json(text: str, want: dict) -> list[str]:
    problems = Problems()
    doc = json.loads(text)
    rows = doc["agreement"]["narratives"]
    problems.same("narratives", [r["narrative_id"] for r in rows], want["ids"])
    for got, r in zip(rows, want["rows"]):
        where = got["narrative_id"]
        problems.same(f"{where}.opinions", got["opinions"], r["opinions"])
        problems.same(f"{where}.boundary_sites", got["boundary_sites"], r["boundary_sites"])
        problems.same(f"{where}.non_boundary_sites", got["non_boundary_sites"], r["non_boundary_sites"])
        problems.close(f"{where}.percent", got["percent"], r["all"][2], JSON)
        problems.close(f"{where}.percent_boundary", got["percent_boundary"], r["boundary"][2], JSON)
        problems.close(f"{where}.percent_non_boundary", got["percent_non_boundary"],
                       r["non_boundary"][2], JSON)
    summary = doc["agreement"]["summary"]
    for key, value in want["summary"].items():
        if isinstance(value, dict):
            _agg(problems, f"summary.{key}", summary[key], value, JSON)
        else:
            problems.same(f"summary.{key}", summary[key], value)
    for method in METHODS:
        for name in METRICS:
            _agg(problems, f"{method}.{name}", doc["methods"][method][name],
                 want["methods"][method][name], JSON)
    strengths = doc["strengths"]
    problems.same("levels", strengths["levels"], want["levels"])
    for t in want["levels"]:
        problems.close(f"sites_mean[{t}]", strengths["sites_mean"][str(t)], want["sites_mean"][t], JSON)
        for method in METHODS:
            for name in ("recall", "precision"):
                _agg(problems, f"{method}_{name}[{t}]", strengths["methods"][method][name][str(t)],
                     want["strengths"][method][name][t], JSON)
    return problems


# ---------------------------------------------------------------------------
# Per-file commands


def agree_tsv(text: str, planted) -> list[str]:
    problems = Problems()
    lines = [line.split("\t") for line in text.rstrip("\n").split("\n")]
    problems.same("header", lines[0], ["narrative", "class", "observed", "possible", "percent"])
    want = agreement(planted.cells)
    problems.same("classes", [row[1] for row in lines[1:]], ["all", "boundary", "non_boundary"])
    for row in lines[1:]:
        if row[1] not in want or len(row) != 5:
            continue
        observed, possible, percent = want[row[1]]
        problems.same(f"{row[1]}.narrative", row[0], planted.narrative_id)
        problems.same(f"{row[1]}.counts", row[2:4], [str(observed), str(possible)])
        problems.close(f"{row[1]}.percent", row[4], percent, TSV_RATIO)
    return problems


def strengths_tsv(text: str, planted) -> list[str]:
    problems = Problems()
    lines = [line.split("\t") for line in text.rstrip("\n").split("\n")]
    problems.same("header", lines[0], ["strength", "kind", "count", "sites"])
    totals = planted.cells.sum(axis=0)
    want = []
    for t in range(1, planted.cells.shape[0] + 1):
        for kind, sites in (("exact", np.flatnonzero(totals == t)),
                            ("cumulative", np.flatnonzero(totals >= t))):
            labels = ",".join(planted.labels[k] for k in sites) or "-"
            want.append([str(t), kind, str(len(sites)), labels])
    problems.same("rows", lines[1:], want)
    return problems


def _cochran_rows(problems, got_rows, want):
    got = {}
    for row in got_rows:
        got[int(row[0])] = row[1:]
    problems.same("strengths", sorted(got), sorted(want["components"]))
    for t, (n_t, q_t, p_t) in want["components"].items():
        if t not in got:
            continue
        sites, q, df, p = got[t]
        problems.same(f"component[{t}].sites", int(sites), n_t)
        problems.same(f"component[{t}].df", int(df), n_t)
        problems.close(f"component[{t}].q", q, q_t, TSV_RATIO)
        problems.pvalue(f"component[{t}].p", p, p_t, 0.01)


def cochran_tsv(text: str, planted) -> list[str]:
    problems = Problems()
    want = cochran(planted.cells)
    head, _, parts = text.partition("\n\n")
    stats = dict(line.split("\t") for line in head.split("\n")[1:])
    problems.close("q", stats.get("q"), want["q"], TSV_RATIO)
    problems.same("df", stats.get("df"), str(want["df"]))
    problems.pvalue("p", stats.get("p"), want["p"], 0.01)
    lines = [line.split("\t") for line in parts.rstrip("\n").split("\n")]
    problems.same("partition.header", lines[0], ["strength", "sites", "q", "df", "p"])
    _cochran_rows(problems, lines[1:], want)
    return problems


def calibration_json(text: str, planted, trials: int, seed: int) -> list[str]:
    problems = Problems()
    doc = json.loads(text)
    want = cochran(planted.cells)
    problems.close("q", doc["q"], want["q"], JSON)
    problems.same("df", doc["df"], want["df"])
    problems.pvalue("p", doc["p"], want["p"], 1e-6)
    rows = [[c["strength"], c["sites"], c["q"], c["df"], c["p"]] for c in doc["components"]]
    _cochran_rows(problems, rows, want)
    cal = doc["calibration"]
    problems.same("trials", cal["trials"], trials)
    problems.same("seed", cal["seed"], seed)
    problems.same("degenerate_trials", cal["degenerate_trials"], 0)
    keys = [f"{level:.2f}" for level in LEVELS]
    empirical = [cal["quantiles"].get(k) for k in keys]
    reference = [cal["chi_square_quantiles"].get(k) for k in keys]
    for k, level, got in zip(keys, LEVELS, reference):
        problems.close(f"chi_square_quantiles[{k}]", got,
                       float(chi2.isf(1 - level, want["df"])), 1e-6 * want["df"])
    if None in empirical or any(b < a for a, b in zip(empirical, empirical[1:])):
        problems.append(f"quantiles not increasing: {empirical}")
    elif not abs(empirical[0] - reference[0]) <= 0.1 * reference[0]:
        problems.append(f"null median {empirical[0]} far from chi-square {reference[0]}")
    rate, p = cal["rejection_rate_05"], cal["empirical_p"]
    if not (isinstance(rate, float) and 0 <= rate <= 1):
        problems.append(f"rejection_rate_05 {rate!r} outside [0, 1]")
    if not (isinstance(p, float) and 1 / (trials + 1) - 1e-15 <= p <= 1):
        problems.append(f"empirical_p {p!r} outside [1/(trials+1), 1]")
    return problems


def segment_np_tsv(text: str, planted) -> list[str]:
    problems = Problems()
    parts = text.rstrip("\n").split("\n\n")
    if len(parts) != 3 or not parts[2].startswith("# trace"):
        return [f"expected sites, clause boundaries and trace blocks, got {len(parts)} blocks"]
    rows = [line.split("\t") for line in parts[0].split("\n")[1:]]
    sites = planted.cells.shape[1]
    for row in rows:
        site = int(row[0])
        if not 0 <= site < sites:
            problems.append(f"site {site} outside [0, {sites - 1}]")
        elif row[1] != planted.labels[site]:
            problems.append(f"site {site}: label {row[1]!r}, want {planted.labels[site]!r}")
    problems.same("sites", sorted(int(row[0]) for row in rows), sorted(planted.np_sites))
    trace = [line.split("\t") for line in parts[2].split("\n")[2:]]
    problems.same("trace steps", len(trace), planted.clauses - 1)
    problems.same("trace fics", [row[0] for row in trace],
                  [str(n) for n in range(2, planted.clauses + 1)])
    problems.same("linked_by", [row[2] for row in trace],
                  [tie or "boundary" for tie in planted.links])
    return problems


def eval_humans_loo_tsv(text: str, planted) -> list[str]:
    problems = Problems()
    lines = [line.split("\t") for line in text.rstrip("\n").split("\n")]
    cells = planted.cells.astype(bool)
    subjects = cells.shape[0]
    totals = planted.cells.sum(axis=0)
    mode = f"threshold={majority(subjects - 1)} leave-one-out"
    per_subject = []
    for s, row in enumerate(cells):
        got = lines[1 + s] if 1 + s < len(lines) else []
        want = scores(row, (totals - planted.cells[s]) >= majority(subjects - 1))
        per_subject.append(want)
        problems.same(f"s{s + 1}.label", got[:4],
                      [planted.narrative_id, "humans", mode, f"s{s + 1}"])
        problems.same(f"s{s + 1}.cells", got[4:8], [str(want[k]) for k in "abcd"])
        for k, name in enumerate(METRICS):
            problems.close(f"s{s + 1}.{name}", got[8 + k] if len(got) > 8 + k else None,
                           want[name], TSV_RATIO)
    summary = lines[1 + subjects:]
    problems.same("summary rows", [row[3] for row in summary], ["mean", "variance"])
    if len(summary) == 2:
        for k, name in enumerate(METRICS):
            agg = aggregate([w[name] for w in per_subject])
            problems.close(f"mean.{name}", summary[0][8 + k], agg["mean"], TSV_RATIO)
            problems.close(f"variance.{name}", summary[1][8 + k], agg["variance"], TSV_VAR)
    return problems


def eval_cue_json(text: str, planted) -> list[str]:
    problems = Problems()
    doc = json.loads(text)
    totals = planted.cells.sum(axis=0)
    subjects = planted.cells.shape[0]
    want = scores(predictions(planted)["cue"], totals >= majority(subjects))
    problems.same("narrative_id", doc["narrative_id"], planted.narrative_id)
    problems.same("target", doc["target"], f"threshold={majority(subjects)}")
    problems.same("confusion", doc["confusion"], {k: want[k] for k in "abcd"})
    for name in METRICS:
        problems.close(name, doc["metrics"][name], want[name], JSON)
    return problems
