"""Run report assembly and rendering.

The report is a plain dict of JSON-native values assembled in canonical
order, serialized with sorted keys and no timestamps: two runs with the
same inputs and flags emit byte-identical files.  The CSV projection is
the familiar results-table shape (one row per DMU: robust slacks and the
three efficiency columns).
"""

from __future__ import annotations

import csv
import io

import numpy as np

from .dataset import Dataset, json_text
from .errors import DataError, FacetBenchError
from .facets import DEDUP_TOL, POSITIVITY_TOL, RANK_TOL, SUPPORT_TOL, FacetSet, facet_checks, facet_export
from .lp import FEASIBILITY_TOL, OPTIMALITY_TOL
from .measures import ExtremeSetResult, MeasureResult, closest_on_efpps, extremes_export, russell_farthest
from .partition import RobustPartition, partition_export
from .robust import SHRINK_WARN_FRACTION, EfficiencyResult, RowError, batch_evaluate


def _floats(arr) -> list[float]:
    return [float(v) for v in np.asarray(arr).ravel()]


def config_echo(aggregation: str, scope: str, profile: str | None, data_path: str) -> dict:
    """The run's settings; the fixed tolerances and the shrink fraction are
    echoed too, so a report says which numerical policy produced it."""
    return {
        "feasibility_tol": FEASIBILITY_TOL,
        "optimality_tol": OPTIMALITY_TOL,
        "aggregation": aggregation,
        "shrink_warn_fraction": SHRINK_WARN_FRACTION,
        "support_scope": scope,
        "rank_tol": RANK_TOL,
        "support_tol": SUPPORT_TOL,
        "positivity_tol": POSITIVITY_TOL,
        "dedup_tol": DEDUP_TOL,
        "profile": profile,
        "data": data_path,
    }


def _measure_payload(r: MeasureResult) -> dict:
    return {
        "status": r.status,
        "theta": None if r.theta is None else float(r.theta),
        "slacks": None if r.slacks is None else _floats(r.slacks),
    }


def _robust_payload(ds: Dataset, r: EfficiencyResult | RowError) -> dict:
    if isinstance(r, RowError):
        return {"error": r.error}
    chosen = r.chosen()
    return {
        "theta": float(r.theta),
        "slacks": _floats(chosen.slacks),
        "z": list(chosen.z),
        "chosen_group": r.chosen_group,
        "group_thetas": {str(g.group_index): float(g.theta) for g in r.groups},
        "intensities": {ds.names[d]: v for d, v in sorted(chosen.intensities.items())},
        "target_outputs": _floats(chosen.target_outputs),
        "slack_kinds": list(r.slack_kinds),
        "warnings": list(r.warnings),
    }


def _csv(payload: dict) -> str:
    labels = payload["dataset"]["output_labels"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["dmu"] + [f"slack_{lb}" for lb in labels]
                    + ["robust", "closest", "russell", "chosen_group", "warnings"])
    for row in payload["results"]:
        robust = row["robust"]
        closest = row["closest"]
        russell = row["russell"]
        cells = [row["dmu"]]
        if "error" in robust:
            cells += [""] * (len(labels) + 1)
        else:
            cells += [repr(v) for v in robust["slacks"]] + [repr(robust["theta"])]
        cells.append("" if closest["theta"] is None else repr(closest["theta"]))
        cells.append("" if russell["theta"] is None else repr(russell["theta"]))
        cells.append(str(robust.get("chosen_group", "")))
        warn = list(robust.get("warnings", []))
        if closest["status"] == "out-of-envelope":
            warn.append("closest: out-of-envelope")
        cells.append("; ".join(warn))
        writer.writerow(cells)
    return buf.getvalue()


def measure_rows(
    ds: Dataset, fs: FacetSet, part: RobustPartition, aggregation: str, measure: str
) -> list[dict | FacetBenchError]:
    """Every DMU's payload under one measure (robust, closest or russell); where
    the closest or Russell evaluation raised an error, the DMU's entry is the error."""
    if measure == "robust":
        return [_robust_payload(ds, r) for r in batch_evaluate(ds, part, aggregation)]
    rows = closest_on_efpps(fs, ds, range(ds.n)) if measure == "closest" else russell_farthest(ds, range(ds.n))
    return [r if isinstance(r, FacetBenchError) else _measure_payload(r) for r in rows]


def results_table(names: tuple[str, ...], columns: dict[str, list]) -> list[dict]:
    """One row per DMU from `measure_rows` columns; raises the first error in
    DMU order, a DMU's columns in order, as if each DMU were evaluated in turn."""
    for entries in zip(*columns.values()):
        for entry in entries:
            if isinstance(entry, FacetBenchError):
                raise entry
    return [{"dmu": name, **{m: col[o] for m, col in columns.items()}} for o, name in enumerate(names)]


def build_report(
    ds: Dataset,
    extremes: ExtremeSetResult,
    fs: FacetSet,
    part: RobustPartition,
    aggregation: str,
    data_path: str = "",
    profile: str | None = None,
) -> dict:
    """The full pipeline report as a dict of JSON-native values (steps 1-4
    plus both comparison measures and the warnings ledger)."""
    results = results_table(ds.names, {m: measure_rows(ds, fs, part, aggregation, m)
                                       for m in ("robust", "closest", "russell")})
    residuals, violations = facet_checks(ds, fs)
    warnings = list(fs.warnings)
    if extremes.discrepancy:
        detail = extremes.discrepancy_detail(ds)
        warnings.append(
            "extreme-set discrepancy: computed set differs from the pinned override "
            f"(computed-only: {detail['computed_not_pinned']}, pinned-only: {detail['pinned_not_computed']})"
        )
    for v in violations:
        warnings.append(
            f"out-of-envelope: {v['dmu']} violates facet {v['facet']} (scaled residual {v['residual']:.3e})"
        )
    for row in results:
        if "error" in row["robust"]:
            warnings.append(f"robust evaluation failed for {row['dmu']}: {row['robust']['error']}")
        else:
            warnings.extend(f"{row['dmu']}: {w}" for w in row["robust"]["warnings"])
    payload = {
        "config": config_echo(aggregation, fs.scope, profile, data_path),
        "dataset": {
            "n": ds.n, "m": ds.m, "s": ds.s,
            "names": list(ds.names),
            "input_labels": list(ds.input_labels),
            "output_labels": list(ds.output_labels),
        },
        "extremes": extremes_export(ds, extremes),
        "facets": facet_export(ds, fs, residuals),
        "subsets_examined": fs.subsets_examined,
        "partition": partition_export(ds, part),
        "envelope_violations": violations,
        "results": results,
        "warnings": warnings,
    }
    return payload


def emit(payload: dict, fmt: str) -> str:
    """The report's text: canonical json, or the csv results-table projection."""
    if fmt == "json":
        return json_text(payload)
    if fmt == "csv":
        return _csv(payload)
    raise DataError(f"format must be json or csv, got {fmt!r}")
