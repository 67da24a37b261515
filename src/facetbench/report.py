"""Run report assembly and emission.

The report is a plain dict of JSON-native values assembled in canonical
order, serialized with sorted keys and no timestamps: two runs with the
same inputs and flags emit byte-identical files.  The CSV projection is
the familiar results-table shape (one row per DMU: robust slacks and the
three efficiency columns).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import Dataset
from .errors import DataError, FacetBenchError
from .facets import FacetSet, FacetTolerances, envelope_violations, verify_facet_set
from .lp import FEASIBILITY_TOL, OPTIMALITY_TOL
from .measures import ExtremeSetResult, MeasureResult, closest_on_efpps, russell_farthest
from .partition import RobustPartition, partition_export
from .robust import SHRINK_WARN_FRACTION, EfficiencyResult, RowError, batch_evaluate


def _floats(arr) -> list[float]:
    return [float(v) for v in np.asarray(arr).ravel()]


def config_echo(aggregation: str, tols: FacetTolerances, scope: str, extra: dict | None = None) -> dict:
    """The run's settings; the fixed tolerances and the shrink fraction are
    echoed too, so a report says which numerical policy produced it."""
    echo = {
        "feasibility_tol": FEASIBILITY_TOL,
        "optimality_tol": OPTIMALITY_TOL,
        "aggregation": aggregation,
        "shrink_warn_fraction": SHRINK_WARN_FRACTION,
        "support_scope": scope,
        "rank_tol": tols.rank_tol,
        "support_tol": tols.support_tol,
        "positivity_tol": tols.positivity_tol,
        "dedup_tol": tols.dedup_tol,
    }
    if extra:
        echo.update(extra)
    return echo


def facet_export(ds: Dataset, fs: FacetSet) -> list[dict]:
    residuals = verify_facet_set(ds, fs)
    out = []
    for f in fs.facets:
        out.append({
            "id": f.id,
            "members": [ds.names[j] for j in f.members],
            "u": _floats(f.u),
            "v": _floats(f.v),
            "span_residual": residuals[f.id]["span_residual"],
            "max_support_residual": residuals[f.id]["max_support_residual"],
        })
    return out


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


@dataclass
class RunReport:
    payload: dict

    def to_json(self) -> str:
        return json.dumps(self.payload, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        ds_part = self.payload["dataset"]
        rows = self.payload["results"]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        header = (
            ["dmu"]
            + [f"slack_{lb}" for lb in ds_part["output_labels"]]
            + ["robust", "closest", "russell", "chosen_group", "warnings"]
        )
        writer.writerow(header)
        for row in rows:
            robust = row["robust"]
            closest = row["closest"]
            russell = row["russell"]
            slacks = robust.get("slacks") if "error" not in robust else None
            cells = [row["dmu"]]
            if slacks is None:
                cells += [""] * len(ds_part["output_labels"])
            else:
                cells += [repr(v) for v in slacks]
            cells.append("" if "error" in robust else repr(robust["theta"]))
            cells.append("" if closest["theta"] is None else repr(closest["theta"]))
            cells.append("" if russell["theta"] is None else repr(russell["theta"]))
            cells.append(str(robust.get("chosen_group", "")))
            warn = list(robust.get("warnings", []))
            if closest["status"] == "out-of-envelope":
                warn.append("closest: out-of-envelope")
            cells.append("; ".join(warn))
            writer.writerow(cells)
        return buf.getvalue()


def build_report(
    ds: Dataset,
    extremes: ExtremeSetResult,
    fs: FacetSet,
    part: RobustPartition,
    aggregation: str,
    tols: FacetTolerances,
    data_path: str = "",
    profile: str | None = None,
) -> RunReport:
    """Assemble the full pipeline report (steps 1-4 plus both comparison
    measures and the warnings ledger)."""
    robust_rows = batch_evaluate(ds, part, aggregation)
    closest_rows = closest_on_efpps(fs, ds, range(ds.n), tols)
    russell_rows = russell_farthest(ds, range(ds.n))
    results = []
    # Errors surface in DMU order, closest before Russell, as if each DMU
    # were evaluated in turn; a DataError from the closest measure only
    # marks its row.
    for o in range(ds.n):
        closest = closest_rows[o]
        if isinstance(closest, DataError):
            closest = {"status": "error", "theta": None, "slacks": None, "error": str(closest)}
        elif isinstance(closest, FacetBenchError):
            raise closest
        else:
            closest = _measure_payload(closest)
        if isinstance(russell_rows[o], FacetBenchError):
            raise russell_rows[o]
        results.append({
            "dmu": ds.names[o],
            "robust": _robust_payload(ds, robust_rows[o]),
            "closest": closest,
            "russell": _measure_payload(russell_rows[o]),
        })
    violations = envelope_violations(ds, fs, tols)
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
    for row, rr in zip(results, robust_rows):
        if isinstance(rr, RowError):
            warnings.append(f"robust evaluation failed for {row['dmu']}: {rr.error}")
        else:
            warnings.extend(f"{row['dmu']}: {w}" for w in rr.warnings)
    payload = {
        "config": config_echo(aggregation, tols, fs.scope, {"profile": profile, "data": data_path}),
        "dataset": {
            "n": ds.n, "m": ds.m, "s": ds.s,
            "names": list(ds.names),
            "input_labels": list(ds.input_labels),
            "output_labels": list(ds.output_labels),
        },
        "extremes": {
            "effective": [ds.names[d] for d in extremes.indices],
            "computed": [ds.names[d] for d in extremes.computed],
            "pinned": extremes.pinned,
            "discrepancy": extremes.discrepancy_detail(ds),
            "lambda0": {ds.names[d]: v for d, v in sorted(extremes.lambda0.items())},
        },
        "facets": facet_export(ds, fs),
        "subsets_examined": fs.subsets_examined,
        "partition": partition_export(ds, part),
        "envelope_violations": violations,
        "results": results,
        "warnings": warnings,
    }
    return RunReport(payload)


def emit(report_payload: dict | RunReport, fmt: str, path: str | Path | None) -> str:
    """Serialize to json or csv; write to path when given, return the text."""
    report = report_payload if isinstance(report_payload, RunReport) else RunReport(report_payload)
    if fmt == "json":
        text = report.to_json()
    elif fmt == "csv":
        text = report.to_csv()
    else:
        raise DataError(f"format must be json or csv, got {fmt!r}")
    if path is not None:
        try:
            Path(path).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise DataError(f"cannot write {path}: {exc}") from None
    return text
