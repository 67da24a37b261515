"""In-memory span tracing around the program's layer boundaries.

The benchmark wraps the bindings each consumer module calls (for example
the `solve_lp` that `facetbench.measures` imported, or the
`enumerate_facets` that `facetbench.cli` imported), records one span per
call, and restores the originals afterwards.  No program module changes,
and the traced run drives the CLI's own `main`, so the pipeline measured
is the program's.

A span has a name, a start, an end, a parent and an operation id.  Self
time is a span's duration minus the union of its children's intervals.
A wrap target the program no longer has is reported as missing, and every
metric that needs it is left out rather than reported as zero.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

KERNEL = "lp.kernel"

# (module, attribute path, span name).  Bindings are wrapped where the
# caller looks them up, so a call made through any other name is not seen.
TARGETS = (
    ("facetbench.cli", "load_dataset", "dataset.load"),
    ("facetbench.cli", "extreme_set", "measures.extreme"),
    ("facetbench.cli", "enumerate_facets", "facets"),
    ("facetbench.cli", "partition_robust", "partition"),
    ("facetbench.cli", "build_report", "report.build"),
    ("facetbench.cli", "emit", "report.to_json"),
    ("facetbench.cli", "simulate_coverage", "scenario.coverage"),
    ("facetbench.report", "batch_evaluate", "robust"),
    ("facetbench.robust", "solve_sign_pattern", "signpattern"),
    ("facetbench.report", "closest_on_efpps", "measures.closest"),
    ("facetbench.report", "russell_farthest", "measures.russell"),
    ("facetbench.measures", "solve_lp", "lp"),
    ("facetbench.signpattern", "solve_lp", "lp"),
    ("facetbench.facets", "solve_lp", "lp"),
    ("facetbench.scenario", "solve_lp", "lp"),
    ("facetbench.scenario", "PriceSampler.draw", "scenario.sampler"),
    ("facetbench.lp", "_kernel.run", KERNEL),
    ("facetbench.lp", "_kernel.pivot", KERNEL),
)

# span name -> facts taken from the wrapped call's return value; they are
# summed over an operation's spans of that name.
FACTS = {
    "facets": lambda fs: {"subsets": fs.subsets_examined, "facets": len(fs.facets)},
    "scenario.coverage": lambda rep: {"trials": rep.trials},
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs")

    def __init__(self, name, start, end, parent, op, attrs=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects one operation's spans in memory, in start order."""

    def __init__(self, op: int = 0):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = op

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    """One JSON object per span; `id` and `parent` count within an operation."""
    with path.open("w", encoding="utf-8") as fh:
        for tr in tracers:
            for i, s in enumerate(tr.spans):
                fh.write(json.dumps({"op": s.op, "id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "attrs": s.attrs}) + "\n")


class NullTracer:
    """Stands in for Tracer in untraced operations."""

    def span(self, name: str):
        return nullcontext()


def _resolve(module: str, path: str):
    """(owner object, attribute name) or None when any step is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


def _lp_wrapper(tracer: Tracer, orig):
    def solve_lp(*args, **kwargs):
        idx = tracer.begin("lp")
        try:
            sol = orig(*args, **kwargs)
        finally:
            tracer.end(idx)
        tracer.spans[idx].attrs = {
            "status": getattr(sol, "status", None),
            "pivots": getattr(sol, "iterations", None),
            "degenerate": bool(getattr(sol, "degenerate_optimal_face", False)),
        }
        return sol
    return solve_lp


def _kernel_wrapper(tracer: Tracer, orig):
    spans = tracer.spans
    stack = tracer.stack

    def kernel_call(*args, **kwargs):
        # A pivot made from inside the kernel's own loop is already timed.
        if stack and spans[stack[-1]].name == KERNEL:
            return orig(*args, **kwargs)
        idx = tracer.begin(KERNEL)
        try:
            return orig(*args, **kwargs)
        finally:
            tracer.end(idx)
    return kernel_call


def _span_wrapper(tracer: Tracer, orig, name: str):
    facts = FACTS.get(name)

    def call(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = orig(*args, **kwargs)
        finally:
            tracer.end(idx)
        if facts is not None:
            tracer.spans[idx].attrs = facts(result)
        return result
    return call


def install(tracer: Tracer, targets=TARGETS) -> tuple[list, list[str]]:
    """Wrap every target that exists.  Returns (restore list, missing
    target names)."""
    restore, missing = [], []
    for module, path, name in targets:
        found = _resolve(module, path)
        if found is None:
            missing.append(f"{module}.{path}")
            continue
        owner, attr = found
        orig = getattr(owner, attr)
        if name == "lp":
            wrapper = _lp_wrapper(tracer, orig)
        elif name == KERNEL:
            wrapper = _kernel_wrapper(tracer, orig)
        else:
            wrapper = _span_wrapper(tracer, orig, name)
        setattr(owner, attr, wrapper)
        restore.append((owner, attr, orig))
    return restore, missing


def uninstall(restore: list) -> None:
    for owner, attr, orig in reversed(restore):
        setattr(owner, attr, orig)


def self_time(start: float, end: float, children: list[tuple[float, float]]) -> float:
    """Duration of [start, end] minus the union of the child intervals
    clipped to it; children may nest inside each other or overlap."""
    covered = 0.0
    cur_s = cur_e = None
    for s, e in sorted((max(s, start), min(e, end)) for s, e in children):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                covered += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        covered += cur_e - cur_s
    return (end - start) - covered


# Layers whose LP calls are counted: an LP counts for every one of these
# names among its ancestors.
LP_LAYERS = ("measures.extreme", "measures.closest", "measures.russell", "signpattern",
             "scenario.coverage", "report.build")


def summarize(spans: list[Span]) -> dict:
    """Per-name wall time (sum of durations), per-name self time, LP
    counts by enclosing layer, and the summed FACTS of one operation's
    spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    wall: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for i, s in enumerate(spans):
        wall[s.name] = wall.get(s.name, 0.0) + s.duration
        own = self_time(s.start, s.end, children.get(i, []))
        self_s[s.name] = self_s.get(s.name, 0.0) + own
    facts: dict[str, int] = {}
    for s in spans:
        if s.name in FACTS and s.attrs:
            for k, v in s.attrs.items():
                facts[k] = facts.get(k, 0) + v
    lps = {k: {"lps": 0, "pivots": 0, "optimal": 0} for k in ("lp",) + LP_LAYERS}
    pivots_known = True
    extra = {"infeasible": 0, "degenerate": 0}
    for s in spans:
        if s.name != "lp":
            continue
        a = s.attrs
        if a["pivots"] is None:
            pivots_known = False
        names = {"lp"}
        p = s.parent
        while p >= 0:
            names.add(spans[p].name)
            p = spans[p].parent
        for k in names.intersection(lps):
            lps[k]["lps"] += 1
            lps[k]["pivots"] += a["pivots"] or 0
            lps[k]["optimal"] += a["status"] == "optimal"
        extra["infeasible"] += a["status"] == "infeasible"
        extra["degenerate"] += a["degenerate"]
    return {"wall": wall, "self": self_s, "lps": lps, "facts": facts, "pivots_known": pivots_known, **extra}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# metric -> wrap targets it cannot be measured without
_CLI = "facetbench.cli."
_FACETS = (_CLI + "enumerate_facets",)
_SCENARIO = (_CLI + "simulate_coverage", "facetbench.scenario.solve_lp")
_SIGNPATTERN = ("facetbench.robust.solve_sign_pattern", "facetbench.signpattern.solve_lp")
NEEDS = {
    "lp.kernel_s": ("facetbench.lp._kernel.run", "facetbench.lp._kernel.pivot"),
    "lp.self_s": ("facetbench.lp._kernel.run", "facetbench.lp._kernel.pivot"),
    "measures.extreme.s": (_CLI + "extreme_set",),
    "measures.extreme.lps": (_CLI + "extreme_set", "facetbench.measures.solve_lp"),
    "measures.extreme.pivots": (_CLI + "extreme_set", "facetbench.measures.solve_lp"),
    "measures.closest.s": ("facetbench.report.closest_on_efpps",),
    "measures.closest.lps": ("facetbench.report.closest_on_efpps", "facetbench.measures.solve_lp"),
    "measures.closest.optimal_ratio": ("facetbench.report.closest_on_efpps", "facetbench.measures.solve_lp"),
    "measures.russell.s": ("facetbench.report.russell_farthest",),
    "measures.russell.lps": ("facetbench.report.russell_farthest", "facetbench.measures.solve_lp"),
    "measures.russell.pivots": ("facetbench.report.russell_farthest", "facetbench.measures.solve_lp"),
    "robust.s": ("facetbench.report.batch_evaluate",),
    "signpattern.lps": _SIGNPATTERN,
    "signpattern.pivots": _SIGNPATTERN,
    "signpattern.feasible_ratio": _SIGNPATTERN,
    "facets.s": _FACETS,
    "facets.subsets": _FACETS,
    "facets.kept_ratio": _FACETS,
    "facets.us_per_subset": _FACETS,
    "partition.s": (_CLI + "partition_robust",),
    "scenario.coverage.s": (_CLI + "simulate_coverage",),
    "scenario.sampler_s": ("facetbench.scenario.PriceSampler.draw",),
    "scenario.lps": _SCENARIO,
    "scenario.lps_per_trial": _SCENARIO,
    "report.build.self_s": (_CLI + "build_report", "facetbench.report.batch_evaluate",
                            "facetbench.report.closest_on_efpps", "facetbench.report.russell_farthest"),
    "report.to_json_s": (_CLI + "emit",),
    "dataset.load_s": (_CLI + "load_dataset",),
}

PIVOT_METRICS = ("lp.pivots", "measures.extreme.pivots", "measures.russell.pivots", "signpattern.pivots")


def layer_metrics(summary: dict, missing: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced operation."""
    w, lps, facts = summary["wall"], summary["lps"], summary["facts"]
    g = w.get
    lp = lps["lp"]
    out = {
        "lp.calls": lp["lps"],
        "lp.pivots": lp["pivots"],
        "lp.self_s": summary["self"].get("lp", 0.0),
        "lp.kernel_s": g(KERNEL, 0.0),
        "lp.us_per_call": _ratio(g("lp", 0.0) * 1e6, lp["lps"]),
        "lp.optimal": lp["optimal"],
        "lp.infeasible": summary["infeasible"],
        "lp.degenerate": summary["degenerate"],
        "measures.extreme.s": g("measures.extreme", 0.0),
        "measures.extreme.lps": lps["measures.extreme"]["lps"],
        "measures.extreme.pivots": lps["measures.extreme"]["pivots"],
        "measures.closest.s": g("measures.closest", 0.0),
        "measures.closest.lps": lps["measures.closest"]["lps"],
        "measures.closest.optimal_ratio": _ratio(lps["measures.closest"]["optimal"], lps["measures.closest"]["lps"]),
        "measures.russell.s": g("measures.russell", 0.0),
        "measures.russell.lps": lps["measures.russell"]["lps"],
        "measures.russell.pivots": lps["measures.russell"]["pivots"],
        "robust.s": g("robust", 0.0),
        "signpattern.lps": lps["signpattern"]["lps"],
        "signpattern.pivots": lps["signpattern"]["pivots"],
        "signpattern.feasible_ratio": _ratio(lps["signpattern"]["optimal"], lps["signpattern"]["lps"]),
        "facets.s": g("facets", 0.0),
        "facets.subsets": facts.get("subsets", 0),
        "facets.kept_ratio": _ratio(facts.get("facets", 0), facts.get("subsets", 0)),
        "facets.us_per_subset": _ratio(g("facets", 0.0) * 1e6, facts.get("subsets", 0)),
        "partition.s": g("partition", 0.0),
        "scenario.coverage.s": g("scenario.coverage", 0.0),
        "scenario.sampler_s": g("scenario.sampler", 0.0),
        "scenario.lps": lps["scenario.coverage"]["lps"],
        "scenario.lps_per_trial": _ratio(lps["scenario.coverage"]["lps"], facts.get("trials", 0)),
        "report.build.self_s": summary["self"].get("report.build", 0.0),
        "report.to_json_s": g("report.to_json", 0.0),
        "dataset.load_s": g("dataset.load", 0.0),
    }
    gone = set(missing)
    for metric, needs in NEEDS.items():
        if gone.intersection(needs):
            del out[metric]
    if not summary["pivots_known"]:
        for metric in PIVOT_METRICS:
            out.pop(metric, None)
    return out


UNITS = {name: unit for unit, names in (
    ("s", ("lp.self_s", "lp.kernel_s", "measures.extreme.s", "measures.closest.s", "measures.russell.s",
           "robust.s", "facets.s", "partition.s", "scenario.coverage.s", "scenario.sampler_s",
           "report.build.self_s", "report.to_json_s", "dataset.load_s")),
    ("us", ("lp.us_per_call", "facets.us_per_subset")),
    ("count", ("lp.calls", "lp.pivots", "lp.optimal", "lp.infeasible", "lp.degenerate",
               "measures.extreme.lps", "measures.extreme.pivots", "measures.closest.lps",
               "measures.russell.lps", "measures.russell.pivots", "signpattern.lps",
               "signpattern.pivots", "facets.subsets", "scenario.lps")),
    ("ratio", ("measures.closest.optimal_ratio", "signpattern.feasible_ratio", "facets.kept_ratio",
               "scenario.lps_per_trial", "trace.overhead_ratio")),
) for name in names}


TABLE_ROWS = (
    # label, wall span, LP layer
    ("extreme test", "measures.extreme", "measures.extreme"),
    ("facet enumeration", "facets", None),
    ("partition", "partition", None),
    ("robust, sign patterns", "robust", "signpattern"),
    ("closest", "measures.closest", "measures.closest"),
    ("Russell", "measures.russell", "measures.russell"),
    ("`build_report` end to end", "report.build", "report.build"),
    ("coverage", "scenario.coverage", "scenario.coverage"),
)


def table(summary: dict, wall_medians: dict[str, float]) -> str:
    """Per-layer table in the layout of ROADMAP's baseline table; wall
    times are medians over the run's traced operations."""
    facts = summary["facts"]
    lines = ["| layer | wall | LPs | pivots | µs per LP |", "| --- | --- | --- | --- | --- |"]
    for label, span, layer in TABLE_ROWS:
        if span not in summary["wall"]:
            continue
        wall = wall_medians[span]
        if span == "facets":
            label += f" ({facts['subsets']} subsets)"
        if span == "scenario.coverage":
            label += f" ({facts['trials']} trials)"
        if layer is None:
            lines.append(f"| {label} | {wall * 1e3:.1f} ms | 0 | 0 | - |")
            continue
        c = summary["lps"][layer]
        per = f"{wall * 1e6 / c['lps']:.0f}" if c["lps"] else "-"
        lines.append(f"| {label} | {wall * 1e3:.1f} ms | {c['lps']} | {c['pivots']} | {per} |")
    return "\n".join(lines)
