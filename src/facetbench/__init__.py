"""facetbench: DEA benchmarking against robust and closest facet targets.

Pipeline: load a dataset, find the extreme-efficient units, enumerate the
full-dimensional efficient facets they span, partition the
maximal-participation units into robust groups, then score every DMU with
the signed-slack robust measure plus the closest-target and weighted
Russell comparison measures.  A separate scenario toolkit evaluates
revenue under price risk and simulates strategy coverage.

The package namespace is lazy (PEP 562): a public name, or a submodule
such as ``facetbench.lp``, imports its home module on first access, so a
program that only loads a dataset does not compile the whole pipeline.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it exports at package level.  Every
# submodule is a key, so each one resolves as an attribute too.
_EXPORTS = {
    "dataset": ("Dataset", "Violation", "load_dataset", "parse_dataset", "validate_dataset"),
    "errors": ("DataError", "FacetBenchError", "FacetInfeasibleError", "SolverError"),
    "facets": ("Facet", "FacetSet", "enumerate_facets", "facet_contains"),
    "lp": ("LpProblem", "LpSolution", "solve_lp"),
    "measures": (
        "ExtremeSetResult", "MeasureResult", "closest_on_efpps", "extreme_set", "russell_farthest",
    ),
    "partition": ("RobustGroup", "RobustPartition", "membership_map", "partition_export", "partition_robust"),
    "report": ("build_report", "emit"),
    "robust": ("EfficiencyResult", "GroupResult", "RowError", "batch_evaluate"),
    "scenario": (
        "AssumptionReport", "CoverageReport", "FacetTables", "OptimalPoint", "PriceSampler",
        "PriceScenario", "WithstandResult", "check_assumptions", "facet_optimum", "facet_tables",
        "global_optimum", "load_scenario", "price_at", "revenue", "simulate_coverage",
        "uniqueness_diagnostics",
    ),
    "signpattern": ("SignPatternResult", "solve_sign_pattern"),
    "cli": (),
    "profiles": (),
    "_simplex_py": (),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        # importing a submodule binds it in this namespace
        return importlib.import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS) | set(_HOME))
