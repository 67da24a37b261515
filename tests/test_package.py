"""The lazy package namespace, each check in a fresh interpreter.

`import facetbench` binds no submodule: a public name or a submodule
attribute imports its home module on first access.  These checks run in
subprocesses, since the test process itself has long imported everything.
"""

import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# home module -> the public names `facetbench` exported when every module
# was imported eagerly
PUBLIC = {
    "dataset": ["Dataset", "Violation", "load_dataset", "parse_dataset", "validate_dataset"],
    "errors": ["DataError", "FacetBenchError", "FacetInfeasibleError", "SolverError"],
    "facets": ["Facet", "FacetSet", "enumerate_facets", "facet_contains"],
    "lp": ["LpProblem", "LpSolution", "solve_lp"],
    "measures": ["ExtremeSetResult", "MeasureResult", "closest_on_efpps", "extreme_set", "russell_farthest"],
    "partition": ["RobustGroup", "RobustPartition", "membership_map", "partition_export", "partition_robust"],
    "report": ["build_report", "emit"],
    "robust": ["EfficiencyResult", "GroupResult", "RowError", "batch_evaluate"],
    "scenario": ["AssumptionReport", "CoverageReport", "FacetTables", "OptimalPoint",
                 "PriceSampler", "PriceScenario", "WithstandResult", "check_assumptions", "facet_optimum",
                 "facet_tables", "global_optimum", "load_scenario", "price_at", "revenue",
                 "simulate_coverage", "uniqueness_diagnostics"],
    "signpattern": ["SignPatternResult", "solve_sign_pattern"],
}


def fresh(code: str):
    """Run code in a new interpreter from the repository root, with the
    source tree first on the path; return what it prints, parsed as JSON."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


LOADED = "json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'facetbench'))"


def test_load_dataset_loads_only_its_modules():
    loaded = fresh("import json, sys, facetbench\n"
                   "facetbench.load_dataset('data/universities_985.csv')\n"
                   f"print({LOADED})")
    assert loaded == ["facetbench", "facetbench.dataset", "facetbench.errors"]


def test_coverage_import_skips_the_measures():
    loaded = fresh(f"import json, sys\nfrom facetbench import simulate_coverage\nprint({LOADED})")
    assert "facetbench.scenario" in loaded
    for module in ("measures", "partition", "report", "robust", "signpattern"):
        assert f"facetbench.{module}" not in loaded


def test_every_public_name_is_its_home_object():
    out = fresh(
        "import importlib, json, facetbench\n"
        f"public = {PUBLIC!r}\n"
        "same = {name: getattr(facetbench, name) is getattr(importlib.import_module('facetbench.' + home), name)\n"
        "        for home, names in public.items() for name in names}\n"
        "try:\n"
        "    facetbench.no_such_name\n"
        "    missing = 'bound'\n"
        "except AttributeError as exc:\n"
        "    missing = str(exc)\n"
        "try:\n"
        "    from facetbench import no_such_name\n"
        "except ImportError as exc:\n"
        "    missing += ' / ' + type(exc).__name__\n"
        "ns = {}\n"
        "exec('from facetbench import *', ns)\n"
        "star = {name: ns[name] is getattr(facetbench, name) for name in ns if name != '__builtins__'}\n"
        "print(json.dumps({'same': same, 'missing': missing, 'star': star, 'all': sorted(facetbench.__all__),\n"
        "                  'dir': sorted(set(dir(facetbench)) & set(same)), 'version': facetbench.__version__}))"
    )
    names = sorted(name for names in PUBLIC.values() for name in names)
    assert len(names) == 50
    assert sorted(out["same"]) == names
    assert all(out["same"].values())
    assert out["missing"] == "module 'facetbench' has no attribute 'no_such_name' / ImportError"
    assert sorted(out["star"]) == names and all(out["star"].values())
    assert out["all"] == names
    assert out["dir"] == names
    assert out["version"] == "0.1.0"


def _parameters(obj) -> tuple[str, ...]:
    try:
        return tuple(inspect.signature(obj).parameters)
    except ValueError:  # the exception classes have no Python signature
        return ()


def test_no_public_callable_takes_a_settings_parameter():
    # the numerical policy is fixed: tolerances are module constants, and
    # a dataset's column roles come from its header alone
    import facetbench

    callables = [getattr(facetbench, name) for names in facetbench._EXPORTS.values() for name in names]
    assert all(map(callable, callables))
    assert len(callables) == sum(map(len, PUBLIC.values()))
    taken = [
        f"{obj.__name__}({param})"
        for obj in callables
        for param in _parameters(obj)
        if param in ("tols", "cfg", "schema")
    ]
    assert taken == []


SUBMODULES = sorted(p.stem for p in (SRC / "facetbench").glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("module", SUBMODULES)
def test_every_submodule_is_an_attribute(module):
    # the first touch of the package: nothing else has imported the module
    out = fresh("import json, sys, facetbench\n"
                f"before = 'facetbench.{module}' in sys.modules\n"
                f"mod = facetbench.{module}\n"
                f"print(json.dumps([before, mod is sys.modules['facetbench.{module}'], mod.__name__]))")
    assert out == [False, True, f"facetbench.{module}"]


SPANS = ROOT / "perfbench" / "spans.py"


def test_benchmark_wrap_targets_resolve():
    # The benchmark measures its layers by wrapping program bindings by
    # name (perfbench/spans.py); a binding it cannot find drops metrics.
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    restore, missing = spans.install(spans.Tracer())
    spans.uninstall(restore)
    assert missing == []


def test_benchmark_wrappers_are_what_the_commands_call():
    # The benchmark installs its wrappers before the first command runs.
    # A command that bound a function by a local import would call the
    # original and leave the span unrecorded, with no error.
    out = fresh(
        "import contextlib, importlib.util, io, json\n"
        f"spec = importlib.util.spec_from_file_location('perfbench_spans', {str(SPANS)!r})\n"
        "spans = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(spans)\n"
        "from facetbench import cli\n"
        "tracer = spans.Tracer()\n"
        "restore, missing = spans.install(tracer)\n"
        "data = ['--data', 'data/universities_985.csv', '--profile', 'paper-985']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['report', *data]), cli.main(['coverage', *data, '--trials', '50'])]\n"
        "spans.uninstall(restore)\n"
        "print(json.dumps({'codes': codes, 'missing': missing, 'names': [s.name for s in tracer.spans]}))"
    )
    assert (out["codes"], out["missing"]) == ([0, 0], [])
    for name in ("report.build", "report.to_json", "scenario.coverage"):
        assert out["names"].count(name) == 1, name


# modules every command loads: the CLI, the dataset parser and the errors
CLI_MODULES = ["cli", "dataset", "errors"]
# modules every command but validate loads: the pipeline up to the facets, and the profiles
PIPELINE = ["facets", "lp", "_simplex_py", "measures", "profiles"]

# command -> (its arguments after --data, the modules it loads beyond CLI_MODULES)
COMMANDS = {
    "validate": ([], []),
    "extremes": ([], PIPELINE),
    "facets": ([], PIPELINE),
    "partition": ([], PIPELINE + ["partition"]),
    "efficiency": ([], PIPELINE + ["partition", "report", "robust", "signpattern"]),
    "report": ([], PIPELINE + ["partition", "report", "robust", "signpattern"]),
    "scenario": (["--prices", "data/prices_toy.json"], PIPELINE + ["scenario"]),
    "coverage": (["--trials", "10"], PIPELINE + ["scenario"]),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_loads_only_its_modules(command):
    args, extra = COMMANDS[command]
    argv = [command, "--data", "data/toy_isoquant_a.csv", *args]
    loaded = fresh("import contextlib, io, json, sys\n"
                   "from facetbench import cli\n"
                   "with contextlib.redirect_stdout(io.StringIO()):\n"
                   f"    assert cli.main({argv!r}) == 0\n"
                   "assert 'numpy.random' not in sys.modules, 'numpy.random was imported'\n"
                   f"print({LOADED})")
    assert loaded == sorted(["facetbench"] + [f"facetbench.{m}" for m in CLI_MODULES + extra])
