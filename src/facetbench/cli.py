"""facet-bench command line.

Subcommands mirror the four-step pipeline plus the scenario tools:

  validate    check a dataset file against every invariant
  extremes    run the extreme-efficiency test per DMU
  facets      enumerate the full-dimensional efficient facets
  partition   group maximal-participation DMUs by exact facet subset
  efficiency  per-DMU efficiency table (robust / closest / russell)
  scenario    two-stage revenue analysis under a price scenario
  coverage    seeded Monte-Carlo strategy coverage counts
  report      full pipeline report (json or csv projection)

Exit codes: 0 success, 1 data/input error, 2 internal or solver error.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import TYPE_CHECKING

import numpy as np

from .dataset import json_text, load_dataset, parse_dataset, parse_float, read_text, validate_dataset, write_text
from .errors import DataError, FacetBenchError, SolverError

if TYPE_CHECKING:
    from .facets import enumerate_facets, facet_checks, facet_export
    from .measures import extreme_set, extremes_export, pinned_indices
    from .partition import partition_export, partition_robust
    from .profiles import get_profile
    from .report import build_report, emit, measure_rows, results_table
    from .scenario import load_scenario, scenario_payload, simulate_coverage

# module -> the names its commands call, bound in this namespace when main
# runs a command that uses the module (_COMMANDS), or on first attribute
# access (PEP 562), so that a command compiles and runs only the modules
# it uses.  A name is bound with setdefault: a wrapper that a profiler set
# on this module's binding beforehand is the object the command calls.
_DEFERRED = {
    "facets": ("enumerate_facets", "facet_checks", "facet_export"),
    "measures": ("extreme_set", "extremes_export", "pinned_indices"),
    "partition": ("partition_export", "partition_robust"),
    "profiles": ("get_profile",),
    "report": ("build_report", "emit", "measure_rows", "results_table"),
    "scenario": ("load_scenario", "scenario_payload", "simulate_coverage"),
}

_DEFERRED_HOME = {name: module for module, names in _DEFERRED.items() for name in names}

_PIPELINE = ("facets", "measures", "profiles")
# command -> the modules of _DEFERRED it uses
_COMMANDS = {
    "validate": (),
    "extremes": _PIPELINE,
    "facets": _PIPELINE,
    "partition": _PIPELINE + ("partition",),
    "efficiency": _PIPELINE + ("partition", "report"),
    "report": _PIPELINE + ("partition", "report"),
    "scenario": _PIPELINE + ("scenario",),
    "coverage": _PIPELINE + ("scenario",),
}


def _bind(*modules: str) -> None:
    for module in modules:
        home = importlib.import_module(f".{module}", __package__)
        for name in _DEFERRED[module]:
            globals().setdefault(name, getattr(home, name))


def __getattr__(name: str):
    module = _DEFERRED_HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(module)
    return globals()[name]


def _read_extremes_file(path: str) -> tuple[str, ...]:
    names = [
        line.strip() for line in read_text(path).splitlines()
        if line.strip() and not line.strip().startswith("#")
    ]
    if not names:
        raise DataError(f"{path}: no DMU names")
    return tuple(names)


def _parse_strategies(spec: str) -> list[tuple[int, ...]]:
    out = []
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        ids = tuple(_digits(tok.strip()) for tok in part.split(","))
        if None in ids:
            raise DataError(f"bad strategy spec {part!r}: expected comma-separated facet ids")
        out.append(ids)
    if not out:
        raise DataError("empty strategy spec")
    return out


def _parse_delta(flag: str, text: str) -> float:
    try:
        value = parse_float(text)
    except ValueError:
        raise DataError(f"bad {flag} {text!r}: expected a decimal number") from None
    if not np.isfinite(value):
        raise DataError(f"bad {flag} {text!r}: must be finite")
    return value


def _digits(text: str) -> int | None:
    """The nonnegative integer text writes in ASCII digits only, or None:
    ``int()`` would also accept a sign, digit separators, surrounding
    whitespace and other scripts' digits."""
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    return None


def _parse_count(flag: str, text: str) -> int:
    value = _digits(text)
    if value is None:
        raise DataError(f"bad {flag} {text!r}: expected a nonnegative integer")
    return value


def _parse_xbar(spec: str | None, m: int) -> np.ndarray:
    if spec is None:
        return np.ones(m)
    try:
        vals = [parse_float(tok.strip()) for tok in spec.split(",")]
    except ValueError:
        raise DataError(f"bad --xbar {spec!r}: expected comma-separated numbers") from None
    if not all(np.isfinite(vals)):
        raise DataError(f"bad --xbar {spec!r}: components must be finite")
    if len(vals) != m:
        raise DataError(f"--xbar has {len(vals)} components, dataset has m={m} inputs")
    return np.array(vals)


def _settings(args) -> tuple[tuple[str, ...] | None, str, str]:
    """(extreme override, support scope, aggregation) after profile merge."""
    override = None
    scope = None
    aggregation = None
    if args.profile:
        prof = get_profile(args.profile)
        override = prof["extremes"]
        scope = prof["support_scope"]
        aggregation = prof["aggregation"]
    if args.extremes:
        override = _read_extremes_file(args.extremes)
    if args.support_scope:
        scope = args.support_scope
    if getattr(args, "aggregation", None):
        aggregation = args.aggregation
    return override, scope or "extremes", aggregation or "table4-max"


def _write(text: str, args) -> None:
    """The one writer of command output: the --out file, else stdout."""
    if args.out:
        write_text(args.out, text)
    else:
        sys.stdout.write(text)


def _pipeline(args, report: bool = False):
    """(dataset, extreme-set result, facets, aggregation).  The extreme
    test runs when no set is pinned, or for a report, which prints the
    test's discrepancy with the pin; a pinned set is otherwise resolved
    without it, and the result is None."""
    ds = load_dataset(args.data)
    override, scope, aggregation = _settings(args)
    if report or override is None:
        ext = extreme_set(ds, override)
        extremes = ext.indices
    else:
        ext, extremes = None, pinned_indices(ds, override)
    fs = enumerate_facets(ds, extremes, scope)
    return ds, ext, fs, aggregation


def cmd_validate(args) -> int:
    ds = parse_dataset(args.data)
    violations = validate_dataset(ds)
    payload = {
        "data": args.data,
        "valid": not violations,
        "violations": [
            {"rule": v.rule, "dmu": v.dmu, "dimension": v.dimension, "message": v.message}
            for v in violations
        ],
    }
    _write(json_text(payload), args)
    return 1 if violations else 0


def cmd_extremes(args) -> int:
    ds = load_dataset(args.data)
    override, _, _ = _settings(args)
    ext = extreme_set(ds, override)
    _write(json_text({"data": args.data, **extremes_export(ds, ext)}), args)
    return 0


def cmd_facets(args) -> int:
    ds, ext, fs, aggregation = _pipeline(args)
    payload = {
        "data": args.data,
        "support_scope": fs.scope,
        "extremes": [ds.names[d] for d in fs.extremes],
        "facets": facet_export(ds, fs, facet_checks(ds, fs)[0]),
        "subsets_examined": fs.subsets_examined,
        "warnings": list(fs.warnings),
    }
    _write(json_text(payload), args)
    return 0


def cmd_partition(args) -> int:
    ds, ext, fs, aggregation = _pipeline(args)
    part = partition_robust(fs)
    payload = {"data": args.data, "partition": partition_export(ds, part)}
    _write(json_text(payload), args)
    return 0


def cmd_efficiency(args) -> int:
    if args.measure == "all":
        return cmd_report(args)
    if args.format == "csv":
        raise DataError(f"--format csv needs --measure all, got --measure {args.measure}")
    ds, ext, fs, aggregation = _pipeline(args)
    column = measure_rows(ds, fs, partition_robust(fs), aggregation, args.measure)
    _write(json_text({"results": results_table(ds.names, {args.measure: column})}), args)
    return 0


def cmd_report(args) -> int:
    ds, ext, fs, aggregation = _pipeline(args, report=True)
    report = build_report(ds, ext, fs, partition_robust(fs), aggregation, data_path=args.data, profile=args.profile)
    _write(emit(report, args.format), args)
    return 0


def cmd_scenario(args) -> int:
    d0 = _parse_delta("--delta0", args.delta0)
    if args.delta is not None:
        d1 = _parse_delta("--delta", args.delta)
    else:
        d1 = _parse_delta("--delta1", "1" if args.delta1 is None else args.delta1)
    ds, ext, fs, aggregation = _pipeline(args)
    sc = load_scenario(args.prices)
    if sc.s != ds.s:
        raise DataError(f"scenario has {sc.s} outputs, dataset has {ds.s}")
    if args.target and args.xbar is None:
        xbar = ds.inputs[:, ds.index(args.target)]
    else:
        xbar = _parse_xbar(args.xbar, ds.m)
    _write(json_text({"data": args.data, **scenario_payload(ds, fs, sc, xbar, d0, d1, args.target)}), args)
    return 0


def cmd_coverage(args) -> int:
    trials = _parse_count("--trials", args.trials)
    seed = _parse_count("--seed", args.seed)
    ds, ext, fs, aggregation = _pipeline(args)
    xbar = _parse_xbar(args.xbar, ds.m)
    if args.strategies:
        strategies = _parse_strategies(args.strategies)
    else:
        strategies = [(fid,) for fid in fs.ids()] + [tuple(fs.ids())]
    rep = simulate_coverage(ds, fs, strategies, xbar, trials, seed)
    _write(json_text(rep.to_payload()), args)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error with exit code 1, the code of every input
    error; argparse's own 2 is kept for internal faults.  Subparsers are
    built from the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="facet-bench",
        description="DEA benchmarking against robust and closest facet targets",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_common(p):
        p.add_argument("--data", required=True, help="dataset CSV (see FORMATS.md)")
        p.add_argument("--extremes", help="file pinning the extreme set, one DMU name per line")
        p.add_argument("--support-scope", choices=["extremes", "all"], dest="support_scope")
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.add_argument("--profile", help="named settings bundle (paper-985)")

    p = sub.add_parser("validate", help="check a dataset file")
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("extremes", help="extreme-efficiency test per DMU")
    add_common(p)
    p.set_defaults(fn=cmd_extremes)

    p = sub.add_parser("facets", help="enumerate efficient facets")
    add_common(p)
    p.set_defaults(fn=cmd_facets)

    p = sub.add_parser("partition", help="robust-point partition")
    add_common(p)
    p.set_defaults(fn=cmd_partition)

    p = sub.add_parser("efficiency", help="per-DMU efficiency table")
    add_common(p)
    p.add_argument("--measure", choices=["robust", "closest", "russell", "all"], default="all")
    p.add_argument("--aggregation", choices=["table4-max", "paper-min"])
    p.add_argument("--format", choices=["json", "csv"], default="json",
                   help="csv needs --measure all (the full table); a single measure prints json only")
    p.set_defaults(fn=cmd_efficiency)

    p = sub.add_parser("scenario", help="two-stage revenue analysis")
    add_common(p)
    p.add_argument("--prices", required=True, help="price scenario JSON")
    p.add_argument("--delta0", default="0", help="pre-risk parameter")
    post = p.add_mutually_exclusive_group()
    # no default here: argparse would not see a given "1" as a conflict
    post.add_argument("--delta1", help="post-risk parameter")
    post.add_argument("--delta", help="shorthand for --delta1")
    p.add_argument("--target", help="DMU whose point anchors the analysis")
    p.add_argument("--xbar", help="fixed input vector, comma-separated (default: target's inputs, else ones)")
    p.set_defaults(fn=cmd_scenario)

    p = sub.add_parser("coverage", help="Monte-Carlo strategy coverage")
    add_common(p)
    p.add_argument("--trials", default="10000")
    p.add_argument("--seed", default="0")
    p.add_argument("--strategies", help="semicolon-separated facet-id groups, e.g. '1;2;1,2'")
    p.add_argument("--xbar", help="fixed input vector, comma-separated (default: ones)")
    p.set_defaults(fn=cmd_coverage)

    p = sub.add_parser("report", help="full pipeline report")
    add_common(p)
    p.add_argument("--aggregation", choices=["table4-max", "paper-min"])
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # The top-level parser takes no option but -h, so the first argument
    # names the command whenever parsing succeeds.  Its modules are bound
    # before the parser is built: the parser holds about 230 kB, which
    # would otherwise sit under the imports' transient peak.
    _bind(*_COMMANDS.get(argv[0] if argv else "", ()))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for dest, value in vars(args).items():
            if value == "":
                what = "a file path" if dest in ("data", "extremes", "out", "prices") else "a nonempty value"
                raise DataError(f"bad --{dest.replace('_', '-')} '': expected {what}")
        return args.fn(args)
    except SolverError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except FacetBenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"unexpected internal error: {exc!r}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
