"""Workload inputs and output checks.

Each workload turns a seed into the inputs of one operation, and checks
every output of that operation.  The checks do not trust the program:

* report-985 compares a digest of the report's result sections with the
  one recorded in reference.json (the config echo is left out, so that a
  documented config change is not a failure);
* coverage-985 recomputes the ownership counts with an exact vertex-table
  oracle that shares no code with the program, and compares with the
  recorded digest when the seed has one;
* partition-synth checks the extreme set and the enumeration count against
  the generator, derives the partition from the facet list independently,
  and compares with the one recorded digest: seeds change only the units
  of the columns, which the partition must not depend on.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import synth

ROOT = Path(__file__).resolve().parent.parent
DATA_985 = "data/universities_985.csv"
PROFILE = "paper-985"
COVERAGE_XBAR_DMU = "WHU"
COVERAGE_TRIALS = 250
REFERENCE = Path(__file__).resolve().parent / "reference.json"

REPORT_SECTIONS = ("extremes", "facets", "partition", "results")
OWNERSHIP_RTOL = 1e-9   # the program's documented ownership tolerance


class CheckError(Exception):
    """An output differs from what the workload expects."""


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_digest(payload: dict) -> str:
    return digest({k: payload[k] for k in REPORT_SECTIONS})


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


@dataclass
class Prepared:
    """Everything one run needs: the dataset every operation reads, the CLI
    arguments of one operation, the work items it completes, and the check
    that every output must pass."""

    workload: str
    seed: int
    csv: str                           # relative to the checkout root
    argv: list[str]                    # arguments after `python -m facetbench.cli`
    items: int
    item_name: str
    check: Callable[[dict], None]      # raises CheckError


def read_csv(path: Path) -> tuple[list[str], dict[str, list[str]], np.ndarray, np.ndarray]:
    """(names, raw input cells by name, inputs m x n, outputs s x n)."""
    with path.open(newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r]
    header = rows[0]
    name_col = next(i for i, h in enumerate(header) if not h.startswith(("in:", "out:")))
    ins = [i for i, h in enumerate(header) if h.startswith("in:")]
    outs = [i for i, h in enumerate(header) if h.startswith("out:")]
    names = [r[name_col].strip() for r in rows[1:]]
    raw_in = {r[name_col].strip(): [r[i].strip() for i in ins] for r in rows[1:]}
    X = np.array([[float(r[i]) for r in rows[1:]] for i in ins])
    Y = np.array([[float(r[i]) for r in rows[1:]] for i in outs])
    return names, raw_in, X, Y


# ---------------------------------------------------------------- report-985

def check_report(payload: dict, ref: dict) -> None:
    got = report_digest(payload)
    if got != ref["report-985"]:
        raise CheckError(f"report sections digest {got[:12]} != reference {ref['report-985'][:12]}")


# -------------------------------------------------------------- coverage-985

def vertex_table(X: np.ndarray, Y: np.ndarray, members: list[int], xbar: np.ndarray) -> np.ndarray:
    """Output vectors of the basic feasible solutions of
    {lambda >= 0 : X_f lambda = xbar}; the revenue optimum over the facet is
    the best of them.  Rows are vertices (possibly none)."""
    m = X.shape[0]
    verts = []
    for basis in itertools.combinations(members, m):
        B = X[:, list(basis)]
        if abs(np.linalg.det(B)) <= 1e-12 * np.abs(B).max() ** m:
            continue
        lam = np.linalg.solve(B, xbar)
        if lam.min() >= -1e-9 * max(1.0, lam.max()):
            verts.append(Y[:, list(basis)] @ np.maximum(lam, 0.0))
    return np.array(verts).reshape(-1, Y.shape[0])


def coverage_oracle(X, Y, facets: dict[int, list[int]], xbar, trials: int, seed: int,
                    low: float, high: float) -> tuple[dict[int, int], int]:
    """(per-facet ownership counts, union count) for the documented sampler:
    trial i draws uniform(low, high) prices from Philox(key=seed) advanced
    to counter i * 2**64."""
    prices = np.array([
        np.random.Generator(np.random.Philox(key=seed, counter=i << 64)).uniform(low, high, size=Y.shape[0])
        for i in range(trials)
    ])
    fids = sorted(facets)
    values = np.full((trials, len(fids)), -np.inf)
    for col, fid in enumerate(fids):
        V = vertex_table(X, Y, facets[fid], xbar)
        if len(V):
            values[:, col] = (prices @ V.T).max(axis=1)
    best = values.max(axis=1)
    own = values >= (best - OWNERSHIP_RTOL * np.maximum(1.0, np.abs(best)))[:, None]
    counts = {fid: int(own[:, col].sum()) for col, fid in enumerate(fids)}
    return counts, int(own.any(axis=1).sum())


def check_coverage(payload: dict, expect: dict, ref_digest: str | None) -> None:
    trials = expect["trials"]
    if payload["trials"] != trials or payload["seed"] != expect["seed"]:
        raise CheckError("coverage echoes the wrong trials or seed")
    got = {int(k): v for k, v in payload["facet_counts"].items()}
    if got != expect["facet_counts"]:
        raise CheckError(f"facet ownership counts {got} != oracle {expect['facet_counts']}")
    strategies = {tuple(s["facet_ids"]): s["count"] for s in payload["strategies"]}
    union = tuple(sorted(expect["facet_counts"]))
    want = {(k,): c for k, c in expect["facet_counts"].items()}
    want[union] = expect["union"]
    if strategies != want:
        raise CheckError(f"strategy counts {strategies} != oracle {want}")
    if expect["union"] != trials:
        raise CheckError(f"union of every facet covers {expect['union']} of {trials} trials")
    pairs = {(tuple(c["k1"]), tuple(c["k2"])) for c in payload["containment_checks"]}
    if pairs != {((k,), union) for k in expect["facet_counts"]}:
        raise CheckError("containment checks do not cover every single facet against the union")
    for c in payload["containment_checks"]:
        if not (c["per_sample_subset"] and c["count_k1"] == want[tuple(c["k1"])]
                and c["count_k2"] == want[tuple(c["k2"])]):
            raise CheckError(f"containment check {c} disagrees with the oracle")
    if ref_digest is not None and digest(payload) != ref_digest:
        raise CheckError("coverage payload differs from the recorded reference")


# ----------------------------------------------------------- partition-synth

def partition_from_facets(names: list[str], facets: list[dict]) -> dict:
    """The partition export recomputed from the facet list: maximal
    participation, then groups by exact facet-id subset."""
    pos = {n: i for i, n in enumerate(names)}
    member: dict[str, set[int]] = {}
    for f in facets:
        for n in f["members"]:
            member.setdefault(n, set()).add(f["id"])
    maxcount = max(len(v) for v in member.values())
    s_star = sorted((n for n, v in member.items() if len(v) == maxcount), key=pos.get)
    groups: dict[tuple[int, ...], list[str]] = {}
    for n in s_star:
        groups.setdefault(tuple(sorted(member[n])), []).append(n)
    return {
        "maxcount": maxcount,
        "s_star": s_star,
        "groups": [
            {"index": i, "facet_ids": list(key), "members": groups[key]}
            for i, key in enumerate(sorted(groups), start=1)
        ],
        "participation_counts": {n: len(v) for n, v in member.items()},
    }


def check_facets_payload(payload: dict, extremes: frozenset[str]) -> None:
    if set(payload["extremes"]) != extremes:
        raise CheckError(f"computed extreme set has {len(payload['extremes'])} units, generator placed {len(extremes)}")
    if payload["subsets_examined"] != synth.SUBSETS:
        raise CheckError(f"subsets_examined {payload['subsets_examined']} != C({synth.EXTREMES}, 4) = {synth.SUBSETS}")
    if not payload["facets"]:
        raise CheckError("no facets found")


def check_partition(partition: dict, expect: dict, ref_digest: str) -> None:
    if json.loads(json.dumps(partition)) != expect:
        raise CheckError("partition differs from the one derived from the facet list")
    if digest(partition) != ref_digest:
        raise CheckError("partition differs from the recorded reference")


# ------------------------------------------------------------------ prepare

def prepare(name: str, seed: int, workdir: Path, cli: Callable[[list[str]], dict]) -> Prepared:
    """Build the inputs of one run.  `cli` runs one untimed CLI command and
    returns its parsed JSON output; it supplies the facet lists the
    coverage oracle and the partition check start from."""
    ref = load_reference()
    if name == "report-985":
        names, _, _, _ = read_csv(ROOT / DATA_985)
        return Prepared(name, seed, DATA_985,
                        ["report", "--data", DATA_985, "--profile", PROFILE, "--format", "json"],
                        len(names), "DMUs", lambda p: check_report(p, ref))
    if name == "coverage-985":
        names, raw_in, X, Y = read_csv(ROOT / DATA_985)
        fac = cli(["facets", "--data", DATA_985, "--profile", PROFILE])
        if digest(fac["facets"]) != ref["facets-985"]:
            raise CheckError("985 facet list differs from the recorded reference")
        pos = {n: i for i, n in enumerate(names)}
        facets = {f["id"]: [pos[n] for n in f["members"]] for f in fac["facets"]}
        xbar_text = ",".join(raw_in[COVERAGE_XBAR_DMU])
        xbar = np.array([float(v) for v in raw_in[COVERAGE_XBAR_DMU]])
        counts, union = coverage_oracle(X, Y, facets, xbar, COVERAGE_TRIALS, seed, 0.1, 10.0)
        expect = {"trials": COVERAGE_TRIALS, "seed": seed, "facet_counts": counts, "union": union}
        ref_digest = ref["coverage-985"].get(str(seed))
        return Prepared(name, seed, DATA_985,
                        ["coverage", "--data", DATA_985, "--profile", PROFILE, "--xbar", xbar_text,
                         "--trials", str(COVERAGE_TRIALS), "--seed", str(seed)],
                        COVERAGE_TRIALS, "trials", lambda p: check_coverage(p, expect, ref_digest))
    if name == "partition-synth":
        names, X, Y, extremes = synth.generate(seed)
        path = workdir / f"synth-{seed}.csv"
        synth.write_csv(path, names, X, Y)
        rel = str(path.relative_to(ROOT))
        fac = cli(["facets", "--data", rel])
        check_facets_payload(fac, extremes)
        expect = partition_from_facets(names, fac["facets"])
        return Prepared(name, seed, rel, ["partition", "--data", rel], synth.SUBSETS, "subsets",
                        lambda p: check_partition(p["partition"], expect, ref["partition-synth"]))
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("report-985", "coverage-985", "partition-synth")
