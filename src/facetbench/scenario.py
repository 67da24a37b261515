"""Risk-scenario revenue calculus over the facet configuration.

Prices vary with a scalar risk parameter delta, either as affine
functions per output or as a lookup table.  Revenue is the price-weighted
output sum; the interesting objects are the per-facet and global optimal
revenue points under a fixed input vector, the capacity to recover
revenue by moving within one facet (withstand capacity), and a seeded
Monte-Carlo check that multi-facet strategies cover at least as many
sampled price draws as any of their sub-strategies.

Sampling is counter-based: trial i reads the Philox4x64-10 stream keyed
by the seed whose j-th block of four 64-bit words has counter
(j + 1, i, 0, 0), and maps each word w to the price
0.1 + (10.0 - 0.1) * ((w >> 11) * 2**-53).  So any subset of trials can be
reproduced (or run concurrently) without generating the rest of the
stream, and a block of trials is drawn in one vectorised pass.  Coverage
draws COVERAGE_CHUNK trials at a time, works out which facets own each
trial's optimum, checks the block and adds it to running counts, so its
memory does not grow with the trial count.

No LP is solved here.  With the inputs fixed, a facet's feasible set
{lambda >= 0 : X_f lambda = xbar} does not depend on prices, so its
revenue optimum under any prices is the best of its basic feasible
solutions (facets.basic_solutions).  A facet's vertex table holds the
output vectors Y_B lambda_B of those solutions, one row per basis in
itertools.combinations order.  facet_tables builds every table once
per xbar, and each fixed-input question reads them under one tie rule
(_ties): a facet optimum is the first best row of its table, a coverage
trial one max over its rows, and uniqueness the count of tied points.
A facet with an empty table admits no point at xbar.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .dataset import Dataset, _ReadOnly, parse_float, read_text
from .errors import DataError, FacetInfeasibleError, SolverError
from .facets import FacetSet, basic_solutions, facet_contains
# solve_lp stays bound here for profilers that wrap it by this name.
from .lp import FEASIBILITY_TOL, solve_lp  # noqa: F401

OWNERSHIP_RTOL = 1e-9   # the one tie rule: within this share of |best|
COVERAGE_CHUNK = 1024   # trials priced, checked and counted per block
# Set on purpose and checked before any work: the 985 study prices a few
# 1e5 trials/s, so 2**32 trials already take hours, and a count the Philox
# counter word would still admit (2**62, say) would take centuries.
MAX_TRIALS = 2**32


class PriceScenario(_ReadOnly):
    """Per-output price functions p_i(delta) on a declared domain.

    Affine form: p_i(delta) = base_i + slope_i * delta on [domain_lo,
    domain_hi]; positivity over the interval is endpoint-determined and
    checked at construction.  Table form: an explicit delta -> price
    mapping, each entry checked directly.
    """

    __slots__ = ("output_names", "bases", "slopes", "domain", "table")

    output_names: tuple[str, ...]
    bases: np.ndarray | None
    slopes: np.ndarray | None
    domain: tuple[float, float] | None
    table: dict[float, np.ndarray] | None

    def __init__(self, output_names, bases=None, slopes=None, domain=None, table=None):
        if (table is None) == (bases is None):
            raise DataError("scenario must be affine (bases/slopes/domain) or a table, not both")
        if table is None:
            bases = np.asarray(bases, dtype=float)
            slopes = np.asarray(slopes, dtype=float)
            if bases.shape != slopes.shape or bases.ndim != 1:
                raise DataError("bases and slopes must be equal-length vectors")
            if not (np.all(np.isfinite(bases)) and np.all(np.isfinite(slopes))):
                raise DataError("bases and slopes must be finite")
            if domain is None or not (np.isfinite(domain).all() and domain[0] <= domain[1]):
                raise DataError("affine scenario needs a finite domain [lo, hi] with lo <= hi")
            for endpoint in domain:
                with np.errstate(over="ignore"):
                    p = bases + slopes * endpoint
                if np.any(p <= 0):
                    bad = int(np.argmin(p))
                    raise DataError(
                        f"price of output {output_names[bad]!r} is {p[bad]!r} "
                        f"at delta={endpoint}: prices must stay strictly positive on the domain"
                    )
                if not np.all(np.isfinite(p)):
                    bad = int(np.argmax(p))
                    raise DataError(f"price of output {output_names[bad]!r} is not finite at delta={endpoint}")
        else:
            table = {float(k): np.asarray(v, dtype=float) for k, v in table.items()}
            if not table:
                raise DataError("empty price table")
            for d, p in table.items():
                if p.shape != (len(output_names),):
                    raise DataError(f"price vector at delta={d} has wrong length")
                if not np.all(np.isfinite(p)) or np.any(p <= 0):
                    raise DataError(f"price at delta={d} must be finite and positive")
        self._set(output_names, bases, slopes, domain, table)

    @property
    def s(self) -> int:
        return len(self.output_names)


def price_at(sc: PriceScenario, delta: float) -> np.ndarray:
    """Evaluate the price vector; delta must lie in the domain."""
    delta = float(delta)
    if sc.table is not None:
        if delta not in sc.table:
            raise DataError(f"delta={delta} not in the scenario table {sorted(sc.table)}")
        p = sc.table[delta]
    else:
        lo, hi = sc.domain
        if not (lo <= delta <= hi):
            raise DataError(f"delta={delta} outside the scenario domain [{lo}, {hi}]")
        p = sc.bases + sc.slopes * delta
    if np.any(p <= 0):
        raise DataError(f"scenario invariant breach: nonpositive price at delta={delta}")
    return p


@np.errstate(over="ignore")
def revenue(y: np.ndarray, sc: PriceScenario, delta: float) -> float:
    """Price-weighted output value P(delta) @ y."""
    y = np.asarray(y, dtype=float)
    p = price_at(sc, delta)
    if y.shape != p.shape:
        raise DataError(f"output vector length {y.size} != {p.size} prices")
    value = float(np.sum(p * y))
    if not np.isfinite(value):
        raise DataError(f"revenue at delta={delta} is not finite")
    return value


def _is_number(v) -> bool:
    """A JSON number a double can hold (an integer beyond its range is not)."""
    if isinstance(v, bool):
        return False
    return isinstance(v, float) or (isinstance(v, int) and abs(v) <= sys.float_info.max)


def load_scenario(path: str | Path) -> PriceScenario:
    path = Path(path)
    text = read_text(path)
    try:
        payload = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise DataError(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:
        raise DataError(f"{path}: invalid JSON: nested too deeply") from None
    if not isinstance(payload, dict):
        raise DataError(f"{path}: a scenario file holds one JSON object")
    if "table" in payload:
        raw = payload["table"]
        if not isinstance(raw, dict) or not raw:
            raise DataError(f"{path}: 'table' must map at least one delta to a price list")
        table: dict[float, np.ndarray] = {}
        for key, prices in raw.items():
            try:
                delta = parse_float(key)
            except ValueError:
                raise DataError(f"{path}: table key {key!r} is not a number") from None
            if delta in table:
                raise DataError(f"{path}: table lists delta={delta} twice")
            if not isinstance(prices, list) or not all(_is_number(p) for p in prices):
                raise DataError(f"{path}: prices at delta {key!r} must be a list of numbers")
            table[delta] = np.array(prices, dtype=float)
        width = len(next(iter(table.values())))
        names = payload.get("outputs", [f"y{r+1}" for r in range(width)])
        if not isinstance(names, list):
            raise DataError(f"{path}: 'outputs' must be a list of output names")
        return PriceScenario(output_names=tuple(names), table=table)
    try:
        outputs = payload["outputs"]
        lo, hi = payload["delta_domain"]
        names = tuple(o["name"] for o in outputs)
        bases = [o["base"] for o in outputs]
        slopes = [o.get("slope", 0.0) for o in outputs]
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise DataError(f"{path}: malformed scenario file ({exc})") from None
    if not all(_is_number(v) for v in [lo, hi, *bases, *slopes]):
        raise DataError(f"{path}: bases, slopes and delta_domain must be numbers")
    return PriceScenario(
        output_names=names, bases=np.array(bases), slopes=np.array(slopes),
        domain=(float(lo), float(hi)),
    )


class FacetTables(NamedTuple):
    """Every facet's vertex table at one fixed input vector xbar, keyed by
    facet id in FacetSet order; an empty table admits no point at xbar."""

    xbar: np.ndarray
    vertices: dict[int, np.ndarray]


@np.errstate(over="ignore")
def facet_tables(ds: Dataset, facets: FacetSet, xbar: np.ndarray) -> FacetTables:
    """Build each facet's vertex table at xbar; every fixed-input question
    reads these, since a table does not depend on prices."""
    xbar = np.asarray(xbar, dtype=float).reshape(-1)
    if xbar.size != ds.m:
        raise DataError(f"input vector length {xbar.size} != m = {ds.m}")
    if not np.all(xbar >= sys.float_info.min):
        raise DataError(f"input vector {xbar.tolist()} must be positive and normal (each component >= 2**-1022)")
    vertices = {}
    for f in facets.facets:
        cols = list(f.members)
        Yf = ds.outputs[:, cols]
        rows = [Yf[:, basis] @ lam for basis, lam in basic_solutions(ds.inputs[:, cols], xbar, FEASIBILITY_TOL)]
        vertices[f.id] = np.array(rows).reshape(-1, ds.s)
        if not np.all(np.isfinite(vertices[f.id])):
            raise DataError(f"facet {f.id} has a vertex that is not finite at input vector {xbar.tolist()}")
    return FacetTables(xbar=xbar, vertices=vertices)


class OptimalPoint(NamedTuple):
    facet_id: int
    outputs: np.ndarray
    value: float


def _ties(values: np.ndarray, where: str) -> np.ndarray:
    """The one tie rule: whether each revenue in each row of values is
    within OWNERSHIP_RTOL * |best| of the row's best.  It is relative, so
    it does not change when xbar or the prices change scale."""
    best = values.max(axis=-1, keepdims=True)
    if not np.all(np.isfinite(best)):
        raise DataError(f"a revenue is not finite {where}")
    return values >= best - OWNERSHIP_RTOL * np.abs(best)


def _ownership(tables: FacetTables, prices: np.ndarray) -> np.ndarray:
    """(rows of prices, facets) bool matrix, facets in table order: whether
    each facet's best revenue ties for the best over all facets at each
    row of prices.  A facet with an empty table owns no row."""
    if not any(len(V) for V in tables.vertices.values()):
        raise FacetInfeasibleError(f"no facet admits the input vector {tables.xbar.tolist()}")
    values = np.full((len(prices), len(tables.vertices)), -np.inf)
    with np.errstate(over="ignore"):
        for col, V in enumerate(tables.vertices.values()):
            if len(V):
                values[:, col] = (prices @ V.T).max(axis=1)
    return _ties(values, f"at input vector {tables.xbar.tolist()}")


def _table(tables: FacetTables, facet_id: int) -> np.ndarray:
    if facet_id not in tables.vertices:
        raise DataError(f"no vertex table for facet {facet_id}")
    table = tables.vertices[facet_id]
    if not len(table):
        raise FacetInfeasibleError(f"facet {facet_id} admits no point with input vector {tables.xbar.tolist()}")
    return table


@np.errstate(over="ignore")
def facet_optimum(tables: FacetTables, facet_id: int, sc: PriceScenario, delta: float) -> OptimalPoint:
    """Revenue-maximal point of one facet under the tables' fixed inputs:
    the first best row of the facet's vertex table."""
    table = _table(tables, facet_id)
    values = price_at(sc, delta) @ table.T
    if not np.all(np.isfinite(values)):
        raise DataError(f"revenue on facet {facet_id} at delta={delta} is not finite")
    best = int(np.argmax(values))
    return OptimalPoint(facet_id=facet_id, outputs=table[best], value=float(values[best]))


def global_optimum(
    tables: FacetTables, sc: PriceScenario, delta: float
) -> tuple[OptimalPoint, tuple[int, ...]]:
    """Best revenue over the whole facet configuration plus every facet
    tying for it (the ownership set); the point is the first facet's
    whose optimum is the exact best."""
    owned = _ownership(tables, price_at(sc, delta)[None])[0]
    owners = tuple(fid for fid, own in zip(tables.vertices, owned) if own)
    best = max((facet_optimum(tables, fid, sc, delta) for fid in owners), key=lambda p: p.value)
    return best, owners


def check_assumptions(
    ds: Dataset,
    facets: FacetSet,
    tables: FacetTables,
    sc: PriceScenario,
    yhat: np.ndarray,
    delta0: float,
    delta1: float,
) -> dict:
    """Verify the two revenue assumptions for a two-stage (delta0,
    delta1) analysis anchored at the point yhat.

    Both assumptions are anchored to the facet(s) containing yhat:
    revenue monotonicity is linear in outputs, so holding at the anchor
    facet's generators implies it on the whole facet cone; recovery
    boundedness is checked directly per containing facet, and each
    containing facet's withstand capacity comes from the same optimum.
    Returns the scenario JSON's target section but its ``dmu``:
    ``revenue_delta0``, ``revenue_delta1``, ``assumptions`` and one
    ``withstand`` row per containing facet, as JSON-native values.
    """
    yhat = np.asarray(yhat, dtype=float)
    containing = [f for f in facets.facets if facet_contains(f, ds, tables.xbar, yhat)]
    if not containing:
        raise DataError("target point lies on no facet; assumptions are anchored to a facet point")
    violations = []
    seen: set[int] = set()
    for f in containing:
        for j in f.members:
            if j in seen:
                continue
            seen.add(j)
            y_j = ds.outputs[:, j]
            r0 = revenue(y_j, sc, delta0)
            r1 = revenue(y_j, sc, delta1)
            if r1 > r0 + OWNERSHIP_RTOL * abs(r0):
                violations.append(
                    {"facet": f.id, "dmu": ds.names[j], "revenue_before": r0, "revenue_after": r1}
                )
    r_hat0 = revenue(yhat, sc, delta0)
    r_hat1 = revenue(yhat, sc, delta1)
    gap = r_hat0 - r_hat1
    entries = []
    withstand = []
    for f in containing:
        opt1 = facet_optimum(tables, f.id, sc, delta1)
        holds = opt1.value <= r_hat0 + OWNERSHIP_RTOL * abs(r_hat0)
        entries.append(
            {"facet": f.id, "post_risk_optimum": opt1.value, "pre_risk_revenue": r_hat0, "holds": holds}
        )
        # recoverable within the facet, against the gap; both are revenue differences, judged at |r_hat0|
        wr = opt1.value - r_hat1
        withstand.append(
            {"facet": f.id, "wr": wr, "bound": gap, "within_bound": wr <= gap + OWNERSHIP_RTOL * abs(r_hat0)}
        )
    return {
        "revenue_delta0": r_hat0,
        "revenue_delta1": r_hat1,
        "assumptions": {
            "assumption1_holds": not violations,
            "assumption2_holds": all(e["holds"] for e in entries),
            "revenue_violations": violations,
            "recovery_entries": entries,
        },
        "withstand": withstand,
    }


@np.errstate(over="ignore")
def uniqueness_diagnostics(tables: FacetTables, facet_id: int, sc: PriceScenario, delta: float) -> str:
    """How many revenue-optimal points the facet has at the tables' xbar:
    'unique' if one point of its vertex table ties for the best,
    'facet-degenerate' if all of at least two do, else 'edge-degenerate'.
    Rows within OWNERSHIP_RTOL (relative, max norm) of an earlier row are
    one point, since several bases can give one vertex."""
    points: list[np.ndarray] = []
    for y in _table(tables, facet_id):
        if not any(np.abs(y - p).max() <= OWNERSHIP_RTOL * np.abs(p).max() for p in points):
            points.append(y)
    values = price_at(sc, delta) @ np.array(points).T
    tied = int(np.sum(_ties(values, f"on facet {facet_id} at delta={delta}")))
    if tied == 1:
        return "unique"
    return "facet-degenerate" if tied == len(points) else "edge-degenerate"


def scenario_payload(
    ds: Dataset, facets: FacetSet, sc: PriceScenario, xbar: np.ndarray, delta0: float, delta1: float, target: str | None
) -> dict:
    """The scenario command's JSON but its ``data`` echo: the prices at
    both deltas, each facet's delta1 optimum, the global optimum at
    delta0 and delta1 and, when target names a DMU, its section from
    check_assumptions.  Each facet's vertex table is built once, at xbar."""
    prices = {"at_delta0": price_at(sc, delta0).tolist(), "at_delta1": price_at(sc, delta1).tolist()}
    tables = facet_tables(ds, facets, xbar)
    optima = []
    for f in facets.facets:
        entry = {"facet": f.id, "value": None, "outputs": None, "uniqueness": None}
        if len(tables.vertices[f.id]):
            opt = facet_optimum(tables, f.id, sc, delta1)
            entry.update(value=opt.value, outputs=opt.outputs.tolist(),
                         uniqueness=uniqueness_diagnostics(tables, f.id, sc, delta1))
        optima.append(entry)
    best = {}
    for tag, delta in (("delta0", delta0), ("delta1", delta1)):
        point, owners = global_optimum(tables, sc, delta)
        best[tag] = {"value": point.value, "outputs": point.outputs.tolist(), "owning_facets": list(owners)}
    payload = {"xbar": tables.xbar.tolist(), "prices": prices, "facet_optima_delta1": optima, "global": best}
    if target:
        yhat = ds.outputs[:, ds.index(target)]
        payload["target"] = {"dmu": target, **check_assumptions(ds, facets, tables, sc, yhat, delta0, delta1)}
    return payload

_MASK64 = 2**64 - 1
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)   # round multipliers
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)   # Weyl key bumps
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _mulhilo64(a: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """(high, low) 64-bit words of the 128-bit products a * m, from 32-bit
    halves so every partial product fits a uint64 word."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    a_lo, a_hi = a & _LO32, a >> _SHIFT32
    lh, hl = a_lo * m_hi, a_hi * m_lo
    mid = ((a_lo * m_lo) >> _SHIFT32) + (lh & _LO32) + (hl & _LO32)
    hi = a_hi * m_hi + (lh >> _SHIFT32) + (hl >> _SHIFT32) + (mid >> _SHIFT32)
    return hi, a * np.uint64(m)


def _philox4x64(ctr: list[np.ndarray], seed: int) -> list[np.ndarray]:
    """Philox4x64-10 (Salmon et al., SC 2011) of the counter words ctr
    under the 128-bit key seed.  The key stays in Python ints masked to
    64 bits: NumPy warns when scalar uint64 arithmetic wraps, arrays
    wrap silently."""
    c0, c1, c2, c3 = ctr
    k0, k1 = seed & _MASK64, seed >> 64
    for rnd in range(10):
        if rnd:
            k0, k1 = (k0 + _PHILOX_W[0]) & _MASK64, (k1 + _PHILOX_W[1]) & _MASK64
        hi0, lo0 = _mulhilo64(c0, _PHILOX_M[0])
        hi1, lo1 = _mulhilo64(c2, _PHILOX_M[1])
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ np.uint64(k1), lo0
    return [c0, c1, c2, c3]


class PriceSampler:
    """Independent uniform prices on [LOW, HIGH], one counter-based stream
    per trial: draw i depends only on (seed, i).

    Trial i's stream is Philox4x64-10 keyed by seed, whose j-th block of
    four 64-bit words has counter (j + 1, i, 0, 0); each price is
    LOW + (HIGH - LOW) * ((w >> 11) * 2**-53) for the stream's next word
    w.  This is numpy.random.Philox(key=seed, counter=i << 64) read by
    Generator.uniform, computed here for a block of trials at once."""

    LOW = 0.1
    HIGH = 10.0

    def draw(self, seed: int, start: int, stop: int, s: int) -> np.ndarray:
        """Prices of trials start .. stop-1, one row of s per trial."""
        if not (0 <= seed < 2**128 and 0 <= start < 2**64 and start <= stop <= 2**64):
            raise DataError("sampler needs 0 <= seed < 2**128 and 0 <= start <= stop <= 2**64, start < 2**64")
        shape = (stop - start, -(-s // 4))   # trials x blocks of four words
        trial, block = np.indices(shape, dtype=np.uint64)
        zero = np.zeros(shape, dtype=np.uint64)
        ctr = [block + np.uint64(1), trial + np.uint64(start), zero, zero]
        words = np.stack(_philox4x64(ctr, seed), axis=-1).reshape(shape[0], 4 * shape[1])[:, :s]
        return self.LOW + (self.HIGH - self.LOW) * ((words >> np.uint64(11)) * 2.0**-53)

    def describe(self) -> dict:
        return {"law": "uniform", "low": self.LOW, "high": self.HIGH, "stream": "philox-counter"}


class CoverageReport(NamedTuple):
    trials: int
    seed: int
    xbar: tuple[float, ...]
    sampler: dict
    facet_counts: dict[int, int]                     # |A_k| per facet
    strategies: tuple[tuple[int, ...], ...]
    strategy_counts: tuple[int, ...]                 # |union of A_k over the strategy|
    containment_checks: tuple[dict, ...]

    def to_payload(self) -> dict:
        """JSON-ready summary: counts, seed and the per-sample containment
        checks, which were run block by block as the trials were drawn."""
        return {
            "trials": self.trials,
            "seed": self.seed,
            "xbar": list(self.xbar),
            "sampler": self.sampler,
            "facet_counts": {str(k): v for k, v in sorted(self.facet_counts.items())},
            "strategies": [
                {"facet_ids": list(kset), "count": count, "frequency": count / self.trials}
                for kset, count in zip(self.strategies, self.strategy_counts)
            ],
            "containment_checks": list(self.containment_checks),
        }


def simulate_coverage(
    ds: Dataset,
    facets: FacetSet,
    strategies: list[set[int]] | list[tuple[int, ...]],
    xbar: np.ndarray,
    trials: int,
    seed: int,
) -> CoverageReport:
    """Sample price vectors and record which facets own each global
    optimum.  Counts are exact per-sample set sizes; sampled frequencies
    are descriptive only (no distributional claim is attached).  The
    containment inequalities of the strategy lattice are verified sample
    by sample, never via the frequencies.  Trials are drawn, checked and
    counted COVERAGE_CHUNK at a time, so memory does not grow with trials.
    """
    if not facets.facets:
        raise DataError("coverage simulation needs a nonempty facet set")
    if not 1 <= trials <= MAX_TRIALS:
        raise DataError(f"trials must be in [1, {MAX_TRIALS}]")
    if not 0 <= seed < 2**128:
        raise DataError("seed must be in [0, 2**128) (the Philox key range)")
    if not strategies:
        raise DataError("at least one strategy (set of facet ids) required")
    fids = facets.ids()
    strategy_sets = []
    for strat in strategies:
        kset = tuple(sorted(set(int(k) for k in strat)))
        unknown = [k for k in kset if k not in fids]
        if unknown:
            raise DataError(f"strategy names unknown facet ids {unknown}")
        strategy_sets.append(kset)
    # facets x strategies; a bool product ORs the ANDs, so owned @ member
    # is each trial's strategy unions (a float BLAS product would touch
    # code and buffers that raise peak RSS by about 0.1 MB)
    member = np.array([[fid in kset for kset in strategy_sets] for fid in fids])
    in_facet, in_strategy = np.nonzero(member)
    sub, sup = np.nonzero([[a != b and set(ka) <= set(kb) for b, kb in enumerate(strategy_sets)]
                           for a, ka in enumerate(strategy_sets)])   # strategy sub[i] nested in sup[i]

    tables = facet_tables(ds, facets, xbar)
    sampler = PriceSampler()
    facet_counts = np.zeros(len(fids), dtype=np.int64)
    strategy_counts = np.zeros(len(strategy_sets), dtype=np.int64)
    for start in range(0, trials, COVERAGE_CHUNK):
        owned = _ownership(tables, sampler.draw(seed, start, min(start + COVERAGE_CHUNK, trials), ds.s))
        unions = owned @ member
        # per sample, a union covers each of its members and each nested union
        if np.any(owned[:, in_facet] & ~unions[:, in_strategy]):
            raise SolverError("per-sample union check failed (internal inconsistency)")
        if np.any(unions[:, sub] & ~unions[:, sup]):
            raise SolverError("per-sample containment check failed (internal inconsistency)")
        facet_counts += owned.sum(axis=0)
        strategy_counts += unions.sum(axis=0)

    return CoverageReport(
        trials=trials,
        seed=seed,
        xbar=tuple(float(v) for v in tables.xbar),
        sampler=sampler.describe(),
        facet_counts={fid: int(n) for fid, n in zip(fids, facet_counts)},
        strategies=tuple(strategy_sets),
        strategy_counts=tuple(int(n) for n in strategy_counts),
        containment_checks=tuple(
            {
                "k1": list(strategy_sets[a]), "k2": list(strategy_sets[b]),
                "count_k1": int(strategy_counts[a]), "count_k2": int(strategy_counts[b]),
                "per_sample_subset": True,
            }
            for a, b in zip(sub, sup)
        ),
    )
