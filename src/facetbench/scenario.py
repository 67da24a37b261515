"""Risk-scenario revenue calculus over the facet configuration.

Prices vary with a scalar risk parameter delta, either as affine
functions per output or as a lookup table.  Revenue is the price-weighted
output sum; the interesting objects are the per-facet and global optimal
revenue points under a fixed input vector, the capacity to recover
revenue by moving within one facet (withstand capacity), and a seeded
Monte-Carlo check that multi-facet strategies cover at least as many
sampled price draws as any of their sub-strategies.

Sampling is counter-based: trial i draws from Philox(key=seed) advanced
to counter i * 2**64, so any subset of trials can be reproduced (or run
concurrently) without generating the rest of the stream.

No LP is solved here.  With the inputs fixed, a facet's feasible set
{lambda >= 0 : X_f lambda = xbar} does not depend on prices, so its
revenue optimum under any prices is the best of its basic feasible
solutions (facets.basic_solutions).  A facet's vertex table holds the
output vectors Y_B lambda_B of those solutions, one row per basis in
itertools.combinations order.  facet_tables builds every table once
per xbar, and each fixed-input question reads them: a facet optimum is
the first best row of its table, and a coverage trial is one max over its
rows.  A facet with an empty table admits no point at xbar.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import Dataset, parse_float, read_text
from .errors import DataError, FacetInfeasibleError, SolverError
from .facets import Facet, FacetSet, basic_solutions, facet_contains
# solve_lp stays bound here for profilers that wrap it by this name.
from .lp import FEASIBILITY_TOL, solve_lp  # noqa: F401

OWNERSHIP_RTOL = 1e-9
PARALLEL_TOL = 1e-9
TIE_RTOL = 1e-9
COVERAGE_CHUNK = 1024   # trials priced per block; bounds the block's arrays


@dataclass(frozen=True)
class PriceScenario:
    """Per-output price functions p_i(delta) on a declared domain.

    Affine form: p_i(delta) = base_i + slope_i * delta on [domain_lo,
    domain_hi]; positivity over the interval is endpoint-determined and
    checked at construction.  Table form: an explicit delta -> price
    mapping, each entry checked directly.
    """

    output_names: tuple[str, ...]
    bases: np.ndarray | None = None
    slopes: np.ndarray | None = None
    domain: tuple[float, float] | None = None
    table: dict[float, np.ndarray] | None = None

    def __post_init__(self):
        if (self.table is None) == (self.bases is None):
            raise DataError("scenario must be affine (bases/slopes/domain) or a table, not both")
        if self.table is None:
            bases = np.asarray(self.bases, dtype=float)
            slopes = np.asarray(self.slopes, dtype=float)
            if bases.shape != slopes.shape or bases.ndim != 1:
                raise DataError("bases and slopes must be equal-length vectors")
            if not (np.all(np.isfinite(bases)) and np.all(np.isfinite(slopes))):
                raise DataError("bases and slopes must be finite")
            if self.domain is None or not (np.isfinite(self.domain).all() and self.domain[0] <= self.domain[1]):
                raise DataError("affine scenario needs a finite domain [lo, hi] with lo <= hi")
            for endpoint in self.domain:
                with np.errstate(over="ignore"):
                    p = bases + slopes * endpoint
                if np.any(p <= 0):
                    bad = int(np.argmin(p))
                    raise DataError(
                        f"price of output {self.output_names[bad]!r} is {p[bad]!r} "
                        f"at delta={endpoint}: prices must stay strictly positive on the domain"
                    )
                if not np.all(np.isfinite(p)):
                    bad = int(np.argmax(p))
                    raise DataError(f"price of output {self.output_names[bad]!r} is not finite at delta={endpoint}")
            object.__setattr__(self, "bases", bases)
            object.__setattr__(self, "slopes", slopes)
        else:
            table = {float(k): np.asarray(v, dtype=float) for k, v in self.table.items()}
            if not table:
                raise DataError("empty price table")
            for d, p in table.items():
                if p.shape != (len(self.output_names),):
                    raise DataError(f"price vector at delta={d} has wrong length")
                if not np.all(np.isfinite(p)) or np.any(p <= 0):
                    raise DataError(f"price at delta={d} must be finite and positive")
            object.__setattr__(self, "table", table)

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


@dataclass(frozen=True)
class FacetTables:
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
    vertices = {}
    for f in facets.facets:
        cols = list(f.members)
        Yf = ds.outputs[:, cols]
        rows = [Yf[:, basis] @ lam for basis, lam in basic_solutions(ds.inputs[:, cols], xbar, FEASIBILITY_TOL)]
        vertices[f.id] = np.array(rows).reshape(-1, ds.s)
        if not np.all(np.isfinite(vertices[f.id])):
            raise DataError(f"facet {f.id} has a vertex that is not finite at input vector {xbar.tolist()}")
    return FacetTables(xbar=xbar, vertices=vertices)


@dataclass(frozen=True)
class OptimalPoint:
    facet_id: int
    outputs: np.ndarray
    value: float


@dataclass(frozen=True)
class WithstandResult:
    wr: float
    bound: float
    within_bound: bool


@dataclass(frozen=True)
class AssumptionReport:
    assumption1_holds: bool
    assumption2_holds: bool
    revenue_violations: tuple[dict, ...]   # per anchor-facet generator: risk raised revenue
    recovery_entries: tuple[dict, ...]     # per containing facet: bound check
    withstand: tuple[WithstandResult, ...]   # per containing facet, as recovery_entries
    global_post_risk_optimum: float = float("nan")
    global_recovery_holds: bool = True     # global optimum <= pre-risk revenue

    def ok(self) -> bool:
        return self.assumption1_holds and self.assumption2_holds


@np.errstate(over="ignore")
def facet_optimum(tables: FacetTables, facet_id: int, sc: PriceScenario, delta: float) -> OptimalPoint:
    """Revenue-maximal point of one facet under the tables' fixed inputs:
    the first best row of the facet's vertex table."""
    if facet_id not in tables.vertices:
        raise DataError(f"no vertex table for facet {facet_id}")
    prices = price_at(sc, delta)
    table = tables.vertices[facet_id]
    if not len(table):
        raise FacetInfeasibleError(
            f"facet {facet_id} admits no point with input vector {tables.xbar.tolist()}"
        )
    values = [float(np.sum(prices * y)) for y in table]
    if not np.all(np.isfinite(values)):
        raise DataError(f"revenue on facet {facet_id} at delta={delta} is not finite")
    best = values.index(max(values))
    return OptimalPoint(facet_id=facet_id, outputs=table[best], value=values[best])


def global_optimum(
    tables: FacetTables, sc: PriceScenario, delta: float
) -> tuple[OptimalPoint, tuple[int, ...]]:
    """Best revenue over the whole facet configuration plus every facet
    attaining it within tolerance (the ownership set)."""
    points: list[OptimalPoint] = []
    for fid in tables.vertices:
        try:
            points.append(facet_optimum(tables, fid, sc, delta))
        except FacetInfeasibleError:
            continue
    if not points:
        raise FacetInfeasibleError(f"no facet admits the input vector {tables.xbar.tolist()}")
    best_value = max(p.value for p in points)
    owners = tuple(
        p.facet_id for p in points
        if p.value >= best_value - OWNERSHIP_RTOL * max(1.0, abs(best_value))
    )
    best = next(p for p in points if p.value == best_value)
    return best, owners


def check_assumptions(
    ds: Dataset,
    facets: FacetSet,
    tables: FacetTables,
    sc: PriceScenario,
    yhat: np.ndarray,
    delta0: float,
    delta1: float,
) -> AssumptionReport:
    """Verify the two revenue assumptions for a two-stage (delta0,
    delta1) analysis anchored at the point yhat.

    Both assumptions are anchored to the facet(s) containing yhat:
    revenue monotonicity is linear in outputs, so holding at the anchor
    facet's generators implies it on the whole facet cone; recovery
    boundedness is checked directly per containing facet, and each
    containing facet's withstand capacity comes from the same optimum.
    The report also carries the global post-risk optimum so the derived
    claim (global recovery never beats the pre-risk revenue) is visible
    even for scenarios where other facets gain value under risk.
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
            if r1 > r0 + 1e-9 * max(1.0, abs(r0)):
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
        holds = opt1.value <= r_hat0 + 1e-9 * max(1.0, abs(r_hat0))
        entries.append(
            {"facet": f.id, "post_risk_optimum": opt1.value, "pre_risk_revenue": r_hat0, "holds": holds}
        )
        # recoverable by within-facet substitution, against the gap bounding it
        wr = opt1.value - r_hat1
        withstand.append(WithstandResult(wr=wr, bound=gap, within_bound=wr <= gap + 1e-9 * max(1.0, abs(gap))))
    best, _ = global_optimum(tables, sc, delta1)
    return AssumptionReport(
        assumption1_holds=not violations,
        assumption2_holds=all(e["holds"] for e in entries),
        revenue_violations=tuple(violations),
        recovery_entries=tuple(entries),
        withstand=tuple(withstand),
        global_post_risk_optimum=best.value,
        global_recovery_holds=best.value <= r_hat0 + 1e-9 * max(1.0, abs(r_hat0)),
    )


@dataclass(frozen=True)
class Diagnosis:
    kind: str                          # unique | facet-degenerate | edge-degenerate
    detail: str
    tied_pairs: tuple[tuple[str, str], ...] = ()


@np.errstate(over="ignore")
def uniqueness_diagnostics(
    ds: Dataset,
    facet: Facet,
    sc: PriceScenario,
    delta: float,
) -> Diagnosis:
    """Classify how many revenue-optimal points the facet has.

    Prices parallel to the facet's output normal make the whole facet
    optimal; otherwise, with a single input, ties between scaled
    generators pin down degenerate edges exactly.  With several inputs
    the generator-difference test is used directly (the optimal face then
    depends on the fixed input vector, which this diagnosis abstracts
    over).
    """
    prices = price_at(sc, delta)
    q = prices / prices.max()  # so the norm cannot overflow
    pu = q / np.sqrt(np.sum(q * q))
    uu = facet.u / np.sqrt(np.sum(facet.u * facet.u))
    if float(np.max(np.abs(pu - uu))) <= PARALLEL_TOL:
        return Diagnosis(
            kind="facet-degenerate",
            detail=f"prices are parallel to facet {facet.id}'s output normal: every point ties",
        )
    cols = list(facet.members)
    if ds.m == 1:
        # Per unit input the candidate vertices are the scaled generators;
        # the scale cancels in both the argmax and the tie test.
        values = np.array([
            float(np.sum(prices * ds.outputs[:, j])) / float(ds.inputs[0, j]) for j in cols
        ])
    else:
        values = np.array([float(np.sum(prices * ds.outputs[:, j])) for j in cols])
    if not np.all(np.isfinite(values)):
        raise DataError(f"a generator's revenue on facet {facet.id} at delta={delta} is not finite")
    best = float(np.max(values))
    tied = [cols[i] for i in range(len(cols)) if values[i] >= best - TIE_RTOL * max(1.0, abs(best))]
    if len(tied) > 1:
        pairs = tuple(
            (ds.names[a], ds.names[b]) for i, a in enumerate(tied) for b in tied[i + 1:]
        )
        return Diagnosis(
            kind="edge-degenerate",
            detail="prices are orthogonal to a generator difference: tie along an edge",
            tied_pairs=pairs,
        )
    return Diagnosis(kind="unique", detail=f"unique optimal vertex at {ds.names[tied[0]]}")


@dataclass(frozen=True)
class PriceSampler:
    """Independent uniform prices on [low, high], one counter-based
    stream per trial: draw i depends only on (seed, i)."""

    low: float = 0.1
    high: float = 10.0

    def __post_init__(self):
        if not (0.0 < self.low < self.high):
            raise DataError("sampler needs 0 < low < high (prices stay positive)")

    def draw(self, seed: int, trial: int, s: int) -> np.ndarray:
        gen = np.random.Generator(np.random.Philox(key=seed, counter=trial << 64))
        return gen.uniform(self.low, self.high, size=s)

    def describe(self) -> dict:
        return {"law": "uniform", "low": self.low, "high": self.high, "stream": "philox-counter"}


@dataclass(frozen=True)
class CoverageReport:
    trials: int
    seed: int
    xbar: tuple[float, ...]
    sampler: dict
    facet_ids: tuple[int, ...]
    facet_counts: dict[int, int]                     # |A_k| per facet
    strategies: tuple[tuple[int, ...], ...]
    strategy_counts: tuple[int, ...]                 # |union of A_k over the strategy|
    incidence: np.ndarray                            # trials x facets, bool
    containment_checks: tuple[dict, ...]

    def to_payload(self) -> dict:
        """JSON-ready summary (counts and seed; the incidence matrix is
        kept in memory for exact set checks, not exported)."""
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
    sampler: PriceSampler | None = None,
) -> CoverageReport:
    """Sample price vectors and record which facets own each global
    optimum.  Counts are exact per-sample set sizes; sampled frequencies
    are descriptive only (no distributional claim is attached).  The
    containment inequalities of the strategy lattice are verified sample
    by sample, never via the frequencies.
    """
    sampler = sampler or PriceSampler()
    if not facets.facets:
        raise DataError("coverage simulation needs a nonempty facet set")
    if trials < 1:
        raise DataError("trials must be >= 1")
    if not 0 <= seed < 2**128:
        raise DataError("seed must be in [0, 2**128) (the Philox key range)")
    if not strategies:
        raise DataError("at least one strategy (set of facet ids) required")
    fids = facets.ids()
    col_of = {fid: i for i, fid in enumerate(fids)}
    strategy_sets = []
    for strat in strategies:
        kset = tuple(sorted(set(int(k) for k in strat)))
        unknown = [k for k in kset if k not in col_of]
        if unknown:
            raise DataError(f"strategy names unknown facet ids {unknown}")
        strategy_sets.append(kset)

    tables = facet_tables(ds, facets, xbar)
    usable = [(col_of[fid], V) for fid, V in tables.vertices.items() if len(V)]
    if not usable:
        raise FacetInfeasibleError(f"no facet admits the input vector {tables.xbar.tolist()}")

    incidence = np.zeros((trials, len(fids)), dtype=bool)
    for start in range(0, trials, COVERAGE_CHUNK):
        stop = min(start + COVERAGE_CHUNK, trials)
        prices = np.array([sampler.draw(seed, i, ds.s) for i in range(start, stop)])
        values = np.full((stop - start, len(fids)), -np.inf)
        with np.errstate(over="ignore"):
            for col, V in usable:
                values[:, col] = (prices @ V.T).max(axis=1)
        best = values.max(axis=1)
        if not np.all(np.isfinite(best)):
            raise DataError(f"a sampled revenue is not finite at input vector {tables.xbar.tolist()}")
        incidence[start:stop] = values >= (best - OWNERSHIP_RTOL * np.maximum(1.0, np.abs(best)))[:, None]

    facet_counts = {fid: int(incidence[:, col_of[fid]].sum()) for fid in fids}
    strategy_counts = []
    union_rows = []
    for kset in strategy_sets:
        cols = [col_of[k] for k in kset]
        rows = incidence[:, cols].any(axis=1)
        union_rows.append(rows)
        strategy_counts.append(int(rows.sum()))

    checks = []
    for a, (ka, rows_a) in enumerate(zip(strategy_sets, union_rows)):
        # union dominates every member, exactly, per sample
        for k in ka:
            member_rows = incidence[:, col_of[k]]
            if not bool(np.all(rows_a >= member_rows)):
                raise SolverError("per-sample union check failed (internal inconsistency)")
        for b, (kb, rows_b) in enumerate(zip(strategy_sets, union_rows)):
            if a == b or not set(ka) <= set(kb):
                continue
            subset_ok = bool(np.all(rows_b >= rows_a))
            if not subset_ok:
                raise SolverError("per-sample containment check failed (internal inconsistency)")
            checks.append(
                {
                    "k1": list(ka), "k2": list(kb),
                    "count_k1": int(rows_a.sum()), "count_k2": int(rows_b.sum()),
                    "per_sample_subset": True,
                }
            )

    incidence.flags.writeable = False
    return CoverageReport(
        trials=trials,
        seed=seed,
        xbar=tuple(float(v) for v in tables.xbar),
        sampler=sampler.describe(),
        facet_ids=fids,
        facet_counts=facet_counts,
        strategies=tuple(strategy_sets),
        strategy_counts=tuple(strategy_counts),
        incidence=incidence,
        containment_checks=tuple(checks),
    )
