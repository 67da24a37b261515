"""Extreme-efficiency test and the two comparison measures.

* extreme_set: the convex-representability LP of every DMU, exactly as
  the four-step procedure states it (convexity row included).
* russell_farthest: output-oriented weighted Russell measure over the full
  constant-returns technology, weights 1/s, efficiency 1/(1 + mean
  normalized slack) -- the farthest-target comparison column.
* closest_on_efpps: least-distance projection onto the boundary of the
  facet half-space intersection (the extended-facet technology), computed
  facet by facet: one equality LP per facet, minimum over facets (first
  facet on ties).  Facets are visited by a closed-form lower bound on
  their LP, the LP cut down to its equality row, and the visit stops once
  the bound exceeds the best gamma by more than a rounding margin; the
  winner is the one solving every facet's LP would pick.

Each layer solves its independent LPs, which share one shape, as one
stack (``lp.solve_lps``): the extreme test and Russell solve every DMU in
one stack, over a constraint matrix all DMUs share, and the closest
measure in rounds, each holding every unfinished DMU's unsolved facets
that pass the stop test against its least bound, then its best gamma.
Russell and the closest measure take a sequence of DMUs and return a
list that holds, in place of a DMU's result, the error its own
evaluation would raise, so one failing DMU leaves the others' results
untouched.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DataError, FacetBenchError, SolverError
from .facets import SUPPORT_TOL, FacetSet, _residuals
# solve_lp stays bound here for profilers that wrap it by this name.
from .lp import solve_lp, solve_lps  # noqa: F401

EXTREME_TOL = 1e-7
ZERO_SLACK_TOL = 1e-7


@dataclass(frozen=True)
class MeasureResult:
    status: str                       # scored | on-frontier | out-of-envelope
    theta: float | None
    slacks: np.ndarray | None


@dataclass(frozen=True)
class ExtremeSetResult:
    indices: tuple[int, ...]           # effective set (pinned when overridden)
    computed: tuple[int, ...]          # what the test itself found
    lambda0: dict[int, float]          # per-DMU optimal value of the test LP
    pinned: bool

    @property
    def discrepancy(self) -> bool:
        return set(self.indices) != set(self.computed)

    def discrepancy_detail(self, ds: Dataset) -> dict:
        only_comp = sorted(set(self.computed) - set(self.indices))
        only_pin = sorted(set(self.indices) - set(self.computed))
        return {
            "computed_not_pinned": [ds.names[d] for d in only_comp],
            "pinned_not_computed": [ds.names[d] for d in only_pin],
        }


def extreme_set(
    ds: Dataset,
    override: list[str] | tuple[str, ...] | None = None,
) -> ExtremeSetResult:
    """Run the test on every DMU: minimize the DMU's own intensity inside
    a dominating convex combination; a unit minimum means nothing else can
    represent it.  An override pins the returned list verbatim while the
    computed set is kept for the discrepancy report."""
    # DMU o's right-hand side is its own column of the shared matrix.
    A = np.vstack([ds.inputs, -ds.outputs, np.ones((1, ds.n))])
    sols = solve_lps(np.eye(ds.n), A, ("<=",) * (ds.m + ds.s) + ("=",), A.T)
    lambda0: dict[int, float] = {}
    computed = []
    for o, sol in enumerate(sols):
        if isinstance(sol, SolverError):
            raise sol
        if sol.status != "optimal":
            raise SolverError(
                f"extreme test LP reported {sol.status} for DMU {ds.names[o]} "
                "(the unit vector is always feasible)"
            )
        lambda0[o] = float(sol.value)
        if lambda0[o] >= 1.0 - EXTREME_TOL:
            computed.append(o)
    if override is None:
        return ExtremeSetResult(tuple(computed), tuple(computed), lambda0, pinned=False)
    if len(set(override)) != len(tuple(override)):
        raise DataError(f"override lists a DMU more than once: {list(override)}")
    pinned = tuple(ds.index(name) for name in override)
    return ExtremeSetResult(pinned, tuple(computed), lambda0, pinned=True)


def extremes_export(ds: Dataset, ext: ExtremeSetResult) -> dict:
    """JSON-ready export: the effective, computed and pinned sets, the
    discrepancy between them and every DMU's test value."""
    return {
        "effective": [ds.names[d] for d in ext.indices],
        "computed": [ds.names[d] for d in ext.computed],
        "pinned": ext.pinned,
        "discrepancy": ext.discrepancy_detail(ds),
        "lambda0": {ds.names[d]: v for d, v in sorted(ext.lambda0.items())},
    }


def russell_farthest(ds: Dataset, dmus: Sequence[int]) -> list[MeasureResult | SolverError]:
    """Maximize the mean normalized output slack over the full CRS
    technology (weights 1/s); theta = 1/(1 + optimum)."""
    dmus = list(dmus)
    n, m, s = ds.n, ds.m, ds.s
    A = np.zeros((m + s, n + s))
    A[:m, :n] = ds.inputs
    A[m:, :n] = ds.outputs
    A[m:, n:] = -np.eye(s)
    C = np.zeros((len(dmus), n + s))
    C[:, n:] = -1.0 / (s * ds.outputs[:, dmus].T)
    results: list[MeasureResult | SolverError] = []
    # DMU d's right-hand side is its own column of the shared matrix.
    for d, sol in zip(dmus, solve_lps(C, A, ("<=",) * m + ("=",) * s, A[:, dmus].T)):
        if isinstance(sol, SolverError):
            results.append(sol)
        elif sol.status == "unbounded":
            results.append(SolverError(
                f"Russell LP unbounded for DMU {ds.names[d]}: some output is freely producible"
            ))
        elif sol.status != "optimal":
            results.append(SolverError(f"Russell LP reported {sol.status} for DMU {ds.names[d]}"))
        else:
            slacks = sol.x[n:]
            gamma = float(np.sum(slacks / ds.outputs[:, d])) / s
            status = "on-frontier" if gamma <= ZERO_SLACK_TOL else "scored"
            results.append(MeasureResult(status=status, theta=1.0 / (1.0 + gamma), slacks=slacks))
    return results


def closest_on_efpps(
    facets: FacetSet,
    ds: Dataset,
    dmus: Sequence[int],
) -> list[MeasureResult | FacetBenchError]:
    """Least mean-normalized slack raising the DMU onto the boundary of
    the facet half-space intersection.

    A DMU outside some facet half-space, as `facet_checks` judges it, lies
    outside the extended-facet technology: no nonnegative slack reaches the
    boundary through the violated constraint, so it is flagged, not scored.
    """
    dmus = list(dmus)
    if not facets.facets:
        return [DataError("closest measure needs a nonempty facet set") for _ in dmus]
    s = ds.s
    F = len(facets.facets)
    U = np.vstack([f.u for f in facets.facets])
    V = np.vstack([f.v for f in facets.facets])
    value, resid = _residuals(ds, U, V, dmus)
    rhs = value.T  # u@y_o - v@x_o, one row per DMU
    outside = np.any(resid > SUPPORT_TOL, axis=0)
    Y = ds.outputs[:, dmus].T
    C = 1.0 / (s * Y)
    # Facet k's LP cut down to its equality row u_k @ x = -rhs_k, x >= 0,
    # has the optimum -rhs_k * min_r c_r / u_kr when u_k > 0; any other
    # row is bounded by 0, since gamma >= 0.
    positive = np.all(U > 0, axis=1)
    bound = np.zeros((len(dmus), F))
    bound[:, positive] = -rhs[:, positive] * np.min(C[:, None, :] / U[positive], axis=2)
    order = np.argsort(bound, axis=1, kind="stable")
    # facet k's LP: its own row as the equality, then the others as <=
    rows = np.array([[k] + [i for i in range(F) if i != k] for k in range(F)])
    rels = ("=",) + ("<=",) * (F - 1)

    results: list[MeasureResult | FacetBenchError | None] = [None] * len(dmus)
    best: list[tuple[float, int, np.ndarray] | None] = [None] * len(dmus)
    step = [0] * len(dmus)
    live = []
    for i in range(len(dmus)):
        if outside[i]:
            results[i] = MeasureResult(status="out-of-envelope", theta=None, slacks=None)
        else:
            live.append(i)

    ranked = np.take_along_axis(bound, order, axis=1)

    def reach(i: int, ref: float) -> int:
        """How many of DMU i's ranked facets pass the stop test against ref."""
        return int(np.searchsorted(ranked[i], ref * (1 + 1e-9) + 1e-12, side="right"))

    while live:
        batch = []
        for i in live:
            end = max(step[i] + 1, reach(i, ranked[i, step[i]] if best[i] is None else best[i][0]))
            batch += [(i, int(k)) for k in order[i, step[i]:end]]
        I, K = np.array(batch).T
        sols = solve_lps(C[I], U[rows[K]], rels, -rhs[I[:, None], rows[K]])
        # Read in bound order with the running best, as if solved one at a
        # time: the first error is the DMU's own, and step F marks it done.
        for (i, k), sol in zip(batch, sols):
            if step[i] == F or (best[i] is not None and step[i] >= reach(i, best[i][0])):
                step[i] = F
            elif isinstance(sol, SolverError):
                results[i], step[i] = sol, F
            else:
                if sol.status == "optimal":
                    gamma = float(np.sum(sol.x / Y[i])) / s
                    if best[i] is None or (gamma, k) < best[i][:2]:
                        best[i] = (gamma, k, sol.x)
                step[i] += 1
        live = [i for i in live if step[i] < F and (best[i] is None or step[i] < reach(i, best[i][0]))]
    for i, d in enumerate(dmus):
        if results[i] is not None:
            continue
        if best[i] is None:
            results[i] = SolverError(
                f"no facet projection feasible for in-envelope DMU {ds.names[d]} "
                "(raising outputs always reaches the boundary)"
            )
            continue
        gamma, _, slacks = best[i]
        status = "on-frontier" if gamma <= ZERO_SLACK_TOL else "scored"
        results[i] = MeasureResult(status=status, theta=1.0 / (1.0 + gamma), slacks=slacks)
    return results
