"""Extreme-efficiency test and the two comparison measures.

* extreme_efficiency_test: the convex-representability LP, exactly as the
  four-step procedure states it (convexity row included).
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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DataError, SolverError
from .facets import FacetSet, FacetTolerances
from .lp import LpProblem, SolverConfig, solve_lp

EXTREME_TOL = 1e-7
ZERO_SLACK_TOL = 1e-7


@dataclass(frozen=True)
class MeasureResult:
    dmu: int
    measure: str                      # eff2 | eff3 | extreme-test
    status: str                       # scored | on-frontier | out-of-envelope
    theta: float | None
    slacks: np.ndarray | None
    intensities: dict[int, float]
    target: np.ndarray | None

    def scored(self) -> bool:
        return self.theta is not None


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


def extreme_efficiency_test(
    ds: Dataset, o: int, cfg: SolverConfig | None = None
) -> tuple[float, bool]:
    """Minimize the DMU's own intensity inside a dominating convex
    combination; a unit minimum means nothing else can represent it."""
    cfg = cfg or SolverConfig()
    n = ds.n
    c = np.zeros(n)
    c[o] = 1.0
    A = np.vstack([ds.inputs, -ds.outputs, np.ones((1, n))])
    b = np.concatenate([ds.inputs[:, o], -ds.outputs[:, o], [1.0]])
    rels = ("<=",) * (ds.m + ds.s) + ("=",)
    sol = solve_lp(LpProblem("min", c, A, rels, b), cfg)
    if sol.status != "optimal":
        raise SolverError(
            f"extreme test LP reported {sol.status} for DMU {ds.names[o]} "
            "(the unit vector is always feasible)"
        )
    lam0 = float(sol.value)
    return lam0, lam0 >= 1.0 - EXTREME_TOL


def extreme_set(
    ds: Dataset,
    override: list[str] | tuple[str, ...] | None = None,
    cfg: SolverConfig | None = None,
) -> ExtremeSetResult:
    """Run the test on every DMU; an override pins the returned list
    verbatim while the computed set is kept for the discrepancy report."""
    cfg = cfg or SolverConfig()
    lambda0: dict[int, float] = {}
    computed = []
    for o in range(ds.n):
        lam0, is_ext = extreme_efficiency_test(ds, o, cfg)
        lambda0[o] = lam0
        if is_ext:
            computed.append(o)
    if override is None:
        return ExtremeSetResult(tuple(computed), tuple(computed), lambda0, pinned=False)
    if len(set(override)) != len(tuple(override)):
        raise DataError(f"override lists a DMU more than once: {list(override)}")
    pinned = tuple(ds.index(name) for name in override)
    return ExtremeSetResult(pinned, tuple(computed), lambda0, pinned=True)


def russell_farthest(
    ds: Dataset, o: int, cfg: SolverConfig | None = None
) -> MeasureResult:
    """Maximize the mean normalized output slack over the full CRS
    technology (weights 1/s); theta = 1/(1 + optimum)."""
    cfg = cfg or SolverConfig()
    n, m, s = ds.n, ds.m, ds.s
    y_o = ds.outputs[:, o]
    c = np.concatenate([np.zeros(n), -1.0 / (s * y_o)])
    A = np.zeros((m + s, n + s))
    A[:m, :n] = ds.inputs
    A[m:, :n] = ds.outputs
    A[m:, n:] = -np.eye(s)
    b = np.concatenate([ds.inputs[:, o], y_o])
    rels = ("<=",) * m + ("=",) * s
    sol = solve_lp(LpProblem("min", c, A, rels, b), cfg)
    if sol.status == "unbounded":
        raise SolverError(
            f"Russell LP unbounded for DMU {ds.names[o]}: some output is freely producible"
        )
    if sol.status != "optimal":
        raise SolverError(f"Russell LP reported {sol.status} for DMU {ds.names[o]}")
    lam = sol.x[:n]
    slacks = sol.x[n:]
    gamma = float(np.sum(slacks / y_o)) / s
    theta = 1.0 / (1.0 + gamma)
    status = "on-frontier" if gamma <= ZERO_SLACK_TOL else "scored"
    intensities = {j: float(lam[j]) for j in range(n) if lam[j] > cfg.feasibility_tol}
    return MeasureResult(
        dmu=o, measure="eff3", status=status, theta=theta,
        slacks=slacks, intensities=intensities, target=y_o + slacks,
    )


def closest_on_efpps(
    facets: FacetSet,
    ds: Dataset,
    o: int,
    cfg: SolverConfig | None = None,
    tols: FacetTolerances | None = None,
) -> MeasureResult:
    """Least mean-normalized slack raising the DMU onto the boundary of
    the facet half-space intersection.

    A DMU violating some facet half-space lies outside the extended-facet
    technology; no nonnegative slack can reach the boundary through the
    violated constraint, so the result is flagged instead of scored.
    """
    cfg = cfg or SolverConfig()
    tols = tols or FacetTolerances()
    if not facets.facets:
        raise DataError("closest measure needs a nonempty facet set")
    s = ds.s
    x_o = ds.inputs[:, o]
    y_o = ds.outputs[:, o]
    point_norm = float(np.sqrt(np.sum(y_o * y_o) + np.sum(x_o * x_o)))
    rhs = np.array([f.value(y_o, x_o) for f in facets.facets])  # u@y_o - v@x_o
    if np.any(rhs / point_norm > tols.support_tol):
        return MeasureResult(
            dmu=o, measure="eff2", status="out-of-envelope", theta=None,
            slacks=None, intensities={}, target=None,
        )
    U = np.vstack([f.u for f in facets.facets])
    c = 1.0 / (s * y_o)
    # Facet k's LP cut down to its equality row u_k @ x = -rhs_k, x >= 0,
    # has the optimum -rhs_k * min_r c_r / u_kr when u_k > 0; any other
    # row is bounded by 0, since gamma >= 0.
    positive = np.all(U > 0, axis=1)
    bound = np.zeros(len(U))
    bound[positive] = -rhs[positive] * np.min(c / U[positive], axis=1)
    best: tuple[float, int, np.ndarray] | None = None
    for k in sorted(range(len(bound)), key=bound.__getitem__):
        if best is not None and bound[k] > best[0] * (1 + 1e-9) + 1e-12:
            break
        others = [i for i in range(len(U)) if i != k]
        A = np.vstack([U[k:k + 1], U[others]]) if others else U[k:k + 1]
        b = np.concatenate([[-rhs[k]], -rhs[others]]) if others else np.array([-rhs[k]])
        rels = ("=",) + ("<=",) * len(others)
        sol = solve_lp(LpProblem("min", c, A, rels, b), cfg)
        if sol.status != "optimal":
            continue
        gamma = float(np.sum(sol.x / y_o)) / s
        if best is None or (gamma, k) < best[:2]:
            best = (gamma, k, sol.x)
    if best is None:
        raise SolverError(
            f"no facet projection feasible for in-envelope DMU {ds.names[o]} "
            "(raising outputs always reaches the boundary)"
        )
    gamma, _, slacks = best
    theta = 1.0 / (1.0 + gamma)
    status = "on-frontier" if gamma <= ZERO_SLACK_TOL else "scored"
    return MeasureResult(
        dmu=o, measure="eff2", status=status, theta=theta,
        slacks=slacks, intensities={}, target=y_o + slacks,
    )
