"""LP oracles for the fixed-input facet questions.

The two programs the package solved before it enumerated basic feasible
solutions instead: the facet revenue optimum as one equality LP over the
members' intensities, and facet containment as one feasibility LP over
the stacked input and output rows.
"""

import numpy as np

from facetbench.errors import FacetInfeasibleError, SolverError
from facetbench.lp import LpProblem, SolverConfig, solve_lp


def lp_facet_optimum(ds, facet, xbar, prices, cfg=None):
    """(lambda, y, value) of max prices@y on the facet at inputs xbar;
    raises FacetInfeasibleError when the facet admits no point there."""
    cfg = cfg or SolverConfig()
    cols = list(facet.members)
    Yf = ds.outputs[:, cols]
    Xf = ds.inputs[:, cols]
    sol = solve_lp(LpProblem("min", -(prices @ Yf), Xf, ("=",) * ds.m, xbar), cfg)
    if sol.status == "infeasible":
        raise FacetInfeasibleError(f"facet {facet.id} admits no point with input vector {list(xbar)}")
    if sol.status != "optimal":
        raise SolverError(f"facet optimum LP reported {sol.status} on facet {facet.id}")
    y = Yf @ sol.x
    return sol.x, y, float(np.sum(prices * y))


def lp_facet_contains(facet, ds, xbar, y, cfg=None):
    """True iff the LP finds lambda >= 0 over the members with
    X_f lambda = xbar and Y_f lambda = y."""
    cols = list(facet.members)
    A = np.vstack([ds.inputs[:, cols], ds.outputs[:, cols]])
    b = np.concatenate([np.asarray(xbar, dtype=float), np.asarray(y, dtype=float)])
    problem = LpProblem("min", np.zeros(len(cols)), A, ("=",) * (ds.m + ds.s), b)
    return solve_lp(problem, cfg or SolverConfig()).status == "optimal"
