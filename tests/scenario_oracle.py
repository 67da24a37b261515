"""LP oracles for the fixed-input facet questions.

The two programs the package solved before it enumerated basic feasible
solutions instead: the facet revenue optimum as one equality LP over the
members' intensities, and facet containment as one feasibility LP over
the stacked input and output rows.  Also the per-trial ownership matrix
that a coverage run counted, rebuilt from the run's seed.
"""

import numpy as np

from facetbench.errors import FacetInfeasibleError, SolverError
from facetbench.lp import LpProblem, solve_lp
from facetbench.scenario import PriceSampler, _ownership, facet_tables


def lp_facet_optimum(ds, facet, xbar, prices):
    """(lambda, y, value) of max prices@y on the facet at inputs xbar;
    raises FacetInfeasibleError when the facet admits no point there."""
    cols = list(facet.members)
    Yf = ds.outputs[:, cols]
    Xf = ds.inputs[:, cols]
    sol = solve_lp(LpProblem("min", -(prices @ Yf), Xf, ("=",) * ds.m, xbar))
    if sol.status == "infeasible":
        raise FacetInfeasibleError(f"facet {facet.id} admits no point with input vector {list(xbar)}")
    if sol.status != "optimal":
        raise SolverError(f"facet optimum LP reported {sol.status} on facet {facet.id}")
    y = Yf @ sol.x
    return sol.x, y, float(np.sum(prices * y))


def lp_facet_contains(facet, ds, xbar, y):
    """True iff the LP finds lambda >= 0 over the members with
    X_f lambda = xbar and Y_f lambda = y."""
    cols = list(facet.members)
    A = np.vstack([ds.inputs[:, cols], ds.outputs[:, cols]])
    b = np.concatenate([np.asarray(xbar, dtype=float), np.asarray(y, dtype=float)])
    problem = LpProblem("min", np.zeros(len(cols)), A, ("=",) * (ds.m + ds.s), b)
    return solve_lp(problem).status == "optimal"


def coverage_ownership(rep, ds, facets, xbar):
    """The (trials, facets) ownership matrix of the coverage run `rep`,
    rebuilt by the simulator's own ownership rule over the run's draws.
    Asserts that the report's facet counts are its column sums and each
    strategy count is the size of the union of its facets' columns."""
    owned = _ownership(facet_tables(ds, facets, xbar), PriceSampler().draw(rep.seed, 0, rep.trials, ds.s))
    col = {fid: i for i, fid in enumerate(facets.ids())}
    assert rep.facet_counts == {fid: int(owned[:, i].sum()) for fid, i in col.items()}
    assert rep.strategy_counts == tuple(
        int(owned[:, [col[k] for k in kset]].any(axis=1).sum()) for kset in rep.strategies
    )
    return owned
