"""Exhaustive oracles for the sign-pattern and closest searches.

The two loops as the package ran them before it visited candidates in
bound order and stopped early: every sign pattern and every facet is
solved, and the winner is the least key over all of them.  Each LP is
built here as an ``LpProblem`` from the program's statement and solved
alone by ``solve_lp``; it has the same coefficients as the package's
stacked LP, so winners, gammas, slacks and intensities can be compared
bit for bit.
"""

import numpy as np

from facetbench.lp import LpProblem, solve_lp


def pattern_problem(x_o, y_o, X_ref, Y_ref, sigma) -> LpProblem:
    """Pattern sigma's LP for point (x_o, y_o): variables lambda (k), then
    t = |s_r| (s); min mean t_r / y_r s.t. X_ref lambda <= x_o and
    Y_ref lambda - sigma * t = y_o."""
    m, k = X_ref.shape
    s = y_o.size
    A = np.block([[X_ref, np.zeros((m, s))], [Y_ref, -np.diag(sigma)]])
    c = np.concatenate([np.zeros(k), 1.0 / (s * y_o)])
    return LpProblem("min", c, A, ("<=",) * m + ("=",) * s, np.concatenate([x_o, y_o]))


def exhaustive_sign_pattern(x_o, y_o, X_ref, Y_ref):
    """Least key (-sum(z), gamma, p) over all 2**s pattern LPs, as
    (p, gamma, signed slacks, lambda, degenerate flag)."""
    x_o = np.asarray(x_o, dtype=float)
    y_o = np.asarray(y_o, dtype=float)
    X_ref = np.asarray(X_ref, dtype=float).reshape(x_o.size, -1)
    Y_ref = np.asarray(Y_ref, dtype=float).reshape(y_o.size, -1)
    s = y_o.size
    k = X_ref.shape[1]
    best_key = None
    best = None
    for p in range(1 << s):
        z = [(p >> r) & 1 for r in range(s)]
        sigma = np.array([1.0 if zr else -1.0 for zr in z])
        sol = solve_lp(pattern_problem(x_o, y_o, X_ref, Y_ref, sigma))
        if sol.status != "optimal":
            continue
        t = sol.x[k:]
        gamma = float(np.sum(t / y_o)) / s
        key = (-sum(z), gamma, p)
        if best_key is None or key < best_key:
            best_key = key
            best = (p, gamma, sigma * t, sol.x[:k], sol.degenerate_optimal_face)
    return best


def facet_lp(facets, ds, o, k):
    """Facet k's closest LP for DMU o: (status, gamma, slacks)."""
    s = ds.s
    x_o = ds.inputs[:, o]
    y_o = ds.outputs[:, o]
    rhs = np.array([f.value(y_o, x_o) for f in facets.facets])
    U = np.vstack([f.u for f in facets.facets])
    others = [i for i in range(len(U)) if i != k]
    A = np.vstack([U[k:k + 1], U[others]]) if others else U[k:k + 1]
    b = np.concatenate([[-rhs[k]], -rhs[others]]) if others else np.array([-rhs[k]])
    rels = ("=",) + ("<=",) * len(others)
    sol = solve_lp(LpProblem("min", 1.0 / (s * y_o), A, rels, b))
    if sol.status != "optimal":
        return sol.status, None, None
    return sol.status, float(np.sum(sol.x / y_o)) / s, sol.x


def exhaustive_closest(facets, ds, o):
    """Least gamma over every facet's LP, first facet on ties, as
    (facet index, gamma, slacks); None when no LP is optimal."""
    best = None
    for k in range(len(facets.facets)):
        status, gamma, x = facet_lp(facets, ds, o, k)
        if status != "optimal":
            continue
        if best is None or gamma < best[1]:
            best = (k, gamma, x)
    return best
