"""Per-subset facet enumeration oracle.

One SVD, one sign flip and one positivity test per subset, then a
per-DMU support scan that stops at the first violating unit: the
enumeration loop the package ran before it processed subsets in batched
chunks.  The supported subsets go through the package's own numbering and
coincident-hyperplane merge, so facet ids, members, warnings and the u/v
bytes of the two paths can be compared exactly.
"""

import itertools

import numpy as np

from facetbench.facets import FacetTolerances, _facet_set, _row_norms


def oracle_facet_normal(ds, subset, tols=None):
    """(u, v) of one subset, or None: rank-deficient or not positive."""
    tols = tols or FacetTolerances()
    d = ds.s + ds.m - 1
    rows = np.empty((d, ds.s + ds.m))
    for i, j in enumerate(subset):
        rows[i, : ds.s] = ds.outputs[:, j]
        rows[i, ds.s:] = ds.inputs[:, j]
    _, sv, vh = np.linalg.svd(rows)
    if sv[-1] <= tols.rank_tol * sv[0]:
        return None
    normal = vh[-1]
    u = normal[: ds.s]
    v = -normal[ds.s:]
    for comp in u:
        if comp != 0.0:
            if comp < 0.0:
                u = -u
                v = -v
            break
    if min(u.min(initial=np.inf), v.min(initial=np.inf)) <= tols.positivity_tol:
        return None
    return u, v


def oracle_enumerate_facets(ds, extremes, scope="extremes", tols=None):
    tols = tols or FacetTolerances()
    extremes = tuple(int(e) for e in extremes)
    d = ds.s + ds.m - 1
    support = extremes if scope == "extremes" else tuple(range(ds.n))
    norms = _row_norms(ds)
    found = []
    examined = 0
    for pos_subset in itertools.combinations(range(len(extremes)), d):
        examined += 1
        subset = tuple(extremes[p] for p in pos_subset)
        res = oracle_facet_normal(ds, subset, tols)
        if res is None:
            continue
        u, v = res
        supported = True
        for j in support:
            resid = (np.sum(u * ds.outputs[:, j]) - np.sum(v * ds.inputs[:, j])) / norms[j]
            if resid > tols.support_tol:
                supported = False
                break
        if supported:
            found.append((subset, u, v))
    return _facet_set(ds, found, extremes, scope, examined, tols)


def oracle_residual(ds, facet, j):
    """Scaled residual u@y_j - v@x_j of one facet at one DMU."""
    return facet.value(ds.outputs[:, j], ds.inputs[:, j]) / _row_norms(ds)[j]
