"""Per-subset facet enumeration oracle.

One SVD, one sign flip and one positivity test per subset, then a
per-DMU support scan that stops at the first violating unit: the
enumeration loop the package ran before it processed subsets in batched
chunks.  The supported subsets are then numbered and merged by
``oracle_facet_set``, the pairwise first-match scan the package ran before
it compared each normal with all kept normals in one array test.  Facet
ids, members, warnings and the u/v bytes of the two paths can be compared
exactly.  The tolerances are the package's constants, read at call time,
so a test that sets them sets them for both paths.
"""

import itertools

import numpy as np

from facetbench import facets as facets_module
from facetbench.facets import Facet, FacetSet, _row_norms


def oracle_facet_set(ds, found, extremes, scope, examined):
    """Number `found` as facets, merging each normal into the first kept
    normal within DEDUP_TOL: one kept normal at a time, in order.

    The distance test is done in Python floats, component by component
    (``max |n - p| <= tol`` holds iff every component does, and a NaN
    fails both), so that an all-kept scan of 1,820 normals takes about
    2 s rather than the 13 s of one NumPy call per pair.
    """
    facets = []
    warnings = []
    kept = []
    for subset, u, v in found:
        nvec = (*u.tolist(), *v.tolist())
        merged = False
        for prev in kept:
            if all(abs(a - b) <= facets_module.DEDUP_TOL for a, b in zip(nvec, prev[4])):
                prev[3].update(subset)
                merged = True
                break
        if not merged:
            kept.append((subset, u, v, set(subset), nvec))
    for fid, (subset, u, v, span_union, _) in enumerate(kept, start=1):
        if span_union != set(subset):
            names = ", ".join(ds.names[j] for j in sorted(span_union))
            warnings.append(
                f"regularity condition violated: DMUs {{{names}}} lie on one hyperplane "
                f"(facet {fid} keeps spanning set {tuple(ds.names[j] for j in sorted(subset))})"
            )
        facets.append(Facet(id=fid, members=tuple(sorted(subset)), u=u.copy(), v=v.copy()))
    return FacetSet(
        facets=tuple(facets),
        extremes=extremes,
        scope=scope,
        warnings=tuple(warnings),
        subsets_examined=examined,
    )


def oracle_facet_normal(ds, subset):
    """(u, v) of one subset, or None: rank-deficient or not positive."""
    d = ds.s + ds.m - 1
    rows = np.empty((d, ds.s + ds.m))
    for i, j in enumerate(subset):
        rows[i, : ds.s] = ds.outputs[:, j]
        rows[i, ds.s:] = ds.inputs[:, j]
    _, sv, vh = np.linalg.svd(rows)
    if sv[-1] <= facets_module.RANK_TOL * sv[0]:
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
    if min(u.min(initial=np.inf), v.min(initial=np.inf)) <= facets_module.POSITIVITY_TOL:
        return None
    return u, v


def oracle_enumerate_facets(ds, extremes, scope="extremes"):
    extremes = tuple(int(e) for e in extremes)
    d = ds.s + ds.m - 1
    support = extremes if scope == "extremes" else tuple(range(ds.n))
    norms = _row_norms(ds)
    found = []
    examined = 0
    for pos_subset in itertools.combinations(range(len(extremes)), d):
        examined += 1
        subset = tuple(extremes[p] for p in pos_subset)
        res = oracle_facet_normal(ds, subset)
        if res is None:
            continue
        u, v = res
        supported = True
        for j in support:
            resid = (np.sum(u * ds.outputs[:, j]) - np.sum(v * ds.inputs[:, j])) / norms[j]
            if resid > facets_module.SUPPORT_TOL:
                supported = False
                break
        if supported:
            found.append((subset, u, v))
    return oracle_facet_set(ds, found, extremes, scope, examined)


def oracle_residual(ds, facet, j):
    """Scaled residual u@y_j - v@x_j of one facet at one DMU."""
    return facet.value(ds.outputs[:, j], ds.inputs[:, j]) / _row_norms(ds)[j]
