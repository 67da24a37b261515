"""Full-dimensional efficient facet enumeration.

A facet of the constant-returns cone is spanned by s+m-1 extreme DMUs
whose stacked (outputs, inputs) rows have full rank and whose
one-dimensional null direction, signed as (u, -v), is strictly positive
and supports every DMU in scope: u@y_j - v@x_j <= 0.  Enumeration is
exhaustive over all C(|extremes|, s+m-1) subsets, which is exact and
cheap at DEA scale; datasets with hundreds of extreme units would need the
dedicated identification literature instead.

The subsets are processed in chunks of FACET_CHUNK, in two stages.  First
a Householder QR of every subset's transposed rows, written as array
operations over the chunk, gives a null direction, and a subset is ruled
out when neither sign of it could be positive and supporting, with a
margin of QR_MARGIN on each test: for a subset that passes the rank
test, the QR and SVD directions differ by about eps/RANK_TOL.  Then
the few subsets left, about as many as there are facets, get one stacked
SVD and one array support test, which alone decide what is kept.  That
is 2-3 us per subset for s+m = 5 (10,626 subsets in 0.02-0.03 s, against
0.1 s with an SVD for every subset; single-threaded BLAS on a 2-vCPU x86
host, NumPy 2.4).
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple

import numpy as np

from .dataset import Dataset, _ReadOnly
from .errors import DataError
# solve_lp stays bound here for profilers that wrap it by this name.
from .lp import FEASIBILITY_TOL, pow2_scale, solve_lp  # noqa: F401

FACET_CHUNK = 1024  # subsets per batched QR and SVD stage; bounds the chunk's arrays

# The fixed facet tolerances; a report echoes them with the LP ones.
RANK_TOL = 1e-9        # relative smallest/largest singular value
SUPPORT_TOL = 1e-7     # residual after scaling each DMU row by its norm
POSITIVITY_TOL = 1e-9  # min component of the unit normal
DEDUP_TOL = 1e-7       # distance between unit normals
QR_MARGIN = 64.0 * np.finfo(float).eps / RANK_TOL  # the QR prefilter's margin (see above)


class Facet(NamedTuple):
    """One facet: spanning members (dataset indices, ascending) and the
    unit normal split into output part u and input part v, both > 0."""

    id: int
    members: tuple[int, ...]
    u: np.ndarray
    v: np.ndarray


class FacetSet(_ReadOnly):
    """The facets of one extreme set, in canonical order, with the
    extreme indices and support scope they were enumerated under."""

    __slots__ = ("facets", "extremes", "scope", "warnings", "subsets_examined")

    facets: tuple[Facet, ...]
    extremes: tuple[int, ...]
    scope: str
    warnings: tuple[str, ...]
    subsets_examined: int

    def __init__(self, facets, extremes, scope, warnings=(), subsets_examined=0):
        self._set(facets, extremes, scope, warnings, subsets_examined)

    def __len__(self) -> int:
        return len(self.facets)

    def ids(self) -> tuple[int, ...]:
        return tuple(f.id for f in self.facets)


def _normals(ds: Dataset, subsets: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit normals of a (k, s+m-1) array of subsets of DMU indices.

    Returns (ok, u, v): u and v are the output and input parts of each
    subset's null direction (u, -v), signed so that the first nonzero
    component of u is positive, and ok marks the subsets whose rows have
    full rank and whose normal is strictly positive.  The batched SVD
    runs LAPACK on each subset as a single-matrix call does, so the
    normals do not depend on how the subsets are batched.
    """
    rows = np.vstack([ds.outputs, ds.inputs]).T[subsets]  # (k, s+m-1, s+m)
    _, sv, vh = np.linalg.svd(rows)
    normal = vh[:, -1, :]  # unit length; rows @ normal ~ 0
    u = normal[:, : ds.s]
    v = -normal[:, ds.s:]
    first = np.argmax(u != 0.0, axis=1)
    flip = (u[np.arange(len(u)), first] < 0.0)[:, None]
    u = np.where(flip, -u, u)
    v = np.where(flip, -v, v)
    ok = ~(sv[:, -1] <= RANK_TOL * sv[:, 0])
    ok &= ~(np.minimum(u.min(axis=1, initial=np.inf), v.min(axis=1, initial=np.inf)) <= POSITIVITY_TOL)
    return ok, u, v


def _residuals(ds: Dataset, u: np.ndarray, v: np.ndarray, cols) -> tuple[np.ndarray, np.ndarray]:
    """(k, len(cols)) values u@y_j - v@x_j of k normals at the DMUs cols,
    and the same values divided by each DMU's row norm."""
    cols = np.asarray(cols, dtype=np.intp)
    Y = ds.outputs[:, cols].T
    X = ds.inputs[:, cols].T
    value = (u[:, None, :] * Y[None]).sum(-1) - (v[:, None, :] * X[None]).sum(-1)
    return value, value / _row_norms(ds)[cols]


def _row_norms(ds: Dataset) -> np.ndarray:
    stacked = np.vstack([ds.outputs, ds.inputs])
    return np.sqrt(np.sum(stacked * stacked, axis=0))


def _null_directions(blocks: np.ndarray) -> np.ndarray:
    """(d+1, k) unit null directions of k blocks of d rows, given as a
    (d, d+1, k) array indexed (row, coordinate, block).

    Householder QR of each transposed block, as array operations over the
    whole stack with the blocks along the last, contiguous axis: the last
    column of Q is orthogonal to every row.  Its sign is arbitrary, and a
    rank-deficient block gets one unit vector of its wider null space;
    callers allow for both.
    """
    a = np.array(blocks)  # a[j] is column j of every transposed block
    d = len(a)
    reflectors = []
    for j in range(d):
        x = a[j, j:]
        v = x.copy()
        v[0] += np.copysign(np.sqrt((x * x).sum(axis=0)), x[0])
        vn = np.sqrt((v * v).sum(axis=0))
        v /= np.where(vn > 0.0, vn, 1.0)  # a zero column leaves v = 0: H = I
        tail = a[j + 1:, j:]
        tail -= 2.0 * v * (v * tail).sum(axis=1)[:, None]
        reflectors.append(v)
    q = np.zeros(a.shape[1:])
    q[-1] = 1.0
    for j in reversed(range(d)):
        v = reflectors[j]
        q[j:] -= 2.0 * v * (v * q[j:]).sum(axis=0)
    return q


def _may_be_facets(blocks: np.ndarray, probe: np.ndarray, s: int) -> np.ndarray:
    """Mask of the k subsets, given as their (y, x) rows in a (d, d+1, k)
    array, that `_normals` and the support test could keep.

    A subset is ruled out when neither sign of its QR null direction
    w = (q_out, -q_in) could pass: some component is at most
    POSITIVITY_TOL - QR_MARGIN, or some support residual w@(y_j, -x_j)/|r_j|
    exceeds SUPPORT_TOL + QR_MARGIN (probe holds the support rows
    (y_j, x_j)/|r_j| as columns).  A NaN rules nothing out.
    """
    q = _null_directions(blocks)
    res = probe[0][:, None] * q[0]  # summed per coordinate: no matrix product
    for i in range(1, len(q)):
        res += probe[i][:, None] * q[i]
    w_min = np.minimum(q[:s].min(axis=0), -q[s:].max(axis=0))
    w_max = np.maximum(q[:s].max(axis=0), -q[s:].min(axis=0))
    low = POSITIVITY_TOL - QR_MARGIN
    high = SUPPORT_TOL + QR_MARGIN
    fails_plus = (w_min <= low) | (res.max(axis=0) > high)
    fails_minus = (-w_max <= low) | (-res.min(axis=0) > high)
    return ~(fails_plus & fails_minus)


def enumerate_facets(ds: Dataset, extremes: list[int] | tuple[int, ...], scope: str = "extremes") -> FacetSet:
    """Enumerate every facet spanned by the extreme set.

    Facet ids are canonical: subsets are ordered lexicographically by
    their positions within the extreme list, so a pinned extreme list
    fixes the numbering.  Subsets sharing one hyperplane within tolerance
    collapse to the first subset; the union of coincident spanning sets
    is recorded as a regularity warning, not an error.
    """
    if scope not in ("extremes", "all"):
        raise DataError(f"support scope must be 'extremes' or 'all', got {scope!r}")
    extremes = tuple(int(e) for e in extremes)
    d = ds.s + ds.m - 1
    if len(extremes) < d:
        raise DataError(f"need at least s+m-1 = {d} extreme DMUs, got {len(extremes)}")
    support = extremes if scope == "extremes" else tuple(range(ds.n))
    ext = np.array(extremes, dtype=np.intp)
    rows = np.vstack([ds.outputs, ds.inputs]).T
    probe = rows[list(support)].T / _row_norms(ds)[list(support)]  # unit support rows, as columns

    found: list[tuple[tuple[int, ...], np.ndarray, np.ndarray]] = []
    examined = 0
    positions = itertools.combinations(range(len(extremes)), d)
    while True:
        pos = np.fromiter(itertools.islice(positions, FACET_CHUNK), dtype=np.dtype((np.intp, d)))
        if not len(pos):
            break
        examined += len(pos)
        subsets = ext[pos]
        blocks = rows[subsets.T].transpose(0, 2, 1)
        subsets = subsets[_may_be_facets(blocks, probe, ds.s)]
        ok, u, v = _normals(ds, subsets)
        keep = np.flatnonzero(ok)
        supported = ~(_residuals(ds, u[keep], v[keep], support)[1] > SUPPORT_TOL).any(axis=1)
        for i in keep[supported]:
            found.append((tuple(subsets[i].tolist()), u[i], v[i]))
    return _facet_set(ds, found, extremes, scope, examined)


def _facet_set(
    ds: Dataset,
    found: list[tuple[tuple[int, ...], np.ndarray, np.ndarray]],
    extremes: tuple[int, ...],
    scope: str,
    examined: int,
) -> FacetSet:
    """Number the supported subsets of `found`, in canonical order, as
    facets, collapsing coincident hyperplanes (same unit normal) to the
    first subset.

    Each new normal is compared with every kept normal in one array test
    and merges into the first within DEDUP_TOL (max-abs distance)."""
    facets: list[Facet] = []
    warnings: list[str] = []
    kept: list[tuple[tuple[int, ...], np.ndarray, np.ndarray, set[int]]] = []
    normals = np.empty((len(found), ds.s + ds.m))  # rows [:len(kept)] are the kept (u, v)
    for subset, u, v in found:
        k = len(kept)
        normals[k, : ds.s] = u
        normals[k, ds.s:] = v
        hits = np.flatnonzero(np.max(np.abs(normals[:k] - normals[k]), axis=1) <= DEDUP_TOL)
        if hits.size:
            kept[hits[0]][3].update(subset)
        else:
            kept.append((subset, u, v, set(subset)))
    for fid, (subset, u, v, span_union) in enumerate(kept, start=1):
        if span_union != set(subset):
            names = ", ".join(ds.names[j] for j in sorted(span_union))
            warnings.append(
                f"regularity condition violated: DMUs {{{names}}} lie on one hyperplane "
                f"(facet {fid} keeps spanning set {tuple(ds.names[j] for j in sorted(subset))})"
            )
        u = u.copy()
        v = v.copy()
        u.flags.writeable = False
        v.flags.writeable = False
        facets.append(Facet(id=fid, members=tuple(sorted(subset)), u=u, v=v))
    return FacetSet(
        facets=tuple(facets),
        extremes=extremes,
        scope=scope,
        warnings=tuple(warnings),
        subsets_examined=examined,
    )


def basic_solutions(
    A: np.ndarray, r: np.ndarray, ftol: float
) -> Iterator[tuple[list[int], np.ndarray]]:
    """Basic feasible solutions of {lam >= 0 : A lam = r}, as (basis
    columns, lam_B clipped at 0), bases in itertools.combinations order.

    Rows of [A | r] are equilibrated by powers of two, as in solve_lp, so
    the solutions do not depend on the rows' units and ftol reads in the
    LP's scale.  The bases span a maximal independent row set, chosen
    greedily; each solution must still meet the dropped rows, which is
    the check that r is consistent with them.  A basis is kept when it is
    nonsingular, lam_B >= -ftol * max |lam_B|, and every row's
    residual is at most ftol.  No solution means r is infeasible.

    One matrix_rank call tests every candidate basis and one solve
    solves the nonsingular ones: both run LAPACK on each matrix of the
    stack as a call on that matrix alone does.
    """
    M = np.column_stack([A, r])
    M = M / pow2_scale(np.abs(M).max(axis=1))[:, None]
    M, x = M[:, :-1], M[:, -1]
    rows: list[int] = []
    for i in range(len(M)):
        if np.linalg.matrix_rank(M[rows + [i]]) > len(rows):
            rows.append(i)
    k = len(rows)
    bases = np.array(list(itertools.combinations(range(M.shape[1]), k)), dtype=np.intp).reshape(-1, k)
    B = M[rows][:, bases].transpose(1, 0, 2)  # B[i] is M[np.ix_(rows, bases[i])]
    full = np.linalg.matrix_rank(B) == k
    bases, B = bases[full], B[full]
    # a (..., k, 1) right-hand side: NumPy 2 reads a 2-D one as a matrix
    lams = np.linalg.solve(B, np.broadcast_to(x[rows, None], (len(B), k, 1)))[:, :, 0]
    for basis, lam in zip(bases.tolist(), lams):
        if lam.min() < -ftol * float(np.abs(lam).max()):
            continue
        if np.abs(M[:, basis] @ lam - x).max() > ftol:
            continue
        yield basis, np.maximum(lam, 0.0)


def facet_contains(
    facet: Facet,
    ds: Dataset,
    xbar: np.ndarray,
    y: np.ndarray,
) -> bool:
    """True iff some lambda >= 0 over the spanning members reproduces
    (xbar, y): some basis of [X_f; Y_f] lambda = (xbar, y) is feasible."""
    xbar = np.asarray(xbar, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    if xbar.size != ds.m or y.size != ds.s:
        raise DataError(f"point dimensions ({xbar.size}, {y.size}) do not match dataset ({ds.m}, {ds.s})")
    cols = list(facet.members)
    A = np.vstack([ds.inputs[:, cols], ds.outputs[:, cols]])
    r = np.concatenate([xbar, y])
    return next(basic_solutions(A, r, FEASIBILITY_TOL), None) is not None


def facet_checks(ds: Dataset, fs: FacetSet) -> tuple[dict, list[dict]]:
    """(summary, violations) from every facet's scaled residual at every
    DMU: per facet id, the span residual over its members, the max support
    residual over the scope and the min normal component; and the DMUs
    outside some facet half-space (residual above SUPPORT_TOL)."""
    support = fs.extremes if fs.scope == "extremes" else tuple(range(ds.n))
    u = np.array([f.u for f in fs.facets]).reshape(len(fs), ds.s)
    v = np.array([f.v for f in fs.facets]).reshape(len(fs), ds.m)
    _, resid = _residuals(ds, u, v, range(ds.n))
    summary = {}
    for f, row in zip(fs.facets, resid):
        summary[f.id] = {
            "span_residual": max(abs(row[j]) for j in f.members),
            "max_support_residual": max(row[j] for j in support),
            "min_normal_component": float(min(f.u.min(), f.v.min())),
        }
    violations = [
        {"dmu": ds.names[j], "facet": fs.facets[i].id, "residual": float(resid[i, j])}
        for j, i in zip(*np.nonzero(resid.T > SUPPORT_TOL))
    ]
    return summary, violations


def facet_export(ds: Dataset, fs: FacetSet, residuals: dict) -> list[dict]:
    """JSON-ready export, one row per facet: members by name, the normal
    and the residuals of ``facet_checks(ds, fs)[0]`` passed in."""
    return [
        {
            "id": f.id,
            "members": [ds.names[j] for j in f.members],
            "u": [float(x) for x in f.u],
            "v": [float(x) for x in f.v],
            "span_residual": residuals[f.id]["span_residual"],
            "max_support_residual": residuals[f.id]["max_support_residual"],
        }
        for f in fs.facets
    ]

