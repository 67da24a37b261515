"""Deterministic dense LP solver.

Small dense problems only: a two-phase tableau simplex with Bland's rule
(lowest eligible entering column; leaving row by minimum ratio with exact
ties broken by lowest basis index).  The rule is anti-cycling and makes
every solve reproducible bit for bit: identical problems produce identical
pivot sequences, hence identical solutions.

Every variable is nonnegative (x >= 0), the only bound the package's
programs use, so the tableau's structural columns are the problem's own.

Constraint rows, then columns, are equilibrated by powers of two before
solving, and the phase-2 objective is scaled by the power of two of its
largest entry.  This changes no binary value exactly representable in the
data and keeps the stated tolerances meaningful across scales: a variable
measured in a unit 1024 times too small is solved as if its unit were
right.

Problems are solved in stacks.  ``solve_lps(c, A, relations, b)`` takes
B minimisation problems of one shape, one row of ``c`` and ``b`` each,
and sends them in one pass through phase 1 and phase 2 as one stack of
tableaus that the kernel advances in lockstep, one pivot of every
running problem per pass.  The set-up, the phase-1 infeasibility test
and the read-out of the solution (basic values, the negativity check,
the objective value, the alternate-optima probe) are vectorised over the
stack.  Every problem sees the same elementwise operations it would see
alone; max, min, any, argmax and argmin are exact, and a row sum along
the last axis adds in the same order as the sum of that row alone.  So a
problem's result does not depend by a single bit on the other problems
of its stack.  Driving leftover artificials out of the basis, which may
drop rows, goes row by row over the problems that need it, and the
survivors are split by the rows they kept for phase 2.
``solve_lp(p)`` solves the single ``LpProblem`` p as a stack of one,
minimising -c for a max problem: there is one LP path.

The pivot loop itself lives in the NumPy kernel module ``_simplex_py``,
bound here as ``_kernel``; its ``run`` and ``pivot`` are called through
that name so that a profiler can wrap them in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _simplex_py as _kernel
from .errors import SolverError

_MAXITER = 200_000

# Row relations as codes; orienting a row to a nonnegative rhs swaps <= and >=.
_CODES = {"<=": 0, "=": 1, ">=": 2}
_LE, _EQ, _GE = 0, 1, 2

# The numerical policy shared by every program the package emits.
FEASIBILITY_TOL = 1e-9
OPTIMALITY_TOL = 1e-9


@dataclass
class LpProblem:
    """min/max c@x subject to A x (<=|=|>=) b and x >= 0.

    ``solve_lp`` raises SolverError for a coefficient that is not finite.
    """

    sense: str
    c: np.ndarray
    A: np.ndarray
    relations: tuple[str, ...]
    b: np.ndarray

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise SolverError(f"sense must be min or max, got {self.sense!r}")
        self.c = np.asarray(self.c, dtype=float)
        self.A = np.asarray(self.A, dtype=float).reshape(len(self.relations), -1) \
            if np.size(self.A) else np.zeros((len(self.relations), self.c.size))
        self.b = np.asarray(self.b, dtype=float)
        nvar = self.c.size
        nrow = len(self.relations)
        if self.A.shape != (nrow, nvar):
            raise SolverError(f"constraint matrix shape {self.A.shape} != ({nrow}, {nvar})")
        if self.b.shape != (nrow,):
            raise SolverError(f"rhs shape {self.b.shape} != ({nrow},)")
        if not _CODES.keys() >= set(self.relations):
            raise SolverError(f"relations must be <=, =, >=: {self.relations}")


@dataclass(frozen=True)
class LpSolution:
    """Solve outcome.  x and value are meaningful only when optimal.

    degenerate_optimal_face is True when the optimal face has dimension
    >= 1 (an alternate optimum reachable by a positive step, or an optimal
    ray), so callers can apply their own secondary criterion.
    """

    status: str  # optimal | infeasible | unbounded
    value: float
    x: np.ndarray
    degenerate_optimal_face: bool = False
    iterations: int = 0


def solve_lp(problem: LpProblem) -> LpSolution:
    """Solve a dense LP; deterministic given the problem."""
    c = -problem.c if problem.sense == "max" else problem.c
    sol = solve_lps(c[None], problem.A, problem.relations, problem.b[None])[0]
    if isinstance(sol, SolverError):
        raise sol
    if sol.status == "optimal":
        sol = replace(sol, value=float(np.sum(problem.c * sol.x)))
    return sol


def solve_lps(
    c: np.ndarray, A: np.ndarray, relations: tuple[str, ...], b: np.ndarray,
) -> list[LpSolution | SolverError]:
    """Solve B independent problems min c[i]@x s.t. A[i] x (relations) b[i],
    x >= 0, together, in input order.

    c is (B, n) and b is (B, rows); A is (B, rows, n), or one (rows, n)
    matrix that every problem shares.  Each entry is the problem's
    solution, or the SolverError that solving it alone would raise (a
    non-finite coefficient among them); one failing problem leaves the
    others' results untouched.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    nprob, nvar = c.shape
    rows = len(relations)
    if b.shape != (nprob, rows) or A.shape not in ((rows, nvar), (nprob, rows, nvar)):
        raise SolverError(f"stack shapes disagree: c {c.shape}, A {A.shape}, b {b.shape}, {rows} relations")
    out: list[LpSolution | SolverError | None] = [None] * nprob
    ok = np.ones(nprob, dtype=bool)
    for what, finite in (("objective", np.isfinite(c).all(axis=1)),
                         ("matrix", np.isfinite(A).all(axis=(-2, -1))),
                         ("rhs", np.isfinite(b).all(axis=1))):
        for i in np.flatnonzero(ok & ~finite):
            out[i] = SolverError(f"non-finite coefficient in {what}")
        ok &= finite
    codes = np.array([_CODES[r] for r in relations], dtype=np.int64)
    for art_start, stack in _tableaus(A, b, np.flatnonzero(ok), nvar, codes, out):
        for ready in _phase1(stack, art_start, out):
            _phase2(ready, c, out)
    return out


@dataclass
class _Stack:
    """Same-shape tableaus of the problems idx, solved together."""

    idx: np.ndarray        # (B,) positions in the stack solve_lps was given
    T: np.ndarray          # (B, rows + 1, cols + 1)
    basis: np.ndarray      # (B, rows)
    iters: np.ndarray      # (B,) pivots so far
    colscale: np.ndarray   # (B, nvar) x = tableau x / colscale
    nvar: int

    def select(self, sel, T: np.ndarray, basis: np.ndarray) -> _Stack:
        """Problems sel of this stack, with their new tableaus."""
        return _Stack(self.idx[sel], T, basis, self.iters[sel], self.colscale[sel], self.nvar)


def _unsolved(status: str, nvar: int, iters: int = 0) -> LpSolution:
    return LpSolution(status, math.nan, np.full(nvar, math.nan), iterations=int(iters))


def _split(keep: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Group a stack's problems by their (B, rows) mask of kept rows:
    [(problems, kept rows)]."""
    groups: dict[bytes, list[int]] = {}
    for k, row in enumerate(keep):
        groups.setdefault(row.tobytes(), []).append(k)
    return [(np.array(ks), np.flatnonzero(keep[ks[0]])) for ks in groups.values()]


def _tableaus(A, b, idx, nvar, codes, out):
    """Equilibrate and orient the problems idx of the stack (A, b), whose
    rows have the relation codes codes, and yield (first artificial
    column, phase-1 tableaus).

    A row gets an artificial column when it needs one (= or oriented >=)
    in any problem of the stack; a problem whose row does not need it
    keeps that column zero and starts with the row's slack basic.  A zero
    column stays zero through every pivot, never enters and is cut before
    phase 2, and artificial indices keep their row order, so the
    tie-break by basis index is unchanged: the padding lets rows that
    orientation turned from <= into >= share a stack without changing a
    bit.
    """
    # Equilibrate each row (with its rhs) by the power of two that brings
    # its largest magnitude into [1, 2).  Adding 0.0 turns -0.0 into +0.0,
    # so the tableau's zeros do not depend on how the caller built A.
    A = np.broadcast_to(A, (len(b),) + A.shape[-2:])[idx]
    A += 0.0
    b = b[idx]
    mx = np.maximum(np.abs(A).max(axis=2, initial=0.0), np.abs(b))
    scale = np.where(mx > 0.0, np.ldexp(1.0, np.frexp(mx)[1] - 1), 1.0)
    A /= scale[:, :, None]
    rhs = b / scale
    # Then scale each column by the power of two that brings its largest
    # magnitude into [1, 2): x = x' / colscale, so a variable measured in
    # a unit 1024 times too small is solved as if its unit were right.
    # Row maxima stay in [1, 2), since each sits in a column whose own
    # maximum it is.
    mx = np.abs(A).max(axis=1, initial=0.0)
    colscale = np.where(mx > 0.0, np.ldexp(1.0, np.frexp(mx)[1] - 1), 1.0)
    A /= colscale[:, None, :]

    # Orient rhs nonnegative and classify rows.  An all-zero row is
    # dropped when 0 satisfies it and makes the problem infeasible if not.
    zero = ~A.any(axis=2)
    sat = np.where(codes == _LE, rhs >= -FEASIBILITY_TOL,
                   np.where(codes == _GE, rhs <= FEASIBILITY_TOL, np.abs(rhs) <= FEASIBILITY_TOL))
    infeasible = (zero & ~sat).any(axis=1)
    for i in idx[infeasible]:
        out[i] = _unsolved("infeasible", nvar)
    flip = rhs < 0.0
    np.negative(A, out=A, where=flip[:, :, None])
    np.negative(rhs, out=rhs, where=flip)
    ge = np.where(flip, codes == _LE, codes == _GE)

    feasible = np.flatnonzero(~infeasible)
    for part, kept in _split(~zero[feasible]):
        ks = feasible[part]
        sub = ks[:, None], kept
        eq = codes[kept] == _EQ
        art = eq | ge[sub]
        nrow = len(kept)
        slack_rows = np.flatnonzero(~eq)
        art_rows = np.flatnonzero(art.any(axis=0))
        art_start = nvar + len(slack_rows)
        total = art_start + len(art_rows)
        T = np.zeros((len(ks), nrow + 1, total + 1))
        T[:, :nrow, :nvar] = A[sub]
        T[:, :nrow, total] = rhs[sub]
        slack_col = np.full(nrow, -1)
        slack_col[slack_rows] = nvar + np.arange(len(slack_rows))
        T[:, slack_rows, slack_col[slack_rows]] = np.where(art[:, slack_rows], -1.0, 1.0)
        art_col = np.full(nrow, -1)
        art_col[art_rows] = art_start + np.arange(len(art_rows))
        T[:, art_rows, art_col[art_rows]] = np.where(art[:, art_rows], 1.0, 0.0)
        basis = np.where(art, art_col, slack_col)
        # Phase-1 objective: minimize the artificial sum; reduced costs are
        # the negated sums of the artificial-basic rows, subtracted in row
        # order (subtracting +0.0 for the other rows changes no bit).
        for i in art_rows:
            T[:, nrow, :] -= np.where(art[:, i, None], T[:, i, :], 0.0)
        T[:, nrow, art_start:total] = 0.0
        yield art_start, _Stack(
            idx[ks], T, basis, np.zeros(len(ks), dtype=np.int64), colscale[ks], nvar)


def _phase1(st: _Stack, art_start: int, out) -> list[_Stack]:
    """Run phase 1 where some problem has artificial rows; return the
    feasible problems' tableaus without artificial columns, grouped by
    the rows they kept, ready for phase 2."""
    T, basis = st.T, st.basis
    nrow = T.shape[1] - 1
    total = T.shape[2] - 1
    if (basis >= art_start).any():
        codes, it = _kernel.run(T, basis, art_start, OPTIMALITY_TOL, _MAXITER)
        st.iters += it
        for k in np.flatnonzero(codes == _kernel.MAXITER):
            out[st.idx[k]] = SolverError("phase-1 iteration limit exceeded")
        for k in np.flatnonzero(codes == _kernel.UNBOUNDED):
            out[st.idx[k]] = SolverError("phase-1 reported unbounded (cannot happen)")
        limit = FEASIBILITY_TOL * np.maximum(1.0, np.abs(T[:, :nrow, total]).max(axis=1))
        infeasible = (codes == _kernel.OPTIMAL) & (-T[:, nrow, total] > limit)
        for k in np.flatnonzero(infeasible):
            out[st.idx[k]] = _unsolved("infeasible", st.nvar, st.iters[k])
        feasible = (codes == _kernel.OPTIMAL) & ~infeasible
        st = st.select(feasible, T[feasible], basis[feasible])
        T, basis = st.T, st.basis

    # Drive leftover artificials out of the basis, row by row; rows that
    # offer no pivot are redundant and get dropped.
    drop = np.zeros(basis.shape, dtype=bool)
    for i in np.flatnonzero((basis >= art_start).any(axis=0)):
        art = basis[:, i] >= art_start
        seg = np.abs(T[:, i, :art_start])
        j = seg.argmax(axis=1)
        move = art & (seg[np.arange(len(basis)), j] > OPTIMALITY_TOL)
        drop[:, i] = art & ~move
        if move.any():
            Tm, bm = T[move], basis[move]
            _kernel.pivot(Tm, bm, np.full(len(Tm), i), j[move])
            T[move], basis[move] = Tm, bm
            st.iters[move] += 1
    cols = list(range(art_start)) + [total]
    return [st.select(ks, T[ks[:, None, None], np.append(keep, nrow)[:, None], cols], basis[ks[:, None], keep])
            for ks, keep in _split(~drop)]


def _phase2(st: _Stack, c: np.ndarray, out) -> None:
    """Run phase 2 and read out every problem's solution."""
    T, basis, nvar = st.T, st.basis, st.nvar
    nrow = T.shape[1] - 1
    total = T.shape[2] - 1
    C = c[st.idx]

    # Phase 2 objective row: eliminate basic columns.
    b = np.arange(len(C))
    T[:, nrow, :] = 0.0
    # The objective in the solved columns' units, scaled by the power of
    # two of its largest entry, so reduced costs meet the tolerance at
    # the same scale whatever the caller's unit.
    cost = C / st.colscale
    mx = np.abs(cost).max(axis=1, initial=0.0)
    cost /= np.where(mx > 0.0, np.ldexp(1.0, np.frexp(mx)[1] - 1), 1.0)[:, None]
    T[:, nrow, :nvar] = cost + 0.0
    for i in range(nrow):
        cb = T[b, nrow, basis[:, i]][:, None]
        T[:, nrow, :] -= np.where(cb != 0.0, cb * T[:, i, :], 0.0)
    codes, it = _kernel.run(T, basis, total, OPTIMALITY_TOL, _MAXITER)
    st.iters += it
    for k in np.flatnonzero(codes == _kernel.MAXITER):
        out[st.idx[k]] = SolverError("phase-2 iteration limit exceeded")
    for k in np.flatnonzero(codes == _kernel.UNBOUNDED):
        out[st.idx[k]] = _unsolved("unbounded", nvar, st.iters[k])
    ok = np.flatnonzero(codes == _kernel.OPTIMAL)
    if not ok.size:
        return
    T, basis, C, colscale = T[ok], basis[ok], C[ok], st.colscale[ok]
    b = np.arange(len(ok))

    x_std = np.zeros((len(ok), total))
    x_std[b[:, None], basis] = T[:, :nrow, total]
    # basic values can round a hair below zero; clamp the noise so callers
    # see bound-feasible solutions
    negative = x_std.min(axis=1, initial=0.0) < -1e3 * FEASIBILITY_TOL
    np.maximum(x_std, 0.0, out=x_std)
    X = 0.0 + x_std[:, :nvar] / colscale
    values = np.sum(C * X, axis=1)

    # Alternate-optima probe: a nonbasic column with zero reduced cost that
    # admits a positive step (or an optimal ray) spans an optimal face of
    # dimension >= 1.
    # Only the columns where some problem has such a candidate are probed.
    candidate = np.abs(T[:, nrow, :total]) <= OPTIMALITY_TOL
    candidate[b[:, None], basis] = False
    probe = np.flatnonzero(candidate.any(axis=0))
    columns = T[:, :nrow, probe]
    up = columns > OPTIMALITY_TOL
    steps = np.full(columns.shape, np.inf)
    np.divide(T[:, :nrow, total:], columns, out=steps, where=up)
    free = ~up.any(axis=1) | (steps.min(axis=1, initial=np.inf) > FEASIBILITY_TOL)
    degenerate = (candidate[:, probe] & free).any(axis=1)

    for j, k in enumerate(ok):
        if negative[j]:
            out[st.idx[k]] = SolverError("basis produced a significantly negative basic value")
        else:
            out[st.idx[k]] = LpSolution("optimal", float(values[j]), X[j],
                                        degenerate_optimal_face=bool(degenerate[j]),
                                        iterations=int(st.iters[k]))
