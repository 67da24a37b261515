"""Deterministic dense LP solver.

Small dense problems only: a two-phase tableau simplex with Bland's rule
(lowest eligible entering column; leaving row by minimum ratio with exact
ties broken by lowest basis index).  The rule is anti-cycling and makes
every solve reproducible bit for bit: identical problem and config produce
identical pivot sequences, hence identical solutions.

Every variable is nonnegative (x >= 0), the only bound the package's
programs use, so the tableau's structural columns are the problem's own.

Constraint rows are equilibrated by powers of two before solving, which
changes no binary value exactly representable in the data and keeps the
stated tolerances meaningful across scales.

The pivot loop itself lives in the NumPy kernel module ``_simplex_py``,
bound here as ``_kernel``; its ``run`` and ``pivot`` are called through
that name so that a profiler can wrap them in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _simplex_py as _kernel
from .errors import SolverError

_MAXITER = 200_000


@dataclass(frozen=True)
class SolverConfig:
    """Numerical policy shared by every program the engine emits.

    priority_weight is the lexicographic weight W of the signed-slack
    program.
    """

    feasibility_tol: float = 1e-9
    optimality_tol: float = 1e-9
    priority_weight: float = 10_000.0

    def __post_init__(self):
        if self.feasibility_tol <= 0 or self.optimality_tol <= 0:
            raise SolverError("tolerances must be positive")


@dataclass
class LpProblem:
    """min/max c@x subject to A x (<=|=|>=) b and x >= 0.

    All coefficients must be finite.
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
        if any(rel not in ("<=", "=", ">=") for rel in self.relations):
            raise SolverError(f"relations must be <=, =, >=: {self.relations}")
        for arr, what in ((self.c, "objective"), (self.A, "matrix"), (self.b, "rhs")):
            if not np.all(np.isfinite(arr)):
                raise SolverError(f"non-finite coefficient in {what}")


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


def solve_lp(problem: LpProblem, cfg: SolverConfig | None = None) -> LpSolution:
    """Solve a dense LP; deterministic given (problem, config)."""
    cfg = cfg or SolverConfig()
    nvar = problem.c.size
    ftol = cfg.feasibility_tol

    # Equilibrate each row (with its rhs) by the power of two that brings
    # its largest magnitude into [1, 2).  Adding 0.0 turns -0.0 into +0.0,
    # so the tableau's zeros do not depend on how the caller built A.
    A = problem.A + 0.0
    mx = np.maximum(np.abs(A).max(axis=1, initial=0.0), np.abs(problem.b))
    scale = np.where(mx > 0.0, np.ldexp(1.0, np.frexp(mx)[1] - 1), 1.0)
    A = A / scale[:, None]
    rhs = problem.b / scale

    # Orient rhs nonnegative and classify rows.
    kept: list[tuple[np.ndarray, str, float]] = []
    for r, rel, beta in zip(A, problem.relations, rhs):
        if not r.any():
            sat = (beta >= -ftol) if rel == "<=" else (beta <= ftol) if rel == ">=" else (abs(beta) <= ftol)
            if not sat:
                return LpSolution("infeasible", math.nan, np.full(nvar, math.nan))
            continue
        if beta < 0.0:
            r = -r
            beta = -beta
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        kept.append((r, rel, beta))

    nrow = len(kept)
    n_slack = sum(1 for _, rel, _ in kept if rel != "=")
    n_art = sum(1 for _, rel, _ in kept if rel != "<=")
    total = nvar + n_slack + n_art
    T = np.zeros((nrow + 1, total + 1))
    basis = np.empty(nrow, dtype=np.int64)
    art_start = nvar + n_slack
    s_at, a_at = nvar, art_start
    art_rows: list[int] = []
    for i, (r, rel, beta) in enumerate(kept):
        T[i, :nvar] = r
        T[i, total] = beta
        if rel == "<=":
            T[i, s_at] = 1.0
            basis[i] = s_at
            s_at += 1
        elif rel == ">=":
            T[i, s_at] = -1.0
            s_at += 1
            T[i, a_at] = 1.0
            basis[i] = a_at
            a_at += 1
            art_rows.append(i)
        else:
            T[i, a_at] = 1.0
            basis[i] = a_at
            a_at += 1
            art_rows.append(i)

    iters = 0
    if n_art:
        # Phase 1: minimize the artificial sum; reduced costs are the
        # negated sums of the artificial-basic rows.
        for i in art_rows:
            T[nrow, :] -= T[i, :]
        T[nrow, art_start:total] = 0.0
        code, it = _kernel.run(T, basis, art_start, cfg.optimality_tol, _MAXITER)
        iters += it
        if code == _kernel.MAXITER:
            raise SolverError("phase-1 iteration limit exceeded")
        if code == _kernel.UNBOUNDED:
            raise SolverError("phase-1 reported unbounded (cannot happen)")
        if -T[nrow, total] > ftol * max(1.0, float(np.max(np.abs(T[:nrow, total]))) if nrow else 1.0):
            return LpSolution("infeasible", math.nan, np.full(nvar, math.nan), iterations=iters)
        # Drive leftover artificials out of the basis; rows that offer no
        # pivot are redundant and get dropped.
        drop_rows: list[int] = []
        for i in range(nrow):
            if basis[i] < art_start:
                continue
            seg = np.abs(T[i, :art_start])
            j = int(np.argmax(seg))
            if seg[j] > cfg.optimality_tol:
                _kernel.pivot(T, basis, i, j)
                iters += 1
            else:
                drop_rows.append(i)
        keep_rows = [i for i in range(nrow) if i not in drop_rows]
        T = np.ascontiguousarray(np.vstack([T[keep_rows, :], T[nrow:, :]])[:, list(range(art_start)) + [total]])
        basis = basis[keep_rows]
        nrow = len(keep_rows)
        total = art_start

    # Phase 2 objective row (minimization form): eliminate basic columns.
    T[nrow, :] = 0.0
    T[nrow, :nvar] = (problem.c if problem.sense == "min" else -problem.c) + 0.0
    for i in range(nrow):
        cb = T[nrow, basis[i]]
        if cb != 0.0:
            T[nrow, :] -= cb * T[i, :]
    T = np.ascontiguousarray(T)
    code, it = _kernel.run(T, basis, total, cfg.optimality_tol, _MAXITER)
    iters += it
    if code == _kernel.MAXITER:
        raise SolverError("phase-2 iteration limit exceeded")
    if code == _kernel.UNBOUNDED:
        return LpSolution("unbounded", math.nan, np.full(nvar, math.nan), iterations=iters)

    x_std = np.zeros(total)
    x_std[basis] = T[:nrow, total]
    # basic values can round a hair below zero; clamp the noise so callers
    # see bound-feasible solutions
    if nrow and float(np.min(x_std)) < -1e3 * ftol:
        raise SolverError("basis produced a significantly negative basic value")
    np.maximum(x_std, 0.0, out=x_std)
    x = 0.0 + x_std[:nvar]
    value = float(np.sum(problem.c * x))

    # Alternate-optima probe: a nonbasic column with zero reduced cost that
    # admits a positive step (or an optimal ray) spans an optimal face of
    # dimension >= 1.
    degenerate = False
    in_basis = np.zeros(total, dtype=bool)
    in_basis[basis] = True
    for j in range(total):
        if in_basis[j] or abs(T[nrow, j]) > cfg.optimality_tol:
            continue
        column = T[:nrow, j]
        mask = column > cfg.optimality_tol
        if not mask.any():
            degenerate = True
            break
        step = float(np.min(T[:nrow, total][mask] / column[mask]))
        if step > ftol:
            degenerate = True
            break

    return LpSolution("optimal", value, x, degenerate_optimal_face=degenerate, iterations=iters)
