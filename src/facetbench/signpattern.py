"""Signed-slack program solved exactly by sign-pattern enumeration.

The program projects a DMU onto the technology generated by a reference
set, allowing each output slack to run negative, with a lexicographic
objective: first make as many slacks as possible nonnegative, then
minimize the mean normalized slack magnitude.  Only the s output slacks
carry binary indicators, so the 2**s sign assignments can be enumerated,
one LP each; this keeps the priority literal instead of weight-encoded
and avoids Big-M conditioning entirely.

Pattern p in [0, 2**s) assigns z_r = (p >> r) & 1; z_r = 1 restricts
slack r to [0, inf), z_r = 0 to (-inf, 0].  The winner has the least key
(-sum(z), gamma, p): most nonnegative slacks, then least gamma, then
lowest pattern index.  Patterns are visited by descending sum(z), then
ascending p, and the visit stops at the first level below a level with a
feasible pattern: the key ranks the level first, so no pattern there can
win, and the winner is the one full enumeration would pick.

Against one positive reference column (a, b), a ray, pattern z is
feasible when lambda has room in [max(0, max_{z_r=1} y_or/b_r),
min(min_i x_oi/a_i, min_{z_r=0} y_or/b_r)].  A pattern with no room even
with each row given the residual phase 1 allows (RAY_MARGIN) gets no LP.

``solve_sign_patterns`` evaluates many points against one reference block
in one LP stack (``lp.solve_lps``): the block's 2**s constraint matrices
are one array indexed by pattern, each point starts at its highest level
that has a pattern left, and only a point whose LPs there all come back
infeasible goes on, in a later stack, to its next level down.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import SolverError
# solve_lp stays bound here for profilers that wrap it by this name.
from .lp import FEASIBILITY_TOL, solve_lp, solve_lps  # noqa: F401

# Phase 1 allows each row a residual of FEASIBILITY_TOL times the largest
# basic value, in units of the row's power-of-two scale, which is at most
# its largest magnitude.  Against a ray the basic values, column-scaled,
# stay below 2 * max(1, lambda_max); twice that covers rounding.
RAY_MARGIN = 4 * FEASIBILITY_TOL


class SignPatternResult(NamedTuple):
    """Lexicographic optimum of the signed-slack program."""

    z: tuple[int, ...]
    slacks: np.ndarray          # signed s_r = s_r_plus - s_r_minus
    s_plus: np.ndarray
    s_minus: np.ndarray
    intensities: np.ndarray     # lambda over the reference columns
    gamma: float                # (1/s) sum (s_r_plus + s_r_minus) / y_ro
    pattern_index: int
    degenerate_optimal_face: bool


def _ray_candidates(x_pts, y_pts, x_r, y_r, Z) -> np.ndarray:
    """(points, patterns) mask of the patterns whose LP against the ray
    (x_r, y_r) phase 1 might call feasible.  NaN keeps a pattern, and
    pattern 0 is always kept, so a point with a non-finite coefficient fails."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        tol = RAY_MARGIN * np.maximum(1.0, np.min(x_pts / x_r, axis=1))[:, None]
        cap = np.min((x_pts + tol * np.maximum(np.abs(x_pts), x_r)) / x_r, axis=1)
        pad = tol * np.maximum(np.maximum(y_pts, y_r), 1.0)
        lo = np.max(np.where(Z, ((y_pts - pad) / y_r)[:, None, :], 0.0), axis=2)
        hi = np.min(np.where(Z, np.inf, ((y_pts + pad) / y_r)[:, None, :]), axis=2)
        keep = ~(lo > np.minimum(hi, cap[:, None]))
    keep[:, 0] = True
    return keep


def solve_sign_patterns(
    xs: np.ndarray,
    ys: np.ndarray,
    X_ref: np.ndarray,
    Y_ref: np.ndarray,
) -> list[SignPatternResult | SolverError]:
    """Solve the signed-slack program for every evaluated point (the
    columns of xs, m x B, and ys, s x B) against one reference block
    (m x k inputs, s x k outputs).  Each entry is the point's result or
    the SolverError its own solve would raise."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    m, s = xs.shape[0], ys.shape[0]
    X_ref = np.asarray(X_ref, dtype=float).reshape(m, -1)
    Y_ref = np.asarray(Y_ref, dtype=float).reshape(s, -1)
    k = X_ref.shape[1]
    x_pts, y_pts = np.ascontiguousarray(xs.T), np.ascontiguousarray(ys.T)
    out: list[SignPatternResult | SolverError | None] = [None] * xs.shape[1]
    for j, y_o in enumerate(y_pts):
        if k == 0:
            out[j] = SolverError("empty reference set")
        elif np.any(y_o <= 0):
            out[j] = SolverError("evaluated DMU must have strictly positive outputs")
    live = [j for j in range(len(out)) if out[j] is None]

    zs = [tuple((p >> r) & 1 for r in range(s)) for p in range(1 << s)]
    Z = np.array(zs, dtype=bool).reshape(-1, s)
    level, sigmas = Z.sum(axis=1), np.where(Z, 1.0, -1.0)
    # Pattern p's constraint matrix; variables are lambda (k), then t = |s_r| (s).
    mats = np.zeros((len(zs), m + s, k + s))
    mats[:, :m, :k] = X_ref
    mats[:, m:, :k] = Y_ref
    mats[:, m + np.arange(s), k + np.arange(s)] = -sigmas
    rels = ("<=",) * m + ("=",) * s
    left = np.ones((len(live), len(zs)), dtype=bool)
    if k == 1 and np.all(X_ref > 0) and np.all(Y_ref > 0):
        left = _ray_candidates(x_pts[live], y_pts[live], X_ref[:, 0], Y_ref[:, 0], Z)
    todo = dict(zip(live, left))            # point -> patterns not yet visited

    while todo:
        pts, pats = [], []
        for j, pending in todo.items():
            if not pending.any():
                out[j] = SolverError("all sign patterns infeasible: empty reference technology "
                                     "(cannot happen for a nonempty reference set)")
                continue
            ps = np.flatnonzero(pending & (level == level[pending].max()))
            pending[ps] = False
            pts += [j] * len(ps)
            pats += list(ps)
        pts, pats = np.array(pts, dtype=int), np.array(pats, dtype=int)
        c = np.hstack([np.zeros((len(pts), k)), 1.0 / (s * y_pts[pts])])
        sols = solve_lps(c, mats[pats], rels, np.hstack([x_pts[pts], y_pts[pts]]))
        best = {}
        for j, p, sol in zip(pts, pats, sols):
            if out[j] is not None:
                continue
            if isinstance(sol, SolverError):
                out[j] = sol
            elif sol.status == "unbounded":
                out[j] = SolverError("signed-slack pattern LP unbounded (inputs cannot be positive)")
            elif sol.status == "optimal":
                gamma = float(np.sum(sol.x[k:] / y_pts[j])) / s
                if j not in best or (gamma, p) < best[j][:2]:
                    best[j] = (gamma, int(p), sol)
        for j, (gamma, p, sol) in best.items():
            if out[j] is not None:
                continue
            sigma, t = sigmas[p], sol.x[k:]
            out[j] = SignPatternResult(
                z=zs[p],
                slacks=sigma * t,
                s_plus=np.where(sigma > 0, t, 0.0),
                s_minus=np.where(sigma < 0, t, 0.0),
                intensities=sol.x[:k],
                gamma=gamma,
                pattern_index=p,
                degenerate_optimal_face=sol.degenerate_optimal_face,
            )
        todo = {j: pending for j, pending in todo.items() if out[j] is None}
    return out


def solve_sign_pattern(
    x_o: np.ndarray,
    y_o: np.ndarray,
    X_ref: np.ndarray,
    Y_ref: np.ndarray,
) -> SignPatternResult:
    """Solve the signed-slack program for DMU (x_o, y_o) against a
    reference block (m x k inputs, s x k outputs)."""
    x_o = np.asarray(x_o, dtype=float)
    y_o = np.asarray(y_o, dtype=float)
    res = solve_sign_patterns(x_o.reshape(-1, 1), y_o.reshape(-1, 1), X_ref, Y_ref)[0]
    if isinstance(res, SolverError):
        raise res
    return res
