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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .lp import LpProblem, LpSolution, SolverConfig, solve_lp


@dataclass(frozen=True)
class SignPatternResult:
    """Lexicographic optimum of the signed-slack program."""

    z: tuple[int, ...]
    slacks: np.ndarray          # signed s_r = s_r_plus - s_r_minus
    s_plus: np.ndarray
    s_minus: np.ndarray
    intensities: np.ndarray     # lambda over the reference columns
    gamma: float                # (1/s) sum (s_r_plus + s_r_minus) / y_ro
    objective: float            # W * sum(1 - z) + gamma, for reporting
    pattern_index: int
    degenerate_optimal_face: bool

    @property
    def z_count(self) -> int:
        return sum(self.z)


def _pattern_lp(x_o, y_o, X_ref, Y_ref, sigma, cfg) -> LpSolution:
    m, k = X_ref.shape
    s = Y_ref.shape[0]
    # variables: lambda (k) then t = |s_r| (s)
    c = np.concatenate([np.zeros(k), 1.0 / (s * y_o)])
    A = np.zeros((m + s, k + s))
    A[:m, :k] = X_ref
    A[m:, :k] = Y_ref
    A[m:, k:] = -np.diag(sigma)
    b = np.concatenate([x_o, y_o])
    rels = ("<=",) * m + ("=",) * s
    return solve_lp(LpProblem("min", c, A, rels, b), cfg)


def solve_sign_pattern(
    x_o: np.ndarray,
    y_o: np.ndarray,
    X_ref: np.ndarray,
    Y_ref: np.ndarray,
    cfg: SolverConfig | None = None,
) -> SignPatternResult:
    """Solve the signed-slack program for DMU (x_o, y_o) against a
    reference block (m x k inputs, s x k outputs)."""
    cfg = cfg or SolverConfig()
    x_o = np.asarray(x_o, dtype=float)
    y_o = np.asarray(y_o, dtype=float)
    X_ref = np.asarray(X_ref, dtype=float).reshape(x_o.size, -1)
    Y_ref = np.asarray(Y_ref, dtype=float).reshape(y_o.size, -1)
    s = y_o.size
    k = X_ref.shape[1]
    if k == 0:
        raise SolverError("empty reference set")
    if np.any(y_o <= 0):
        raise SolverError("evaluated DMU must have strictly positive outputs")
    if cfg.priority_weight <= 1.0 / s:
        raise SolverError(f"priority weight {cfg.priority_weight} must exceed 1/s = {1.0 / s}")

    best_key = None
    best = None
    for p in sorted(range(1 << s), key=lambda p: (-p.bit_count(), p)):
        if best_key is not None and -p.bit_count() > best_key[0]:
            break
        z = tuple((p >> r) & 1 for r in range(s))
        sigma = np.array([1.0 if zr else -1.0 for zr in z])
        sol = _pattern_lp(x_o, y_o, X_ref, Y_ref, sigma, cfg)
        if sol.status == "unbounded":
            raise SolverError("signed-slack pattern LP unbounded (inputs cannot be positive)")
        if sol.status != "optimal":
            continue
        lam = sol.x[:k]
        t = sol.x[k:]
        gamma = float(np.sum(t / y_o)) / s
        key = (-sum(z), gamma, p)
        if best_key is None or key < best_key:
            best_key = key
            best = (z, sigma, lam, t, p, sol.degenerate_optimal_face)
    if best is None:
        raise SolverError(
            "all sign patterns infeasible: empty reference technology "
            "(cannot happen for a nonempty reference set)"
        )
    z, sigma, lam, t, p, degen = best
    slacks = sigma * t
    s_plus = np.where(sigma > 0, t, 0.0)
    s_minus = np.where(sigma < 0, t, 0.0)
    gamma = best_key[1]
    return SignPatternResult(
        z=z,
        slacks=slacks,
        s_plus=s_plus,
        s_minus=s_minus,
        intensities=lam,
        gamma=gamma,
        objective=cfg.priority_weight * (s - sum(z)) + gamma,
        pattern_index=p,
        degenerate_optimal_face=degen,
    )
