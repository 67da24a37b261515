"""NumPy simplex pivot kernel, the solver's only one.

Bland's entering rule (lowest eligible column) and a minimum-ratio test
that breaks exact ties by lowest basis index, so identical tableaus trace
identical sequences of bases.

Tableau layout: rows 0..m-1 are constraints, row m is the objective
(minimization, reduced-cost form); the last column is the right-hand side.
"""

from __future__ import annotations

import numpy as np

OPTIMAL = 0
UNBOUNDED = 1
MAXITER = 2


def pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Exchange basis[row] for col with a full tableau update in place."""
    piv = T[row, col]
    T[row, :] /= piv
    T[row, col] = 1.0
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= factors[:, None] * T[row, None, :]
    T[:, col] = 0.0
    T[row, col] = 1.0
    basis[row] = col


def run(T: np.ndarray, basis: np.ndarray, enter_limit: int, tol: float, maxiter: int) -> tuple[int, int]:
    """Iterate Bland pivots until optimal or unbounded.

    Columns at index >= enter_limit never enter (used to fence off
    artificial columns in phase 1).  Returns (status code, pivot count).
    """
    nrows = T.shape[0] - 1
    rhs = T.shape[1] - 1
    obj = T[nrows]
    iters = 0
    while iters < maxiter:
        eligible = np.nonzero(obj[:enter_limit] < -tol)[0]
        if eligible.size == 0:
            return OPTIMAL, iters
        col = int(eligible[0])
        column = T[:nrows, col]
        mask = column > tol
        if not mask.any():
            return UNBOUNDED, iters
        ratios = np.full(nrows, np.inf)
        ratios[mask] = T[:nrows, rhs][mask] / column[mask]
        best = ratios.min()
        ties = np.nonzero(ratios == best)[0]
        row = int(ties[np.argmin(basis[ties])])
        pivot(T, basis, row, col)
        iters += 1
    return MAXITER, iters
