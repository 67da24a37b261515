"""NumPy simplex pivot kernel, the solver's only one.

Bland's entering rule (lowest eligible column) and a minimum-ratio test
that breaks exact ties by lowest basis index, so identical tableaus trace
identical sequences of bases.

The kernel works on a stack of B same-shape tableaus that advance in
lockstep: pass k of the loop makes the k-th pivot of every problem still
running.  Problems share no arithmetic.  Each one sees exactly the
elementwise operations (one division, one product and one subtraction per
entry) that it would see alone, and the reductions (any, argmax, min,
argmin) are exact, so a problem's pivot sequence and every bit of its
tableau do not depend on which problems share its stack.  A problem that
finishes is written back and compacted out of the working stack.

Tableau layout: rows 0..m-1 are constraints, row m is the objective
(minimization, reduced-cost form); the last column is the right-hand side.
Arrays are (B, m+1, n+1) tableaus and (B, m) bases.
"""

from __future__ import annotations

import numpy as np

OPTIMAL = 0
UNBOUNDED = 1
MAXITER = 2

_NO_ROW = np.iinfo(np.int64).max


def pivot(T: np.ndarray, basis: np.ndarray, row: np.ndarray, col: np.ndarray) -> None:
    """Exchange basis[b, row[b]] for col[b] with a full tableau update of
    every problem b in the stack, in place."""
    b = np.arange(T.shape[0])
    piv = T[b, row, col]
    T[b, row, :] /= piv[:, None]
    T[b, row, col] = 1.0
    factors = T[b, :, col]
    factors[b, row] = 0.0
    T -= factors[:, :, None] * T[b, row, :][:, None, :]
    T[b, :, col] = 0.0
    T[b, row, col] = 1.0
    basis[b, row] = col


def run(T: np.ndarray, basis: np.ndarray, enter_limit: int, tol: float,
        maxiter: int) -> tuple[np.ndarray, np.ndarray]:
    """Iterate Bland pivots on every problem of the stack until it is
    optimal or unbounded.

    Columns at index >= enter_limit never enter (used to fence off
    artificial columns in phase 1).  Returns per-problem (status code,
    pivot count) arrays.
    """
    nrows = T.shape[1] - 1
    rhs = T.shape[2] - 1
    codes = np.full(T.shape[0], MAXITER)
    iters = np.full(T.shape[0], maxiter)
    live = np.arange(T.shape[0])
    W, Wb = T, basis
    it = 0
    while live.size and it < maxiter:
        eligible = W[:, nrows, :enter_limit] < -tol
        enters = eligible.any(axis=1)
        col = eligible.argmax(axis=1)
        column = W[np.arange(live.size), :nrows, col]
        mask = column > tol
        done = ~(enters & mask.any(axis=1))
        if done.any():
            finished = live[done]
            codes[finished] = np.where(enters[done], UNBOUNDED, OPTIMAL)
            iters[finished] = it
            if W is not T:
                T[finished] = W[done]
                basis[finished] = Wb[done]
            go = ~done
            live, W, Wb = live[go], W[go], Wb[go]
            col, column, mask = col[go], column[go], mask[go]
            if not live.size:
                break
        ratios = np.full(mask.shape, np.inf)
        np.divide(W[:, :nrows, rhs], column, out=ratios, where=mask)
        ties = ratios == ratios.min(axis=1)[:, None]
        row = np.where(ties, Wb, _NO_ROW).argmin(axis=1)
        pivot(W, Wb, row, col)
        it += 1
    if live.size and W is not T:
        T[live] = W
        basis[live] = Wb
    return codes, iters
