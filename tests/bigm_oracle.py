"""Independent oracle for the signed-slack program: the literal Big-M
mixed-integer formulation solved by HiGHS branch-and-bound (scipy).

Variables, in order: lambda (k), s_plus (s), s_minus (s), s (s, free
within [-M, M]), z (s, binary).  Objective W * sum(1 - z) + mean
normalized |slack| encoded as W*s - W*sum(z) + sum((s_plus + s_minus) /
(s * y_o)).  W is the oracle's ``W`` (the package applies the priority
literally and has no weight); M is ``BIG_M_SCALE`` times the largest
output value of the active data.  Deliberately a different
formulation, search method, and LP engine from the package's sign-pattern
enumeration.

The MIP is solved to a zero relative gap, and the oracle certifies what it
returns: it raises unless the proven absolute gap is at most ``GAP_TOL``
and every slack's sign agrees with its binary ``z_r``.  The W-weighted
sum(z) term dwarfs gamma, so any relative gap hides gamma errors.
"""

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix

W = 10_000.0     # priority weight: one more nonnegative slack outweighs any gamma
BIG_M_SCALE = 10.0
GAP_TOL = 1e-9   # proven |primal - dual bound|, so also the bound on gamma's error
SIGN_TOL = 1e-9  # largest slack allowed on the wrong side of its z_r


def solve_bigm(x_o, y_o, X_ref, Y_ref):
    """Returns (z, gamma, theta) of the certified Big-M optimum."""
    x_o = np.asarray(x_o, float)
    y_o = np.asarray(y_o, float)
    X_ref = np.asarray(X_ref, float)
    Y_ref = np.asarray(Y_ref, float)
    m, k = X_ref.shape
    s = Y_ref.shape[0]
    M = BIG_M_SCALE * max(float(Y_ref.max()), float(y_o.max()))

    nvar = k + 3 * s + s  # lambda, s+, s-, s, z
    iL, iP, iN, iS, iZ = 0, k, k + s, k + 2 * s, k + 3 * s
    c = np.zeros(nvar)
    c[iP:iN] = 1.0 / (s * y_o)
    c[iN:iS] = 1.0 / (s * y_o)
    c[iZ:] = -W  # W * sum(1 - z) = const - W * sum(z)

    rows, lo, hi = [], [], []

    def add(coefs, lb, ub):
        row = np.zeros(nvar)
        for idx, val in coefs:
            row[idx] = val
        rows.append(row)
        lo.append(lb)
        hi.append(ub)

    for i in range(m):  # inputs: X lambda <= x_o
        add([(iL + j, X_ref[i, j]) for j in range(k)], -np.inf, x_o[i])
    for r in range(s):  # outputs: Y lambda - s+ + s- = y_o
        add([(iL + j, Y_ref[r, j]) for j in range(k)] + [(iP + r, -1.0), (iN + r, 1.0)], y_o[r], y_o[r])
    for r in range(s):  # s+ - s- - s = 0
        add([(iP + r, 1.0), (iN + r, -1.0), (iS + r, -1.0)], 0.0, 0.0)
    for r in range(s):  # s >= -M(1 - z)  <=>  s - M z >= -M
        add([(iS + r, 1.0), (iZ + r, -M)], -M, np.inf)
    for r in range(s):  # s <= M z
        add([(iS + r, 1.0), (iZ + r, -M)], -np.inf, 0.0)

    A = csr_matrix(np.vstack(rows))
    constraints = LinearConstraint(A, np.array(lo), np.array(hi))
    integrality = np.zeros(nvar)
    integrality[iZ:] = 1
    lower = np.zeros(nvar)
    lower[iS:iZ] = -M
    upper = np.full(nvar, np.inf)
    upper[iS:iZ] = M
    upper[iZ:] = 1
    res = milp(
        c=c,
        constraints=constraints,
        integrality=integrality,
        bounds=Bounds(lower, upper),
        options={"mip_rel_gap": 0.0},
    )
    if not res.success:
        raise RuntimeError(f"Big-M oracle failed: {res.message}")
    gap = res.fun - res.mip_dual_bound
    if not gap <= GAP_TOL:
        raise RuntimeError(f"Big-M oracle not proven optimal: gap {gap:.3g} > {GAP_TOL:g}")
    z = np.round(res.x[iZ:]).astype(int)
    slack = res.x[iS:iZ]
    wrong_side = np.where(z == 1, -slack, slack)
    if wrong_side.max() > SIGN_TOL:
        raise RuntimeError(f"Big-M oracle slack {slack} disagrees with z {z.tolist()}")
    splus = res.x[iP:iN]
    sminus = res.x[iN:iS]
    gamma = float(np.sum((splus + sminus) / y_o)) / s
    return tuple(z.tolist()), gamma, 1.0 / (1.0 + gamma)
