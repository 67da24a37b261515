from fractions import Fraction

import numpy as np
import pytest

import facetbench as fb
from facetbench.facets import basic_solutions
from facetbench.lp import FEASIBILITY_TOL, solve_lp

from bigm_oracle import solve_bigm
from exhaustive_oracle import pattern_problem
from test_pruning import random_reference


def one_d_grid_oracle(x_o, y_o, x_ref, y_ref, sigma, steps=200_001):
    """Independent check for single-reference instances: brute-force the
    best feasible lambda on a dense grid, then refine around it."""
    lam_hi = min(float(xi) / float(xr) for xi, xr in zip(x_o, x_ref))
    s = len(y_o)

    def feasible(lam):
        sl = lam * y_ref - y_o
        return all(sl[r] >= -1e-12 if sigma[r] > 0 else sl[r] <= 1e-12 for r in range(s))

    def gamma(lam):
        return float(np.sum(np.abs(lam * y_ref - y_o) / y_o)) / s

    grid = np.linspace(0.0, lam_hi, steps)
    cands = [lam for lam in grid if feasible(lam)]
    if not cands:
        return None
    best = min(cands, key=gamma)
    lo = max(0.0, best - (grid[1] - grid[0]))
    hi = min(lam_hi, best + (grid[1] - grid[0]))
    fine = np.linspace(lo, hi, 10_001)
    cands = [lam for lam in fine if feasible(lam)]
    best = min(cands, key=gamma)
    return best, gamma(best)


def test_pku_against_whu(uni985):
    o = uni985.index("PKU")
    w = uni985.index("WHU")
    res = fb.solve_sign_pattern(
        uni985.inputs[:, o], uni985.outputs[:, o],
        uni985.inputs[:, [w]], uni985.outputs[:, [w]],
    )
    assert res.z == (1, 0, 0)
    assert res.slacks == pytest.approx([0.0, -24.2421, -3107.3474], abs=1e-3)
    # closed form: the distance term grows in lambda, so the optimum sits
    # at the smallest lambda with nonnegative first slack, 54/95
    lam_expected = Fraction(54, 95)
    assert res.intensities[0] == pytest.approx(float(lam_expected), abs=1e-10)
    assert res.slacks[1] == pytest.approx(33 * 54 / 95 - 43, abs=1e-9)
    assert res.slacks[2] == pytest.approx(4058 * 54 / 95 - 5414, abs=1e-9)


def test_pku_whu_grid_oracle(uni985):
    o = uni985.index("PKU")
    w = uni985.index("WHU")
    res = fb.solve_sign_pattern(
        uni985.inputs[:, o], uni985.outputs[:, o],
        uni985.inputs[:, [w]], uni985.outputs[:, [w]],
    )
    lam, gamma = one_d_grid_oracle(
        uni985.inputs[:, o], uni985.outputs[:, o],
        uni985.inputs[:, w], uni985.outputs[:, w],
        sigma=[1, -1, -1],
    )
    assert res.intensities[0] == pytest.approx(lam, abs=1e-4)
    assert res.gamma == pytest.approx(gamma, abs=1e-6)


def test_dominated_dmu_all_ones(toy_a):
    # a DMU strictly below a scaled reference in every output: all slacks
    # can be nonnegative, so the all-ones pattern wins
    x_o = np.array([1.0])
    y_o = np.array([10.0, 10.0, 10.0])
    c = toy_a.index("C")
    res = fb.solve_sign_pattern(x_o, y_o, toy_a.inputs[:, [c]], toy_a.outputs[:, [c]])
    assert res.z == (1, 1, 1)
    assert np.all(res.slacks >= 0)


def test_complementarity_and_reconstruction(uni985, uni_partition):
    rng = np.random.default_rng(17)
    groups = [g.members for g in uni_partition.groups]
    for o in rng.choice(uni985.n, size=8, replace=False):
        for members in groups:
            res = fb.solve_sign_pattern(
                uni985.inputs[:, o], uni985.outputs[:, o],
                uni985.inputs[:, list(members)], uni985.outputs[:, list(members)],
            )
            assert np.all(res.s_plus * res.s_minus == 0.0)
            assert np.allclose(res.slacks, res.s_plus - res.s_minus)
            y_o = uni985.outputs[:, o]
            recon = uni985.outputs[:, list(members)] @ res.intensities
            assert np.allclose(recon, y_o + res.slacks, atol=1e-9 * max(1, y_o.max()))
            used = uni985.inputs[:, list(members)] @ res.intensities
            assert np.all(used <= uni985.inputs[:, o] * (1 + 1e-12) + 1e-9)


def test_agrees_with_bigm_oracle_random():
    rng = np.random.default_rng(99)
    for i in range(8):
        n = int(rng.integers(2, 6))
        X = rng.uniform(1.0, 100.0, size=(2, n))
        Y = rng.uniform(1.0, 100.0, size=(2, n))  # 2 outputs
        x_o = rng.uniform(1.0, 100.0, size=2)
        y_o = rng.uniform(1.0, 100.0, size=2)
        k = int(rng.integers(1, n + 1))
        cols = sorted(rng.choice(n, size=k, replace=False).tolist())
        mine = fb.solve_sign_pattern(x_o, y_o, X[:, cols], Y[:, cols])
        z_ref, gamma_ref, theta_ref = solve_bigm(x_o, y_o, X[:, cols], Y[:, cols])
        detail = f"instance {i}: gamma {mine.gamma!r} vs oracle {gamma_ref!r}, z {mine.z} vs oracle {z_ref}"
        assert sum(mine.z) == sum(z_ref), detail
        assert 1.0 / (1.0 + mine.gamma) == pytest.approx(theta_ref, abs=1e-7), detail


def test_zero_pattern_always_feasible(uni985):
    # lambda = 0 with fully negative slacks is feasible for any instance,
    # so the solve can never report an empty technology
    o, w = uni985.index("JLU"), uni985.index("CUN")
    res = fb.solve_sign_pattern(
        uni985.inputs[:, o], uni985.outputs[:, o],
        uni985.inputs[:, [w]], uni985.outputs[:, [w]],
    )
    assert res is not None
    assert 0.0 < 1.0 / (1.0 + res.gamma) <= 1.0


def phase1_against_basis_enumeration(x_o, y_o, X_ref, Y_ref, detail):
    """Assert that phase 1 calls each pattern system feasible exactly when
    its equality form, input slacks added, has a basic feasible solution;
    return how many of the systems are feasible."""
    m, s = x_o.size, y_o.size
    feasible = 0
    for p in range(1 << s):
        sigma = np.array([1.0 if (p >> r) & 1 else -1.0 for r in range(s)])
        problem = pattern_problem(x_o, y_o, X_ref, Y_ref, sigma)
        equality = np.hstack([problem.A, np.vstack([np.eye(m), np.zeros((s, m))])])
        has_basis = next(basic_solutions(equality, problem.b, FEASIBILITY_TOL), None) is not None
        assert (solve_lp(problem).status != "infeasible") == has_basis, (detail, p)
        feasible += has_basis
    return feasible


@pytest.mark.parametrize("scope, systems", [("extremes", 608), ("all", 304)])
def test_phase1_agrees_with_basis_enumeration_985(uni985, uni_extremes, scope, systems):
    # every pattern LP of every DMU and robust group
    ds = uni985
    part = fb.partition_robust(fb.enumerate_facets(ds, uni_extremes.indices, scope))
    checked = feasible = 0
    for g in part.groups:
        X_ref, Y_ref = ds.inputs[:, list(g.members)], ds.outputs[:, list(g.members)]
        for o in range(ds.n):
            feasible += phase1_against_basis_enumeration(
                ds.inputs[:, o], ds.outputs[:, o], X_ref, Y_ref, (scope, g.index, ds.names[o]))
            checked += 1 << ds.s
    assert checked == systems
    assert 0 < feasible < checked


def test_phase1_agrees_with_basis_enumeration_seeded():
    # the seeded instances of the bound-ordered pruning tests; all 150 give
    # 1,732 systems (463 feasible) and agree too, in about 15 s
    rng = np.random.default_rng(2007)
    checked = feasible = 0
    for i in range(30):
        x_o, y_o, X_ref, Y_ref = random_reference(rng, integer=i % 3 == 0)
        feasible += phase1_against_basis_enumeration(x_o, y_o, X_ref, Y_ref, f"instance {i}")
        checked += 1 << y_o.size
    assert (checked, feasible) == (364, 104)
