import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

import facetbench as fb
from facetbench.errors import SolverError


def simple(sense, c, A, rels, b):
    return fb.solve_lp(fb.LpProblem(sense, np.asarray(c, float), np.asarray(A, float), tuple(rels), np.asarray(b, float)))


def test_min_with_lower_row():
    sol = simple("min", [1.0], [[1.0]], [">="], [1.0])
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(1.0, abs=1e-12)


def test_unbounded():
    sol = simple("max", [1.0], [[1.0]], [">="], [0.0])
    assert sol.status == "unbounded"


def test_infeasible():
    sol = simple("min", [0.0], [[1.0]], ["<="], [-1.0])
    assert sol.status == "infeasible"


def test_equality_and_max():
    # max x + y s.t. x + y = 2, x <= 1.5
    sol = simple("max", [1.0, 1.0], [[1.0, 1.0], [1.0, 0.0]], ["=", "<="], [2.0, 1.5])
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(2.0, abs=1e-9)


def test_solution_satisfies_constraints():
    rng = np.random.default_rng(5)
    A = rng.uniform(0.1, 2.0, size=(4, 6))
    b = rng.uniform(1.0, 5.0, size=4)
    c = rng.uniform(-1.0, 1.0, size=6)
    p = fb.LpProblem("min", c, A, ("<=", "<=", ">=", "="), b)
    sol = fb.solve_lp(p)
    if sol.status == "optimal":
        lhs = A @ sol.x
        assert lhs[0] <= b[0] + 1e-9 and lhs[1] <= b[1] + 1e-9
        assert lhs[2] >= b[2] - 1e-9
        assert lhs[3] == pytest.approx(b[3], abs=1e-9)
        assert sol.value == pytest.approx(float(c @ sol.x), rel=1e-9)


def test_dimension_mismatch_raises():
    with pytest.raises(SolverError):
        fb.LpProblem("min", np.ones(2), np.ones((1, 3)), ("<=",), np.ones(1))


def test_non_finite_raises():
    with pytest.raises(SolverError, match="non-finite coefficient in objective"):
        fb.solve_lp(fb.LpProblem("min", np.array([np.nan]), np.ones((1, 1)), ("<=",), np.ones(1)))


def test_determinism_bit_identical():
    # feasible by construction (x = 0) and bounded below on the box
    rng = np.random.default_rng(11)
    A = rng.uniform(0.1, 2.0, size=(5, 7))
    b = rng.uniform(0.5, 4.0, size=5)
    c = rng.uniform(-1.0, 1.0, size=7)
    rels = ("<=",) * 5
    s1 = fb.solve_lp(fb.LpProblem("min", c, A, rels, b))
    s2 = fb.solve_lp(fb.LpProblem("min", c, A, rels, b))
    assert s1.status == "optimal" == s2.status
    assert s1.value == s2.value  # bitwise
    assert np.array_equal(s1.x, s2.x)
    assert s1.iterations == s2.iterations


def test_alternate_optima_flag():
    # min x + y s.t. x + y >= 1: the whole segment is optimal
    sol = simple("min", [1.0, 1.0], [[1.0, 1.0]], [">="], [1.0])
    assert sol.status == "optimal"
    assert sol.degenerate_optimal_face
    # unique optimum: min x + 2y on the same row
    sol = simple("min", [1.0, 2.0], [[1.0, 1.0]], [">="], [1.0])
    assert sol.status == "optimal"
    assert not sol.degenerate_optimal_face


@st.composite
def lp_instances(draw):
    # Coefficients stay away from the solver tolerances (either exactly
    # zero or at least 1e-3 in magnitude) so that this solver and the
    # scipy reference cannot disagree on borderline reduced costs.
    nv = draw(st.integers(2, 6))
    nr = draw(st.integers(1, 5))
    fin = st.one_of(
        st.just(0.0),
        st.floats(0.001, 5.0, allow_nan=False),
        st.floats(-5.0, -0.001, allow_nan=False),
    )
    A = [[draw(fin) for _ in range(nv)] for _ in range(nr)]
    b = [abs(draw(fin)) for _ in range(nr)]
    c = [draw(fin) for _ in range(nv)]
    rels = [draw(st.sampled_from(["<=", ">=", "="])) for _ in range(nr)]
    return np.array(c), np.array(A), tuple(rels), np.array(b)


# HiGHS with presolve off stops with status 4 (numerical difficulties) on
# this degenerate unbounded LP; with presolve on it reports unbounded.
DEGENERATE_UNBOUNDED = (
    np.array([0.0, 0.0, 0.0, -1.0, 0.0]),
    np.array([
        [0.0, 0.0, -1.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -2.0, 0.0],
    ]),
    ("<=",) * 5,
    np.array([0.0, 0.0, 0.0, 0.0, 1.0]),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(lp_instances())
@example(DEGENERATE_UNBOUNDED)
def test_agrees_with_scipy(instance):
    c, A, rels, b = instance
    mine = fb.solve_lp(fb.LpProblem("min", c, A, rels, b))
    A_ub = A[[i for i, r in enumerate(rels) if r == "<="]]
    b_ub = b[[i for i, r in enumerate(rels) if r == "<="]]
    A_ge = A[[i for i, r in enumerate(rels) if r == ">="]]
    b_ge = b[[i for i, r in enumerate(rels) if r == ">="]]
    A_eq = A[[i for i, r in enumerate(rels) if r == "="]]
    b_eq = b[[i for i, r in enumerate(rels) if r == "="]]
    ub = np.vstack([A_ub, -A_ge]) if len(A_ub) + len(A_ge) else None
    ubb = np.concatenate([b_ub, -b_ge]) if ub is not None else None

    def reference(presolve):
        return linprog(
            c, A_ub=ub, b_ub=ubb, A_eq=A_eq if len(A_eq) else None,
            b_eq=b_eq if len(b_eq) else None, bounds=(0, None), method="highs",
            options={"presolve": presolve},
        )

    # presolve off: HiGHS presolve labels some feasible-but-unbounded
    # instances plain "infeasible"; where presolve off stops on numerical
    # difficulties (status 4), presolve on decides
    ref = reference(False)
    if ref.status == 4:
        ref = reference(True)
    status_map = {0: "optimal", 2: "infeasible", 3: "unbounded"}
    assert mine.status == status_map.get(ref.status, f"scipy-{ref.status}")
    if mine.status == "optimal":
        assert mine.value == pytest.approx(ref.fun, rel=1e-7, abs=1e-7)


def test_redundant_equality_rows():
    # duplicated equality: phase 1 must drop the redundant row instead of
    # leaving a basic artificial behind
    sol = simple("min", [1.0, 0.0], [[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]], ["=", "=", "="], [1.0, 1.0, 2.0])
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(0.0, abs=1e-12)
    assert sol.x[0] + sol.x[1] == pytest.approx(1.0, abs=1e-12)


def test_degenerate_ties_terminate():
    # many zero-rhs rows force degenerate pivots; Bland's rule must not cycle
    A = [[1.0, -1.0], [1.0, -2.0], [2.0, -1.0], [1.0, 1.0]]
    sol = simple("min", [-1.0, -1.0], A, ["<="] * 4, [0.0, 0.0, 0.0, 4.0])
    assert sol.status == "optimal"
    assert sol.value == pytest.approx(-4.0, abs=1e-9)


def test_zero_row_consistency():
    # a 0=0 row is dropped; a 0=1 row is infeasible outright
    sol = simple("min", [1.0], [[0.0]], ["="], [0.0])
    assert sol.status == "optimal"
    sol = simple("min", [1.0], [[0.0]], ["="], [1.0])
    assert sol.status == "infeasible"


def test_seeded_stress_against_scipy():
    # broader seeded sweep: mixed relations, zero-heavy rows; statuses and
    # optimal values must match the reference solver
    rng = np.random.default_rng(777)
    status_map = {0: "optimal", 2: "infeasible", 3: "unbounded"}
    for _ in range(400):
        nv = int(rng.integers(2, 15))
        nr = int(rng.integers(1, 11))
        A = np.round(rng.uniform(-3, 3, size=(nr, nv)), 3)
        A[rng.random(A.shape) < 0.3] = 0.0
        b = np.round(rng.uniform(0, 6, size=nr), 3)
        c = np.round(rng.uniform(-2, 2, size=nv), 3)
        rels = tuple(str(rng.choice(["<=", ">=", "="], p=[0.6, 0.25, 0.15])) for _ in range(nr))
        mine = fb.solve_lp(fb.LpProblem("min", c, A, rels, b))
        sel = lambda r: [i for i, x in enumerate(rels) if x == r]
        ub_rows, ge_rows, eq_rows = sel("<="), sel(">="), sel("=")
        A_ub = np.vstack([A[ub_rows], -A[ge_rows]]) if ub_rows or ge_rows else None
        b_ub = np.concatenate([b[ub_rows], -b[ge_rows]]) if A_ub is not None else None
        ref = linprog(
            c, A_ub=A_ub, b_ub=b_ub,
            A_eq=A[eq_rows] if eq_rows else None, b_eq=b[eq_rows] if eq_rows else None,
            bounds=(0, None), method="highs", options={"presolve": False},
        )
        assert mine.status == status_map.get(ref.status, f"scipy-{ref.status}")
        if mine.status == "optimal":
            assert mine.value == pytest.approx(ref.fun, rel=1e-6, abs=1e-6)


def _digest_instances(count):
    """Seeded bound-free LPs: mixed relations and senses, zero rows,
    signed zeros, negative rhs and rows spread over many binary scales."""
    rng = np.random.default_rng(20251017)
    for _ in range(count):
        nv = int(rng.integers(1, 12))
        nr = int(rng.integers(0, 10))
        A = np.round(rng.uniform(-1, 3, size=(nr, nv)), 2)
        A[rng.random(A.shape) < 0.25] = 0.0
        A[rng.random(A.shape) < 0.1] = -0.0
        if nr and rng.random() < 0.2:
            A[int(rng.integers(0, nr))] = rng.choice([0.0, -0.0])
        b = np.round(rng.uniform(-1, 6, size=nr), 2)
        b[rng.random(nr) < 0.15] = rng.choice([0.0, -0.0])
        row_scale = 10.0 ** rng.integers(-3, 4, size=nr)
        A *= row_scale[:, None]
        b *= row_scale
        c = np.round(rng.uniform(-2, 2, size=nv), 2)
        c[rng.random(nv) < 0.2] = -0.0
        rels = tuple(str(r) for r in rng.choice(["<=", ">=", "="], size=nr, p=[0.6, 0.25, 0.15]))
        if rng.random() < 0.6:
            # a budget row keeps most instances bounded
            A = np.vstack([A, np.ones(nv)])
            b = np.append(b, float(rng.integers(1, 20)))
            rels += ("<=",)
        sense = "min" if rng.random() < 0.5 else "max"
        yield fb.LpProblem(sense, c, A, rels, b)


# SHA-256 over the solver outputs of _digest_instances(2000).  A change to the solver that moves any status, pivot count,
# degenerate flag, bit of x or repr of the value changes this digest.
LP_DIGEST = "08f080c4e7a8643be3512912149ee0a4b38bd7b1977636753a38798f66ba8a79"


def test_seeded_outputs_bit_reproducible():
    h = hashlib.sha256()
    for problem in _digest_instances(2000):
        try:
            sol = fb.solve_lp(problem)
        except SolverError as exc:
            h.update(f"error:{exc}".encode())
            continue
        h.update(f"{sol.status}|{sol.iterations}|{sol.degenerate_optimal_face}|{sol.value!r}|".encode())
        h.update(sol.x.tobytes())
    assert h.hexdigest() == LP_DIGEST
