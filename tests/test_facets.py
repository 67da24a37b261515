import itertools
import math
from contextlib import contextmanager

import numpy as np
import pytest

import facetbench as fb
from facetbench import facets as facets_module
from facetbench.facets import facet_checks

from facet_oracle import oracle_enumerate_facets, oracle_facet_normal, oracle_facet_set, oracle_residual
from facetbench.profiles import PAPER_985_EXTREMES
from table4 import TABLE3
from test_metamorphic import COLUMNS, _rescaled


def null_space_oracle(rows):
    """Independent 1-D null vector: solve the square system directly by
    pinning one coordinate, instead of the production SVD route."""
    rows = np.asarray(rows, float)
    k, d = rows.shape
    assert d == k + 1
    # fix last coordinate to 1 and solve rows[:, :k] @ v = -rows[:, k]
    sub = rows[:, :k]
    if abs(np.linalg.det(sub)) < 1e-12:
        return None
    v = np.linalg.solve(sub, -rows[:, k])
    n = np.concatenate([v, [1.0]])
    return n / np.linalg.norm(n)


def facet_normal(ds, subset):
    """The unit normal (u, v) that enumeration computes for one subset of
    s+m-1 DMUs, or None when it rules the subset out."""
    ok, u, v = facets_module._normals(ds, np.array([subset]))
    return (u[0], v[0]) if ok[0] else None


def test_toy_normal_abc(toy_a):
    res = facet_normal(toy_a, [0, 1, 2])  # A, B, C
    assert res is not None
    u, v = res
    expected = np.array([6.0, 6.0, 37.0])
    assert np.allclose(u / np.linalg.norm(u), expected / np.linalg.norm(expected), atol=1e-12)
    # cross-check the full (u, -v) direction against the independent oracle
    rows = [[5, 10, 120, 1], [10, 5, 120, 1], [100, 100, 90, 1]]
    n = null_space_oracle(rows)
    mine = np.concatenate([u, -v])
    n = n if n[0] * mine[0] > 0 else -n
    assert np.allclose(mine, n, atol=1e-10)
    # hyperplane value before unit scaling: u@y = 4530 per unit input
    scale = 6.0 / u[0]
    for j in (0, 1, 2):
        assert np.sum(u * scale * toy_a.outputs[:, j]) == pytest.approx(4530.0, abs=1e-8)


def test_toy_normal_cde(toy_a):
    u, v = facet_normal(toy_a, [2, 3, 4])
    expected = np.array([89.0, 89.0, 40.0])
    assert np.allclose(u / np.linalg.norm(u), expected / np.linalg.norm(expected), atol=1e-12)
    scale = 89.0 / u[0]
    for j in (2, 3, 4):
        assert np.sum(u * scale * toy_a.outputs[:, j]) == pytest.approx(21400.0, abs=1e-8)


def test_toy_b_no_normal(toy_b):
    # all rows satisfy y1 = y2: the output block is singular and the only
    # null direction has mixed signs, so no facet normal exists
    assert np.linalg.det(toy_b.outputs) == pytest.approx(0.0, abs=1e-9)
    assert facet_normal(toy_b, [0, 1, 2]) is None


def test_toy_enumeration(toy_a, toy_facets):
    members = [tuple(toy_a.names[j] for j in f.members) for f in toy_facets.facets]
    assert members == [("A", "B", "C"), ("C", "D", "E")]
    assert toy_facets.subsets_examined == 10  # C(5, 3)
    assert toy_facets.warnings == ()


def test_toy_b_enumeration(toy_b):
    ext = fb.extreme_set(toy_b)
    fs = fb.enumerate_facets(toy_b, ext.indices)
    assert len(fs) == 0


def test_facet_invariants(toy_a, toy_facets):
    residuals = facet_checks(toy_a, toy_facets)[0]
    for f in toy_facets.facets:
        assert len(f.members) == toy_a.s + toy_a.m - 1
        n = np.concatenate([f.u, f.v])
        assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-12)
        assert n.min() > 1e-9
        assert residuals[f.id]["span_residual"] <= 1e-7
        assert residuals[f.id]["max_support_residual"] <= 1e-7


def test_enumeration_order_independent(toy_a):
    perm = [3, 5, 0, 2, 4, 1]
    shuffled = fb.Dataset(
        names=tuple(toy_a.names[j] for j in perm),
        inputs=toy_a.inputs[:, perm],
        outputs=toy_a.outputs[:, perm],
    )
    ext = fb.extreme_set(shuffled)
    fs = fb.enumerate_facets(shuffled, ext.indices)
    got = {frozenset(shuffled.names[j] for j in f.members) for f in fs.facets}
    assert got == {frozenset("ABC"), frozenset("CDE")}


def test_facet_contains_f(toy_a, toy_facets):
    f1 = toy_facets.facets[0]
    yF = toy_a.outputs[:, toy_a.index("F")]
    assert fb.facet_contains(f1, toy_a, [1.0], yF)
    # explicit convex combination: F = 0.2 A + 0.2 B + 0.6 C
    comb = 0.2 * toy_a.outputs[:, 0] + 0.2 * toy_a.outputs[:, 1] + 0.6 * toy_a.outputs[:, 2]
    assert np.allclose(comb, yF)


def test_facet_contains_rejects_d(toy_a, toy_facets):
    f1 = toy_facets.facets[0]
    yD = toy_a.outputs[:, toy_a.index("D")]
    assert not fb.facet_contains(f1, toy_a, [1.0], yD)
    # D violates the facet-1 hyperplane value 4530
    u = f1.u * (6.0 / f1.u[0])
    assert np.sum(u * yD) < 4530.0 - 1e-6


def test_facet_contains_members(toy_a, toy_facets):
    for f in toy_facets.facets:
        for j in f.members:
            assert fb.facet_contains(f, toy_a, toy_a.inputs[:, j], toy_a.outputs[:, j])


def test_985_matches_membership_table(uni985, uni_facets):
    assert len(uni_facets) == 14
    assert uni_facets.subsets_examined == 330  # C(11, 4)
    for f in uni_facets.facets:
        assert {uni985.names[j] for j in f.members} == TABLE3[f.id]


def test_985_envelope_violations(uni985, uni_facets):
    viol = facet_checks(uni985, uni_facets)[1]
    assert [(v["dmu"], v["facet"]) for v in viol] == [("TSU", 13)]


def test_dedup_records_regularity_warning():
    # four extreme DMUs on one output hyperplane (sum = 12, single input):
    # every full-rank 3-subset spans the same facet, so they collapse to
    # one with the union recorded as a regularity violation
    names = ("P", "Q", "R", "S", "T")
    outputs = np.array([
        [10.0, 1.0, 1.0, 10.5, 2.0],
        [1.0, 10.0, 1.0, 1.2, 2.0],
        [1.0, 1.0, 10.0, 0.3, 2.0],
    ])
    ds = fb.Dataset(names=names, inputs=np.ones((1, 5)), outputs=outputs)
    ext = fb.extreme_set(ds)
    assert [ds.names[d] for d in ext.indices] == ["P", "Q", "R", "S"]
    fs = fb.enumerate_facets(ds, ext.indices)
    assert any("regularity" in w for w in fs.warnings)
    assert len(fs) == 1
    assert fs.facets[0].members == (0, 1, 2)  # first canonical subset kept


# ---------------------------------------------------------------------------
# Batched enumeration against the per-subset oracle: identical facet ids,
# members, warnings, subset counts and u/v bytes.

# Every full-rank subset becomes a facet and nothing merges, so the sign
# flip and the bytes of every normal are visible in the facet set.
EXPOSE = {"POSITIVITY_TOL": -2.0, "SUPPORT_TOL": np.inf, "DEDUP_TOL": -1.0}


@contextmanager
def tolerances(**values):
    """Set facets' tolerance constants inside the block, for the package
    and the oracle alike; QR_MARGIN follows RANK_TOL as it does at import."""
    with pytest.MonkeyPatch.context() as mp:
        for name, value in values.items():
            mp.setattr(facets_module, name, value)
        if "RANK_TOL" in values:
            mp.setattr(facets_module, "QR_MARGIN", 64.0 * np.finfo(float).eps / values["RANK_TOL"])
        yield


def assert_same_facet_set(got, ref):
    assert got.subsets_examined == ref.subsets_examined
    assert got.extremes == ref.extremes
    assert got.scope == ref.scope
    assert got.warnings == ref.warnings
    assert [(f.id, f.members) for f in got.facets] == [(f.id, f.members) for f in ref.facets]
    for f, g in zip(got.facets, ref.facets):
        assert f.u.tobytes() == g.u.tobytes(), f.id
        assert f.v.tobytes() == g.v.tobytes(), f.id


def curved_dataset(seed, n_curved, n_dominated=0, extra=()):
    """m=2, s=3 units on the curved cone ||y|| = sqrt(x1 x2), each of them
    an extreme unit, plus dominated convex combinations of three of them,
    plus `extra` columns (x, y) appended last."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(100.0, 1000.0, size=(2, n_curved))
    g = rng.uniform(0.2, 1.0, size=(3, n_curved))
    y = g / np.linalg.norm(g, axis=0) * np.sqrt(x[0] * x[1])
    xs, ys = [x], [y]
    for _ in range(n_dominated):
        idx = rng.choice(n_curved, size=3, replace=False)
        w = rng.dirichlet(np.ones(3))
        xs.append((x[:, idx] @ w * 1.1)[:, None])
        ys.append((y[:, idx] @ w * 0.9)[:, None])
    for xe, ye in extra:
        xs.append(np.asarray(xe, float)[:, None])
        ys.append(np.asarray(ye, float)[:, None])
    X, Y = np.hstack(xs), np.hstack(ys)
    return fb.Dataset(tuple(f"U{j}" for j in range(X.shape[1])), X, Y)


@pytest.fixture
def normals_calls(monkeypatch):
    """Count the subsets that reach facets._normals."""
    seen = [0]
    inner = facets_module._normals

    def counted(ds, subsets):
        seen[0] += len(subsets)
        return inner(ds, subsets)

    monkeypatch.setattr(facets_module, "_normals", counted)
    return seen


@pytest.fixture(scope="module")
def curved16():
    """C(16, 4) = 1820 subsets, more than one chunk of FACET_CHUNK = 1024,
    with the oracle's facet set for each scope."""
    ds = curved_dataset(2025, 16, n_dominated=6)
    return ds, {scope: oracle_enumerate_facets(ds, range(16), scope) for scope in ("extremes", "all")}


@pytest.fixture(scope="module")
def curved10_exposed():
    """C(10, 4) = 210 subsets, every full-rank one kept as a facet."""
    ds = curved_dataset(11, 10)
    with tolerances(**EXPOSE):
        return ds, oracle_enumerate_facets(ds, range(10), "all")


@pytest.mark.parametrize("scope", ["extremes", "all"])
def test_985_matches_oracle(uni985, uni_extremes, scope):
    ref = oracle_enumerate_facets(uni985, uni_extremes.indices, scope)
    got = fb.enumerate_facets(uni985, uni_extremes.indices, scope)
    assert ref.subsets_examined == 330 < facets_module.FACET_CHUNK
    assert len(got) == {"extremes": 14, "all": 13}[scope]  # TSU lies outside facet 13
    assert_same_facet_set(got, ref)


def test_985_every_normal_matches_oracle(uni985, uni_extremes, normals_calls):
    # SUPPORT_TOL = inf: the scope does not matter, and with
    # POSITIVITY_TOL = -2 no null direction is ruled out before the SVD
    with tolerances(**EXPOSE):
        ref = oracle_enumerate_facets(uni985, uni_extremes.indices, "all")
        assert len(ref) == 330
        assert_same_facet_set(fb.enumerate_facets(uni985, uni_extremes.indices, "all"), ref)
    assert normals_calls[0] == 330


@pytest.mark.parametrize("chunk", [1, 7, 910, 1820, 1821, None],
                         ids=["1", "7", "half", "exact", "above", "default"])
@pytest.mark.parametrize("scope", ["extremes", "all"])
def test_chunking_matches_oracle(curved16, monkeypatch, chunk, scope):
    if chunk is not None:
        monkeypatch.setattr(facets_module, "FACET_CHUNK", chunk)
    ds, refs = curved16
    ref = refs[scope]
    got = fb.enumerate_facets(ds, range(16), scope)
    assert ref.subsets_examined == math.comb(16, 4) == 1820
    assert len(got) > 10
    assert_same_facet_set(got, ref)


@pytest.mark.parametrize("chunk", [1, 7, 210, 211, None],
                         ids=["1", "7", "exact", "above", "default"])
def test_chunking_keeps_every_normal(curved10_exposed, monkeypatch, chunk):
    if chunk is not None:
        monkeypatch.setattr(facets_module, "FACET_CHUNK", chunk)
    ds, ref = curved10_exposed
    assert len(ref) == ref.subsets_examined == 210
    with tolerances(**EXPOSE):
        assert_same_facet_set(fb.enumerate_facets(ds, range(10), "all"), ref)


def test_all_kept_1820_match_oracle():
    # 1,820 kept normals: every new normal is compared with all kept ones
    ds = curved_dataset(2025, 16, n_dominated=6)
    with tolerances(**EXPOSE):
        ref = oracle_enumerate_facets(ds, range(16), "all")
        assert len(ref) == ref.subsets_examined == 1820
        assert_same_facet_set(fb.enumerate_facets(ds, range(16), "all"), ref)


def test_dedup_merges_into_first_normal_within_tol():
    # Normals (u1, u2 | v) under DEDUP_TOL = 0.25, all distances exact in
    # binary: C lies within tol of both kept A and B and must merge into
    # A, the first; D lies exactly tol from A and must merge too.
    ds = fb.Dataset(tuple("PQRST"), np.ones((1, 5)), np.ones((2, 5)))
    found = [
        ((0, 1), np.array([1.0, 1.0]), np.array([1.0])),     # A
        ((0, 2), np.array([1.375, 1.0]), np.array([1.0])),   # B: 0.375 from A
        ((1, 2), np.array([1.1875, 1.0]), np.array([1.0])),  # C: 0.1875 from A and B
        ((3, 4), np.array([1.0, 1.25]), np.array([1.0])),    # D: 0.25 from A, 0.375 from B
    ]
    with tolerances(DEDUP_TOL=0.25):
        ref = oracle_facet_set(ds, found, (0, 1, 2, 3, 4), "all", 4)
        got = facets_module._facet_set(ds, found, (0, 1, 2, 3, 4), "all", 4)
    assert [f.members for f in ref.facets] == [(0, 1), (0, 2)]
    assert ref.warnings == (
        "regularity condition violated: DMUs {P, Q, R, S, T} lie on one hyperplane "
        "(facet 1 keeps spanning set ('P', 'Q'))",
    )
    assert_same_facet_set(got, ref)


@pytest.mark.parametrize("scope", ["extremes", "all"])
def test_duplicate_and_proportional_units_match_oracle(scope):
    base = curved_dataset(7, 8)
    # U8 duplicates U0 and U9 is U3 at twice the scale: every subset
    # holding both units of a pair is rank-deficient, and the copies span
    # the same hyperplanes as the originals
    ds = curved_dataset(7, 8, n_dominated=3, extra=[
        (base.inputs[:, 0], base.outputs[:, 0]),
        (2.0 * base.inputs[:, 3], 2.0 * base.outputs[:, 3]),
    ])
    ext = (*range(8), 11, 12)
    for a, b in [(0, 11), (3, 12)]:
        assert facet_normal(ds, (a, b, 1, 2)) is None
        assert oracle_facet_normal(ds, (a, b, 1, 2)) is None
    ref = oracle_enumerate_facets(ds, ext, scope)
    assert any("regularity" in w for w in ref.warnings)
    assert_same_facet_set(fb.enumerate_facets(ds, ext, scope), ref)
    if scope == "all":  # SUPPORT_TOL = inf: the scope does not matter
        with tolerances(**EXPOSE):
            assert_same_facet_set(fb.enumerate_facets(ds, ext, scope), oracle_enumerate_facets(ds, ext, scope))


def test_coincident_hyperplanes_match_oracle():
    outputs = np.array([
        [10.0, 1.0, 1.0, 10.5, 2.0],
        [1.0, 10.0, 1.0, 1.2, 2.0],
        [1.0, 1.0, 10.0, 0.3, 2.0],
    ])
    ds = fb.Dataset(("P", "Q", "R", "S", "T"), np.ones((1, 5)), outputs)
    for scope in ("extremes", "all"):
        ref = oracle_enumerate_facets(ds, (0, 1, 2, 3), scope)
        assert len(ref) == 1 and len(ref.warnings) == 1
        assert_same_facet_set(fb.enumerate_facets(ds, (0, 1, 2, 3), scope), ref)


def test_zero_first_output_weight_matches_oracle():
    # A's row (1, 0 | 0) lies along the first output axis, so a normal
    # through A and one other unit has u[0] exactly 0 and the sign flip
    # is decided by the second output weight
    ds = fb.Dataset(
        ("A", "B", "C", "D"),
        np.array([[0.0, 1.0, 2.0, 1.0]]),
        np.array([[1.0, 0.0, 0.0, 3.0], [0.0, 1.0, 1.0, 2.0]]),
    )
    assert oracle_facet_normal(ds, (0, 1)) is None
    assert facet_normal(ds, (0, 1)) is None
    with tolerances(**EXPOSE):
        u, v = oracle_facet_normal(ds, (0, 1))
        assert u[0] == 0.0
        assert u[1] > 0.0
        got_u, got_v = facet_normal(ds, (0, 1))
        assert (got_u.tobytes(), got_v.tobytes()) == (u.tobytes(), v.tobytes())
        for scope in ("extremes", "all"):
            ref = oracle_enumerate_facets(ds, range(4), scope)
            assert_same_facet_set(fb.enumerate_facets(ds, range(4), scope), ref)


def test_one_input_one_output_matches_oracle():
    # s+m-1 = 1: every subset is a single DMU ray
    ds = fb.Dataset(("A", "B", "C"), np.array([[1.0, 2.0, 1.5]]), np.array([[2.0, 3.0, 1.0]]))
    for scope in ("extremes", "all"):
        ref = oracle_enumerate_facets(ds, range(3), scope)
        assert [f.members for f in ref.facets] == [(0,)]
        assert_same_facet_set(fb.enumerate_facets(ds, range(3), scope), ref)


def test_toy_b_no_facet_matches_oracle(toy_b):
    ext = fb.extreme_set(toy_b).indices
    for scope in ("extremes", "all"):
        ref = oracle_enumerate_facets(toy_b, ext, scope)
        assert len(ref) == 0
        assert_same_facet_set(fb.enumerate_facets(toy_b, ext, scope), ref)
    assert facet_checks(toy_b, ref) == ({}, [])


def test_facet_normal_matches_oracle_on_every_subset(uni985, uni_extremes):
    for values in ({}, EXPOSE):
        with tolerances(**values):
            for subset in itertools.combinations(uni_extremes.indices, 4):
                got = facet_normal(uni985, subset)
                ref = oracle_facet_normal(uni985, subset)
                assert (got is None) == (ref is None), subset
                if ref is not None:
                    assert got[0].tobytes() == ref[0].tobytes()
                    assert got[1].tobytes() == ref[1].tobytes()


@pytest.mark.parametrize("scope", ["extremes", "all"])
def test_residuals_match_per_dmu_oracle(uni985, uni_extremes, scope):
    fs = fb.enumerate_facets(uni985, uni_extremes.indices, scope)
    support = fs.extremes if scope == "extremes" else range(uni985.n)
    summary, violations = facet_checks(uni985, fs)
    expect_violations = []
    for j in range(uni985.n):
        for f in fs.facets:
            resid = oracle_residual(uni985, f, j)
            if resid > facets_module.SUPPORT_TOL:
                expect_violations.append({"dmu": uni985.names[j], "facet": f.id, "residual": float(resid)})
    assert violations == expect_violations
    for f in fs.facets:
        span = max(abs(oracle_residual(uni985, f, j)) for j in f.members)
        sup = max(oracle_residual(uni985, f, j) for j in support)
        assert repr(summary[f.id]["span_residual"]) == repr(span)
        assert repr(summary[f.id]["max_support_residual"]) == repr(sup)


# ---------------------------------------------------------------------------
# The QR prefilter: only subsets whose null direction could pass reach
# _normals, and the facet set stays the oracle's, byte for byte.

# the prefilter's margin at RANK_TOL = 1e-9, about 1.4e-5
QR_MARGIN = 64.0 * np.finfo(float).eps / facets_module.RANK_TOL


def test_985_only_facets_reach_the_svd(uni985, uni_extremes, normals_calls):
    fs = fb.enumerate_facets(uni985, uni_extremes.indices, "extremes")
    assert (len(fs), fs.subsets_examined, normals_calls[0]) == (14, 330, 14)


@pytest.mark.parametrize("scope", ["extremes", "all"])
def test_985_unpinned_matches_oracle(uni985, scope):
    ext = fb.extreme_set(uni985).indices
    ref = oracle_enumerate_facets(uni985, ext, scope)
    assert ref.subsets_examined == 2380 and len(ref) == 17
    assert_same_facet_set(fb.enumerate_facets(uni985, ext, scope), ref)


# Past 2^+-12 a unit change moves the 985 facet set (nsa and sb at 2^-16,
# hp at 2^16 and 2^20, among others): the prefilter must reproduce the
# moved set too.
@pytest.mark.parametrize("k", [16, -16, 20, -20])
@pytest.mark.parametrize("column", COLUMNS)
def test_985_rescaled_columns_match_oracle(uni985, column, k):
    ds = _rescaled(uni985, column, 2.0**k)
    ext = fb.extreme_set(ds, override=PAPER_985_EXTREMES).indices
    for scope in ("extremes", "all"):
        assert_same_facet_set(fb.enumerate_facets(ds, ext, scope), oracle_enumerate_facets(ds, ext, scope))


@pytest.mark.parametrize("rank_tol", [1e-6, 1e-12])
@pytest.mark.parametrize("scope", ["extremes", "all"])
def test_rank_tolerance_matches_oracle(uni985, scope, rank_tol):
    ext = fb.extreme_set(uni985).indices
    with tolerances(RANK_TOL=rank_tol):
        ref = oracle_enumerate_facets(uni985, ext, scope)
        assert_same_facet_set(fb.enumerate_facets(uni985, ext, scope), ref)


@pytest.mark.parametrize("scope", ["extremes", "all"])
def test_24_extremes_match_oracle(scope, normals_calls):
    # the benchmark's shape: C(24, 4) = 10,626 subsets in 11 chunks
    ds = curved_dataset(2026, 24, n_dominated=16)
    ref = oracle_enumerate_facets(ds, range(24), scope)
    got = fb.enumerate_facets(ds, range(24), scope)
    assert len(ref) == 78 and ref.subsets_examined == 10626
    assert_same_facet_set(got, ref)
    assert normals_calls[0] < 2 * len(ref)


@pytest.mark.parametrize("offset,reaches,kept", [
    (-0.5, 1, 1),   # within tolerance: a facet
    (0.5, 1, 0),    # outside, but within the margin: the SVD path decides
    (2.0, 0, 0),    # outside by more than the margin: ruled out first
], ids=["inside", "within-margin", "beyond-margin"])
def test_support_margin_boundary(normals_calls, offset, reaches, kept):
    """A and B span the hyperplane with unit normal n = (1, 1, -3)/sqrt(11)
    in (y1, y2, x); C = p + rho*|p|*n with p = (1.5, 1.5, 1) on it, so C's
    scaled residual is rho to within rho^3 (n is orthogonal to p)."""
    tol = facets_module.SUPPORT_TOL
    rho = tol + offset * (tol if offset < 0 else QR_MARGIN)
    step = rho / math.sqrt(2.0)  # rho * |p| / sqrt(11)
    ds = fb.Dataset(
        ("A", "B", "C"),
        np.array([[1.0, 1.0, 1.0 - 3.0 * step]]),
        np.array([[2.0, 1.0, 1.5 + step], [1.0, 2.0, 1.5 + step]]),
    )
    u, v = facet_normal(ds, (0, 1))
    y, x = ds.outputs[:, 2], ds.inputs[:, 2]
    assert (u @ y - v @ x) / np.linalg.norm([*y, *x]) == pytest.approx(rho, abs=1e-12)
    normals_calls[0] = 0
    ref = oracle_enumerate_facets(ds, (0, 1), "all")
    got = fb.enumerate_facets(ds, (0, 1), "all")
    assert len(ref) == kept
    assert_same_facet_set(got, ref)
    assert normals_calls[0] == reaches


def test_null_directions_agree_with_svd():
    rng = np.random.default_rng(5)
    rows = rng.uniform(0.5, 2.0, size=(200, 4, 5)) * np.ldexp(1.0, rng.integers(-10, 10, size=(200, 1, 5)))
    rows[0, 2] = rows[0, 1]  # rank-deficient blocks: a repeated row,
    rows[1, 3] = 0.0         # and a zero row
    q = facets_module._null_directions(rows.transpose(1, 2, 0)).T
    assert np.allclose(np.linalg.norm(q, axis=1), 1.0, rtol=0.0, atol=1e-15)
    _, sv, vh = np.linalg.svd(rows)
    full = sv[:, -1] > 1e-9 * sv[:, 0]
    assert not full[:2].any() and full[2:].all()
    ref = vh[full, -1, :]
    sign = np.sign((q[full] * ref).sum(axis=1))[:, None]
    kappa = sv[full, 0] / sv[full, -1]
    assert (np.abs(q[full] - sign * ref).max(axis=1) <= 64.0 * np.finfo(float).eps * kappa).all()
    # a rank-deficient block still gets a unit vector orthogonal to its rows
    assert np.abs((rows[:2] * q[:2, None, :]).sum(axis=2)).max() <= 1e-12 * np.abs(rows[:2]).max()
