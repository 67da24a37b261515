"""Acceptance gate: every shipped criterion at its stated tolerance.

Each test prints one PASS line with the measured numbers (run pytest with
-s to see them); a failing assertion is the FAIL signal with full detail.
Criterion 10 re-checks the cross-cutting invariants on the objects the
other criteria produced.
"""

import time

import numpy as np
import pytest

import facetbench as fb
from facetbench.facets import facet_checks
from facetbench.measures import closest_on_efpps, extreme_set, russell_farthest
from facetbench.profiles import PAPER_985_EXTREMES
from facetbench.robust import batch_evaluate
from facetbench.scenario import (
    check_assumptions,
    facet_optimum,
    facet_tables,
    global_optimum,
    revenue,
    simulate_coverage,
)

from bigm_oracle import solve_bigm
from table4 import TABLE3, TABLE4

XBAR = np.array([1.0])


def _ok(tag, detail=""):
    print(f"ACCEPTANCE {tag}: PASS {detail}")


def test_c01_toy_revenue_suite(data_dir):
    t0 = time.perf_counter()
    ds = fb.load_dataset(data_dir / "toy_isoquant_a.csv")
    sc = fb.load_scenario(data_dir / "prices_toy.json")
    ext = extreme_set(ds)
    fs = fb.enumerate_facets(ds, ext.indices)
    yF = ds.outputs[:, ds.index("F")]

    r_f0 = revenue(yF, sc, 0.0)
    r_f1 = revenue(yF, sc, 1.0)
    tables = facet_tables(ds, fs, XBAR)
    r_c1 = facet_optimum(tables, fs.facets[0].id, sc, 1.0).value
    r_d1 = facet_optimum(tables, fs.facets[1].id, sc, 1.0).value
    best1, _ = global_optimum(tables, sc, 1.0)
    rep = check_assumptions(ds, fs, tables, sc, yF, 0.0, 1.0)
    wr = rep.withstand[0]
    elapsed = time.perf_counter() - t0

    assert r_f0 == pytest.approx(1854.0, abs=1e-9)
    assert r_f1 == pytest.approx(955.2, abs=1e-9)
    assert r_c1 == pytest.approx(1509.0, abs=1e-9)
    assert r_d1 == pytest.approx(1825.1, abs=1e-9)
    assert r_f0 - r_f1 == pytest.approx(898.8, abs=1e-9)    # pre-risk loss
    assert r_f0 - r_c1 == pytest.approx(345.0, abs=1e-9)    # single-facet residual
    assert r_f0 - best1.value == pytest.approx(28.9, abs=1e-9)  # multi-facet residual
    assert rep.recovery_entries[0]["facet"] == fs.facets[0].id  # F lies on facet 1 only
    assert wr.wr == pytest.approx(553.8, abs=1e-9)
    assert elapsed < 0.1, f"toy revenue suite took {elapsed:.3f}s"
    _ok("C1", f"(toy revenue suite exact to 1e-9, {elapsed * 1000:.1f} ms)")


def test_c02_toy_facet_enumeration(toy_a, toy_b, toy_facets):
    names = [tuple(toy_a.names[j] for j in f.members) for f in toy_facets.facets]
    assert names == [("A", "B", "C"), ("C", "D", "E")]
    for f, expected in zip(toy_facets.facets, ([6.0, 6.0, 37.0], [89.0, 89.0, 40.0])):
        e = np.asarray(expected)
        assert np.allclose(f.u / np.linalg.norm(f.u), e / np.linalg.norm(e), atol=1e-9)
    ext_b = extreme_set(toy_b)
    fs_b = fb.enumerate_facets(toy_b, ext_b.indices)
    assert len(fs_b) == 0
    _ok("C2", "(facets {A,B,C},{C,D,E}; normals (6,6,37),(89,89,40); isoquant-b empty)")


def test_c03_toy_partition(toy_a, toy_facets):
    part = fb.partition_robust(toy_facets)
    assert [toy_a.names[d] for d in part.s_star] == ["C"]
    assert len(part.groups) == 1
    assert part.groups[0].facet_ids == (1, 2)
    _ok("C3", "(S*={C}, H=1, G1={1,2})")


def test_c04_985_facets_match_membership_table(uni985, uni_extremes, uni_facets):
    assert len(uni_facets) == 14
    mismatches = [
        (f.id, sorted(uni985.names[j] for j in f.members), sorted(TABLE3[f.id]))
        for f in uni_facets.facets
        if {uni985.names[j] for j in f.members} != TABLE3[f.id]
    ]
    assert mismatches == [], f"membership deviations: {mismatches}"
    # the data anomaly is surfaced as structured discrepancies, not hidden:
    detail = uni_extremes.discrepancy_detail(uni985)
    assert "TSU" in detail["computed_not_pinned"]
    viol = facet_checks(uni985, uni_facets)[1]
    assert [(v["dmu"], v["facet"]) for v in viol] == [("TSU", 13)]
    _ok("C4", "(14 facets equal the published membership matrix; TSU anomaly reported)")


def test_c05_985_partition(uni985, uni_partition):
    part = uni_partition
    assert part.maxcount == 8
    assert {uni985.names[d] for d in part.s_star} == {"WHU", "CQU"}
    assert len(part.groups) == 2
    assert part.groups[0].facet_ids == (1, 2, 3, 4, 5, 6, 7, 8)
    assert [uni985.names[d] for d in part.groups[0].members] == ["CQU"]
    assert part.groups[1].facet_ids == (1, 2, 5, 6, 9, 10, 12, 13)
    assert [uni985.names[d] for d in part.groups[1].members] == ["WHU"]
    _ok("C5", "(maxcount=8, S*={WHU,CQU}, H=2, groups as published)")


@pytest.fixture(scope="module")
def robust_rows(uni985, uni_partition):
    return batch_evaluate(uni985, uni_partition, "table4-max")


def test_c06_robust_efficiency_table(uni985, robust_rows):
    by_name = {uni985.names[r.dmu]: r for r in robust_rows}
    hand = {
        "WHU": (1.0, (0.0, 0.0, 0.0)),
        "CQU": (1.0, (0.0, 0.0, 0.0)),
        "PKU": (0.725, (0.0, -24.2421, -3107.3474)),
        "RUC": (0.7676, (0.3645, -2.1787, 0.0)),
        "CUN": (0.6381, (0.8908, -8.1092, 0.0)),
    }
    for name, (theta, slacks) in hand.items():
        r = by_name[name]
        assert r.theta == pytest.approx(theta, abs=5e-4), name
        assert r.slacks == pytest.approx(slacks, abs=1e-2), name

    deltas = []
    within = 0
    for name, (_, theta_exp, _, _) in TABLE4.items():
        got = by_name[name].theta
        delta = abs(got - theta_exp)
        deltas.append((name, got, theta_exp, delta))
        if delta <= 1e-3:
            within += 1
    print("\n  robust column vs published (per-row deltas):")
    for name, got, exp, delta in deltas:
        flag = "" if delta <= 1e-3 else "  <-- off"
        print(f"    {name:<6} computed={got:.4f} published={exp:.4f} delta={delta:.2e}{flag}")
    assert within >= 35, f"only {within}/38 robust thetas within 1e-3"
    _ok("C6", f"(hand rows exact; {within}/38 within 1e-3 of the published robust column)")


def test_c07_russell_table(uni985):
    within = 0
    for name, (_, _, _, theta_exp) in TABLE4.items():
        got = russell_farthest(uni985, [uni985.index(name)])[0].theta
        if abs(got - theta_exp) <= 1e-3:
            within += 1
    for name, expected in (("WHU", 1.0), ("CQU", 1.0), ("TSU", 1.0), ("RUC", 0.3891)):
        got = russell_farthest(uni985, [uni985.index(name)])[0].theta
        assert got == pytest.approx(expected, abs=1e-3), name
    assert within >= 35, f"only {within}/38 russell thetas within 1e-3"
    _ok("C7", f"({within}/38 within 1e-3 of the published russell column)")


def test_c08_closest_table(uni985, uni_facets, robust_rows):
    by_name = {uni985.names[r.dmu]: r for r in robust_rows}
    within = 0
    eff2 = {}
    for name, (_, _, theta_exp, _) in TABLE4.items():
        r = closest_on_efpps(uni_facets, uni985, [uni985.index(name)])[0]
        eff2[name] = r.theta
        if r.theta is not None and abs(r.theta - theta_exp) <= 1e-2:
            within += 1
    assert within >= 34, f"only {within}/38 closest thetas within 1e-2"
    # the published observation: these DMUs score higher on the robust
    # measure than on the closest-target measure, in the reproduced table
    for name in ("RUC", "BIT", "DUST"):
        assert by_name[name].theta > eff2[name], name
    _ok("C8", f"({within}/38 within 1e-2 of the published closest column; RUC/BIT/DUST ordering holds)")


def test_c09_solver_equivalence_random():
    rng = np.random.default_rng(20250809)
    checked = 0
    for i in range(25):
        n = int(rng.integers(2, 9))       # n <= 8
        X = rng.uniform(1.0, 100.0, size=(2, n))
        Y = rng.uniform(1.0, 100.0, size=(3, n))
        k = int(rng.integers(1, min(n, 4)))
        cols = sorted(rng.choice(n, size=k, replace=False).tolist())
        o = int(rng.integers(0, n))
        x_o, y_o = X[:, o], Y[:, o]
        mine = fb.solve_sign_pattern(x_o, y_o, X[:, cols], Y[:, cols])
        z_ref, gamma_ref, theta_ref = solve_bigm(x_o, y_o, X[:, cols], Y[:, cols])
        detail = f"instance {i}: gamma {mine.gamma!r} vs oracle {gamma_ref!r}, z {mine.z} vs oracle {z_ref}"
        assert sum(mine.z) == sum(z_ref), detail
        theta_mine = 1.0 / (1.0 + mine.gamma)
        assert theta_mine == pytest.approx(theta_ref, abs=1e-7), detail
        checked += 1
    assert checked == 25
    _ok("C9", "(sign-pattern enumeration == Big-M branch-and-bound on 25 seeded instances)")


def test_c10_invariant_suite(uni985, uni_facets, uni_partition, robust_rows, toy_a, toy_facets, toy_scenario):
    # complementarity and theta range across the full robust table
    for row in robust_rows:
        for g in row.groups:
            assert np.all(g.s_plus * g.s_minus == 0.0)
            assert 0.0 < g.theta <= 1.0
        assert 0.0 < row.theta <= 1.0

    # facet invariants: residuals, support, positivity
    for fs, ds in ((uni_facets, uni985), (toy_facets, toy_a)):
        res = facet_checks(ds, fs)[0]
        for f in fs.facets:
            assert res[f.id]["span_residual"] <= 1e-7
            assert res[f.id]["max_support_residual"] <= 1e-7
            assert res[f.id]["min_normal_component"] > 1e-9

    # theorem-5 form: per-facet optimum never beats the global optimum
    tables = facet_tables(toy_a, toy_facets, XBAR)
    for delta in (0.0, 0.25, 0.5, 0.75, 1.0):
        best, _ = global_optimum(tables, toy_scenario, delta)
        for f in toy_facets.facets:
            assert facet_optimum(tables, f.id, toy_scenario, delta).value <= best.value + 1e-9

    # withstand capacity within [0, bound] whenever the assumptions pass
    yF = toy_a.outputs[:, toy_a.index("F")]
    rep = check_assumptions(toy_a, toy_facets, tables, toy_scenario, yF, 0.0, 1.0)
    assert rep.ok()
    assert [e["facet"] for e in rep.recovery_entries] == [toy_facets.facets[0].id]
    wr = rep.withstand[0]
    assert 0.0 <= wr.wr <= wr.bound + 1e-9
    # and the theorem-3 consequence on the same evaluation
    assert rep.global_post_risk_optimum <= revenue(yF, toy_scenario, 0.0) + 1e-9
    _ok("C10", "(complementarity, theta ranges, facet residuals, theorem bounds)")


def test_c11_coverage_simulation(toy_a, toy_facets):
    rep = simulate_coverage(
        toy_a, toy_facets, [(1,), (2,), (1, 2)], XBAR, trials=10_000, seed=985
    )
    union = rep.strategy_counts[2]
    assert union == 10_000
    # per-sample monotonicity for every tested contained pair
    assert rep.strategy_counts[0] <= union
    assert rep.strategy_counts[1] <= union
    for check in rep.containment_checks:
        assert check["per_sample_subset"]
        assert check["count_k1"] <= check["count_k2"]
    rep2 = simulate_coverage(
        toy_a, toy_facets, [(1,), (2,), (1, 2)], XBAR, trials=10_000, seed=985
    )
    assert np.array_equal(rep.incidence, rep2.incidence)
    assert rep.to_payload() == rep2.to_payload()
    _ok("C11", f"(union=10000/10000 exact, |A_1|={rep.facet_counts[1]}, |A_2|={rep.facet_counts[2]}, rerun identical)")


def test_c12_performance_full_profile(data_dir):
    t0 = time.perf_counter()
    ds = fb.load_dataset(data_dir / "universities_985.csv")
    ext = extreme_set(ds, override=PAPER_985_EXTREMES)
    fs = fb.enumerate_facets(ds, ext.indices, "extremes")
    part = fb.partition_robust(fs)
    rows = batch_evaluate(ds, part)
    for o in range(ds.n):
        for r in (closest_on_efpps(fs, ds, [o])[0], russell_farthest(ds, [o])[0]):
            assert not isinstance(r, fb.FacetBenchError), r
    elapsed = time.perf_counter() - t0
    assert fs.subsets_examined == 330
    assert len(rows) == 38
    assert elapsed < 10.0, f"reproduction profile took {elapsed:.2f}s"
    _ok("C12", f"(full profile in {elapsed:.2f}s, 330 subsets examined)")
