import json
import tracemalloc

import numpy as np
import pytest

import facetbench as fb
from facetbench.facets import Facet, FacetSet
from facetbench.scenario import (
    MAX_TRIALS,
    OWNERSHIP_RTOL,
    PriceSampler,
    PriceScenario,
    check_assumptions,
    facet_optimum,
    facet_tables,
    global_optimum,
    price_at,
    revenue,
    simulate_coverage,
    uniqueness_diagnostics,
)
from scenario_oracle import coverage_ownership, lp_facet_contains, lp_facet_optimum

XBAR = np.array([1.0])


@pytest.fixture
def toy_tables(toy_a, toy_facets):
    return facet_tables(toy_a, toy_facets, XBAR)


def vertex_enum_value(ds, facet, prices, xbar=1.0):
    """Independent facet-optimum value: a linear objective on the scaled
    generator simplex peaks at a generator (single-input case)."""
    return max(
        float(prices @ ds.outputs[:, j]) * xbar / float(ds.inputs[0, j])
        for j in facet.members
    )


def test_price_at_endpoints(toy_scenario):
    assert price_at(toy_scenario, 0.0).tolist() == [5.0, 5.0, 12.0]
    assert price_at(toy_scenario, 1.0) == pytest.approx([5.0, 10.0, 0.1], abs=1e-12)
    assert price_at(toy_scenario, 0.5) == pytest.approx([5.0, 7.5, 12.0 - 5.95], abs=1e-12)


def test_price_domain_enforced(toy_scenario):
    with pytest.raises(fb.DataError, match="outside"):
        price_at(toy_scenario, 1.5)


def test_positivity_checked_at_construction():
    with pytest.raises(fb.DataError, match="strictly positive"):
        PriceScenario(
            output_names=("a",), bases=np.array([1.0]), slopes=np.array([-2.0]), domain=(0.0, 1.0)
        )


def test_table_scenario():
    sc = PriceScenario(output_names=("a", "b"), table={0.0: [1.0, 2.0], 1.0: [3.0, 4.0]})
    assert price_at(sc, 1.0).tolist() == [3.0, 4.0]
    with pytest.raises(fb.DataError, match="not in the scenario table"):
        price_at(sc, 0.5)


def test_zero_slope_scenario_constant():
    sc = PriceScenario(output_names=("a", "b"), bases=np.array([2.0, 3.0]), slopes=np.zeros(2), domain=(0.0, 5.0))
    for d in (0.0, 2.5, 5.0):
        assert price_at(sc, d).tolist() == [2.0, 3.0]


def test_revenue_values(toy_a, toy_scenario):
    yF = toy_a.outputs[:, toy_a.index("F")]
    assert revenue(yF, toy_scenario, 0.0) == pytest.approx(1854.0, abs=1e-9)
    assert revenue(yF, toy_scenario, 1.0) == pytest.approx(955.2, abs=1e-9)
    assert revenue(np.zeros(3), toy_scenario, 1.0) == 0.0


def test_revenue_beyond_the_double_range_is_a_data_error(toy_scenario):
    with pytest.raises(fb.DataError, match="revenue at delta=0.0 is not finite"):
        revenue(np.full(3, 1e307), toy_scenario, 0.0)


def test_revenue_linearity(toy_a, toy_scenario):
    y = toy_a.outputs[:, 2]
    for alpha in (0.0, 0.3, 2.5):
        assert revenue(alpha * y, toy_scenario, 1.0) == pytest.approx(alpha * revenue(y, toy_scenario, 1.0), rel=1e-12)
    bumped = y.copy()
    bumped[1] += 1.0
    assert revenue(bumped, toy_scenario, 1.0) > revenue(y, toy_scenario, 1.0)


def test_facet_optima(toy_tables, toy_facets, toy_scenario):
    f1, f2 = toy_facets.facets
    o1 = facet_optimum(toy_tables, f1.id, toy_scenario, 1.0)
    assert o1.value == pytest.approx(1509.0, abs=1e-9)
    assert o1.outputs == pytest.approx([100.0, 100.0, 90.0], abs=1e-9)
    o2 = facet_optimum(toy_tables, f2.id, toy_scenario, 1.0)
    assert o2.value == pytest.approx(1825.1, abs=1e-9)
    o1_pre = facet_optimum(toy_tables, f1.id, toy_scenario, 0.0)
    assert o1_pre.value == pytest.approx(2080.0, abs=1e-9)
    assert o1_pre.outputs == pytest.approx([100.0, 100.0, 90.0], abs=1e-9)


def test_facet_optima_match_vertex_oracle(toy_a, toy_facets, toy_tables, toy_scenario):
    for delta in (0.0, 0.25, 0.5, 1.0):
        p = price_at(toy_scenario, delta)
        for f in toy_facets.facets:
            lp_val = facet_optimum(toy_tables, f.id, toy_scenario, delta).value
            assert lp_val == pytest.approx(vertex_enum_value(toy_a, f, p), rel=1e-12)


def test_global_optimum(toy_tables, toy_scenario):
    best, owners = global_optimum(toy_tables, toy_scenario, 1.0)
    assert best.value == pytest.approx(1825.1, abs=1e-9)
    assert owners == (2,)
    best0, owners0 = global_optimum(toy_tables, toy_scenario, 0.0)
    assert best0.value == pytest.approx(2080.0, abs=1e-9)
    assert owners0 == (1, 2)  # C is the shared vertex


def test_theorem5_facet_below_global(toy_facets, toy_tables, toy_scenario):
    for delta in (0.0, 0.3, 0.7, 1.0):
        best, _ = global_optimum(toy_tables, toy_scenario, delta)
        for f in toy_facets.facets:
            val = facet_optimum(toy_tables, f.id, toy_scenario, delta).value
            assert val <= best.value + 1e-9


def test_withstand_capacity(toy_a, toy_facets, toy_tables, toy_scenario):
    yF = toy_a.outputs[:, toy_a.index("F")]
    rep = check_assumptions(toy_a, toy_facets, toy_tables, toy_scenario, yF, 0.0, 1.0)
    assert [e["facet"] for e in rep["assumptions"]["recovery_entries"]] == [1]  # F lies on facet 1 only
    (res,) = rep["withstand"]
    assert res["facet"] == 1
    assert res["wr"] == pytest.approx(553.8, abs=1e-9)
    assert res["bound"] == pytest.approx(898.8, abs=1e-9)
    assert res["within_bound"]


def test_withstand_zero_at_post_risk_optimum(toy_a, toy_facets, toy_tables, toy_scenario):
    yC = toy_a.outputs[:, toy_a.index("C")]  # facet-1 post-risk optimum
    rep = check_assumptions(toy_a, toy_facets, toy_tables, toy_scenario, yC, 0.0, 1.0)
    assert rep["assumptions"]["recovery_entries"][0]["facet"] == 1
    assert rep["withstand"][0]["wr"] == pytest.approx(0.0, abs=1e-9)


def test_withstand_requires_on_facet_point(toy_a, toy_facets, toy_tables, toy_scenario):
    # D lies on facet 2 only, so facet 1 gets no withstand row; half of F
    # lies on no facet at all
    yD = toy_a.outputs[:, toy_a.index("D")]
    rep = check_assumptions(toy_a, toy_facets, toy_tables, toy_scenario, yD, 0.0, 1.0)
    assert [e["facet"] for e in rep["assumptions"]["recovery_entries"]] == [2]
    assert len(rep["withstand"]) == 1
    yF = toy_a.outputs[:, toy_a.index("F")]
    with pytest.raises(fb.DataError, match="lies on no facet"):
        check_assumptions(toy_a, toy_facets, toy_tables, toy_scenario, 0.5 * yF, 0.0, 1.0)


def test_residual_losses(toy_a, toy_facets, toy_tables, toy_scenario):
    yF = toy_a.outputs[:, toy_a.index("F")]
    r0 = revenue(yF, toy_scenario, 0.0)
    best1, _ = global_optimum(toy_tables, toy_scenario, 1.0)
    f1_opt = facet_optimum(toy_tables, toy_facets.facets[0].id, toy_scenario, 1.0)
    assert r0 - revenue(yF, toy_scenario, 1.0) == pytest.approx(898.8, abs=1e-9)
    assert r0 - f1_opt.value == pytest.approx(345.0, abs=1e-9)
    assert r0 - best1.value == pytest.approx(28.9, abs=1e-9)
    assert best1.value - f1_opt.value == pytest.approx(316.1, abs=1e-9)


def test_assumptions_toy(toy_a, toy_facets, toy_tables, toy_scenario):
    yF = toy_a.outputs[:, toy_a.index("F")]
    rep = check_assumptions(toy_a, toy_facets, toy_tables, toy_scenario, yF, 0.0, 1.0)
    assert rep["assumptions"]["assumption1_holds"] and rep["assumptions"]["assumption2_holds"]
    assert rep["assumptions"]["recovery_entries"][0]["post_risk_optimum"] == pytest.approx(1509.0, abs=1e-9)
    # theorem-3 form: global recovery bounded by the pre-risk revenue
    best1, _ = global_optimum(toy_tables, toy_scenario, 1.0)
    assert best1.value <= revenue(yF, toy_scenario, 0.0) + 1e-9


def test_assumptions_carry_each_containing_facets_withstand(toy_a, toy_facets, toy_tables, toy_scenario):
    # C is the vertex both facets share: one withstand row per facet, each
    # the facet's post-risk optimum less C's post-risk revenue, against
    # C's revenue loss
    yC = toy_a.outputs[:, toy_a.index("C")]
    rep = check_assumptions(toy_a, toy_facets, toy_tables, toy_scenario, yC, 0.0, 1.0)
    assert [e["facet"] for e in rep["assumptions"]["recovery_entries"]] == list(toy_facets.ids()) == [1, 2]
    r0, r1 = revenue(yC, toy_scenario, 0.0), revenue(yC, toy_scenario, 1.0)
    assert (rep["revenue_delta0"], rep["revenue_delta1"]) == (r0, r1)
    expected = []
    for f in toy_facets.facets:
        wr = facet_optimum(toy_tables, f.id, toy_scenario, 1.0).value - r1
        expected.append({"facet": f.id, "wr": wr, "bound": r0 - r1, "within_bound": wr <= r0 - r1})
    assert rep["withstand"] == expected


def test_facet_tables_check_their_inputs(toy_a, toy_facets, toy_tables, toy_scenario):
    with pytest.raises(fb.DataError, match="input vector length 2 != m = 1"):
        facet_tables(toy_a, toy_facets, np.array([1.0, 1.0]))
    for xbar in (0.0, -1.0, 2.0**-1060):
        with pytest.raises(fb.DataError, match="must be positive and normal"):
            facet_tables(toy_a, toy_facets, np.array([xbar]))
    with pytest.raises(fb.DataError, match="no vertex table for facet 9"):
        facet_optimum(toy_tables, 9, toy_scenario, 1.0)


def test_assumptions_violated_by_rising_prices(toy_a, toy_facets, toy_tables):
    rising = PriceScenario(
        output_names=("a", "b", "c"),
        bases=np.array([5.0, 5.0, 12.0]),
        slopes=np.array([1.0, 1.0, 1.0]),
        domain=(0.0, 1.0),
    )
    yF = toy_a.outputs[:, toy_a.index("F")]
    rep = check_assumptions(toy_a, toy_facets, toy_tables, rising, yF, 0.0, 1.0)
    assert not rep["assumptions"]["assumption1_holds"]
    # every anchor-facet generator gains revenue
    assert {v["dmu"] for v in rep["assumptions"]["revenue_violations"]} == {"A", "B", "C"}


def test_assumptions_identity_delta(toy_a, toy_facets, toy_tables, toy_scenario):
    # with delta0 = delta1 both checks collapse to equalities when the
    # anchor point is the facet optimum itself
    opt = facet_optimum(toy_tables, toy_facets.facets[0].id, toy_scenario, 0.5)
    rep = check_assumptions(toy_a, toy_facets, toy_tables, toy_scenario, opt.outputs, 0.5, 0.5)
    assert rep["assumptions"]["assumption1_holds"] and rep["assumptions"]["assumption2_holds"]
    entry = next(e for e in rep["assumptions"]["recovery_entries"] if e["facet"] == 1)
    assert entry["post_risk_optimum"] == pytest.approx(entry["pre_risk_revenue"], rel=1e-12)


def test_withstand_within_bound_at_identity_delta_985(uni985, uni_facets, whu_tables, toy_scenario):
    # delta0 = delta1 makes every gap 0; WHU is the optimum of facets 1, 2,
    # 5, 6 and 13, whose wr is a few ulps of WHU's revenue above 0: the
    # tolerance scales with the revenues compared, not with the gap, and
    # wr <= gap is then the same verdict as the recovery check
    yhat = uni985.outputs[:, uni985.index("WHU")]
    rep = check_assumptions(uni985, uni_facets, whu_tables, toy_scenario, yhat, 0.0, 0.0)
    entries = rep["assumptions"]["recovery_entries"]
    assert [(e["facet"], w["facet"], w["bound"]) for e, w in zip(entries, rep["withstand"])] == [
        (k, k, 0.0) for k in (1, 2, 5, 6, 9, 10, 12, 13)]
    assert 0.0 < rep["withstand"][0]["wr"] < 1e-10
    within = [w["within_bound"] for w in rep["withstand"]]
    assert within == [e["holds"] for e in entries] == [True] * 4 + [False] * 3 + [True]


def test_assumptions_require_facet_point(toy_a, toy_facets, toy_tables, toy_scenario):
    yD_off = np.array([1.0, 1.0, 1.0])
    with pytest.raises(fb.DataError, match="no facet"):
        check_assumptions(toy_a, toy_facets, toy_tables, toy_scenario, yD_off, 0.0, 1.0)


def test_uniqueness_unique_vertex(toy_facets, toy_tables, toy_scenario):
    assert uniqueness_diagnostics(toy_tables, toy_facets.facets[1].id, toy_scenario, 1.0) == "unique"


def test_uniqueness_parallel_price(toy_facets, toy_tables):
    f1 = toy_facets.facets[0]
    sc = PriceScenario(
        output_names=("a", "b", "c"), bases=f1.u * 10.0, slopes=np.zeros(3), domain=(0.0, 1.0)
    )
    assert uniqueness_diagnostics(toy_tables, f1.id, sc, 0.0) == "facet-degenerate"


def test_uniqueness_parallel_price_whose_squares_overflow(toy_facets, toy_tables):
    f1 = toy_facets.facets[0]
    sc = PriceScenario(
        output_names=("a", "b", "c"), bases=f1.u * 1e200, slopes=np.zeros(3), domain=(0.0, 1.0)
    )
    assert uniqueness_diagnostics(toy_tables, f1.id, sc, 0.0) == "facet-degenerate"


def test_uniqueness_edge_tie(toy_a, toy_facets, toy_tables):
    # equal prices on outputs 1 and 2 with a third price high enough that
    # A and B tie at the optimum: orthogonal to B - A
    f1 = toy_facets.facets[0]
    prices = np.array([1.0, 1.0, 7.0])
    yA, yB = toy_a.outputs[:, 0], toy_a.outputs[:, 1]
    assert float(prices @ (yB - yA)) == pytest.approx(0.0, abs=1e-12)
    assert float(prices @ yA) > float(prices @ toy_a.outputs[:, 2])  # A beats C
    sc = PriceScenario(output_names=("a", "b", "c"), bases=prices, slopes=np.zeros(3), domain=(0.0, 1.0))
    assert uniqueness_diagnostics(toy_tables, f1.id, sc, 0.0) == "edge-degenerate"


# Facets with a point at xbar, each pinned at delta 0, 0.5 and 1 under
# prices_toy.json to the kind the generator rule gave before uniqueness read
# the vertex tables: "unique" everywhere.  At WHU's inputs facets 1, 2, 5, 6
# and 13 have three table rows that are one point, and facets 9, 10 and 12
# five rows that are three points; a rule that counted rows instead of
# points would call 17 of these 45 cells degenerate.
UNIQUE_AT = {
    "toy-1": ("toy", [1.0], (1, 2)),
    "toy-2.5": ("toy", [2.5], (1, 2)),
    "985-WHU": ("985", "WHU", (1, 2, 5, 6, 9, 10, 11, 12, 13)),
    "985-2000-100": ("985", [2000.0, 100.0], (13, 14)),
}


@pytest.mark.parametrize("delta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("case", sorted(UNIQUE_AT))
def test_uniqueness_counts_points_not_rows(toy_a, toy_facets, uni985, uni_facets, toy_scenario, case, delta):
    data, xbar, with_point = UNIQUE_AT[case]
    ds, fs = (toy_a, toy_facets) if data == "toy" else (uni985, uni_facets)
    tables = facet_tables(ds, fs, ds.inputs[:, ds.index(xbar)] if xbar == "WHU" else np.array(xbar))
    assert tuple(fid for fid, V in tables.vertices.items() if len(V)) == with_point
    kinds = {fid: uniqueness_diagnostics(tables, fid, toy_scenario, delta) for fid in with_point}
    assert kinds == dict.fromkeys(with_point, "unique")


@pytest.fixture
def whu_tables(uni985, uni_facets):
    return facet_tables(uni985, uni_facets, uni985.inputs[:, uni985.index("WHU")])


def flat_prices(ds, prices):
    return PriceScenario(ds.output_labels, bases=prices, slopes=np.zeros(ds.s), domain=(0.0, 0.0))


@pytest.mark.parametrize("fid,kind", [(9, "facet-degenerate"), (10, "facet-degenerate"),
                                      (11, "facet-degenerate"), (12, "facet-degenerate"), (13, "unique")])
def test_uniqueness_along_the_normal_with_two_inputs(uni985, uni_facets, whu_tables, fid, kind):
    # prices along a facet's normal tie every point of it at WHU's inputs:
    # three or four points on facets 9 to 12, but facet 13's three rows
    # there are one point, so its optimum is unique
    sc = flat_prices(uni985, uni_facets.facets[fid - 1].u)
    assert uniqueness_diagnostics(whu_tables, fid, sc, 0.0) == kind


def test_uniqueness_edge_tie_with_two_inputs(uni985, uni_facets, whu_tables):
    # facet 9 at WHU's inputs: rows 0, 1 and 2 are its three points; the
    # normal tilted within the facet plane, orthogonal to row 1 - row 0,
    # ties those two and puts row 2 below them
    u = uni_facets.facets[8].u
    P = whu_tables.vertices[9]
    tilt = np.cross(u, P[1] - P[0])
    prices = u + 1e-3 * tilt / np.abs(tilt).max() * np.sign(tilt @ (P[0] - P[2]))
    assert uniqueness_diagnostics(whu_tables, 9, flat_prices(uni985, prices), 0.0) == "edge-degenerate"


def test_scenario_json_round_trip(tmp_path, toy_scenario):
    payload = {
        "outputs": [
            {"name": n, "base": float(b), "slope": float(s)}
            for n, b, s in zip(toy_scenario.output_names, toy_scenario.bases, toy_scenario.slopes)
        ],
        "delta_domain": list(toy_scenario.domain),
    }
    p = tmp_path / "sc.json"
    p.write_text(json.dumps(payload))
    sc = fb.load_scenario(p)
    assert np.array_equal(sc.bases, toy_scenario.bases)
    assert np.array_equal(sc.slopes, toy_scenario.slopes)
    assert sc.domain == toy_scenario.domain


def test_sampler_counter_stream():
    s = PriceSampler()
    a = s.draw(42, 7, 8, 3)
    b = s.draw(42, 8, 9, 3)
    assert a.shape == b.shape == (1, 3)
    assert not np.array_equal(a, b)
    # a trial's prices do not depend on the range drawn around it
    assert np.array_equal(s.draw(42, 0, 20, 3)[7:9], np.vstack([a, b]))
    assert np.all((a >= 0.1) & (a <= 10.0))
    assert s.draw(42, 5, 5, 3).shape == (0, 3)


PHILOX_SEEDS = [0, 1, 7, 42, 985, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**64 + 1,
                2**96, 2**127, 2**128 - 1, 0xDEADBEEF, 5**50]
PHILOX_STARTS = [0, 1000, 2**32 - 3, 2**63, 2**64 - 5]


@pytest.mark.parametrize("seed", PHILOX_SEEDS)
def test_sampler_matches_numpy_philox_bit_for_bit(seed):
    # Philox4x64-10 keyed by the seed at counter trial << 64, read by
    # Generator.uniform: the vectorised stream is the documented one.
    # The starts cross the counter word's 32-bit and 64-bit boundaries;
    # s = 1..9 takes one to three blocks of four words.
    for start in PHILOX_STARTS:
        stop = start + 5   # the last start ends at the top counter word, 2**64 - 1
        for s in range(1, 10):
            got = PriceSampler().draw(seed, start, stop, s)
            want = np.array([
                np.random.Generator(np.random.Philox(key=seed, counter=i << 64)).uniform(0.1, 10.0, size=s)
                for i in range(start, stop)
            ])
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (start, s)


@pytest.mark.parametrize("seed, start, stop", [
    (-1, 0, 1), (2**128, 0, 1), (0, -1, 1), (0, 2, 1), (0, 0, 2**64 + 1), (0, 2**64, 2**64),
])
def test_sampler_rejects_arguments_beyond_the_philox_words(seed, start, stop):
    with pytest.raises(fb.DataError):
        PriceSampler().draw(seed, start, stop, 3)


def test_coverage_toy(toy_a, toy_facets):
    rep = simulate_coverage(toy_a, toy_facets, [(1,), (2,), (1, 2)], XBAR, trials=500, seed=7)
    assert rep.strategy_counts[2] == 500  # union of both facets covers everything
    assert rep.facet_counts[1] + rep.facet_counts[2] >= 500
    assert rep.strategy_counts[0] <= rep.strategy_counts[2]
    assert rep.strategy_counts[1] <= rep.strategy_counts[2]
    # per-sample containment checks were recorded for both subset pairs
    assert len(rep.containment_checks) == 2
    assert all(c["per_sample_subset"] for c in rep.containment_checks)


def test_coverage_deterministic(toy_a, toy_facets):
    a = simulate_coverage(toy_a, toy_facets, [(1, 2)], XBAR, trials=200, seed=123)
    b = simulate_coverage(toy_a, toy_facets, [(1, 2)], XBAR, trials=200, seed=123)
    owned_a = coverage_ownership(a, toy_a, toy_facets, XBAR)
    assert np.array_equal(owned_a, coverage_ownership(b, toy_a, toy_facets, XBAR))
    assert a.to_payload() == b.to_payload()
    c = simulate_coverage(toy_a, toy_facets, [(1, 2)], XBAR, trials=200, seed=124)
    assert not np.array_equal(owned_a, coverage_ownership(c, toy_a, toy_facets, XBAR))


def test_coverage_theorem7_subset_events(toy_a, toy_facets):
    # the set of samples won by strategy {1} is a subset of {1,2}'s, sample
    # by sample (set containment, not frequency comparison)
    rep = simulate_coverage(toy_a, toy_facets, [(1,), (1, 2)], XBAR, trials=400, seed=5)
    owned = coverage_ownership(rep, toy_a, toy_facets, XBAR)
    rows_k1 = owned[:, 0]
    rows_union = owned.any(axis=1)
    assert np.all(rows_union >= rows_k1)
    assert rep.containment_checks == ({
        "k1": [1], "k2": [1, 2], "count_k1": int(rows_k1.sum()), "count_k2": int(rows_union.sum()),
        "per_sample_subset": True,
    },)


def test_coverage_memory_does_not_grow_with_trials(uni985, uni_facets):
    # trials are counted block by block, so 32 times the trials at WHU's
    # inputs may raise the Python heap's peak by 64 kB at most
    xbar = uni985.inputs[:, uni985.index("WHU")]
    strategies = [(fid,) for fid in uni_facets.ids()] + [uni_facets.ids()]

    def peak(trials):
        tracemalloc.start()
        try:
            simulate_coverage(uni985, uni_facets, strategies, xbar, trials=trials, seed=1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)   # first-call allocations count against neither run
    assert peak(65_536) <= peak(2_048) + 64 * 1024


def test_coverage_validates_inputs(toy_a, toy_facets):
    with pytest.raises(fb.DataError, match="trials"):
        simulate_coverage(toy_a, toy_facets, [(1,)], XBAR, trials=0, seed=1)
    with pytest.raises(fb.DataError, match="trials"):
        simulate_coverage(toy_a, toy_facets, [(1,)], XBAR, trials=MAX_TRIALS + 1, seed=1)
    with pytest.raises(fb.DataError, match="strategy"):
        simulate_coverage(toy_a, toy_facets, [], XBAR, trials=10, seed=1)
    with pytest.raises(fb.DataError, match="unknown facet"):
        simulate_coverage(toy_a, toy_facets, [(9,)], XBAR, trials=10, seed=1)


def test_facet_optimum_infeasible_input_direction(uni985, uni_facets):
    # an input mix far outside the members' input cone cannot be matched
    sc = PriceScenario(
        output_names=("a", "b", "c"), bases=np.ones(3), slopes=np.zeros(3), domain=(0.0, 1.0)
    )
    tables = facet_tables(uni985, uni_facets, np.array([1.0, 1e9]))
    with pytest.raises(fb.FacetInfeasibleError):
        facet_optimum(tables, uni_facets.facets[0].id, sc, 0.0)
    with pytest.raises(fb.FacetInfeasibleError):
        global_optimum(tables, sc, 0.0)


def test_single_facet_global_equals_facet_optimum(toy_a, toy_facets, toy_scenario):
    from facetbench.facets import FacetSet
    single = FacetSet(facets=toy_facets.facets[:1], extremes=toy_facets.extremes, scope="extremes")
    tables = facet_tables(toy_a, single, XBAR)
    best, owners = global_optimum(tables, toy_scenario, 1.0)
    alone = facet_optimum(tables, single.facets[0].id, toy_scenario, 1.0)
    assert best.value == alone.value
    assert owners == (1,)


@pytest.mark.parametrize("payload", [
    [1, 2],
    {"table": {}},
    {"table": [[0, 1]]},
    {"table": {"a": [1, 2, 3]}},
    {"table": {"1_0": [1, 2, 3]}},
    {"table": {"0": ["x", 2, 3]}},
    {"table": {"0": "5"}},
    {"table": {"0": [1, 2, 3], "0.0": [1, 2, 3]}},
    {"table": {"0": [1, 2, 3], "1": [1, 2]}},
    {"table": {"0": [float("nan"), 2, 3]}},
    {"outputs": [{"name": "a", "base": "1_0"}], "delta_domain": [0, 1]},
    {"outputs": [{"name": "a", "base": 1}], "delta_domain": [0]},
    {"outputs": [{"name": "a", "base": 1}], "delta_domain": [0, float("inf")]},
], ids=lambda p: json.dumps(p))
def test_load_scenario_rejects_malformed_files(tmp_path, payload):
    p = tmp_path / "prices.json"
    p.write_text(json.dumps(payload))
    with pytest.raises(fb.DataError):
        fb.load_scenario(p)


def lp_incidence(ds, facets, xbar, trials, seed):
    """Per-trial coverage oracle on the LP path: one facet-optimum LP per
    facet and trial, then the documented ownership test."""
    rows = []
    for prices in PriceSampler().draw(seed, 0, trials, ds.s):
        values = np.full(len(facets.facets), -np.inf)
        for col, f in enumerate(facets.facets):
            try:
                values[col] = lp_facet_optimum(ds, f, xbar, prices)[2]
            except fb.FacetInfeasibleError:
                pass
        best = float(np.max(values))
        rows.append(values >= best - OWNERSHIP_RTOL * abs(best))
    return np.array(rows)


def lp_infeasible(ds, facet, xbar):
    try:
        lp_facet_optimum(ds, facet, xbar, np.ones(ds.s))
    except fb.FacetInfeasibleError:
        return True
    return False


def test_coverage_incidence_matches_lp_oracle_toy(toy_a, toy_facets):
    rep = simulate_coverage(toy_a, toy_facets, [(1, 2)], XBAR, trials=400, seed=985)
    owned = coverage_ownership(rep, toy_a, toy_facets, XBAR)
    assert np.array_equal(owned, lp_incidence(toy_a, toy_facets, XBAR, 400, 985))


@pytest.mark.parametrize("dmu", ["WHU", "PKU"])
def test_coverage_incidence_matches_lp_oracle_985(uni985, uni_facets, dmu):
    xbar = uni985.inputs[:, uni985.index(dmu)]
    rep = simulate_coverage(uni985, uni_facets, [uni_facets.ids()], xbar, trials=150, seed=31)
    assert tuple(rep.facet_counts) == uni_facets.ids()
    owned = coverage_ownership(rep, uni985, uni_facets, xbar)
    assert np.array_equal(owned, lp_incidence(uni985, uni_facets, xbar, 150, 31))


def test_empty_vertex_table_iff_lp_infeasible_985(uni985, uni_facets):
    outcomes = set()
    for o in range(uni985.n):
        xbar = uni985.inputs[:, o]
        tables = facet_tables(uni985, uni_facets, xbar)
        for f in uni_facets.facets:
            empty = len(tables.vertices[f.id]) == 0
            assert empty == lp_infeasible(uni985, f, xbar), (uni985.names[o], f.id)
            outcomes.add(empty)
    assert outcomes == {True, False}  # both cases occur


def rank_deficient_case(unit=1.0):
    """Facet 1's members have proportional inputs along (2, 3), so X_f has
    rank 1 < m; facet 2's inputs span a cone that excludes that ray.  The
    proportions are not exact in binary (0.2 * 1.5 != 0.3), as in real
    data.  Facet 3 has full rank, but two of its members' inputs are
    exactly proportional, so one of its bases is singular.  `unit` scales
    every input."""
    ds = fb.Dataset(
        names=("A", "B", "C", "D", "E", "F"),
        inputs=unit * np.array([[0.2, 0.4, 1.4, 1.0, 2.0, 1.0],
                                [0.3, 0.6, 2.1, 1.0, 1.0, 1.4]]),
        outputs=np.array([[10.0, 6.0, 1.0, 5.0, 8.0, 3.0],
                          [1.0, 6.0, 10.0, 5.0, 3.0, 8.0]]),
    )
    unit = np.ones(2) / 2.0
    facets = FacetSet(
        facets=(Facet(1, (0, 1, 2), unit, unit), Facet(2, (3, 4, 5), unit, unit),
                Facet(3, (0, 1, 3), unit, unit)),
        extremes=tuple(range(6)), scope="extremes",
    )
    return ds, facets


@pytest.mark.parametrize("xbar, usable", [
    ((0.6, 0.9), (True, False, True)),    # on facet 1's input ray
    ((2.0, 2.5), (False, True, True)),    # off it: facet 1 admits no point
], ids=["on-ray", "off-ray"])
@pytest.mark.parametrize("unit", [1.0, 2.0**-30, 2.0**30], ids=["unit", "div2^30", "x2^30"])
def test_rank_deficient_facet_matches_lp(xbar, usable, unit):
    # tolerances are judged after power-of-two row equilibration, so a
    # change of input unit moves neither path's feasibility verdicts
    ds, facets = rank_deficient_case(unit)
    xbar = unit * np.array(xbar)
    tables = facet_tables(ds, facets, xbar)
    for f, want in zip(facets.facets, usable):
        table = tables.vertices[f.id]
        assert (len(table) > 0) == want
        assert lp_infeasible(ds, f, xbar) == (not want)
        for prices in PriceSampler().draw(3, 0, 20, ds.s):
            if want:
                lp_value = lp_facet_optimum(ds, f, xbar, prices)[2]
                assert float(np.max(table @ prices)) == pytest.approx(lp_value, rel=1e-12)
    rep = simulate_coverage(ds, facets, [(1,), (2,), (3,), (1, 2, 3)], xbar, trials=300, seed=3)
    assert np.array_equal(coverage_ownership(rep, ds, facets, xbar), lp_incidence(ds, facets, xbar, 300, 3))
    assert rep.strategy_counts[-1] == 300


def test_coverage_no_usable_facet(uni985, uni_facets):
    with pytest.raises(fb.FacetInfeasibleError, match="no facet admits"):
        simulate_coverage(uni985, uni_facets, [(1,)], np.array([1.0, 1e9]), trials=5, seed=0)


def containment_points(ds, facet, rng):
    """Every DMU point, 40 combinations of the members (a quarter with one
    weight zero), 20 points on the facet's hyperplane off the facet by one
    negative weight, and each DMU point and combination with every output
    raised by 1e-6."""
    cols = list(facet.members)
    W = rng.uniform(0.05, 1.0, (40, len(cols)))
    W[:10, 0] = 0.0
    N = rng.uniform(0.05, 1.0, (20, len(cols)))
    N[np.arange(20), np.arange(20) % len(cols)] = -rng.uniform(0.01, 0.5, 20)
    X = np.hstack([ds.inputs, ds.inputs[:, cols] @ W.T, ds.inputs[:, cols] @ N.T])
    Y = np.hstack([ds.outputs, ds.outputs[:, cols] @ W.T, ds.outputs[:, cols] @ N.T])
    on = ds.n + len(W)
    return np.hstack([X, X[:, :on]]).T, np.hstack([Y, Y[:, :on] + 1e-6]).T


@pytest.mark.parametrize("dataset", ["toy", "985"])
def test_facet_contains_matches_lp_oracle(toy_a, toy_facets, uni985, uni_facets, dataset):
    ds, facets = (toy_a, toy_facets) if dataset == "toy" else (uni985, uni_facets)
    rng = np.random.default_rng(17)
    verdicts = []
    for f in facets.facets:
        for x, y in zip(*containment_points(ds, f, rng)):
            got = fb.facet_contains(f, ds, x, y)
            assert got == lp_facet_contains(f, ds, x, y), (f.id, x.tolist(), y.tolist())
            verdicts.append(got)
    assert 0.2 < np.mean(verdicts) < 0.5  # both verdicts occur, often


def lp_global_optimum(ds, facets, xbar, prices):
    """(value, owners) by the documented ownership rule over the LP
    oracle's facet optima."""
    values = {}
    for f in facets.facets:
        try:
            values[f.id] = lp_facet_optimum(ds, f, xbar, prices)[2]
        except fb.FacetInfeasibleError:
            pass
    best = max(values.values())
    return best, tuple(k for k, v in values.items() if v >= best - OWNERSHIP_RTOL * abs(best))


def test_facet_and_global_optima_match_lp_oracle_985(uni985, uni_facets, uni_extremes):
    infeasible = 0
    for o in uni_extremes.indices:
        xbar = uni985.inputs[:, o]
        tables = facet_tables(uni985, uni_facets, xbar)
        for i, prices in enumerate(PriceSampler().draw(985, 0, 6, uni985.s)):
            sc = PriceScenario(uni985.output_labels, bases=prices, slopes=np.zeros(3), domain=(0.0, 0.0))
            for f in uni_facets.facets:
                try:
                    want = lp_facet_optimum(uni985, f, xbar, prices)[2]
                except fb.FacetInfeasibleError:
                    infeasible += 1
                    with pytest.raises(fb.FacetInfeasibleError):
                        facet_optimum(tables, f.id, sc, 0.0)
                    continue
                got = facet_optimum(tables, f.id, sc, 0.0)
                assert got.value == pytest.approx(want, rel=1e-12)
                # one summation for every scenario question: a row of prices @ V.T
                assert got.value == float(np.max(prices @ tables.vertices[f.id].T))
            best, owners = global_optimum(tables, sc, 0.0)
            want_best, want_owners = lp_global_optimum(uni985, uni_facets, xbar, prices)
            assert owners == want_owners, (uni985.names[o], i)
            assert best.value == pytest.approx(want_best, rel=1e-12)
    assert infeasible > 0


def test_ties_go_to_the_first_basis_then_the_first_facet(toy_a, toy_facets, toy_tables):
    # prices (1, 1, 7) value A and B at exactly 855, above C: facet 1's
    # optimum is the first of its tied bases in combinations order, A
    f1 = toy_facets.facets[0]
    sc = PriceScenario(output_names=("a", "b", "c"), bases=np.array([1.0, 1.0, 7.0]), slopes=np.zeros(3),
                       domain=(0.0, 1.0))
    table = toy_tables.vertices[f1.id]
    assert [float(np.sum(np.array([1.0, 1.0, 7.0]) * y)) for y in table] == [855.0, 855.0, 830.0]
    opt = facet_optimum(toy_tables, f1.id, sc, 0.0)
    assert opt.value == 855.0
    assert opt.outputs.tolist() == toy_a.outputs[:, toy_a.index("A")].tolist()
    # prices (1, 1, 1) value C, the one vertex both facets share, at 290:
    # both own the global optimum, and the point reported is facet 1's
    even = PriceScenario(output_names=("a", "b", "c"), bases=np.ones(3), slopes=np.zeros(3), domain=(0.0, 1.0))
    best, owners = global_optimum(toy_tables, even, 0.0)
    assert (best.facet_id, best.value, owners) == (1, 290.0, (1, 2))
