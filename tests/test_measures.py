import itertools

import numpy as np
import pytest

import facetbench as fb
from facetbench.measures import closest_on_efpps, extreme_set, russell_farthest
from facetbench.profiles import PAPER_985_EXTREMES

from conftest import envelope_verdicts


def extreme_test(ds, o):
    """(lambda0, extreme) of DMU o, read from the test run on every DMU."""
    res = extreme_set(ds)
    return res.lambda0[o], o in res.computed


def test_extreme_test_f_is_representable(toy_a):
    lam0, is_ext = extreme_test(toy_a, toy_a.index("F"))
    assert lam0 == pytest.approx(0.0, abs=1e-9)
    assert not is_ext


def convex_grid_dominates(ds, o, others, steps=20):
    """Brute-force search for a dominating convex combination of the
    other DMUs (dense simplex grid), independent of any LP machinery."""
    x_o = ds.inputs[:, o]
    y_o = ds.outputs[:, o]
    k = len(others)
    for comp in itertools.product(range(steps + 1), repeat=k - 1):
        if sum(comp) > steps:
            continue
        w = np.array(list(comp) + [steps - sum(comp)], dtype=float) / steps
        x = ds.inputs[:, others] @ w
        y = ds.outputs[:, others] @ w
        if np.all(x <= x_o + 1e-12) and np.all(y >= y_o - 1e-12):
            return True
    return False


def test_extreme_test_a_via_bruteforce(toy_a):
    o = toy_a.index("A")
    others = [j for j in range(toy_a.n) if j != o]
    assert not convex_grid_dominates(toy_a, o, others)
    lam0, is_ext = extreme_test(toy_a, o)
    assert is_ext
    assert lam0 == pytest.approx(1.0, abs=1e-9)


def test_whu_extreme(uni985):
    _, is_ext = extreme_test(uni985, uni985.index("WHU"))
    assert is_ext


def test_computed_set_includes_the_paper_11_plus_anomalies(uni985):
    res = extreme_set(uni985)
    names = {uni985.names[d] for d in res.indices}
    assert set(PAPER_985_EXTREMES) <= names
    # the printed data make TSU (maximal first output) undominated too
    assert "TSU" in names
    assert not res.pinned


def test_override_pins_verbatim_and_reports_discrepancy(uni985, uni_extremes):
    assert uni_extremes.pinned
    assert [uni985.names[d] for d in uni_extremes.indices] == list(PAPER_985_EXTREMES)
    assert uni_extremes.discrepancy
    detail = uni_extremes.discrepancy_detail(uni985)
    assert "TSU" in detail["computed_not_pinned"]
    assert detail["pinned_not_computed"] == []


def test_override_unknown_name(uni985):
    with pytest.raises(fb.DataError, match="unknown DMU"):
        extreme_set(uni985, override=["WHU", "NOPE"])


def test_single_dmu_dataset_extreme():
    ds = fb.Dataset(names=("solo",), inputs=[[2.0]], outputs=[[3.0]])
    res = extreme_set(ds)
    assert res.indices == (0,)


def test_russell_table_rows(uni985):
    for name, expected in (("WHU", 1.0), ("RUC", 0.3891), ("TSU", 1.0)):
        r = russell_farthest(uni985, [uni985.index(name)])[0]
        assert r.theta == pytest.approx(expected, abs=1e-3)
    assert russell_farthest(uni985, [uni985.index("WHU")])[0].status == "on-frontier"


def test_russell_slacks_nonnegative(uni985):
    for o in (0, 5, 12, 30):
        r = russell_farthest(uni985, [o])[0]
        assert np.all(r.slacks >= -1e-12)


def test_closest_table_rows(uni985, uni_facets):
    r = closest_on_efpps(uni_facets, uni985, [uni985.index("PKU")])[0]
    assert r.theta == pytest.approx(0.9964, abs=1e-2)
    r = closest_on_efpps(uni_facets, uni985, [uni985.index("NAFU")])[0]
    assert r.theta == pytest.approx(0.3036, abs=1e-2)


def test_closest_tsu_flagged(uni985, uni_facets):
    r = closest_on_efpps(uni_facets, uni985, [uni985.index("TSU")])[0]
    assert r.status == "out-of-envelope"
    assert r.theta is None


def test_closest_on_facet_point_scores_one(uni985, uni_facets):
    r = closest_on_efpps(uni_facets, uni985, [uni985.index("WHU")])[0]
    assert r.theta == pytest.approx(1.0, abs=1e-9)
    assert np.all(np.abs(r.slacks) <= 1e-7)
    assert r.status == "on-frontier"


def test_closest_target_touches_boundary(uni985, uni_facets):
    # the projection lies on the boundary: one facet tight, none violated
    for name in ("PKU", "RUC", "BIT", "NAFU"):
        o = uni985.index(name)
        r = closest_on_efpps(uni_facets, uni985, [o])[0]
        target = uni985.outputs[:, o] + r.slacks
        vals = np.array([f.value(target, uni985.inputs[:, o]) for f in uni_facets.facets])
        scale = max(1.0, float(np.max(np.abs(vals))))
        assert np.max(vals) <= 1e-7 * scale          # inside every half-space
        assert np.max(vals) >= -1e-7 * scale         # and touching one


@pytest.mark.parametrize("data,pinned,scope,outside", [
    ("universities_985.csv", True, "extremes", {"TSU"}),
    ("universities_985.csv", True, "all", set()),
    ("universities_985.csv", False, "extremes", set()),
    ("universities_985.csv", False, "all", set()),
    ("toy_isoquant_a.csv", False, "extremes", set()),
], ids=["985-pinned-extremes", "985-pinned-all", "985-computed-extremes", "985-computed-all", "toy"])
def test_out_of_envelope_is_an_envelope_violation(data_dir, data, pinned, scope, outside):
    """The closest measure flags exactly the DMUs the report lists as
    outside some facet half-space: both read one residual test."""
    ds = fb.load_dataset(data_dir / data)
    ext = extreme_set(ds, override=PAPER_985_EXTREMES if pinned else None)
    fs = fb.enumerate_facets(ds, ext.indices, scope)
    payload = fb.build_report(ds, ext, fs, fb.partition_robust(fs), "table4-max").payload
    assert envelope_verdicts(payload) == (outside, outside)


def test_theta_iff_zero_slacks(uni985, uni_facets):
    for o in range(0, uni985.n, 5):
        for r in (russell_farthest(uni985, [o])[0], closest_on_efpps(uni_facets, uni985, [o])[0]):
            if r.theta is None:
                continue
            assert 0.0 < r.theta <= 1.0
            zero = np.all(np.abs(r.slacks) <= 1e-7)
            assert (abs(r.theta - 1.0) <= 1e-7) == zero


def test_eff2_not_less_than_eff3_on_sample(uni985, uni_facets):
    # an observed regularity of this sample, not a law
    for o in range(uni985.n):
        r2 = closest_on_efpps(uni_facets, uni985, [o])[0]
        r3 = russell_farthest(uni985, [o])[0]
        if r2.theta is None:
            continue
        assert r2.theta >= r3.theta - 1e-7


def test_override_duplicate_name(uni985):
    with pytest.raises(fb.DataError, match="more than once"):
        extreme_set(uni985, override=["WHU", "WHU"])
