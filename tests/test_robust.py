import numpy as np
import pytest

import facetbench as fb
from facetbench.robust import RowError, batch_evaluate


def robust_row(ds, part, o, aggregation="table4-max"):
    """DMU o's row of the batch that a report evaluates."""
    return batch_evaluate(ds, part, aggregation)[o]


def group_result(ds, part, o, leader):
    """DMU o's result against the robust group whose first member is leader."""
    index = next(g.index for g in part.groups if ds.names[g.members[0]] == leader)
    return next(g for g in robust_row(ds, part, o).groups if g.group_index == index)


def grid_refine_oracle(x_o, y_o, x_ref, y_ref, lam_hi=None, steps=100_001):
    """Best (sum(z), gamma) over a dense lambda grid for one-reference
    groups: counts nonnegative slacks first, then distance."""
    if lam_hi is None:
        lam_hi = min(float(a) / float(b) for a, b in zip(x_o, x_ref))
    s = len(y_o)

    def key(lam):
        sl = lam * y_ref - y_o
        z = sum(1 for v in sl if v >= -1e-9)
        return (-z, float(np.sum(np.abs(sl) / y_o)) / s)

    grid = np.linspace(0.0, lam_hi, steps)
    best = min(grid, key=key)
    step = grid[1] - grid[0]
    fine = np.linspace(max(0.0, best - step), min(lam_hi, best + step), 20_001)
    best = min(fine, key=key)
    return key(best)


def test_pku_group_whu(uni985, uni_partition):
    res = group_result(uni985, uni_partition, uni985.index("PKU"), "WHU")
    assert res.intensities[uni985.index("WHU")] == pytest.approx(54 / 95, abs=1e-10)
    assert res.slacks == pytest.approx([0.0, -24.2421, -3107.3474], abs=1e-3)
    assert res.theta == pytest.approx(0.7251, abs=5e-4)


def test_pku_group_cqu(uni985, uni_partition):
    o = uni985.index("PKU")
    res = group_result(uni985, uni_partition, o, "CQU")
    assert res.z == (0, 0, 0)
    assert res.intensities[uni985.index("CQU")] == pytest.approx(274.112 / 363.333, abs=1e-9)
    assert res.theta == pytest.approx(0.6308, abs=5e-4)
    zk, gamma = grid_refine_oracle(
        uni985.inputs[:, o], uni985.outputs[:, o],
        uni985.inputs[:, uni985.index("CQU")], uni985.outputs[:, uni985.index("CQU")],
    )
    assert -zk == sum(res.z)
    assert res.gamma == pytest.approx(gamma, abs=1e-6)


def test_whu_self_evaluation(uni985, uni_partition):
    res = group_result(uni985, uni_partition, uni985.index("WHU"), "WHU")
    assert res.theta == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(res.slacks, 0.0, atol=1e-9)
    assert res.z == (1, 1, 1)
    assert res.intensities[uni985.index("WHU")] == pytest.approx(1.0, abs=1e-10)


def test_aggregation_modes_pku(uni985, uni_partition):
    o = uni985.index("PKU")
    res_max = robust_row(uni985, uni_partition, o, "table4-max")
    assert res_max.theta == pytest.approx(0.725, abs=5e-4)
    assert res_max.slacks == pytest.approx([0.0, -24.2421, -3107.3474], abs=1e-2)
    res_min = robust_row(uni985, uni_partition, o, "paper-min")
    assert res_min.theta == pytest.approx(0.6308, abs=5e-4)
    assert res_min.chosen_group != res_max.chosen_group


def test_cun_row(uni985, uni_partition):
    o = uni985.index("CUN")
    res = robust_row(uni985, uni_partition, o)
    assert res.theta == pytest.approx(0.6381, abs=5e-4)
    assert res.slacks == pytest.approx([0.8908, -8.1092, 0.0], abs=1e-2)
    chosen = res.chosen()
    assert uni985.names[list(chosen.intensities)[0]] == "CQU"
    assert chosen.intensities[uni985.index("CQU")] == pytest.approx(135 / 2142, abs=1e-10)


def test_ruc_row(uni985, uni_partition):
    o = uni985.index("RUC")
    res = robust_row(uni985, uni_partition, o)
    assert res.theta == pytest.approx(0.7676, abs=5e-4)
    assert res.slacks == pytest.approx([0.3645, -2.1787, 0.0], abs=1e-2)
    chosen = res.chosen()
    assert chosen.intensities[uni985.index("WHU")] == pytest.approx(101 / 4058, abs=1e-10)


def test_slack_kinds(uni985, uni_partition):
    res = robust_row(uni985, uni_partition, uni985.index("PKU"))
    assert res.slack_kinds == ("zero", "distortion", "distortion")
    res = robust_row(uni985, uni_partition, uni985.index("NKU"))
    assert "shortfall" in res.slack_kinds


def test_batch_full_table(uni985, uni_partition):
    rows = batch_evaluate(uni985, uni_partition)
    assert len(rows) == uni985.n
    by_name = {uni985.names[r.dmu]: r for r in rows}
    assert by_name["WHU"].theta == pytest.approx(1.0, abs=1e-9)
    assert by_name["CQU"].theta == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(by_name["WHU"].slacks, 0, atol=1e-9)


def test_group_invariants_across_sample(uni985, uni_partition):
    rows = batch_evaluate(uni985, uni_partition)
    for row in rows:
        for g in row.groups:
            assert np.all(g.s_plus * g.s_minus == 0.0)
            assert np.all(g.target_inputs <= uni985.inputs[:, row.dmu] + 1e-9)
            recon = uni985.outputs[:, row.dmu] + g.slacks
            assert np.allclose(recon, g.target_outputs, atol=1e-6)
            assert 0.0 < g.theta <= 1.0
        assert 0.0 < row.theta <= 1.0
        zero = np.allclose(row.slacks, 0.0, atol=1e-7)
        assert (abs(row.theta - 1.0) <= 1e-9) == zero


def test_lambda_shrink_warning_on_toy(toy_a, toy_facets):
    # D against the robust group {C}: the distance term drives lambda to
    # 1/90 and the target collapses toward the origin
    part = fb.partition_robust(toy_facets)
    res = robust_row(toy_a, part, toy_a.index("D"))
    chosen = res.chosen()
    assert chosen.intensities[toy_a.index("C")] == pytest.approx(1 / 90, abs=1e-10)
    assert res.warnings and "shrink" in res.warnings[0]
    assert res.theta == pytest.approx(0.6022, abs=5e-4)


def test_empty_partition_rejected(uni985):
    from facetbench.partition import RobustPartition
    empty = RobustPartition(membership={}, maxcount=0, s_star=(), groups=())
    rows = batch_evaluate(uni985, empty)
    assert len(rows) == uni985.n
    assert all(isinstance(r, RowError) and "empty partition" in r.error for r in rows)


def test_unknown_aggregation_rejected(uni985, uni_partition):
    # raised for the whole call, not turned into a per-row RowError
    with pytest.raises(fb.DataError, match="aggregation must be one of"):
        batch_evaluate(uni985, uni_partition, "bogus")


def test_monotone_distance_term(uni985, uni_partition):
    # enlarging a slack magnitude in a fixed-sign solution never lowers
    # the objective: the distance term has strictly positive weights
    o = uni985.index("SEU")
    res = robust_row(uni985, uni_partition, o)
    g = res.chosen()
    base = float(np.sum(np.abs(g.slacks) / uni985.outputs[:, o])) / uni985.s
    assert base == pytest.approx(g.gamma, abs=1e-12)
    bumped = np.abs(g.slacks.copy())
    bumped[0] += 1.0
    assert float(np.sum(bumped / uni985.outputs[:, o])) / uni985.s > g.gamma


def test_empty_dataset_empty_table(toy_a, toy_facets):
    part = fb.partition_robust(toy_facets)
    empty = fb.Dataset(names=(), inputs=np.zeros((1, 0)), outputs=np.zeros((3, 0)))
    assert batch_evaluate(empty, part) == []
