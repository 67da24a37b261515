"""Lockstep batches: solving LPs together must give each one the result
it gets alone, bit for bit, and the layers that batch their LPs must
solve exactly the LPs they solved one by one."""

import contextlib
import hashlib
import io
from collections import Counter

import numpy as np
import pytest

import facetbench as fb
import facetbench.lp as lp
from facetbench import cli, measures, report, signpattern
from facetbench.errors import SolverError

from test_lp import LP_DIGEST, _digest_instances


def _digest(sols) -> str:
    h = hashlib.sha256()
    for sol in sols:
        if isinstance(sol, SolverError):
            h.update(f"error:{sol}".encode())
            continue
        h.update(f"{sol.status}|{sol.iterations}|{sol.degenerate_optimal_face}|{sol.value!r}|".encode())
        h.update(sol.x.tobytes())
    return h.hexdigest()


def _same(a, b) -> bool:
    return (a.status, a.iterations, a.degenerate_optimal_face, repr(a.value), a.x.tobytes()) == \
        (b.status, b.iterations, b.degenerate_optimal_face, repr(b.value), b.x.tobytes())


@pytest.fixture(scope="module")
def instances():
    return list(_digest_instances(2000))


def test_one_batch_reproduces_the_digest(instances):
    assert _digest(lp.solve_lps(instances)) == LP_DIGEST


@pytest.mark.parametrize("seed", [0, 1])
def test_shuffled_batches_of_random_size_reproduce_the_digest(instances, seed):
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(instances))
    sols = [None] * len(instances)
    start = 0
    while start < len(order):
        chunk = order[start:start + int(rng.integers(1, 300))]
        start += len(chunk)
        for i, sol in zip(chunk, lp.solve_lps([instances[i] for i in chunk])):
            sols[i] = sol
    assert _digest(sols) == LP_DIGEST


def test_an_error_stays_with_its_problem(instances, monkeypatch):
    """An iteration limit that only the hardest problem exceeds fails that
    problem alone; its batch neighbours keep their normal results."""
    alone = lp.solve_lps(instances)
    hard = max(range(len(alone)), key=lambda i: alone[i].iterations)
    easy = [i for i in range(len(alone)) if alone[i].iterations <= 10]
    batch = easy[:300] + [hard] + easy[300:600]
    monkeypatch.setattr(lp, "_MAXITER", 11)
    got = lp.solve_lps([instances[i] for i in batch])
    assert isinstance(got[300], SolverError)
    assert "iteration limit exceeded" in str(got[300])
    assert all(_same(g, alone[i]) for g, i in zip(got, batch) if i != hard)
    with pytest.raises(SolverError, match="iteration limit exceeded"):
        lp.solve_lp(instances[hard])


def test_empty_batch():
    assert lp.solve_lps([]) == []


def test_layers_batched_equal_one_dmu_at_a_time(uni985, uni_facets):
    dmus = range(uni985.n)
    for batched, single in (
        (fb.russell_farthest(uni985, dmus), [fb.russell_farthest(uni985, [o])[0] for o in dmus]),
        (fb.closest_on_efpps(uni_facets, uni985, dmus), [fb.closest_on_efpps(uni_facets, uni985, [o])[0] for o in dmus]),
    ):
        assert [(r.status, repr(r.theta), None if r.slacks is None else r.slacks.tobytes()) for r in batched] == \
            [(r.status, repr(r.theta), None if r.slacks is None else r.slacks.tobytes()) for r in single]
    ext = fb.extreme_set(uni985)
    assert [repr(ext.lambda0[o]) for o in dmus] == \
        [repr(lp.solve_lp(measures._extreme_problems(uni985, [o])[0]).value) for o in dmus]


def _with_output(ds, dmu, value):
    Y = ds.outputs.copy()
    Y[0, dmu] = value
    return fb.Dataset(ds.names, ds.inputs.copy(), Y, ds.input_labels, ds.output_labels)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("value,message", [(0.0, "strictly positive outputs"), (1e-320, "non-finite")])
def test_a_failing_dmu_marks_only_its_own_entry(uni985, uni_facets, value, message):
    """DMU 1's LPs fail (a zero output) or cannot be built (an output so
    small that 1/(s*y) overflows); the other DMUs of the batch get what
    they get alone."""
    ds = _with_output(uni985, 1, value)
    part = fb.partition_robust(uni_facets)
    rows = fb.batch_evaluate(ds, part)
    assert isinstance(rows[1], fb.RowError) and message in rows[1].error
    for o in (0, 2):
        assert repr(rows[o].theta) == repr(fb.robust_efficiency(ds, part, o).theta)
    if value == 0.0:
        return
    russell = fb.russell_farthest(ds, [0, 1, 2])
    assert isinstance(russell[1], SolverError) and message in str(russell[1])
    for o in (0, 2):
        assert repr(russell[o].theta) == repr(fb.russell_farthest(ds, [o])[0].theta)
    alone = fb.russell_farthest(ds, [1])[0]
    assert isinstance(alone, SolverError) and message in str(alone)


def test_no_facets_is_a_data_error_per_dmu(uni985):
    empty = fb.FacetSet(facets=(), extremes=(), scope="extremes")
    rows = fb.closest_on_efpps(empty, uni985, [0, 1, 2])
    assert [type(r).__name__ for r in rows] == ["DataError"] * 3


@pytest.mark.parametrize("russell_fails,raised", [((2, 3), "russell at 2"), ((3,), "closest at 3")])
def test_report_raises_the_first_error_in_dmu_order(monkeypatch, uni985, uni_extremes, uni_facets,
                                                     uni_partition, russell_fails, raised):
    """As when each DMU was evaluated in turn: the first failing DMU's
    error, its closest measure before its Russell measure."""
    real_closest, real_russell = report.closest_on_efpps, report.russell_farthest

    def closest(*args):
        rows = real_closest(*args)
        rows[3] = SolverError("closest at 3")
        return rows

    def russell(*args):
        rows = real_russell(*args)
        for o in russell_fails:
            rows[o] = SolverError(f"russell at {o}")
        return rows

    monkeypatch.setattr(report, "closest_on_efpps", closest)
    monkeypatch.setattr(report, "russell_farthest", russell)
    with pytest.raises(SolverError, match=raised):
        report.build_report(uni985, uni_extremes, uni_facets, uni_partition, "table4-max")


# solve_lps calls, LPs, pivots and statuses per layer of `report
# --profile paper-985`.  Batching alone reproduced the figures of solving
# the LPs one by one (pivots 543, 867, 420 and 747).  Column scaling moves
# some near-zero tableau entries across the tolerances, so a few pivot
# paths change: the same LPs reach the same statuses and the same report
# bytes with 2,583 pivots instead of 2,577.  Every robust group of the
# study is one DMU, a ray, so the sign-pattern search rules out the 263
# patterns whose LPs were infeasible (868 pivots) before building them and
# solves each group in one call; the closest measure solves its 82 LPs in
# one round.
REPORT_985_LAYERS = {
    "extreme": {"calls": 1, "lps": 38, "pivots": 543, "optimal": 38},
    "signpattern": {"calls": 2, "lps": 76, "pivots": 295, "optimal": 76},
    "closest": {"calls": 1, "lps": 82, "pivots": 417, "optimal": 82},
    "russell": {"calls": 1, "lps": 38, "pivots": 755, "optimal": 38},
}


def test_report_985_solves_the_same_lps_per_layer(monkeypatch, data_dir):
    layer = [None]
    counts: dict = {}
    real = lp.solve_lps

    def counting(problems):
        sols = real(problems)
        c = counts.setdefault(layer[0], Counter())
        c["calls"] += 1
        for sol in sols:
            c["lps"] += 1
            c["pivots"] += sol.iterations
            c[sol.status] += 1
        return sols

    def entering(name, fn):
        def wrapped(*args, **kwargs):
            layer[0] = name
            try:
                return fn(*args, **kwargs)
            finally:
                layer[0] = None
        return wrapped

    for module in (measures, signpattern):
        monkeypatch.setattr(module, "solve_lps", counting)
    monkeypatch.setattr(cli, "extreme_set", entering("extreme", cli.extreme_set))
    for name, attr in (("signpattern", "batch_evaluate"), ("closest", "closest_on_efpps"),
                       ("russell", "russell_farthest")):
        monkeypatch.setattr(report, attr, entering(name, getattr(report, attr)))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["report", "--data", str(data_dir / "universities_985.csv"), "--profile", "paper-985"]) == 0
    assert {k: dict(v) for k, v in counts.items()} == REPORT_985_LAYERS
    assert sum(v["lps"] for v in REPORT_985_LAYERS.values()) == 234
    assert sum(v["pivots"] for v in REPORT_985_LAYERS.values()) == 2010
