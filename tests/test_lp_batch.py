"""Lockstep stacks: solving same-shape LPs together must give each one
the result it gets alone, bit for bit, and the layers that stack their
LPs must solve exactly the LPs they solved one by one."""

import contextlib
import hashlib
import io
from collections import Counter

import numpy as np
import pytest

import facetbench as fb
import facetbench.lp as lp
from facetbench import cli, measures, report, robust, signpattern
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


def _shapes(problems) -> dict[tuple, list[int]]:
    """(variable count, relations) -> positions of the problems of that shape."""
    shapes: dict[tuple, list[int]] = {}
    for i, p in enumerate(problems):
        shapes.setdefault((p.c.size, p.relations), []).append(i)
    return shapes


def _as_stack(group):
    """Same-shape LpProblems as solve_lps arguments; a max problem minimises -c."""
    c = np.stack([-p.c if p.sense == "max" else p.c for p in group])
    return c, np.stack([p.A for p in group]), group[0].relations, np.stack([p.b for p in group])


def _stacked(problems):
    """Solve LpProblems as solve_lp reads them out, one solve_lps stack
    per shape: an optimum's value is c@x."""
    out = [None] * len(problems)
    for idx in _shapes(problems).values():
        group = [problems[i] for i in idx]
        for i, p, sol in zip(idx, group, lp.solve_lps(*_as_stack(group))):
            if not isinstance(sol, SolverError) and sol.status == "optimal":
                sol = sol._replace(value=float(np.sum(p.c * sol.x)))
            out[i] = sol
    return out


@pytest.fixture(scope="module")
def instances():
    return list(_digest_instances(2000))


def test_one_batch_reproduces_the_digest(instances):
    assert _digest(_stacked(instances)) == LP_DIGEST


@pytest.mark.parametrize("seed", [0, 1])
def test_shuffled_batches_of_random_size_reproduce_the_digest(instances, seed):
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(instances))
    sols = [None] * len(instances)
    start = 0
    while start < len(order):
        chunk = order[start:start + int(rng.integers(1, 300))]
        start += len(chunk)
        for i, sol in zip(chunk, _stacked([instances[i] for i in chunk])):
            sols[i] = sol
    assert _digest(sols) == LP_DIGEST


def _largest_stack(instances):
    """The problems of the most common shape, as solve_lps arguments."""
    return _as_stack([instances[i] for i in max(_shapes(instances).values(), key=len)])


def test_a_shared_matrix_solves_as_the_matrix_stacked(instances):
    """Every problem of a stack over one shared A gets the bits it gets
    with A repeated per problem, and the bits solve_lp gives it alone."""
    c, A, rels, b = _largest_stack(instances)
    assert len(c) > 10
    for shared in (A[0], A[-1]):
        got = lp.solve_lps(c, shared, rels, b)
        assert _digest(got) == _digest(lp.solve_lps(c, np.stack([shared] * len(c)), rels, b))
        alone = [lp.solve_lp(lp.LpProblem("min", ci, shared, rels, bi)) for ci, bi in zip(c, b)]
        assert all(_same(g, a) for g, a in zip(got, alone))


@pytest.mark.parametrize("where,what", [("c", "objective"), ("A", "matrix"), ("b", "rhs")])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_coefficient_fails_its_problem_alone(instances, where, what, bad):
    c, A, rels, b = _largest_stack(instances)
    clean = lp.solve_lps(c, A, rels, b)
    broken = {"c": c.copy(), "A": A.copy(), "b": b.copy()}
    broken[where][3].flat[-1] = bad
    got = lp.solve_lps(broken["c"], broken["A"], rels, broken["b"])
    assert isinstance(got[3], SolverError) and str(got[3]) == f"non-finite coefficient in {what}"
    assert all(_same(g, a) for k, (g, a) in enumerate(zip(got, clean)) if k != 3)
    if where == "A":
        # a shared matrix is every problem's
        got = lp.solve_lps(c, broken["A"][3], rels, b)
        assert [str(g) for g in got] == ["non-finite coefficient in matrix"] * len(got)


def test_an_error_stays_with_its_problem(instances, monkeypatch):
    """An iteration limit that only the hardest problem exceeds fails that
    problem alone; its neighbours keep their normal results."""
    alone = _stacked(instances)
    hard = max(range(len(alone)), key=lambda i: alone[i].iterations)
    easy = [i for i in range(len(alone)) if alone[i].iterations <= 10]
    batch = easy[:300] + [hard] + easy[300:600]
    monkeypatch.setattr(lp, "_MAXITER", 11)
    got = _stacked([instances[i] for i in batch])
    assert isinstance(got[300], SolverError)
    assert "iteration limit exceeded" in str(got[300])
    assert all(_same(g, alone[i]) for g, i in zip(got, batch) if i != hard)
    with pytest.raises(SolverError, match="iteration limit exceeded"):
        lp.solve_lp(instances[hard])


def test_empty_batch():
    assert lp.solve_lps(np.zeros((0, 3)), np.ones((2, 3)), ("<=", "="), np.zeros((0, 2))) == []


def test_stack_shapes_must_agree():
    with pytest.raises(SolverError, match="stack shapes disagree"):
        lp.solve_lps(np.zeros((2, 3)), np.ones((3, 2, 3)), ("<=", "="), np.zeros((2, 2)))


def test_unknown_relation_is_a_solver_error():
    # the message LpProblem gives for the same relations
    for solve in (lambda: lp.solve_lps(np.ones((1, 2)), np.ones((1, 2)), ("<",), np.ones((1, 1))),
                  lambda: lp.LpProblem("min", np.ones(2), np.ones((1, 2)), ("<",), np.ones(1))):
        with pytest.raises(SolverError, match=r"relations must be <=, =, >=: \('<',\)"):
            solve()


def test_layers_batched_equal_one_dmu_at_a_time(uni985, uni_facets):
    dmus = range(uni985.n)
    for batched, single in (
        (fb.russell_farthest(uni985, dmus), [fb.russell_farthest(uni985, [o])[0] for o in dmus]),
        (fb.closest_on_efpps(uni_facets, uni985, dmus), [fb.closest_on_efpps(uni_facets, uni985, [o])[0] for o in dmus]),
    ):
        assert [(r.status, repr(r.theta), None if r.slacks is None else r.slacks.tobytes()) for r in batched] == \
            [(r.status, repr(r.theta), None if r.slacks is None else r.slacks.tobytes()) for r in single]
    ext = fb.extreme_set(uni985)
    A = np.vstack([uni985.inputs, -uni985.outputs, np.ones((1, uni985.n))])
    rels = ("<=",) * (uni985.m + uni985.s) + ("=",)
    alone = [lp.solve_lp(lp.LpProblem("min", np.eye(uni985.n)[o], A, rels, A[:, o])) for o in dmus]
    assert [repr(ext.lambda0[o]) for o in dmus] == [repr(sol.value) for sol in alone]


def _with_output(ds, dmu, value):
    Y = ds.outputs.copy()
    Y[0, dmu] = value
    return fb.Dataset(ds.names, ds.inputs.copy(), Y, ds.input_labels, ds.output_labels)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("value,message", [(0.0, "strictly positive outputs"), (1e-320, "non-finite")])
def test_a_failing_dmu_marks_only_its_own_entry(uni985, uni_facets, value, message):
    """DMU 1's LPs fail (a zero output) or have a non-finite objective (an
    output so small that 1/(s*y) overflows); the other DMUs of the batch
    get what they get alone."""
    ds = _with_output(uni985, 1, value)
    part = fb.partition_robust(uni_facets)
    rows = fb.batch_evaluate(ds, part)
    assert isinstance(rows[1], fb.RowError) and message in rows[1].error
    for o in (0, 2):
        assert repr(rows[o].theta) == repr(robust._evaluate(ds, part, [o], "table4-max")[0].theta)
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


def _layer_work(monkeypatch, data_dir, *command):
    """solve_lps calls, LPs, pivots and statuses per layer of one command
    run on the 985 study under the paper-985 profile."""
    layer = [None]
    counts: dict = {}
    real = lp.solve_lps

    def counting(*stack):
        sols = real(*stack)
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
        argv = [*command, "--data", str(data_dir / "universities_985.csv"), "--profile", "paper-985"]
        assert cli.main(argv) == 0
    return {k: dict(v) for k, v in counts.items()}


def test_report_985_solves_the_same_lps_per_layer(monkeypatch, data_dir):
    assert _layer_work(monkeypatch, data_dir, "report") == REPORT_985_LAYERS
    assert sum(v["lps"] for v in REPORT_985_LAYERS.values()) == 234
    assert sum(v["pivots"] for v in REPORT_985_LAYERS.values()) == 2010


# measure -> (its layer, LPs, solve_lps calls) of `efficiency --measure X
# --profile paper-985`: that one layer of REPORT_985_LAYERS, where each
# once built the whole report (234 LPs in 5).  Under the pinned set no
# extreme test runs: nothing a single measure prints reads it.
EFFICIENCY_985_WORK = {
    "robust": ("signpattern", 76, 2),
    "closest": ("closest", 82, 1),
    "russell": ("russell", 38, 1),
}


@pytest.mark.parametrize("measure", sorted(EFFICIENCY_985_WORK))
def test_efficiency_985_solves_only_its_measure(monkeypatch, data_dir, measure):
    layer, lps, calls = EFFICIENCY_985_WORK[measure]
    work = _layer_work(monkeypatch, data_dir, "efficiency", "--measure", measure)
    assert work == {layer: REPORT_985_LAYERS[layer]}
    assert [sum(v["lps"] for v in work.values()), sum(v["calls"] for v in work.values())] == [lps, calls]


@pytest.mark.parametrize("command", [
    ("coverage", "--trials", "50"),
    ("facets",),
    ("partition",),
    ("scenario", "--prices", "data/prices_toy.json", "--target", "WHU"),
], ids=lambda command: command[0])
def test_a_pinned_set_runs_no_extreme_test(monkeypatch, data_dir, command):
    # none of these commands prints the extreme test's result
    monkeypatch.chdir(data_dir.parent)
    assert _layer_work(monkeypatch, data_dir, *command) == {}


@pytest.mark.parametrize("command", ["extremes", "report", "facets"])
@pytest.mark.parametrize("names,message", [
    (["WHU", "CQU", "WHU"], "override lists a DMU more than once"),
    (["WHU", "CQU", "NOPE"], "unknown DMU name: 'NOPE'"),
])
def test_a_bad_pinned_list_exits_1_before_any_lp(monkeypatch, capsys, data_dir, tmp_path, command, names, message):
    calls = []
    real = lp.solve_lps
    monkeypatch.setattr(measures, "solve_lps", lambda *stack: calls.append(1) or real(*stack))
    path = tmp_path / "extremes.txt"
    path.write_text("\n".join(names) + "\n")
    argv = [command, "--data", str(data_dir / "universities_985.csv"), "--extremes", str(path)]
    assert cli.main(argv) == 1
    assert message in capsys.readouterr().err
    assert calls == []
