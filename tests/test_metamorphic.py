"""Metamorphic invariants on the 985 study.

Changing one column's unit of measure by a power of two is exact in binary
floating point, and every LP row is equilibrated by a power of two, so the
extreme test, the facets, the partition and every robust theta must come
out bit-identical.  Coverage at a fixed input vector must not change when
an input column and the matching input-vector component change unit
together, nor, with the ownership and uniqueness of the scenario optima,
when the input vector alone is scaled by a power of two.  Russell's theta
must not move either: the solver scales each LP column by a power of two,
so an output slack measured in a unit 1024 times too small is solved as
if its unit were right.
"""

import json

import numpy as np
import pytest

import facetbench as fb
from facetbench.cli import main
from facetbench.profiles import PAPER_985_EXTREMES
from facetbench.robust import batch_evaluate

from conftest import envelope_verdicts, write_csv
from scenario_oracle import coverage_ownership

COLUMNS = ("in:researchers", "in:size", "out:nsa", "out:sb", "out:hp")


def _rescaled(ds, column, factor):
    role, label = column.split(":")
    X = ds.inputs.copy()
    Y = ds.outputs.copy()
    if role == "in":
        X[ds.input_labels.index(label)] *= factor
    else:
        Y[ds.output_labels.index(label)] *= factor
    return fb.Dataset(ds.names, X, Y, ds.input_labels, ds.output_labels)


def _pipeline(ds):
    ext = fb.extreme_set(ds, override=PAPER_985_EXTREMES)
    fs = fb.enumerate_facets(ds, ext.indices, "extremes")
    part = fb.partition_robust(fs)
    rows = batch_evaluate(ds, part, "table4-max")
    thetas = [(r.theta, tuple(g.theta for g in r.groups)) for r in rows]
    return {
        "lambda0": ext.lambda0,
        "facets": [f.members for f in fs.facets],
        "groups": [g.members for g in part.groups],
        "thetas": thetas,
    }


def _flat(obj):
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _flat(obj[k])
    elif isinstance(obj, (tuple, list)):
        for v in obj:
            yield from _flat(v)
    else:
        yield float(obj)


def _bits(obj):
    return np.array(list(_flat(obj))).tobytes()


@pytest.fixture(scope="module")
def baseline(uni985):
    return _pipeline(uni985)


@pytest.mark.parametrize("factor", [2.0**10, 2.0**-10], ids=["x1024", "div1024"])
@pytest.mark.parametrize("column", COLUMNS)
def test_power_of_two_unit_change_is_bit_identical(uni985, baseline, column, factor):
    scaled = _pipeline(_rescaled(uni985, column, factor))
    assert scaled["facets"] == baseline["facets"]
    assert scaled["groups"] == baseline["groups"]
    # float equality ignores the sign of zero; compare the bytes
    for key in ("lambda0", "thetas"):
        assert _bits(scaled[key]) == _bits(baseline[key]), key


def _cases(failing, reason):
    """Every column at x1024 and div1024, with the (column, id) pairs in
    `failing` marked as strict xfails."""
    for column in COLUMNS:
        for fid, factor in (("x1024", 2.0**10), ("div1024", 2.0**-10)):
            marks = ()
            if (column, fid) in failing:
                marks = pytest.mark.xfail(strict=True, reason=reason)
            yield pytest.param(column, factor, id=f"{column}-{fid}", marks=marks)


# The closest measure judges facet LPs in data units: these rescalings
# make `report` exit 2 with "no facet projection feasible" (WHU, CQU, HIT).
CLOSEST_EXIT_2 = {("in:researchers", "x1024"), ("in:size", "x1024"), ("out:hp", "x1024")}


@pytest.mark.parametrize("column,factor", _cases(CLOSEST_EXIT_2, "ROADMAP item 1"))
def test_power_of_two_unit_change_keeps_report_exit_0(uni985, tmp_path, capsys, column, factor):
    """`report` exits 0, and its closest column flags as out-of-envelope
    exactly the DMUs of its envelope_violations."""
    path = tmp_path / "rescaled.csv"
    write_csv(_rescaled(uni985, column, factor), path)
    code = main(["report", "--data", str(path), "--profile", "paper-985"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    closest, violations = envelope_verdicts(json.loads(out))
    assert closest == violations


# Dividing out:nsa or out:sb by 1024 moves some Russell thetas in the last
# digit (4 DMUs by up to 8.9e-16, 9 DMUs by up to 1.3e-15), with or without
# column scaling; ROADMAP item 2 holds the open question.
RUSSELL_DRIFT = {("out:nsa", "div1024"), ("out:sb", "div1024")}


@pytest.mark.parametrize("column,factor", _cases(RUSSELL_DRIFT, "last-digit drift, ROADMAP item 2"))
def test_power_of_two_unit_change_keeps_russell_theta(uni985, column, factor):
    """Russell's slack columns carry the output units, so a unit change
    scales them; the solver's column scaling must undo it exactly."""
    scaled = _rescaled(uni985, column, factor)
    dmus = range(uni985.n)
    got = [r.theta for r in fb.russell_farthest(scaled, dmus)]
    base = [r.theta for r in fb.russell_farthest(uni985, dmus)]
    assert _bits(got) == _bits(base)


@pytest.mark.parametrize("factor", [2.0**10, 2.0**-10], ids=["x1024", "div1024"])
@pytest.mark.parametrize("column", ["in:researchers", "in:size"])
def test_power_of_two_input_unit_change_keeps_coverage(uni985, uni_facets, column, factor):
    def coverage(ds, facets):
        xbar = ds.inputs[:, ds.index("WHU")]
        rep = fb.simulate_coverage(ds, facets, [facets.ids()], xbar, trials=1000, seed=11)
        return rep, coverage_ownership(rep, ds, facets, xbar)

    scaled = _rescaled(uni985, column, factor)
    ext = fb.extreme_set(scaled, override=PAPER_985_EXTREMES)
    base, base_owned = coverage(uni985, uni_facets)
    got, got_owned = coverage(scaled, fb.enumerate_facets(scaled, ext.indices, "extremes"))
    assert got.facet_counts == base.facet_counts
    assert np.array_equal(got_owned, base_owned)


def _fixed_input_answers(ds, facets, xbar, sc):
    """Coverage counts, and per delta each facet's (value, outputs,
    uniqueness) or None and the global (value, outputs, owners)."""
    rep = fb.simulate_coverage(ds, facets, [(k,) for k in facets.ids()] + [facets.ids()], xbar, 1000, 11)
    tables = fb.facet_tables(ds, facets, xbar)
    answers = {"counts": (rep.facet_counts, rep.strategy_counts)}
    for delta in (0.0, 0.5, 1.0):
        rows = []
        for k in facets.ids():
            try:
                opt = fb.facet_optimum(tables, k, sc, delta)
            except fb.FacetInfeasibleError:
                rows.append(None)
                continue
            rows.append((opt.value, opt.outputs.tolist(), fb.uniqueness_diagnostics(tables, k, sc, delta)))
        best, owners = fb.global_optimum(tables, sc, delta)
        answers[delta] = rows, (best.value, best.outputs.tolist(), owners)
    return answers


def _scaled(answer, factor):
    return None if answer is None else (answer[0] * factor, [v * factor for v in answer[1]], answer[2])


XBAR_SCALES = (-300, -40, -20, 40, 200)


def _xbar_cases(inexact=frozenset()):
    for at in ("toy", "WHU"):
        for k in XBAR_SCALES:
            marks = ()
            if (at, k) in inexact:
                marks = pytest.mark.xfail(strict=True, reason="vertex tables move in the last bits, ROADMAP item 16")
            yield pytest.param(at, k, id=f"{at}-2^{k}", marks=marks)


@pytest.fixture(scope="module")
def fixed_input(toy_a, toy_facets, uni985, uni_facets, toy_scenario):
    """(dataset, facets, xbar, unscaled answers) per input vector."""
    cases = {"toy": (toy_a, toy_facets, np.array([1.0])),
             "WHU": (uni985, uni_facets, uni985.inputs[:, uni985.index("WHU")])}
    return {at: (ds, fs, xbar, _fixed_input_answers(ds, fs, xbar, toy_scenario))
            for at, (ds, fs, xbar) in cases.items()}


@pytest.mark.parametrize("at,k", _xbar_cases())
def test_power_of_two_xbar_scale_keeps_every_tie(fixed_input, toy_scenario, at, k):
    """Vertex tables scale with xbar, and the tie rule is relative, so
    coverage counts, owners and uniqueness must not move when xbar does."""
    ds, fs, xbar, base = fixed_input[at]
    got = _fixed_input_answers(ds, fs, xbar * 2.0**k, toy_scenario)
    assert got["counts"] == base["counts"]
    for delta in (0.0, 0.5, 1.0):
        (rows, best), (base_rows, base_best) = got[delta], base[delta]
        assert [r and r[2] for r in rows] == [r and r[2] for r in base_rows]
        assert best[2] == base_best[2]


# basic_solutions equilibrates each row of [X_f | xbar] by its largest
# entry; once xbar*2^k is that entry the rows scale unevenly and the
# partial pivoting of a 2 x 2 basis can change.  At WHU's inputs facet 13's
# vertices then move by up to 6.7e-16 relative.
INEXACT_TABLES = {("WHU", 40), ("WHU", 200)}


@pytest.mark.parametrize("at,k", _xbar_cases(INEXACT_TABLES))
def test_power_of_two_xbar_scale_scales_every_optimum_exactly(fixed_input, toy_scenario, at, k):
    ds, fs, xbar, base = fixed_input[at]
    got = _fixed_input_answers(ds, fs, xbar * 2.0**k, toy_scenario)
    for delta in (0.0, 0.5, 1.0):
        (rows, best), (base_rows, base_best) = got[delta], base[delta]
        assert rows == [_scaled(r, 2.0**k) for r in base_rows]
        assert best == _scaled(base_best, 2.0**k)


def test_dmu_reordering_keeps_every_result(uni985):
    """Permuting the DMUs, with the extreme list pinned by name, permutes
    the results and changes nothing else: facet ids, members by name, u/v
    bytes, partition groups, and the robust and closest theta of every
    DMU are bit-identical.  Russell's LP takes its intensity columns in
    dataset order, so pivoting reaches the same optimum through a
    different sequence of floating-point operations; its theta moves in
    the last digits (by up to 8.6e-13 on this permutation) and is
    compared to 1e-9."""
    perm = np.random.default_rng(3).permutation(uni985.n)
    shuffled = fb.Dataset(
        tuple(uni985.names[j] for j in perm),
        uni985.inputs[:, perm],
        uni985.outputs[:, perm],
        uni985.input_labels,
        uni985.output_labels,
    )

    def by_name(ds):
        ext = fb.extreme_set(ds, override=PAPER_985_EXTREMES)
        fs = fb.enumerate_facets(ds, ext.indices, "extremes")
        part = fb.partition_robust(fs)
        robust = batch_evaluate(ds, part, "table4-max")
        return {
            "facets": [(f.id, sorted(ds.names[j] for j in f.members), f.u.tobytes(), f.v.tobytes())
                       for f in fs.facets],
            "groups": [(g.facet_ids, sorted(ds.names[j] for j in g.members)) for g in part.groups],
            "robust": {ds.names[o]: (r.theta, tuple(g.theta for g in r.groups))
                       for o, r in enumerate(robust)},
            "closest": {ds.names[o]: fb.closest_on_efpps(fs, ds, [o])[0].theta for o in range(ds.n)},
            "russell": {ds.names[o]: fb.russell_farthest(ds, [o])[0].theta for o in range(ds.n)},
        }

    base, got = by_name(uni985), by_name(shuffled)
    assert list(perm) != list(range(uni985.n))
    assert got["facets"] == base["facets"]
    assert got["groups"] == base["groups"]
    # repr round-trips a float exactly (and shows the sign of zero)
    for key in ("robust", "closest"):
        assert repr(sorted(got[key].items())) == repr(sorted(base[key].items())), key
    assert got["russell"].keys() == base["russell"].keys()
    for name, theta in base["russell"].items():
        assert got["russell"][name] == pytest.approx(theta, abs=1e-9), name
