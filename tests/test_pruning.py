"""The bound-ordered sign-pattern and closest searches against exhaustive
oracles that solve every candidate LP.

Both searches stop once no unvisited candidate can win, and keep the same
winner key as the exhaustive loops, so the winner, its gamma, slacks and
intensities must agree bit for bit, with the same degenerate flag.
"""

import numpy as np
import pytest

import facetbench as fb
from facetbench.facets import Facet, FacetSet
from facetbench.measures import closest_on_efpps
from facetbench.profiles import PAPER_985_EXTREMES

from exhaustive_oracle import exhaustive_closest, exhaustive_sign_pattern, facet_lp


def bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def assert_sign_pattern_matches(x_o, y_o, X_ref, Y_ref, detail=""):
    res = fb.solve_sign_pattern(x_o, y_o, X_ref, Y_ref)
    p, gamma, slacks, lam, degen = exhaustive_sign_pattern(x_o, y_o, X_ref, Y_ref)
    assert res.pattern_index == p, detail
    assert res.z == tuple((p >> r) & 1 for r in range(len(y_o))), detail
    assert bits(res.gamma) == bits(gamma), detail
    assert bits(res.slacks) == bits(slacks), detail
    assert bits(res.intensities) == bits(lam), detail
    assert res.degenerate_optimal_face == degen, detail


def assert_closest_matches(fs, ds, o, detail=""):
    res = closest_on_efpps(fs, ds, o)
    if res.status == "out-of-envelope":
        return False
    _, gamma, slacks = exhaustive_closest(fs, ds, o)
    assert bits(res.theta) == bits(1.0 / (1.0 + gamma)), detail
    assert bits(res.slacks) == bits(slacks), detail
    return True


def dataset_case(request, name, scope):
    ds = request.getfixturevalue(name)
    override = PAPER_985_EXTREMES if name == "uni985" else None
    ext = fb.extreme_set(ds, override=override)
    return ds, ext, fb.enumerate_facets(ds, ext.indices, scope)


CASES = [(name, scope) for name in ("uni985", "toy_a", "toy_b") for scope in ("extremes", "all")]


@pytest.mark.parametrize("name,scope", CASES)
def test_sign_patterns_match_exhaustive_on_datasets(request, name, scope):
    ds, ext, fs = dataset_case(request, name, scope)
    blocks = [ext.indices]
    if fs.facets:
        blocks += [g.members for g in fb.partition_robust(fs).groups]
        blocks += [f.members for f in fs.facets]
    for members in dict.fromkeys(tuple(b) for b in blocks):
        cols = list(members)
        for o in range(ds.n):
            assert_sign_pattern_matches(
                ds.inputs[:, o], ds.outputs[:, o], ds.inputs[:, cols], ds.outputs[:, cols],
                f"{name} {scope} DMU {ds.names[o]} against {members}",
            )


@pytest.mark.parametrize("name,scope", CASES)
def test_closest_matches_exhaustive_on_datasets(request, name, scope):
    ds, _, fs = dataset_case(request, name, scope)
    if not fs.facets:
        with pytest.raises(fb.DataError, match="nonempty facet set"):
            closest_on_efpps(fs, ds, 0)
        return
    scored = [o for o in range(ds.n) if assert_closest_matches(fs, ds, o, f"{name} {scope} {ds.names[o]}")]
    assert len(scored) >= ds.n - 1


def random_reference(rng, integer):
    m, s, k = (int(v) for v in rng.integers(1, [4, 5, 6], endpoint=True))
    draw = (lambda size: rng.integers(1, 6, size=size).astype(float)) if integer else (
        lambda size: rng.uniform(0.5, 10.0, size=size))
    return draw(m), draw(s), draw((m, k)), draw((s, k))


def test_sign_patterns_match_exhaustive_random():
    # a third of the instances are small integers, which tie gammas
    rng = np.random.default_rng(2007)
    for i in range(150):
        x_o, y_o, X_ref, Y_ref = random_reference(rng, integer=i % 3 == 0)
        assert_sign_pattern_matches(x_o, y_o, X_ref, Y_ref, f"instance {i}")


def facet_case(y_o, rows):
    """One DMU with unit input and outputs y_o, and one facet per
    (u, b): the half-space u @ (y_o + x) <= v with v = b + u @ y_o, so that
    the closest LP's rows read u @ x <= b."""
    y_o = np.asarray(y_o, dtype=float)
    ds = fb.Dataset(names=("o",), inputs=[[1.0]], outputs=[[v] for v in y_o])
    facets = tuple(
        Facet(i, (0,), u, np.array([b + float(np.dot(u, y_o))]))
        for i, (u, b) in enumerate((np.asarray(u, dtype=float), b) for u, b in rows)
    )
    return ds, FacetSet(facets, (0,), "all")


def lower_bounds(fs, ds, o=0):
    """The closed-form bound of each facet's LP, as the package forms it."""
    y_o = ds.outputs[:, o]
    rhs = np.array([f.value(y_o, ds.inputs[:, o]) for f in fs.facets])
    U = np.vstack([f.u for f in fs.facets])
    c = 1.0 / (ds.s * y_o)
    return np.where(np.all(U > 0, axis=1), -rhs * np.min(c / np.where(U > 0, U, 1.0), axis=1), 0.0)


def test_closest_matches_exhaustive_random():
    # some rows have a zero or negative coefficient (bound 0), some pass
    # through the DMU (b = 0), a third are small integers
    rng = np.random.default_rng(1996)
    checked = 0
    for i in range(150):
        s = int(rng.integers(1, 4, endpoint=True))
        nf = int(rng.integers(1, 8, endpoint=True))
        integer = i % 3 == 0
        y_o = rng.integers(1, 5, size=s).astype(float) if integer else rng.uniform(0.5, 5.0, size=s)
        rows = []
        for _ in range(nf):
            u = rng.integers(1, 5, size=s).astype(float) if integer else rng.uniform(0.1, 3.0, size=s)
            if rng.random() < 0.15:
                u[rng.integers(s)] = rng.choice([0.0, -0.5])
            b = 0.0 if rng.random() < 0.1 else float(rng.integers(1, 9) if integer else rng.uniform(0.1, 5.0))
            rows.append((u, b))
        ds, fs = facet_case(y_o, rows)
        if exhaustive_closest(fs, ds, 0) is None:
            continue
        checked += assert_closest_matches(fs, ds, 0, f"instance {i}")
    assert checked >= 120


def test_closest_tie_goes_to_lower_index_visited_later():
    # facet 1 has the lower bound, so it is solved first, and both facets
    # reach the same gamma at different targets: the first facet must win
    ds, fs = facet_case([1.0, 1.2], [((0.18, 0.8), 4.0), ((2.88, 0.06), 12.0)])
    lb = lower_bounds(fs, ds)
    _, g0, x0 = facet_lp(fs, ds, 0, 0)
    _, g1, x1 = facet_lp(fs, ds, 0, 1)
    assert lb[1] < lb[0] and g0 == g1 and bits(x0) != bits(x1)
    res = closest_on_efpps(fs, ds, 0)
    assert bits(res.slacks) == bits(x0)


def test_closest_bound_rounded_above_the_tied_gamma_is_still_solved():
    # facet 0's bound rounds one ulp above the gamma both facets reach, so
    # only the stop rule's margin lets it be solved and win the tie
    ds, fs = facet_case([1.0, 2.5], [((0.09, 0.7), 1.89), ((1.1, 0.29), 1.188)])
    lb = lower_bounds(fs, ds)
    _, g0, x0 = facet_lp(fs, ds, 0, 0)
    _, g1, x1 = facet_lp(fs, ds, 0, 1)
    assert lb[1] < lb[0] and lb[0] > g1 and g0 == g1 and bits(x0) != bits(x1)
    res = closest_on_efpps(fs, ds, 0)
    assert bits(res.slacks) == bits(x0)


def test_closest_gamma_never_below_its_bound(uni985, uni_facets):
    # the bound is the facet LP cut down to its equality row
    for o in range(uni985.n):
        lb = lower_bounds(uni_facets, uni985, o)
        for k in range(len(uni_facets)):
            status, gamma, _ = facet_lp(uni_facets, uni985, o, k)
            if status == "optimal":
                assert gamma >= lb[k] * (1 - 1e-9) - 1e-12


def test_sign_pattern_tie_at_one_level_goes_to_lower_index():
    # (1, 1) is infeasible; (1, 0) and (0, 1) mirror each other and reach
    # gamma 0.375 with different slacks: the lower pattern index wins
    x_o, y_o = [1.0], [1.0, 1.0]
    X_ref, Y_ref = [[2.0, 2.0]], [[2.0, 0.5], [0.5, 2.0]]
    res = fb.solve_sign_pattern(x_o, y_o, X_ref, Y_ref)
    assert res.pattern_index == 1 and res.gamma == 0.375
    assert list(res.slacks) == [0.0, -0.75]
    assert_sign_pattern_matches(x_o, y_o, X_ref, Y_ref)
