"""The bound-ordered sign-pattern and closest searches against exhaustive
oracles that solve every candidate LP.

Both searches stop once no unvisited candidate can win, and keep the same
winner key as the exhaustive loops, so the winner, its gamma, slacks and
intensities must agree bit for bit, with the same degenerate flag.  The
sign-pattern search also rules out, without an LP, the patterns of a
one-column reference that phase 1 could not call feasible.
"""

import numpy as np
import pytest

import facetbench as fb
from facetbench import measures, signpattern
from facetbench.errors import SolverError
from facetbench.facets import Facet, FacetSet
from facetbench.measures import closest_on_efpps
from facetbench.profiles import PAPER_985_EXTREMES
from facetbench.signpattern import RAY_MARGIN

from exhaustive_oracle import exhaustive_closest, exhaustive_sign_pattern, facet_lp
from facet_oracle import facet_value


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
    res = closest_on_efpps(fs, ds, [o])[0]
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
        res = closest_on_efpps(fs, ds, [0])[0]
        assert isinstance(res, fb.DataError) and "nonempty facet set" in str(res)
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
    rhs = np.array([facet_value(f, y_o, ds.inputs[:, o]) for f in fs.facets])
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
    res = closest_on_efpps(fs, ds, [0])[0]
    assert bits(res.slacks) == bits(x0)


def test_closest_bound_rounded_above_the_tied_gamma_is_still_solved():
    # facet 0's bound rounds one ulp above the gamma both facets reach, so
    # only the stop rule's margin lets it be solved and win the tie
    ds, fs = facet_case([1.0, 2.5], [((0.09, 0.7), 1.89), ((1.1, 0.29), 1.188)])
    lb = lower_bounds(fs, ds)
    _, g0, x0 = facet_lp(fs, ds, 0, 0)
    _, g1, x1 = facet_lp(fs, ds, 0, 1)
    assert lb[1] < lb[0] and lb[0] > g1 and g0 == g1 and bits(x0) != bits(x1)
    res = closest_on_efpps(fs, ds, [0])[0]
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


def solved_patterns(monkeypatch, x_o, y_o, X_ref, Y_ref):
    """The pattern indices whose LPs the search solves for one point, one
    list per solve_lps call."""
    calls = []
    real = signpattern.solve_lps
    m, k = len(x_o), np.asarray(X_ref).reshape(len(x_o), -1).shape[1]

    def recording(c, A, relations, b):
        calls.append([sum(1 << r for r, a in enumerate(np.diag(pa[m:, k:])) if a < 0) for pa in A])
        return real(c, A, relations, b)

    monkeypatch.setattr(signpattern, "solve_lps", recording)
    fb.solve_sign_pattern(x_o, y_o, X_ref, Y_ref)
    monkeypatch.undo()
    return calls


# In the ray below lambda_max = 3, every entry is at least 1 and the
# point's exceeds the reference's, so each bound of lambda widens by
# 3 * RAY_MARGIN relative: a lower bound rho_k is ruled out above
# lambda_max * (1 + MARGIN), to first order.
MARGIN = 2 * 3 * RAY_MARGIN


@pytest.mark.parametrize("offset,reaches_lp", [(-MARGIN / 2, True), (MARGIN / 2, True), (2 * MARGIN, False)])
def test_ray_prefilter_rules_out_only_beyond_its_margin(monkeypatch, offset, reaches_lp):
    # lambda_max = 3; output 0 alone bounds pattern 3 = (1, 1) below, at
    # rho_0 = 3 * (1 + offset)
    x_o, X_ref = [3.0], [[1.0]]
    y_o, Y_ref = [4.5 * (1 + offset), 2.0], [[1.5], [2.0]]
    calls = solved_patterns(monkeypatch, x_o, y_o, X_ref, Y_ref)
    assert (3 in calls[0]) == reaches_lp
    assert_sign_pattern_matches(x_o, y_o, X_ref, Y_ref, f"offset {offset}")


def test_ray_tie_at_lambda_max_matches_exhaustive(monkeypatch):
    # rho_0 == lambda_max == 3: pattern (1, 1) is feasible at one point
    x_o, y_o, X_ref, Y_ref = [3.0, 6.0], [4.5, 2.0], [[1.0], [2.0]], [[1.5], [2.0]]
    assert solved_patterns(monkeypatch, x_o, y_o, X_ref, Y_ref) == [[3]]
    assert fb.solve_sign_pattern(x_o, y_o, X_ref, Y_ref).pattern_index == 3
    assert_sign_pattern_matches(x_o, y_o, X_ref, Y_ref)


def test_ray_zero_slope_matches_exhaustive():
    # top level z = (1, 0, 0) on lambda in [1, 1.5], where gamma is
    # (lambda - 1 + 2 * (1 - lambda / 2)) / 3 = 1/3: the optimal face is an
    # edge, and the LP's vertex and degenerate flag must be the oracle's
    x_o, y_o, X_ref, Y_ref = [1.5], [1.0, 2.0, 2.0], [[1.0]], [[1.0], [1.0], [1.0]]
    res = fb.solve_sign_pattern(x_o, y_o, X_ref, Y_ref)
    assert res.z == (1, 0, 0) and res.degenerate_optimal_face
    assert_sign_pattern_matches(x_o, y_o, X_ref, Y_ref)


def test_ray_instances_match_exhaustive_random():
    # points on, just inside and just outside the ray's bounds, some in
    # small integers that tie ratios exactly
    rng = np.random.default_rng(1991)
    for i in range(120):
        m, s = (int(v) for v in rng.integers(1, [3, 4], endpoint=True))
        integer = i % 3 == 0
        draw = (lambda size: rng.integers(1, 6, size=size).astype(float)) if integer else (
            lambda size: rng.uniform(0.5, 10.0, size=size))
        X_ref, Y_ref = draw((m, 1)), draw((s, 1))
        lam = float(rng.choice([1.0, 2.0])) if integer else float(rng.uniform(0.2, 3.0))
        x_o = X_ref[:, 0] * lam * rng.choice([1.0, 1.5], size=m)
        near = [1.0, 0.5, 2.0] if integer else [1.0, 1 - 1e-9, 1 + 1e-9, 1 + 1e-8, 1 - 1e-7, 0.5, 2.0]
        y_o = Y_ref[:, 0] * lam * rng.choice(near, size=s)
        assert_sign_pattern_matches(x_o, y_o, X_ref, Y_ref, f"instance {i}")


def test_ray_far_along_its_direction_keeps_what_phase_1_accepts(monkeypatch):
    # lambda_max = 1000 and rho_0 = 1000.0001: pattern (1, 1) is empty in
    # exact arithmetic, but phase 1 meets output 0 within its tolerance of
    # FEASIBILITY_TOL times the largest basic value, lambda itself, and the
    # pattern wins with gamma about 499.5
    x_o, y_o, X_ref, Y_ref = [1000.0], [1000.0001, 1.0], [[1.0]], [[1.0], [1.0]]
    assert solved_patterns(monkeypatch, x_o, y_o, X_ref, Y_ref) == [[3]]
    assert fb.solve_sign_pattern(x_o, y_o, X_ref, Y_ref).gamma == pytest.approx(499.5)
    assert_sign_pattern_matches(x_o, y_o, X_ref, Y_ref)


def search_with_and_without_prefilter(monkeypatch, x_o, y_o, X_ref, Y_ref):
    """solve_sign_pattern's result or error, first as it runs, then with
    every pattern of the ray kept."""
    out = []
    for _ in range(2):
        try:
            res = fb.solve_sign_pattern(x_o, y_o, X_ref, Y_ref)
            out.append((res.pattern_index, bits(res.gamma), bits(res.slacks), bits(res.intensities),
                        res.degenerate_optimal_face))
        except SolverError as exc:
            out.append(str(exc))
        monkeypatch.setattr(signpattern, "_ray_candidates",
                            lambda x_pts, y_pts, x_r, y_r, Z: np.ones((len(x_pts), len(Z)), dtype=bool))
    monkeypatch.undo()
    return out


def test_long_ray_instances_match_search_without_prefilter(monkeypatch):
    # lambda_max from 10 to 1e6 times the column scale, outputs near the
    # bounds by relative or absolute offsets, some outputs small.  Some of
    # these LPs fail, so the search is compared, errors included, with the
    # same search solving every pattern of each level it visits.
    rng = np.random.default_rng(2007)
    for i in range(80):
        m, s = (int(v) for v in rng.integers(1, [3, 4], endpoint=True))
        X_ref = rng.uniform(0.5, 10.0, size=(m, 1)) * 10.0 ** rng.uniform(-3, 1)
        Y_ref = rng.uniform(0.5, 10.0, size=(s, 1)) * 10.0 ** rng.uniform(-3, 1)
        lam = 10.0 ** rng.uniform(1, 6)
        x_o = X_ref[:, 0] * lam * rng.choice([1.0, 1.5], size=m)
        y_o = Y_ref[:, 0] * lam
        if i % 2:
            y_o = y_o * (1 + rng.choice([0.0, 1e-9, -1e-9, 1e-7, -1e-7, 1e-5, 0.5], size=s))
        else:
            y_o = y_o + rng.choice([0.0, 1e-4, -1e-4, 1e-6], size=s)
        if i % 5 == 0:
            y_o[rng.integers(0, s)] = rng.uniform(0.1, 2.0)
        with_filter, without = search_with_and_without_prefilter(monkeypatch, x_o, y_o, X_ref, Y_ref)
        assert with_filter == without, f"instance {i}"


def test_two_member_group_solves_every_pattern_of_each_level_it_visits(monkeypatch):
    # (1, 1) is infeasible, so the point goes on to level 1 and solves both
    # of its patterns, as in test_sign_pattern_tie_at_one_level_goes_to_lower_index
    x_o, y_o = [1.0], [1.0, 1.0]
    X_ref, Y_ref = [[2.0, 2.0]], [[2.0, 0.5], [0.5, 2.0]]
    assert solved_patterns(monkeypatch, x_o, y_o, X_ref, Y_ref) == [[3], [1, 2]]


def two_round_case():
    """Facet 0 has a zero coefficient, so its bound is 0 and it is solved
    alone in the first round, at gamma 0.25.  Facets 1 (bound and gamma
    0.125) and 2 (bound 0.2, infeasible) lie within that gamma, so a second
    round solves both; facet 1 wins, and facet 2 is past the stop test."""
    return facet_case([1.0, 4.0], [((1.0, 0.0), 0.5), ((1.0, 1.0), 1.0), ((2.0, 2.0), 3.2)])


def test_closest_second_round_matches_exhaustive(monkeypatch):
    ds, fs = two_round_case()
    assert list(lower_bounds(fs, ds)) == pytest.approx([0.0, 0.125, 0.2])
    calls = []
    real = measures.solve_lps
    monkeypatch.setattr(measures, "solve_lps", lambda c, *rest: calls.append(len(c)) or real(c, *rest))
    assert_closest_matches(fs, ds, 0)
    assert calls == [1, 2]
    assert exhaustive_closest(fs, ds, 0)[0] == 1


@pytest.mark.parametrize("failing,raised", [(1, True), (2, False)])
def test_closest_error_is_the_first_in_bound_order(monkeypatch, failing, raised):
    """An error in facet 1's LP is the DMU's; one in facet 2's, which the
    round solved but the stop test passes over, is not."""
    ds, fs = two_round_case()
    real = measures.solve_lps

    def failing_lps(c, A, relations, b):
        return [SolverError(f"facet {failing}") if np.array_equal(a[0], fs.facets[failing].u) else sol
                for a, sol in zip(A, real(c, A, relations, b))]

    monkeypatch.setattr(measures, "solve_lps", failing_lps)
    if raised:
        res = closest_on_efpps(fs, ds, [0])[0]
        assert isinstance(res, SolverError) and "facet 1" in str(res)
    else:
        assert bits(closest_on_efpps(fs, ds, [0])[0].slacks) == bits(exhaustive_closest(fs, ds, 0)[2])
