import numpy as np
import pytest

import facetbench as fb
from facetbench.facets import Facet, FacetSet
from facetbench.partition import membership_map, partition_export, partition_robust

from table4 import TABLE3


def synthetic_facetset(member_sets):
    """FacetSet with placeholder normals, for membership logic alone."""
    facets = []
    for fid, members in enumerate(member_sets, start=1):
        k = len(members)
        u = np.full(2, 0.5)
        v = np.full(1, 0.5)
        facets.append(Facet(id=fid, members=tuple(sorted(members)), u=u, v=v))
    ext = tuple(sorted({d for ms in member_sets for d in ms}))
    return FacetSet(facets=tuple(facets), extremes=ext, scope="extremes")


def test_membership_map_toy(toy_a, toy_facets):
    member = membership_map(toy_facets)
    c = toy_a.index("C")
    assert member[c] == {1, 2}
    assert member[toy_a.index("A")] == {1}
    assert toy_a.index("F") not in member


def test_toy_partition(toy_facets, toy_a):
    part = partition_robust(toy_facets)
    assert part.maxcount == 2
    assert [toy_a.names[d] for d in part.s_star] == ["C"]
    assert len(part.groups) == 1
    assert part.groups[0].facet_ids == (1, 2)


def test_single_facet_partition():
    fs = synthetic_facetset([(4, 7, 9)])
    part = partition_robust(fs)
    assert part.maxcount == 1
    assert part.s_star == (4, 7, 9)
    assert len(part.groups) == 1
    assert part.groups[0].members == (4, 7, 9)


def test_empty_facetset_errors():
    fs = FacetSet(facets=(), extremes=(), scope="extremes")
    with pytest.raises(fb.DataError, match="no facets"):
        partition_robust(fs)


def test_985_membership_rows(uni985, uni_facets):
    member = membership_map(uni_facets)
    assert member[uni985.index("WHU")] == {1, 2, 5, 6, 9, 10, 12, 13}
    assert member[uni985.index("FDU")] == {14}
    assert member[uni985.index("CQU")] == {1, 2, 3, 4, 5, 6, 7, 8}


def test_985_partition(uni985, uni_partition):
    part = uni_partition
    assert part.maxcount == 8
    assert {uni985.names[d] for d in part.s_star} == {"WHU", "CQU"}
    assert len(part.groups) == 2
    g1, g2 = part.groups
    assert g1.facet_ids == (1, 2, 3, 4, 5, 6, 7, 8)
    assert [uni985.names[d] for d in g1.members] == ["CQU"]
    assert g2.facet_ids == (1, 2, 5, 6, 9, 10, 12, 13)
    assert [uni985.names[d] for d in g2.members] == ["WHU"]


def test_985_counts(uni985, uni_partition):
    counts = {uni985.names[d]: c for d, c in uni_partition.counts().items()}
    # participation counts follow directly from the membership table
    expected = {name: 0 for name in set().union(*TABLE3.values())}
    for members in TABLE3.values():
        for name in members:
            expected[name] += 1
    assert counts == expected


def test_group_invariants(uni_partition):
    part = uni_partition
    for g in part.groups:
        assert len(g.facet_ids) == part.maxcount
        for d in g.members:
            assert part.membership[d] == frozenset(g.facet_ids)
    all_members = [d for g in part.groups for d in g.members]
    assert sorted(all_members) == list(part.s_star)
    assert len(set(all_members)) == len(all_members)


def test_relabeling_invariance():
    # permuting facet ids permutes group keys but not the grouping
    base = [(0, 1), (1, 2), (2, 3)]
    a = partition_robust(synthetic_facetset(base))
    b = partition_robust(synthetic_facetset(base[::-1]))
    assert a.maxcount == b.maxcount == 2
    assert a.s_star == b.s_star == (1, 2)
    groups_a = {g.members for g in a.groups}
    groups_b = {g.members for g in b.groups}
    assert groups_a == groups_b


def test_export_shape(uni985, uni_partition):
    payload = partition_export(uni985, uni_partition)
    assert payload["maxcount"] == 8
    assert payload["s_star"] == ["WHU", "CQU"]
    assert payload["groups"][0]["members"] == ["CQU"]
    assert payload["participation_counts"]["OUC"] == 7
