"""Determine-and-partition: group the DMUs with maximal facet participation.

Membership runs over spanning sets only.  DMUs tied below the maximal
count are reported through the counts table for transparency but excluded
from groups; a grouped DMU's facet subset is unique, so disjointness is
structural.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dataset import Dataset
from .errors import DataError
from .facets import FacetSet


@dataclass(frozen=True)
class RobustGroup:
    index: int                    # 1-based, ordered by canonical facet-id set
    facet_ids: tuple[int, ...]    # sorted, the exact subset G_p
    members: tuple[int, ...]      # dataset indices, ascending


@dataclass(frozen=True)
class RobustPartition:
    membership: dict[int, frozenset[int]]  # dmu index -> facet ids spanned
    maxcount: int
    s_star: tuple[int, ...]                # ascending dataset indices
    groups: tuple[RobustGroup, ...]

    def counts(self) -> dict[int, int]:
        return {d: len(k) for d, k in sorted(self.membership.items())}


def membership_map(facets: FacetSet) -> dict[int, frozenset[int]]:
    """dmu index -> set of facet ids it spans; non-spanning DMUs absent."""
    acc: dict[int, set[int]] = {}
    for f in facets.facets:
        for d in f.members:
            acc.setdefault(d, set()).add(f.id)
    return {d: frozenset(v) for d, v in acc.items()}


def partition_robust(facets: FacetSet) -> RobustPartition:
    """Identify S* (maximal participation) and split it by exact facet
    subset.  An empty facet set has no robust points to speak of."""
    if not facets.facets:
        raise DataError("no facets: robust points undefined")
    member = membership_map(facets)
    maxcount = max(len(k) for k in member.values())
    s_star = tuple(sorted(d for d, k in member.items() if len(k) == maxcount))
    by_subset: dict[tuple[int, ...], list[int]] = {}
    for d in s_star:
        key = tuple(sorted(member[d]))
        by_subset.setdefault(key, []).append(d)
    groups = tuple(
        RobustGroup(index=i, facet_ids=key, members=tuple(sorted(dmus)))
        for i, (key, dmus) in enumerate(sorted(by_subset.items()), start=1)
    )
    return RobustPartition(
        membership=member, maxcount=maxcount, s_star=s_star, groups=groups
    )


def partition_export(ds: Dataset, part: RobustPartition) -> dict:
    """JSON-ready export: maxcount, groups, and the full counts table."""
    return {
        "maxcount": part.maxcount,
        "s_star": [ds.names[d] for d in part.s_star],
        "groups": [
            {
                "index": g.index,
                "facet_ids": list(g.facet_ids),
                "members": [ds.names[d] for d in g.members],
            }
            for g in part.groups
        ],
        "participation_counts": {ds.names[d]: c for d, c in part.counts().items()},
    }
