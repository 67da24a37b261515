"""Robust-and-closest efficiency: the signed-slack projection onto each
robust group's technology, aggregated across groups.

The printed aggregation formula takes the minimum of the per-group
efficiencies, but the published results table is only reproducible as the
maximum (hand-derivable rows confirm it), so both modes ship and the
default follows the table.  Reports always say which group produced the
number.

Negative slack reads as over-production relative to the robust target
(resource-allocation distortion); positive slack is an ordinary
shortfall.

Evaluating several DMUs runs one sign-pattern search per robust group
(``signpattern.solve_sign_patterns``) for every DMU that has not failed
in an earlier group, so a DMU's groups, and the first error it meets,
come in the same order as when it is evaluated alone.  Each search solves
its DMUs' LPs in one batch; a DMU whose patterns at its top level are all
infeasible goes on to the next level in a later batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DataError, FacetBenchError
from .partition import RobustPartition
# solve_sign_pattern stays bound here for profilers that wrap it by this name.
from .signpattern import SignPatternResult, solve_sign_pattern, solve_sign_patterns  # noqa: F401

AGGREGATIONS = ("table4-max", "paper-min")
# A chosen target whose output norm is below this fraction of the DMU's
# own gets a warning: the distance term shrank it toward the origin.
SHRINK_WARN_FRACTION = 0.1


@dataclass(frozen=True)
class GroupResult:
    group_index: int
    z: tuple[int, ...]
    slacks: np.ndarray
    s_plus: np.ndarray
    s_minus: np.ndarray
    intensities: dict[int, float]      # dataset index -> lambda
    gamma: float
    theta: float
    target_outputs: np.ndarray
    target_inputs: np.ndarray


@dataclass(frozen=True)
class EfficiencyResult:
    dmu: int
    theta: float
    chosen_group: int
    aggregation: str
    groups: tuple[GroupResult, ...]
    slack_kinds: tuple[str, ...]       # per output: shortfall | distortion | zero
    warnings: tuple[str, ...] = ()

    @property
    def slacks(self) -> np.ndarray:
        return self.chosen().slacks

    def chosen(self) -> GroupResult:
        for g in self.groups:
            if g.group_index == self.chosen_group:
                return g
        raise FacetBenchError(f"chosen group {self.chosen_group} missing")


@dataclass(frozen=True)
class RowError:
    dmu: int
    error: str


def _group_result(members: tuple[int, ...], X_ref, Y_ref, res: SignPatternResult,
                  group_index: int) -> GroupResult:
    return GroupResult(
        group_index=group_index,
        z=res.z,
        slacks=res.slacks,
        s_plus=res.s_plus,
        s_minus=res.s_minus,
        intensities={d: float(l) for d, l in zip(members, res.intensities)},
        gamma=res.gamma,
        theta=1.0 / (1.0 + res.gamma),
        target_outputs=Y_ref @ res.intensities,
        target_inputs=X_ref @ res.intensities,
    )


def _slack_kind(value: float, tol: float) -> str:
    if value > tol:
        return "shortfall"
    if value < -tol:
        return "distortion"
    return "zero"


def _aggregate(ds: Dataset, o: int, results: tuple[GroupResult, ...], aggregation: str) -> EfficiencyResult:
    if aggregation == "table4-max":
        chosen = max(results, key=lambda r: (r.theta, -r.group_index))
    else:
        chosen = min(results, key=lambda r: (r.theta, r.group_index))
    kinds = tuple(_slack_kind(float(v), 1e-7) for v in chosen.slacks)
    warnings = []
    y_o = ds.outputs[:, o]
    target_norm = float(np.sqrt(np.sum(chosen.target_outputs**2)))
    own_norm = float(np.sqrt(np.sum(y_o**2)))
    if target_norm < SHRINK_WARN_FRACTION * own_norm:
        warnings.append(
            f"projection target output norm {target_norm:.6g} is below "
            f"{SHRINK_WARN_FRACTION:.0%} of {ds.names[o]}'s own {own_norm:.6g} "
            "(intensity shrink: the distance term drove the target toward the origin)"
        )
    return EfficiencyResult(
        dmu=o,
        theta=chosen.theta,
        chosen_group=chosen.group_index,
        aggregation=aggregation,
        groups=results,
        slack_kinds=kinds,
        warnings=tuple(warnings),
    )


def _evaluate(
    ds: Dataset, part: RobustPartition, dmus: list[int], aggregation: str
) -> list[EfficiencyResult | FacetBenchError]:
    """Every DMU's result, or the error its own evaluation would raise."""
    if aggregation not in AGGREGATIONS:
        raise DataError(f"aggregation must be one of {AGGREGATIONS}, got {aggregation!r}")
    if not part.groups:
        return [DataError("empty partition: nothing to project onto") for _ in dmus]
    groups: dict[int, list[GroupResult]] = {o: [] for o in dmus}
    errors: dict[int, FacetBenchError] = {}
    for g in part.groups:
        live = [o for o in dmus if o not in errors]
        if not live:
            break
        members = tuple(g.members)
        if not members:
            errors.update((o, DataError("group must be nonempty")) for o in live)
            continue
        X_ref = ds.inputs[:, list(members)]
        Y_ref = ds.outputs[:, list(members)]
        sols = solve_sign_patterns(ds.inputs[:, live], ds.outputs[:, live], X_ref, Y_ref)
        for o, res in zip(live, sols):
            if isinstance(res, FacetBenchError):
                errors[o] = res
            else:
                groups[o].append(_group_result(members, X_ref, Y_ref, res, g.index))
    return [errors[o] if o in errors else _aggregate(ds, o, tuple(groups[o]), aggregation) for o in dmus]


def batch_evaluate(
    ds: Dataset,
    part: RobustPartition,
    aggregation: str = "table4-max",
) -> list[EfficiencyResult | RowError]:
    """Robust efficiency for every DMU, dataset order; per-row failures
    become RowError entries instead of aborting the batch."""
    rows = _evaluate(ds, part, list(range(ds.n)), aggregation)
    return [RowError(dmu=o, error=str(r)) if isinstance(r, FacetBenchError) else r
            for o, r in enumerate(rows)]
