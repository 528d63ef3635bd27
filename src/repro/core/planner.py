"""Inverse planning queries over the configuration space.

The paper answers "what fits inside (T', C')?"; a consumer budgeting a
project asks the inverse questions:

* the cheapest money that buys a target accuracy within a deadline
  (``_min_budget_for``);
* the shortest completion time a budget can buy at a target accuracy
  (``_min_deadline_for``);
* the (deadline, budget) trade curve for one accuracy target: every
  point is a different Pareto-optimal configuration for the same
  result quality (``_iso_accuracy_frontier``).

All three are vectorised selections over one
:class:`~repro.core.evalspace.EvaluatedSpace`;
:class:`PlanningSpace` is a thin (space, metric) view whose queries run
on the space's numpy columns.

``_cheapest_report`` extends the same inverse-query discipline to the
*serving* axis: evaluated routed fleets are filtered by availability
and tail latency, exactly the way the batch queries filter the
evaluation space.

These are the kernels behind :func:`repro.api.plan`,
:func:`repro.api.cheapest_fleets` and
:func:`repro.api.select_cheapest_fleet`, the public entry points.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.cloud.configuration import ResourceConfiguration
from repro.cloud.simulator import CloudSimulator, SimulationResult
from repro.core.evalspace import EvaluatedSpace, SpaceSpec, evaluate
from repro.core.pareto import pareto_indices
from repro.errors import InfeasibleError
from repro.pruning.schedule import DegreeOfPruning

__all__ = ["PlanningSpace"]


@dataclass(frozen=True, eq=False)
class PlanningSpace:
    """An evaluated (degree x configuration) space to plan over."""

    space: EvaluatedSpace
    metric: str = "top5"

    @classmethod
    def evaluate(
        cls,
        simulator: CloudSimulator,
        degrees: Sequence[DegreeOfPruning],
        configurations: Sequence[ResourceConfiguration],
        images: int,
        metric: str = "top5",
    ) -> "PlanningSpace":
        """Evaluate a fresh grid and wrap it for planning queries."""
        evaluated = evaluate(
            SpaceSpec.from_simulator(
                simulator, degrees, configurations, images
            )
        )
        return cls(space=evaluated, metric=metric)

    # ------------------------------------------------------------------
    @property
    def results(self) -> Sequence[SimulationResult]:
        """The space's per-point records, each built on first read."""
        return self.space.results

    def _accurate_enough(self, target: float) -> np.ndarray:
        """Indices of rows at or above the target accuracy."""
        return np.flatnonzero(self.space.accuracy(self.metric) >= target)

    def reachable_accuracy(self) -> float:
        """Best accuracy anywhere in the space (no constraints)."""
        return float(self.space.accuracy(self.metric).max())


def _min_budget_for(
    space: PlanningSpace,
    target_accuracy: float,
    deadline_s: float,
) -> SimulationResult:
    """Cheapest configuration reaching ``target_accuracy`` in time."""
    idx = space._accurate_enough(target_accuracy)
    idx = idx[space.space.time_s[idx] <= deadline_s]
    if idx.size == 0:
        raise InfeasibleError(
            f"no configuration reaches {target_accuracy}% "
            f"{space.metric} within {deadline_s:.0f}s"
        )
    # lexsort is stable: min by (cost, time), first occurrence on ties
    order = np.lexsort((space.space.time_s[idx], space.space.cost[idx]))
    return space.results[idx[order[0]]]


def _min_deadline_for(
    space: PlanningSpace,
    target_accuracy: float,
    budget: float,
) -> SimulationResult:
    """Fastest configuration reaching ``target_accuracy`` on budget."""
    idx = space._accurate_enough(target_accuracy)
    idx = idx[space.space.cost[idx] <= budget]
    if idx.size == 0:
        raise InfeasibleError(
            f"no configuration reaches {target_accuracy}% "
            f"{space.metric} within ${budget:.2f}"
        )
    order = np.lexsort((space.space.cost[idx], space.space.time_s[idx]))
    return space.results[idx[order[0]]]


def _iso_accuracy_frontier(
    space: PlanningSpace, target_accuracy: float
) -> list[SimulationResult]:
    """The (time, cost) Pareto curve at one accuracy target.

    Points are mutually non-dominated in (time, cost) among all
    configurations meeting the accuracy bar; walking the curve trades
    money for completion time at constant result quality.
    """
    idx = space._accurate_enough(target_accuracy)
    if idx.size == 0:
        raise InfeasibleError(
            f"no configuration reaches {target_accuracy}% {space.metric}"
        )
    # reuse the 2-D filter with accuracy := -time (maximise -time)
    local = pareto_indices(
        -space.space.time_s[idx], space.space.cost[idx]
    )
    return [space.results[i] for i in idx[local]]


def _cheapest_report(
    reports: Sequence, availability: float, p99_s: float | None
) -> int:
    """Index of the cheapest already-evaluated fleet report serving at
    least ``availability`` of its stream with a finite p99 at or below
    ``p99_s`` (when set); the first report wins ties.  Raises
    :class:`~repro.errors.InfeasibleError` when none qualifies."""
    best: int | None = None
    for i, report in enumerate(reports):
        if report.availability < availability:
            continue
        if p99_s is not None:
            p99 = report.p99
            if not np.isfinite(p99) or p99 > p99_s:
                continue
        if best is None or report.cost < reports[best].cost:
            best = i
    if best is None:
        constraint = f"availability >= {availability:.3f}"
        if p99_s is not None:
            constraint += f" and p99 <= {p99_s:.3f}s"
        raise InfeasibleError(
            f"none of the {len(reports)} candidate fleets meets "
            f"{constraint}"
        )
    return best
