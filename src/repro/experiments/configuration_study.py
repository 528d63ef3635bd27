"""Shared machinery for the Figure 9/10 configuration-space studies.

The paper's setup (Section 4.3.2): 60 Caffenet variants pruned in
different degrees, a resource space of the three p2 instance types with
up to three instances each (63 non-empty multisets), inferring one
million images.  Figure 9 filters by a 10-hour deadline; Figure 10 by a
$300 budget.  Both then Pareto-filter the feasible set.

Evaluating the 3 780-point space once and reusing it for both figures
mirrors the paper's single model run feeding both filters.

Workload-size note: the paper states one million images, but under its
*own* measured throughput (19 min per 50 k images on one K80, Figure 6)
that workload finishes in 6.3 h for $5.70 on a single p2.xlarge — the
10-hour deadline and $300 budget would bind nothing, and the paper's
published Pareto ranges (3-5 h, $69-119) are unreachable by 15-20x.
We scale the workload to 20 million images, the size at which the
paper's constraints actually shape the feasible region the way its
Figures 9-10 show (single-instance runs blow the deadline; the largest
configurations blow the budget; Pareto costs land in the ~$100 decade).
EXPERIMENTS.md records this substitution.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

from repro.calibration.caffenet import (
    caffenet_accuracy_model,
    caffenet_time_model,
)
from repro.cloud.catalog import P2_TYPES
from repro.cloud.simulator import SimulationResult
from repro.core.config_space import enumerate_configurations
from repro.core.evalspace import EvaluatedSpace, SpaceSpec, evaluate
from repro.obs import get_tracer
from repro.pruning.schedule import caffenet_variant_set

__all__ = [
    "STUDY_IMAGES",
    "STUDY_DEADLINE_S",
    "STUDY_BUDGET",
    "ParetoStudy",
    "study_space",
    "evaluate_space",
    "pareto_study",
]

#: Workload size — scaled 20x from the paper's stated one million so the
#: deadline/budget constraints bind (see module docstring).
STUDY_IMAGES = 20_000_000
#: Figure 9: ten-hour deadline.
STUDY_DEADLINE_S = 10 * 3600.0
#: Figure 10: $300 budget.
STUDY_BUDGET = 300.0


@lru_cache(maxsize=1)
def study_space() -> EvaluatedSpace:
    """The evaluated (60 degrees x 63 p2 configurations) study grid.

    Delegates to :mod:`repro.core.evalspace`: the content-keyed cache
    there shares the evaluation with any other consumer asking for the
    same grid (planner workloads, benchmarks), while this ``lru_cache``
    pins the study's own view for cheap repeated access.
    """
    degrees = caffenet_variant_set()
    configurations = enumerate_configurations(P2_TYPES, max_per_type=3)
    with get_tracer().span(
        "pareto.evaluate_space",
        degrees=len(degrees),
        configurations=len(configurations),
    ):
        return evaluate(
            SpaceSpec.build(
                caffenet_time_model(),
                caffenet_accuracy_model(),
                degrees,
                configurations,
                STUDY_IMAGES,
            )
        )


def evaluate_space() -> Sequence[SimulationResult]:
    """All (60 x 63) rows in degree-major order (stable identity; each
    record is built on first read)."""
    return study_space().results


@dataclass(frozen=True)
class ParetoStudy:
    """One filtered-and-Pareto-optimised view of the space."""

    objective: str  # "time" or "cost"
    metric: str  # "top1" or "top5"
    total_points: int
    feasible: tuple[SimulationResult, ...]
    front: tuple[SimulationResult, ...]

    # ------------------------------------------------------------------
    @property
    def n_feasible(self) -> int:
        return len(self.feasible)

    @property
    def n_pareto(self) -> int:
        return len(self.front)

    def _objective_of(self, result: SimulationResult) -> float:
        return (
            result.time_hours if self.objective == "time" else result.cost
        )

    @property
    def accuracy_range(self) -> tuple[float, float]:
        accs = [r.accuracy.get(self.metric) for r in self.front]
        return min(accs), max(accs)

    @property
    def objective_range(self) -> tuple[float, float]:
        objs = [self._objective_of(r) for r in self.front]
        return min(objs), max(objs)

    def saving_at_best_accuracy(self) -> float:
        """Fractional saving of the best-accuracy Pareto point vs the
        worst feasible configuration achieving the same accuracy —
        the paper's "-50% time / -55% cost" headline quantity."""
        best = max(
            self.front, key=lambda r: r.accuracy.get(self.metric)
        )
        best_acc = best.accuracy.get(self.metric)
        peers = [
            self._objective_of(r)
            for r in self.feasible
            if abs(r.accuracy.get(self.metric) - best_acc) < 1e-9
        ]
        worst = max(peers)
        return 1.0 - self._objective_of(best) / worst


def pareto_study(
    objective: str,
    metric: str,
    deadline_s: float | None = None,
    budget: float | None = None,
) -> ParetoStudy:
    """Filter the cached space by constraints and Pareto-optimise.

    A thin view: feasibility and the Pareto filter are the vectorised
    :class:`EvaluatedSpace` queries; only the selected rows materialise.
    """
    space = study_space()
    return ParetoStudy(
        objective=objective,
        metric=metric,
        total_points=len(space),
        feasible=space.feasible(deadline_s, budget),
        front=space.front(metric, objective, deadline_s, budget),
    )
