"""Extension: the Pareto study the paper skipped — Googlenet, mixed fleet.

Section 4.3.2 limits the configuration-space study to "the simpler
Caffenet CNN" on p2 instances only.  This extension runs the identical
methodology on Googlenet over a *mixed* p2 + g3 space, which adds the
dimension the paper's own Figure 12 motivates: g3 (M60) delivers
cheaper accuracy per dollar, so the cost frontier should be dominated
by g3 configurations while the time frontier can mix in p2 capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.calibration.googlenet import (
    googlenet_accuracy_model,
    googlenet_time_model,
)
from repro.cloud.catalog import instance_type
from repro.cloud.simulator import SimulationResult
from repro.core.config_space import enumerate_configurations
from repro.core.evalspace import SpaceSpec, evaluate
from repro.experiments.report import format_kv, format_table
from repro.pruning.schedule import googlenet_variant_set

__all__ = ["GooglenetPareto", "run", "render"]

IMAGES = 20_000_000
DEADLINE_S = 10 * 3600.0
BUDGET = 300.0


@dataclass(frozen=True)
class GooglenetPareto:
    total_points: int
    n_time_feasible: int
    n_cost_feasible: int
    time_front: tuple[SimulationResult, ...]
    cost_front: tuple[SimulationResult, ...]

    def cost_front_categories(self) -> set[str]:
        """Instance categories appearing on the cost frontier."""
        return {
            inst.itype.category
            for r in self.cost_front
            for inst in r.configuration.instances
        }


@lru_cache(maxsize=1)
def run() -> GooglenetPareto:
    # mixed space: the two workhorse types of each category, <= 2 each
    types = [
        instance_type(n)
        for n in ("p2.8xlarge", "p2.16xlarge", "g3.8xlarge", "g3.16xlarge")
    ]
    space = evaluate(
        SpaceSpec.build(
            googlenet_time_model(),
            googlenet_accuracy_model(),
            googlenet_variant_set(),
            enumerate_configurations(types, max_per_type=2),
            IMAGES,
        )
    )
    return GooglenetPareto(
        total_points=len(space),
        n_time_feasible=int(space.feasible_mask(deadline_s=DEADLINE_S).sum()),
        n_cost_feasible=int(space.feasible_mask(budget=BUDGET).sum()),
        time_front=space.front("top5", "time", deadline_s=DEADLINE_S),
        cost_front=space.front("top5", "cost", budget=BUDGET),
    )


def render(result: GooglenetPareto | None = None) -> str:
    result = result or run()
    summary = format_kv(
        [
            ("points evaluated", result.total_points),
            ("feasible (10h deadline)", result.n_time_feasible),
            ("feasible ($300 budget)", result.n_cost_feasible),
            ("time-Pareto points", len(result.time_front)),
            ("cost-Pareto points", len(result.cost_front)),
            (
                "categories on cost frontier",
                ",".join(sorted(result.cost_front_categories())),
            ),
        ]
    )
    rows = [
        (
            r.spec.label(),
            r.configuration.label(),
            f"{r.accuracy.top5:.1f}",
            f"{r.cost:.0f}",
        )
        for r in result.cost_front
    ]
    return (
        summary
        + "\n\ncost-accuracy frontier:\n"
        + format_table(
            ["Degree of pruning", "Configuration", "Top-5 (%)", "Cost ($)"],
            rows,
        )
    )
