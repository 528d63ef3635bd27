"""Algorithm 1 study: greedy TAR/CAR allocation vs exhaustive search.

The paper claims configuration-space exploration is O(2^|G|) while the
TAR/CAR-guided greedy runs in O(|G| log |G|), and that the heuristic
picks efficient configurations.  This experiment measures both claims:

* *complexity*: model-evaluation counts of greedy vs brute force as the
  resource pool grows;
* *quality*: accuracy (and cost gap) of the greedy pick vs the true
  optimum on pools small enough to search exhaustively.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.calibration.caffenet import (
    caffenet_accuracy_model,
    caffenet_time_model,
)
from repro.cloud.catalog import EC2_CATALOG
from repro.cloud.instance import CloudInstance
from repro.cloud.simulator import CloudSimulator
from repro.core.allocation import brute_force_allocate, greedy_allocate
from repro.experiments.report import format_table
from repro.pruning.schedule import algorithm1_variant_set

__all__ = ["Algorithm1Row", "Algorithm1Result", "run", "compute", "render"]


def _resource_pool(size: int) -> list[CloudInstance]:
    """A pool of ``size`` instances cycling through the catalog."""
    return [
        CloudInstance(EC2_CATALOG[i % len(EC2_CATALOG)])
        for i in range(size)
    ]


@dataclass(frozen=True)
class Algorithm1Row:
    pool_size: int
    greedy_evals: int
    brute_evals: int
    greedy_seconds: float
    brute_seconds: float
    greedy_accuracy: float
    brute_accuracy: float
    greedy_cost: float
    brute_cost: float

    @property
    def accuracy_gap(self) -> float:
        return self.brute_accuracy - self.greedy_accuracy

    @property
    def speedup(self) -> float:
        """Measured wall-clock ratio (machine-dependent; see
        :attr:`eval_speedup` for the deterministic complexity claim)."""
        return self.brute_seconds / max(self.greedy_seconds, 1e-12)

    @property
    def eval_speedup(self) -> float:
        """Model-evaluation ratio — the paper's O(2^|G|) vs
        O(|G| log |G|) claim, independent of the host machine."""
        return self.brute_evals / max(self.greedy_evals, 1)


@dataclass(frozen=True)
class Algorithm1Result:
    rows: tuple[Algorithm1Row, ...]
    images: int
    deadline_s: float
    budget: float


def run(
    pool_sizes: tuple[int, ...] = (4, 6, 8, 10, 12),
    images: int = 200_000,
    deadline_s: float = 2 * 3600.0,
    budget: float = 15.0,
) -> Algorithm1Result:
    simulator = CloudSimulator(
        caffenet_time_model(), caffenet_accuracy_model()
    )
    degrees = algorithm1_variant_set()
    rows = []
    for size in pool_sizes:
        pool = _resource_pool(size)
        t0 = time.perf_counter()
        greedy = greedy_allocate(
            degrees, pool, simulator, images, deadline_s, budget
        )
        t_greedy = time.perf_counter() - t0
        t0 = time.perf_counter()
        brute = brute_force_allocate(
            degrees, pool, simulator, images, deadline_s, budget
        )
        t_brute = time.perf_counter() - t0
        rows.append(
            Algorithm1Row(
                pool_size=size,
                greedy_evals=greedy.evaluations,
                brute_evals=brute.evaluations,
                greedy_seconds=t_greedy,
                brute_seconds=t_brute,
                greedy_accuracy=greedy.accuracy_top5,
                brute_accuracy=brute.accuracy_top5,
                greedy_cost=greedy.result.cost,
                brute_cost=brute.result.cost,
            )
        )
    return Algorithm1Result(
        rows=tuple(rows),
        images=images,
        deadline_s=deadline_s,
        budget=budget,
    )


def compute(
    pool_sizes: tuple[int, ...] = (4, 6, 8, 10, 12),
    images: int = 200_000,
    deadline_s: float = 2 * 3600.0,
    budget: float = 15.0,
) -> dict:
    """Structured data for the Algorithm 1 complexity/quality study."""
    result = run(pool_sizes, images, deadline_s, budget)
    return {
        "images": result.images,
        "deadline_s": result.deadline_s,
        "budget": result.budget,
        "rows": [
            {
                "pool_size": r.pool_size,
                "greedy_evals": r.greedy_evals,
                "brute_evals": r.brute_evals,
                "greedy_seconds": r.greedy_seconds,
                "brute_seconds": r.brute_seconds,
                "greedy_accuracy": r.greedy_accuracy,
                "brute_accuracy": r.brute_accuracy,
                "greedy_cost": r.greedy_cost,
                "brute_cost": r.brute_cost,
                "eval_speedup": r.eval_speedup,
            }
            for r in result.rows
        ],
    }


def render(data: dict | Algorithm1Result | None = None) -> str:
    if data is None:
        data = compute()
    elif isinstance(data, Algorithm1Result):
        data = {
            "rows": [
                {
                    "pool_size": r.pool_size,
                    "greedy_evals": r.greedy_evals,
                    "brute_evals": r.brute_evals,
                    "greedy_accuracy": r.greedy_accuracy,
                    "brute_accuracy": r.brute_accuracy,
                    "greedy_cost": r.greedy_cost,
                    "brute_cost": r.brute_cost,
                    "eval_speedup": r.eval_speedup,
                }
                for r in data.rows
            ]
        }
    table = format_table(
        [
            "|G|",
            "greedy evals",
            "brute evals",
            "greedy acc",
            "brute acc",
            "greedy $",
            "brute $",
            "evals speedup",
        ],
        [
            (
                r["pool_size"],
                r["greedy_evals"],
                r["brute_evals"],
                f"{r['greedy_accuracy']:.1f}",
                f"{r['brute_accuracy']:.1f}",
                f"{r['greedy_cost']:.2f}",
                f"{r['brute_cost']:.2f}",
                f"{r['eval_speedup']:.1f}x",
            )
            for r in data["rows"]
        ],
    )
    return table
