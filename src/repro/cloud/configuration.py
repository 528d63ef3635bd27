"""Resource configurations: the paper's *R* and Equations 1-4.

A :class:`ResourceConfiguration` is a multiset of allocated instances.
Evaluating a (degree of pruning, configuration) pair applies the paper's
model:

    W_i = W / |R|                  (Eq. 4 — even split across resources)
    n_i = W_i / b_i                (Eq. 3 — batches per resource)
    T   = max_i n_i * t_{b,a}      (Eq. 2 — makespan)
    C   = T * sum_i c_i            (Eq. 1 — every instance is billed for
                                    the whole makespan)

Equation 1 bills *all* resources for the makespan ``T`` (instances are
released together), which is how the paper couples its time and cost
Pareto frontiers.  A capacity-proportional split alternative is provided
for the workload-split ablation.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.cloud.instance import CloudInstance
from repro.cloud.pricing import hourly_rate_cost
from repro.errors import ConfigurationError
from repro.perf.latency import CalibratedTimeModel
from repro.pruning.base import PruneSpec

__all__ = ["ResourceConfiguration"]


@dataclass(frozen=True)
class ResourceConfiguration:
    """A multiset of allocated cloud instances (the paper's *R*)."""

    instances: tuple[CloudInstance, ...]

    def __init__(self, instances: Iterable[CloudInstance]) -> None:
        items = tuple(instances)
        if not items:
            raise ConfigurationError("a configuration needs >= 1 instance")
        object.__setattr__(self, "instances", items)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.instances)

    @property
    def total_price_per_hour(self) -> float:
        """sum_i c_i of Equation 1."""
        return sum(inst.price_per_hour for inst in self.instances)

    @property
    def total_gpus(self) -> int:
        return sum(inst.gpus_used for inst in self.instances)

    def label(self) -> str:
        """Compact multiset label, e.g. ``2xp2.xlarge+1xp2.8xlarge``."""
        counts = Counter(inst.name for inst in self.instances)
        return "+".join(f"{n}x{name}" for name, n in sorted(counts.items()))

    # ------------------------------------------------------------------
    def split_workload(self, images: int) -> list[int]:
        """Eq. 4: even split, remainder spread over the first instances."""
        if images < 0:
            raise ConfigurationError("images must be non-negative")
        base, extra = divmod(images, len(self.instances))
        return [
            base + (1 if i < extra else 0)
            for i in range(len(self.instances))
        ]

    def split_workload_proportional(self, images: int) -> list[int]:
        """Capacity-proportional split (the Ablation C alternative).

        Shares are proportional to each instance's saturated throughput,
        GPUs in use x device speedup (pruning scales every device alike,
        so the split does not depend on the degree), and heterogeneous
        configurations finish near-simultaneously instead of waiting
        for the slowest resource.
        """
        rates = np.array(
            [
                inst.gpus_used
                * inst.itype.gpu.inference_speedup
                for inst in self.instances
            ],
            dtype=float,
        )
        shares = rates / rates.sum()
        alloc = np.floor(shares * images).astype(int)
        # hand the remainder to the fastest instances
        remainder = images - int(alloc.sum())
        order = np.argsort(-rates, kind="stable")
        for i in range(remainder):
            alloc[order[i % len(alloc)]] += 1
        return alloc.tolist()

    def allocation(
        self, images: int, proportional_split: bool = False
    ) -> list[int]:
        """Images per instance: Eq. 4's even split, or the proportional
        one.  Neither depends on the degree of pruning."""
        if proportional_split:
            return self.split_workload_proportional(images)
        return self.split_workload(images)

    # ------------------------------------------------------------------
    def makespan(
        self,
        time_model: CalibratedTimeModel,
        spec: PruneSpec,
        images: int,
        proportional_split: bool = False,
    ) -> float:
        """T of Equation 2, in seconds."""
        return max(
            inst.inference_time(time_model, spec, w)
            for inst, w in zip(
                self.instances, self.allocation(images, proportional_split)
            )
        )

    def cost(
        self,
        time_model: CalibratedTimeModel,
        spec: PruneSpec,
        images: int,
        proportional_split: bool = False,
    ) -> float:
        """C of Equation 1: makespan x total hourly rate (per-second billed)."""
        t = self.makespan(
            time_model, spec, images, proportional_split=proportional_split
        )
        return hourly_rate_cost(self.total_price_per_hour, t)

    def evaluate(
        self,
        time_model: CalibratedTimeModel,
        spec: PruneSpec,
        images: int,
        proportional_split: bool = False,
    ) -> tuple[float, float]:
        """(T seconds, C dollars) in one pass."""
        t = self.makespan(
            time_model, spec, images, proportional_split=proportional_split
        )
        return t, hourly_rate_cost(self.total_price_per_hour, t)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.label()
