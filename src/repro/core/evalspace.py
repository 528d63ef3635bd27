"""The unified (degree of pruning x configuration) evaluation space.

Every headline result of the paper — the Figure 9/10 Pareto frontiers,
the TAR/CAR figures (11, 12), Algorithm 1's T/C estimation and the
inverse planner queries — is a query over the same evaluation grid:
degrees of pruning crossed with resource configurations, scored by the
calibrated time and accuracy models.  This module evaluates that grid
*once* and answers every downstream question from columnar arrays.

Three layers of reuse make grid evaluation cheap:

* **a distinct-pair kernel** — the grid is never simulated point by
  point.  A configuration's per-instance allocation and hourly rate do
  not depend on the degree, so each is computed once per configuration,
  and the grid becomes an ``(n_configurations x max_instances)`` slot
  matrix whose slots index a table of distinct ``(instance, images)``
  pairs (padding slots are -1).  Each degree evaluates the scalar time
  model once per distinct pair (86 pairs on the full catalog at two
  instances per type, where the per-point loop made ~262,000 calls),
  gathers, takes Eq. 2's T as the row max and Eq. 1's C with the IEEE
  operations of :func:`~repro.cloud.pricing.hourly_rate_cost`, so every
  column is bit-identical to :meth:`CloudSimulator.run` per point;
* **model memoization** — :meth:`CalibratedTimeModel.time_fraction` and
  the simulator's accuracy lookup are memoized per degree, so a 60 x 63
  grid performs ~60 time-model evaluations instead of 3 780;
* **a process-wide keyed cache** — :func:`evaluate` keys finished
  :class:`EvaluatedSpace` objects by the *content* of their spec (model
  fingerprints, exact prune ratios, configurations, workload, split
  policy), so two experiments asking for the same grid share one
  evaluation even when they built the models independently (one
  :class:`~repro.core.cache.SingleFlightCache`, single-flight per key).

A finished space holds only columns: its :class:`SimulationResult`
records are built on first access and memoized per index.

Queries (:meth:`EvaluatedSpace.feasible_mask`,
:meth:`~EvaluatedSpace.pareto`, :meth:`~EvaluatedSpace.tar`/
:meth:`~EvaluatedSpace.car` and the argmin helpers) are vectorised over
numpy columns but preserve the exact tie-breaking of the historical
per-row Python code: stable sorts with original row order as the final
key, so refactored callers render byte-identical artefacts.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.cache import SingleFlightCache
from repro.core.metrics import car_array, tar_array
from repro.core.pareto import pareto_indices
from repro.errors import ConfigurationError
from repro.obs import get_metrics, get_tracer
from repro.pruning.base import PruneSpec

if TYPE_CHECKING:  # import cycle: the cloud simulator imports core.metrics
    from repro.calibration.accuracy_model import AccuracyModel, AccuracyPair
    from repro.cloud.configuration import ResourceConfiguration
    from repro.cloud.simulator import CloudSimulator, SimulationResult
    from repro.perf.latency import CalibratedTimeModel

__all__ = [
    "SpaceSpec",
    "EvaluatedSpace",
    "evaluate",
    "clear_space_cache",
    "space_cache_info",
]

class _HashedKey:
    """A cache key with its hash computed once.

    Content keys embed every configuration object in the grid, so
    hashing one from scratch walks hundreds of dataclasses — a ~2 ms
    tax per lookup that dominates a warm-cache planning query.  Specs
    memoize one of these, so repeated lookups hash in O(1) and dict
    probes short-circuit on identity.
    """

    __slots__ = ("parts", "hash")

    def __init__(self, parts: tuple) -> None:
        self.parts = parts
        self.hash = hash(parts)

    def __hash__(self) -> int:
        return self.hash

    def __eq__(self, other: object) -> bool:
        return self.parts == getattr(other, "parts", other)


def _as_spec(degree) -> PruneSpec:
    """Accept both ``PruneSpec`` and ``DegreeOfPruning`` elements."""
    if isinstance(degree, PruneSpec):
        return degree
    spec = getattr(degree, "spec", None)
    if isinstance(spec, PruneSpec):
        return spec
    raise ConfigurationError(
        f"expected PruneSpec or DegreeOfPruning, got {type(degree).__name__}"
    )


@dataclass(frozen=True)
class SpaceSpec:
    """Declarative description of one evaluation grid.

    The grid is ``specs x configurations`` at a fixed workload size and
    split policy, scored by one calibrated (time, accuracy) model pair.
    Rows are degree-major: point ``(i, j)`` lands at flat index
    ``i * len(configurations) + j``.
    """

    time_model: "CalibratedTimeModel"
    accuracy_model: "AccuracyModel"
    specs: tuple[PruneSpec, ...]
    configurations: tuple["ResourceConfiguration", ...]
    images: int
    proportional_split: bool = False

    def __post_init__(self) -> None:
        if not self.specs:
            raise ConfigurationError("SpaceSpec needs >= 1 degree of pruning")
        if not self.configurations:
            raise ConfigurationError("SpaceSpec needs >= 1 configuration")
        if self.images < 1:
            raise ConfigurationError("images must be >= 1")

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        time_model: "CalibratedTimeModel",
        accuracy_model: "AccuracyModel",
        degrees: Iterable,
        configurations: Iterable["ResourceConfiguration"],
        images: int,
        proportional_split: bool = False,
    ) -> "SpaceSpec":
        """Normalise ``degrees`` (specs or labelled degrees) into a spec."""
        return cls(
            time_model=time_model,
            accuracy_model=accuracy_model,
            specs=tuple(_as_spec(d) for d in degrees),
            configurations=tuple(configurations),
            images=images,
            proportional_split=proportional_split,
        )

    @classmethod
    def from_simulator(
        cls,
        simulator: "CloudSimulator",
        degrees: Iterable,
        configurations: Iterable["ResourceConfiguration"],
        images: int,
    ) -> "SpaceSpec":
        """Inherit models and split policy from an existing simulator."""
        return cls.build(
            simulator.time_model,
            simulator.accuracy_model,
            degrees,
            configurations,
            images,
            proportional_split=simulator.proportional_split,
        )

    # ------------------------------------------------------------------
    @property
    def n_specs(self) -> int:
        """Number of degrees of pruning in the grid."""
        return len(self.specs)

    @property
    def n_configurations(self) -> int:
        """Number of resource configurations in the grid."""
        return len(self.configurations)

    @property
    def n_points(self) -> int:
        """Total grid size (degrees x configurations)."""
        return self.n_specs * self.n_configurations

    def cache_key(self) -> tuple:
        """Content key: equal grids share one evaluation process-wide.

        Model *fingerprints* (not object identity) make the key robust
        to constructors returning fresh model instances per call; exact
        ratio tuples (not rounded labels) keep distinct degrees distinct.
        """
        return (
            self.time_model.fingerprint(),
            self.accuracy_model.fingerprint(),
            tuple(s.ratios for s in self.specs),
            self.configurations,
            self.images,
            self.proportional_split,
        )

    def _hashed_key(self) -> _HashedKey:
        """The content key with its hash memoized on this instance.

        Long-lived specs (the planning service resolves each request to
        a memoized spec) pay the full key hash once; every later cache
        lookup reuses it, keeping warm planning queries sub-millisecond.
        """
        cached = getattr(self, "_key_cache", None)
        if cached is None:
            cached = _HashedKey(self.cache_key())
            object.__setattr__(self, "_key_cache", cached)
        return cached


class _Records(Sequence):
    """A space's rows as :class:`SimulationResult` records, each built
    on first access and memoized, so one index always yields one
    object."""

    def __init__(self, space: "EvaluatedSpace") -> None:
        self._space = space
        self._built: dict[int, "SimulationResult"] = {}

    def __len__(self) -> int:
        return self._space.space.n_points

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        flat = operator.index(index)
        if flat < 0:
            flat += len(self)
        if not 0 <= flat < len(self):
            raise IndexError(f"grid index {index} out of range")
        row = self._built.get(flat)
        if row is None:
            # setdefault keeps the first record two racing readers built
            row = self._built.setdefault(flat, self._space._record(flat))
        return row


@dataclass(frozen=True, eq=False)
class EvaluatedSpace:
    """A fully evaluated grid: columnar numpy views plus lazy records.

    ``time_s``/``cost``/``top1``/``top5`` hold every point as flat
    float columns in degree-major order; ``accuracies`` holds one
    :class:`AccuracyPair` per degree.  ``results`` is the same points
    as :class:`SimulationResult` records, built on demand.
    """

    space: SpaceSpec
    time_s: np.ndarray = field(repr=False)
    cost: np.ndarray = field(repr=False)
    top1: np.ndarray = field(repr=False)
    top5: np.ndarray = field(repr=False)
    accuracies: tuple["AccuracyPair", ...] = field(repr=False)
    results: _Records = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "results", _Records(self))

    # ------------------------------------------------------------------
    @property
    def n_specs(self) -> int:
        """Number of degrees of pruning in the grid."""
        return self.space.n_specs

    @property
    def n_configurations(self) -> int:
        """Number of resource configurations in the grid."""
        return self.space.n_configurations

    def __len__(self) -> int:
        return self.space.n_points

    @property
    def time_hours(self) -> np.ndarray:
        """Makespan column in hours."""
        return self.time_s / 3600.0

    def accuracy(self, metric: str = "top5") -> np.ndarray:
        """Accuracy column in percent for ``metric``."""
        if metric == "top1":
            return self.top1
        if metric == "top5":
            return self.top5
        raise KeyError(f"unknown accuracy metric {metric!r}")

    def objective(self, objective: str) -> np.ndarray:
        """Objective column: ``"time"`` in hours or ``"cost"`` in dollars."""
        if objective == "time":
            return self.time_hours
        if objective == "cost":
            return self.cost
        raise ValueError(
            f"objective must be 'time' or 'cost', got {objective!r}"
        )

    def tar(self, metric: str = "top5") -> np.ndarray:
        """Vectorised TAR column (hours per unit accuracy; 0% -> inf)."""
        return tar_array(self.time_hours, self.accuracy(metric) / 100.0)

    def car(self, metric: str = "top5") -> np.ndarray:
        """Vectorised CAR column (dollars per unit accuracy; 0% -> inf)."""
        return car_array(self.cost, self.accuracy(metric) / 100.0)

    # ------------------------------------------------------------------
    def result_at(self, i_spec: int, i_config: int) -> "SimulationResult":
        """The row for degree ``i_spec`` on configuration ``i_config``."""
        return self.results[i_spec * self.n_configurations + i_config]

    def _record(self, flat: int) -> "SimulationResult":
        from repro.cloud.simulator import SimulationResult

        i_spec, i_config = divmod(flat, self.n_configurations)
        return SimulationResult(
            spec=self.space.specs[i_spec],
            configuration=self.space.configurations[i_config],
            images=self.space.images,
            time_s=float(self.time_s[flat]),
            cost=float(self.cost[flat]),
            accuracy=self.accuracies[i_spec],
        )

    def grid(self, column: np.ndarray) -> np.ndarray:
        """Reshape a flat column to ``(n_specs, n_configurations)``."""
        return column.reshape(self.n_specs, self.n_configurations)

    # ------------------------------------------------------------------
    def feasible_mask(
        self,
        deadline_s: float | None = None,
        budget: float | None = None,
    ) -> np.ndarray:
        """Boolean column: rows inside the (T', C') constraint box."""
        mask = np.ones(len(self), dtype=bool)
        if deadline_s is not None:
            mask &= self.time_s <= deadline_s
        if budget is not None:
            mask &= self.cost <= budget
        return mask

    def feasible_indices(
        self,
        deadline_s: float | None = None,
        budget: float | None = None,
    ) -> np.ndarray:
        """Global row indices passing the deadline/budget filter."""
        return np.flatnonzero(self.feasible_mask(deadline_s, budget))

    def feasible(
        self,
        deadline_s: float | None = None,
        budget: float | None = None,
    ) -> tuple["SimulationResult", ...]:
        """Feasible rows in original (degree-major) order."""
        return tuple(
            self.results[i] for i in self.feasible_indices(deadline_s, budget)
        )

    # ------------------------------------------------------------------
    def pareto(
        self,
        metric: str = "top5",
        objective: str = "time",
        deadline_s: float | None = None,
        budget: float | None = None,
    ) -> np.ndarray:
        """Global indices of the Pareto front over the feasible set.

        Maximises accuracy, minimises the objective; indices come back
        ordered by descending accuracy with first-occurrence tie-breaks,
        matching :func:`repro.core.pareto.pareto_front` over the same
        rows.
        """
        candidates = self.feasible_indices(deadline_s, budget)
        if candidates.size == 0:
            return candidates
        local = pareto_indices(
            self.accuracy(metric)[candidates],
            self.objective(objective)[candidates],
        )
        return candidates[local]

    def front(
        self,
        metric: str = "top5",
        objective: str = "time",
        deadline_s: float | None = None,
        budget: float | None = None,
    ) -> tuple["SimulationResult", ...]:
        """Pareto-front rows (descending accuracy)."""
        return tuple(
            self.results[i]
            for i in self.pareto(metric, objective, deadline_s, budget)
        )

    # ------------------------------------------------------------------
    def argmin_tar(
        self, metric: str = "top5", mask: np.ndarray | None = None
    ) -> int:
        """Global index of the lowest-TAR row (first occurrence on ties)."""
        return self._argmin(self.tar(metric), mask)

    def argmin_car(
        self, metric: str = "top5", mask: np.ndarray | None = None
    ) -> int:
        """Global index of the lowest-CAR row (first occurrence on ties)."""
        return self._argmin(self.car(metric), mask)

    def _argmin(self, column: np.ndarray, mask: np.ndarray | None) -> int:
        if mask is None:
            return int(np.argmin(column))
        candidates = np.flatnonzero(mask)
        if candidates.size == 0:
            raise ConfigurationError("argmin over an empty feasible set")
        return int(candidates[np.argmin(column[candidates])])


# ----------------------------------------------------------------------
# evaluation + process-wide cache
# ----------------------------------------------------------------------


def _slot_matrix(spec: SpaceSpec) -> tuple[np.ndarray, list, np.ndarray]:
    """The degree-independent half of the grid.

    Returns the ``(n_configurations x max_instances)`` slot matrix, the
    table of distinct ``(instance, images)`` pairs its slots index
    (padding slots are -1), and each configuration's hourly rate.
    """
    pairs: dict[tuple, int] = {}
    rows = [
        [
            pairs.setdefault(pair, len(pairs))
            for pair in zip(
                config.instances,
                config.allocation(spec.images, spec.proportional_split),
            )
        ]
        for config in spec.configurations
    ]
    slots = np.full((len(rows), max(map(len, rows))), -1, dtype=np.intp)
    for r, row in enumerate(rows):
        slots[r, : len(row)] = row
    # the property's builtin sum(), as the per-point path uses: np.sum
    # groups differently, and sum() itself rounds differently from 3.12
    rates = np.array(
        [config.total_price_per_hour for config in spec.configurations]
    )
    return slots, list(pairs), rates


def _evaluate_uncached(spec: SpaceSpec) -> EvaluatedSpace:
    from repro.cloud.simulator import CloudSimulator

    simulator = CloudSimulator(
        spec.time_model,
        spec.accuracy_model,
        proportional_split=spec.proportional_split,
    )
    with get_tracer().span(
        "evalspace.evaluate",
        degrees=spec.n_specs,
        configurations=spec.n_configurations,
        images=spec.images,
    ):
        slots, pairs, rates = _slot_matrix(spec)
        # one value per distinct pair, plus the -inf that padding reads
        values = np.full(len(pairs) + 1, -np.inf)
        time_s = np.empty((spec.n_specs, spec.n_configurations))
        for i, degree in enumerate(spec.specs):
            for k, (instance, images) in enumerate(pairs):
                values[k] = instance.inference_time(
                    spec.time_model, degree, images
                )
            time_s[i] = values[slots].max(axis=1)  # Eq. 2
        # Eq. 1 as hourly_rate_cost computes it: ceil(T) * rate / 3600
        cost = np.ceil(time_s) * rates / 3600.0
        accuracies = tuple(simulator.accuracy(s) for s in spec.specs)
        get_metrics().counter("cloud.simulations").inc(spec.n_points)
    n = spec.n_configurations
    return EvaluatedSpace(
        space=spec,
        time_s=time_s.ravel(),
        cost=cost.ravel(),
        top1=np.array([a.top1 for a in accuracies], dtype=float).repeat(n),
        top5=np.array([a.top5 for a in accuracies], dtype=float).repeat(n),
        accuracies=accuracies,
    )


_SPACES = SingleFlightCache("evalspace", ("points", len))


def evaluate(spec: SpaceSpec) -> EvaluatedSpace:
    """Evaluate ``spec`` once; content-equal grids hit the shared cache."""
    return _SPACES.get(spec._hashed_key(), lambda: _evaluate_uncached(spec))


#: drop every cached :class:`EvaluatedSpace` (tests, benchmarks)
clear_space_cache = _SPACES.clear
#: current cache occupancy (entries and total cached grid points)
space_cache_info = _SPACES.info
