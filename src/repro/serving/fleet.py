"""Declarative fleet evaluation: ``FleetSpec`` + the content-keyed cache.

:mod:`repro.core.evalspace` gave the batch grid one discipline — a
frozen, content-keyed spec evaluated once process-wide.  This module
gives routed serving fleets the same treatment so the planner can ask
"cheapest fleet meeting availability A and p99 L" without re-simulating
a fleet it has already measured:

* :class:`FleetWorkload` — a seeded description of the offered load
  (arrival process + per-request accuracy floors and deadlines),
  reproducible from its fields alone;
* :class:`FleetSpec` — models + replicas + routing + admission, with a
  :meth:`~FleetSpec.cache_key` built from model *fingerprints* (not
  object identity), mirroring
  :meth:`repro.core.evalspace.SpaceSpec.cache_key`;
* :func:`evaluate_fleet` — run the spec's router over the workload,
  memoised in a process-wide :class:`~repro.core.cache.SingleFlightCache`
  like the evaluation-space cache (``fleet.cache_hits`` /
  ``fleet.cache_misses`` counters, 32 entries, oldest evicted first).

The planner query itself is
:func:`repro.api.select_cheapest_fleet`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.calibration.accuracy_model import AccuracyModel
from repro.core.cache import SingleFlightCache
from repro.errors import ConfigurationError
from repro.perf.latency import CalibratedTimeModel
from repro.serving.arrivals import ARRIVALS
from repro.serving.router import (
    AdmissionPolicy,
    FleetReport,
    FleetRouter,
    ReplicaSpec,
)

__all__ = [
    "FleetSpec",
    "FleetWorkload",
    "clear_fleet_cache",
    "evaluate_fleet",
    "fleet_cache_info",
]


def _draw(mixture, n: int, seed: int) -> np.ndarray | None:
    """``n`` seeded draws from ``(value, fraction)`` pairs, if any."""
    if not mixture:
        return None
    values, weights = (np.array(column) for column in zip(*mixture))
    rng = np.random.default_rng(seed)
    return rng.choice(values, size=n, p=weights / weights.sum())


@dataclass(frozen=True)
class FleetWorkload:
    """A reproducible offered load for fleet evaluation.

    Attributes
    ----------
    rate_per_s, duration_s, arrival, seed:
        Parameters of the arrival process (``poisson`` / ``uniform`` /
        ``bursty``), regenerated identically from the seed.
    floors:
        Mixture of per-request Top-5 accuracy floors as
        ``(floor_percent, fraction)`` pairs; fractions must sum to 1.
        Empty means no request carries a requirement (floor 0), which
        is also what non-tiered routing policies assume.
    deadlines:
        Mixture of per-request latency deadlines as
        ``(deadline_s, fraction)`` pairs; fractions must sum to 1.
        Empty means no request carries a deadline (infinity), which
        is what every policy other than ``adaptive`` assumes.
    """

    rate_per_s: float
    duration_s: float
    arrival: str = "poisson"
    seed: int = 0
    floors: tuple[tuple[float, float], ...] = ()
    deadlines: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.arrival not in ARRIVALS:
            raise ConfigurationError(
                f"unknown arrival process {self.arrival!r}; "
                f"available: {sorted(ARRIVALS)}"
            )
        if self.rate_per_s <= 0 or self.duration_s <= 0:
            raise ConfigurationError(
                "rate and duration must be positive"
            )
        if self.floors:
            total = sum(fraction for _, fraction in self.floors)
            if abs(total - 1.0) > 1e-9:
                raise ConfigurationError(
                    f"floor fractions must sum to 1, got {total}"
                )
        if self.deadlines:
            if any(deadline <= 0 for deadline, _ in self.deadlines):
                raise ConfigurationError(
                    "deadlines must be positive seconds"
                )
            total = sum(fraction for _, fraction in self.deadlines)
            if abs(total - 1.0) > 1e-9:
                raise ConfigurationError(
                    f"deadline fractions must sum to 1, got {total}"
                )

    # ------------------------------------------------------------------
    def arrivals(self) -> np.ndarray:
        """The (sorted) arrival times this workload describes."""
        return ARRIVALS[self.arrival](
            self.rate_per_s, self.duration_s, seed=self.seed
        )

    def accuracy_floors(self, n: int) -> np.ndarray | None:
        """Per-request floors for ``n`` arrivals (``None`` if no
        mixture is configured).  Drawn from a seed derived from the
        workload's own, so arrivals and floors stay independent."""
        return _draw(self.floors, n, self.seed + 0x0F100)

    def deadlines_s(self, n: int) -> np.ndarray | None:
        """Per-request deadlines for ``n`` arrivals (``None`` if no
        mixture is configured).  Drawn from a seed derived from the
        workload's own — distinct from the floors' derivation — so
        arrivals, floors, and deadlines are mutually independent."""
        return _draw(self.deadlines, n, self.seed + 0x0D1E5)

    def cache_key(self) -> tuple:
        """Content key for the fleet evaluation cache."""
        return (
            self.rate_per_s,
            self.duration_s,
            self.arrival,
            self.seed,
            self.floors,
            self.deadlines,
        )


@dataclass(frozen=True)
class FleetSpec:
    """A declarative routed fleet, ready for cached evaluation.

    The serving counterpart of
    :class:`repro.core.evalspace.SpaceSpec`: everything needed to build
    a :class:`~repro.serving.router.FleetRouter` plus a content key, so
    equal fleets are simulated once per process no matter how many
    planner queries touch them.
    """

    time_model: CalibratedTimeModel
    accuracy_model: AccuracyModel
    replicas: tuple[ReplicaSpec, ...]
    routing: str = "round-robin"
    admission: AdmissionPolicy | None = None

    def router(self) -> FleetRouter:
        """Build the imperative router this spec describes."""
        return FleetRouter(
            self.time_model,
            self.accuracy_model,
            self.replicas,
            routing=self.routing,
            admission=self.admission,
        )

    @property
    def hourly_rate(self) -> float:
        """Total fleet $/hour (each replica's billing override
        honoured) — the static cost axis of a planner comparison."""
        return sum(
            r.hourly_rate
            if r.hourly_rate is not None
            else r.configuration.total_price_per_hour
            for r in self.replicas
        )

    def cache_key(self) -> tuple:
        """Content key: equal fleets share one evaluation process-wide."""
        return (
            self.time_model.fingerprint(),
            self.accuracy_model.fingerprint(),
            tuple(r.key() for r in self.replicas),
            self.routing,
            self.admission,
        )


# ----------------------------------------------------------------------
# the cache
# ----------------------------------------------------------------------
#: (FleetSpec key, FleetWorkload key) -> FleetReport, process-wide.
_FLEETS = SingleFlightCache("fleet", ("served", lambda r: r.served))


def evaluate_fleet(
    spec: FleetSpec, workload: FleetWorkload
) -> FleetReport:
    """Evaluate ``spec`` under ``workload`` once; content-equal pairs
    hit the shared cache (``fleet.cache_hits``/``fleet.cache_misses``
    counters record the traffic)."""

    def run() -> FleetReport:
        arrivals = workload.arrivals()
        return spec.router().run(
            arrivals,
            floors=workload.accuracy_floors(arrivals.size),
            deadlines=workload.deadlines_s(arrivals.size),
        )

    return _FLEETS.get((spec.cache_key(), workload.cache_key()), run)


#: drop every cached :class:`FleetReport` (tests, benchmarks)
clear_fleet_cache = _FLEETS.clear
#: current cache occupancy (entries and total served requests)
fleet_cache_info = _FLEETS.info
