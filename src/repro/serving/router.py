"""Fleet-scale request routing across heterogeneous serving replicas.

The paper's cost model (Eqs. 1-4) splits a batch workload evenly over a
static configuration; the serving simulators then brought that model to
one online endpoint.  A production fleet is neither: it is *many*
replicas — different instance types, different degrees of pruning,
different batch policies, some of them elastic — behind one router that
decides, request by request, who serves what.  This module adds that
layer while keeping every downstream number bit-reproducible.

Design: **partition, then simulate.**  Routing and admission decisions
are made per arrival from a deterministic fluid view of each replica's
backlog (assigned requests drain at the replica's modelled capacity);
each replica then serves its assigned sub-stream through the *unchanged*
:class:`~repro.serving.simulator.ServingSimulator` (or
:class:`~repro.serving.autoscaler.AutoscalingSimulator` for elastic
replicas).  Two consequences fall out:

* a single-replica fleet with no admission control is *literally* the
  bare simulator — same arrivals, same event loop, byte-identical
  report (tested); and
* fleet runs stay deterministic for fixed seeds, so they can sit behind
  the content-keyed evaluation cache
  (:mod:`repro.serving.fleet`) and the bench regression gate.

Routing policies (:data:`ROUTING_POLICIES`):

* ``round-robin``   — cycle replicas in declaration order;
* ``jsq``           — join the shortest queue of the fluid backlog view;
* ``weighted``      — smooth weighted round-robin by modelled
  throughput (or explicit per-replica weights);
* ``tiered``        — accuracy-tiered: the cheapest replica whose model
  accuracy clears the request's floor (ties broken by backlog);
* ``adaptive``      — anytime inference: the cheapest replica that
  clears the request's floor *and* can meet its deadline under the
  current backlog, degrading to the most accurate still-timely
  replica (then to the smallest estimated wait) rather than piling
  onto a saturated tier or shedding when nothing fits.

An :class:`AdmissionPolicy` (token bucket + queue-depth shedding) can
shed load before it reaches any replica, so overload degrades into a
bounded-latency, partial-availability regime instead of a latency
collapse.  Its ``degrade_limit`` adds a softer rung below the shed
threshold: past it, requests keep flowing but their accuracy floors
are waived, so the fleet serves lower-accuracy answers *before* it
starts shedding.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.calibration.accuracy_model import AccuracyModel, AccuracyPair
from repro.cloud.configuration import ResourceConfiguration
from repro.cloud.faults import FaultPlan
from repro.cloud.pricing import hourly_rate_cost
from repro.errors import ConfigurationError
from repro.obs import get_metrics, get_tracer
from repro.perf.latency import CalibratedTimeModel
from repro.pruning.base import PruneSpec
from repro.serving.autoscaler import AutoscalePolicy, AutoscalingSimulator
from repro.serving.batcher import BatchPolicy
from repro.serving.metrics import RunStats
from repro.serving.simulator import ServingSimulator

__all__ = [
    "AdmissionPolicy",
    "FleetReport",
    "FleetRouter",
    "FleetTelemetry",
    "ReplicaOutcome",
    "ReplicaSpec",
    "ROUTING_POLICIES",
    "fluid_backlog_trajectory",
]


# ----------------------------------------------------------------------
# declarative pieces
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplicaSpec:
    """One replica of the fleet: a serving deployment the router targets.

    Attributes
    ----------
    name:
        Unique label within the fleet (appears in reports/telemetry).
    configuration:
        Instances whose GPUs form this replica's worker pool.
    spec:
        Degree of pruning of the model this replica deploys.
    policy:
        Its batch-forming policy.
    faults:
        Optional per-replica :class:`~repro.cloud.faults.FaultPlan`
        (worker indices are local to the replica).
    hourly_rate:
        Billing override (e.g. a spot rate); ``None`` bills on-demand.
    weight:
        Optional explicit weight for ``weighted`` routing; ``None``
        uses the modelled throughput capacity.
    autoscale:
        When set, the replica is *elastic*: it serves its sub-stream
        through :class:`~repro.serving.autoscaler.AutoscalingSimulator`
        on the configuration's (single) instance type, adding and
        removing instances per the policy.
    """

    name: str
    configuration: ResourceConfiguration
    spec: PruneSpec
    policy: BatchPolicy
    faults: FaultPlan | None = None
    hourly_rate: float | None = None
    weight: float | None = None
    autoscale: AutoscalePolicy | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("replica needs a non-empty name")
        if self.hourly_rate is not None and self.hourly_rate < 0:
            raise ConfigurationError("hourly rate must be non-negative")
        if self.weight is not None and self.weight <= 0:
            raise ConfigurationError("weight must be positive")
        if self.autoscale is not None:
            itypes = {
                i.itype for i in self.configuration.instances
            }
            if len(itypes) != 1:
                raise ConfigurationError(
                    "an autoscaled replica needs a single instance type"
                )

    def key(self) -> tuple:
        """Content key for fleet-level caching (mirrors
        :meth:`repro.core.evalspace.SpaceSpec.cache_key`)."""
        return (
            self.name,
            self.configuration,
            self.spec.ratios,
            self.policy,
            self.faults,
            self.hourly_rate,
            self.weight,
            self.autoscale,
        )


@dataclass(frozen=True)
class AdmissionPolicy:
    """Admission control in front of the whole fleet.

    Attributes
    ----------
    rate_per_s:
        Token-bucket refill rate; each admitted request consumes one
        token and requests finding the bucket empty are shed.  ``None``
        disables rate limiting; ``0.0`` admits only the initial burst.
    burst:
        Bucket capacity — the largest spike admitted at line rate.
    queue_limit:
        Shed arrivals while the fleet's total (fluid-estimated) backlog
        is at or above this many requests; ``None`` disables
        depth-based shedding, ``0`` sheds everything.
    degrade_limit:
        Graceful-degradation threshold: while the total fluid backlog
        is at or above this many requests (but below ``queue_limit``),
        admitted requests have their accuracy floors waived, so the
        routing policy may serve them on a cheaper, less accurate
        replica instead of queueing behind the accurate tier.  Must
        not exceed ``queue_limit`` when both are set — degradation is
        the rung *before* shedding, never after.  ``None`` disables it.
    """

    rate_per_s: float | None = None
    burst: int = 32
    queue_limit: float | None = None
    degrade_limit: float | None = None

    def __post_init__(self) -> None:
        if self.rate_per_s is not None and self.rate_per_s < 0:
            raise ConfigurationError("admission rate must be >= 0")
        if self.burst < 0:
            raise ConfigurationError("burst must be >= 0")
        if self.queue_limit is not None and self.queue_limit < 0:
            raise ConfigurationError("queue limit must be >= 0")
        if self.degrade_limit is not None and self.degrade_limit < 0:
            raise ConfigurationError("degrade limit must be >= 0")
        if (
            self.degrade_limit is not None
            and self.queue_limit is not None
            and self.degrade_limit > self.queue_limit
        ):
            raise ConfigurationError(
                "degrade limit must not exceed the queue limit "
                "(degradation happens before shedding)"
            )

    @property
    def is_open(self) -> bool:
        """True when the policy can never shed (both knobs disabled)."""
        return self.rate_per_s is None and self.queue_limit is None


# ----------------------------------------------------------------------
# routing policies
# ----------------------------------------------------------------------
#: routing policy names (the ``repro serve --fleet --routing`` choices);
#: the columnar decision pass in :meth:`FleetRouter.route` implements
#: each, replaying :mod:`repro.serving.reference` bit for bit.
ROUTING_POLICIES: tuple[str, ...] = (
    "round-robin",
    "jsq",
    "weighted",
    "tiered",
    "adaptive",
)


def fluid_backlog_trajectory(
    arrivals: np.ndarray,
    assignment: np.ndarray,
    capacities: Sequence[float],
) -> np.ndarray:
    """Every replica's fluid backlog after each arrival, closed form.

    Replays the router's fluid queue model — drain at capacity between
    arrivals, ``+1`` per assignment, clamp at zero — for the whole run
    at once.  Returns shape ``(len(arrivals), len(capacities))``:
    row ``i`` is the backlog vector just after arrival ``i`` was
    processed (sheds, ``assignment == -1``, add nothing but time still
    passes).

    The sequential recurrence ``b_i = max(0, b_{i-1} - dt_i * c) + a_i``
    unrolls to a prefix maximum: with ``s_i = c * t_i`` and
    ``A_i = cumsum(a)_i``,

    ``b_i = max(0, max_j<=i (s_j - A_{j-1})) + A_i - s_i``

    which vectorizes as one ``np.maximum.accumulate``.  The regrouped
    arithmetic is *not* guaranteed bit-identical to stepping the
    fluid state of :mod:`repro.serving.reference` (terms associate
    differently); agreement is to float tolerance, which is why the
    router's decision pass never uses it — it exists for post-hoc
    analysis and plots over the assignment the decision pass produced.
    """
    arrivals = np.asarray(arrivals, dtype=float)
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.shape != arrivals.shape:
        raise ConfigurationError(
            "assignment must align with arrivals"
        )
    capacity = np.asarray(capacities, dtype=float)
    added = (
        assignment[:, None] == np.arange(capacity.size)[None, :]
    ).astype(float)
    cumulative = np.cumsum(added, axis=0)
    drained = arrivals[:, None] * capacity[None, :]
    reset_level = np.maximum.accumulate(
        np.maximum(drained - (cumulative - added), 0.0), axis=0
    )
    return reset_level + cumulative - drained


# ----------------------------------------------------------------------
# fleet telemetry
# ----------------------------------------------------------------------
class FleetTelemetry:
    """Per-replica :class:`~repro.obs.telemetry.ServingTelemetry` plus a
    fleet-aggregate view.

    Pass one to :meth:`FleetRouter.run`; the router hands each replica
    its own bundle (full streaming histograms and — when ``slo`` is set
    — a per-replica sliding-window SLO burn monitor), records admission
    sheds, and :meth:`finalize` publishes both the per-replica and the
    merged fleet gauges.
    """

    def __init__(self, slo=None) -> None:
        self.slo = slo
        self.per_replica: dict[str, object] = {}
        self.shed = 0
        #: replica name -> {"assigned", "at_floor"} decision counts
        self.tier_counts: dict[str, dict[str, int]] = {}
        self.degraded = 0

    def replica(self, name: str):
        """The (lazily created) telemetry bundle for replica ``name``."""
        from repro.obs.telemetry import ServingTelemetry

        if name not in self.per_replica:
            self.per_replica[name] = ServingTelemetry(self.slo)
        return self.per_replica[name]

    def record_shed(self, now: float) -> None:
        """Count one admission-shed request (never reaches a replica)."""
        self.shed += 1

    def record_tier(
        self, name: str, assigned: int, at_floor: int
    ) -> None:
        """Record one replica's decision-level tier counts: how many
        requests it was assigned and how many of those had their
        accuracy floor honoured (the difference was degraded)."""
        self.tier_counts[name] = {
            "assigned": assigned,
            "at_floor": at_floor,
        }
        self.degraded += assigned - at_floor

    # ------------------------------------------------------------------
    @property
    def aggregate_latency(self):
        """Merged fleet-wide latency histogram (same bucket bounds)."""
        from repro.obs.telemetry import LatencyHistogram

        merged: LatencyHistogram | None = None
        for telemetry in self.per_replica.values():
            hist = telemetry.latency
            if merged is None:
                merged = LatencyHistogram(hist.bounds)
            elif merged.bounds != hist.bounds:
                raise ConfigurationError(
                    "cannot merge histograms with different bounds"
                )
            merged.counts = [
                a + b for a, b in zip(merged.counts, hist.counts)
            ]
            merged.count += hist.count
            merged.total += hist.total
            merged._max = max(merged._max, hist._max)
            merged._min = min(merged._min, hist._min)
        if merged is None:
            merged = LatencyHistogram()
        return merged

    def burn_summaries(self) -> dict[str, dict]:
        """Per-replica SLO burn summaries (empty without an SLO)."""
        return {
            name: t.slo.summary()
            for name, t in self.per_replica.items()
            if t.slo is not None
        }

    @property
    def alerts_fired(self) -> int:
        """Total ``slo.alert`` events across every replica monitor."""
        return sum(
            t.alerts_fired for t in self.per_replica.values()
        )

    def finalize(self, registry=None, prefix: str = "router") -> None:
        """Publish per-replica and merged fleet gauges into
        ``registry`` (default: the current observability scope)."""
        if registry is None:
            registry = get_metrics()
        for name, telemetry in self.per_replica.items():
            telemetry.finalize(registry, prefix=f"{prefix}.{name}")
        merged = self.aggregate_latency
        if merged.count:
            for q, label in ((50, "p50"), (95, "p95"), (99, "p99")):
                registry.gauge(f"{prefix}.latency_{label}_s").set(
                    merged.percentile(q)
                )
        registry.counter(f"{prefix}.shed").inc(self.shed)
        # tier counters only exist once degradation actually happened,
        # so pre-adaptive runs keep byte-identical counter snapshots
        # (the fleet-wide degraded counter is published by the router)
        if self.degraded:
            for name, counts in self.tier_counts.items():
                registry.counter(
                    f"{prefix}.{name}.at_floor"
                ).inc(counts["at_floor"])


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplicaOutcome:
    """One replica's slice of a fleet run.

    ``report`` is the replica's own
    :class:`~repro.serving.simulator.ServingReport` (or
    :class:`~repro.serving.autoscaler.AutoscaleReport` for elastic
    replicas) — ``None`` when the replica received no requests, in
    which case it idled (and was billed) for the fleet's makespan.
    """

    spec: ReplicaSpec
    assigned: int
    report: object | None
    cost: float
    #: assigned requests whose accuracy floor this replica's model
    #: cleared (decision-level; the rest were served *degraded*)
    at_floor: int = 0

    @property
    def degraded(self) -> int:
        """Assigned requests served below their accuracy floor."""
        return self.assigned - self.at_floor

    @property
    def served(self) -> int:
        """Requests this replica completed."""
        return 0 if self.report is None else self.report.served

    @property
    def dropped(self) -> int:
        """Requests this replica dropped (faults/timeouts)."""
        return 0 if self.report is None else self.report.dropped


@dataclass(frozen=True)
class FleetReport(RunStats):
    """Outcome of one routed fleet run.

    Aggregates treat the *offered* stream (including admission sheds)
    as the denominator, so availability composes admission control and
    per-replica drops the way an external client would measure it.
    The shared statistics come from
    :class:`~repro.serving.metrics.RunStats`; its ``served``
    (offered minus sheds and replica drops) equals the replicas' summed
    served counts, because every admitted request goes to one replica.
    """

    offered: int
    shed: int
    duration_s: float
    routing: str
    outcomes: tuple[ReplicaOutcome, ...]

    # ------------------------------------------------------------------
    def outcome(self, name: str) -> ReplicaOutcome:
        """The outcome of the replica named ``name``."""
        for o in self.outcomes:
            if o.spec.name == name:
                return o
        raise KeyError(name)

    @property
    def requests(self) -> int:
        """Offered requests (admitted + shed)."""
        return self.offered

    @property
    def admitted(self) -> int:
        """Requests that passed admission control."""
        return self.offered - self.shed

    @property
    def dropped(self) -> int:
        """Requests lost anywhere: admission sheds + replica drops."""
        return self.shed + sum(o.dropped for o in self.outcomes)

    @property
    def degraded(self) -> int:
        """Admitted requests routed below their accuracy floor —
        the adaptive policy's graceful degradation and/or admission's
        ``degrade_limit`` floor waiver.  Zero whenever every request's
        floor was honoured (in particular for every pre-adaptive
        configuration)."""
        return sum(o.degraded for o in self.outcomes)

    @property
    def served_at_floor(self) -> float:
        """Served requests credited at their accuracy floor.

        Decision-level estimate: each replica's served count is scaled
        by the fraction of its assignments that honoured the floor
        (the router decides tiers per request, but a replica's report
        does not say *which* of its requests completed, so the credit
        is proportional).  Equal to ``served`` when nothing degraded.
        """
        total = 0.0
        for o in self.outcomes:
            if o.assigned:
                total += o.served * (o.at_floor / o.assigned)
        return total

    @property
    def goodput_at_accuracy(self) -> float:
        """Floor-honouring served requests per second of wall time —
        the quality-weighted counterpart of :attr:`goodput` that a
        degradation policy is judged by (serving everything at the
        lowest tier maximises goodput but not this)."""
        return (
            self.served_at_floor / self.duration_s
            if self.duration_s
            else 0.0
        )

    @property
    def cost(self) -> float:
        """Total dollars across every replica (idle replicas included)."""
        return sum(o.cost for o in self.outcomes)

    @property
    def latencies_s(self) -> np.ndarray:
        """Served latencies concatenated across replicas."""
        parts = [
            o.report.latencies_s
            for o in self.outcomes
            if o.report is not None and o.report.latencies_s.size
        ]
        if not parts:
            return np.empty(0)
        return np.concatenate(parts)

    @property
    def utilisation(self) -> float:
        """Busy fraction over the static replicas' worker-seconds
        (elastic replicas, whose pool varies, are excluded)."""
        busy = denominator = 0.0
        for o in self.outcomes:
            report = o.report
            if report is None or not hasattr(report, "busy_s"):
                continue
            busy += report.busy_s
            denominator += report.worker_count * report.duration_s
        return busy / denominator if denominator else 0.0

    def burn_rates(self, slo) -> dict[str, float]:
        """Whole-run SLO burn rates against a
        :class:`~repro.obs.telemetry.SloPolicy` — the fleet-level
        counterpart of the per-replica sliding-window monitors (which
        live in :class:`FleetTelemetry`): error rate over the full run
        divided by the SLO's error budget."""
        availability_budget = 1.0 - slo.availability_target
        latency_budget = 1.0 - slo.latency_quantile
        return {
            "availability": self.drop_rate / availability_budget,
            "latency": self.miss_rate(slo.latency_slo_s)
            / latency_budget,
        }

    def summary(self) -> dict[str, object]:
        """JSON-ready headline aggregates plus per-replica rows."""
        return {
            "routing": self.routing,
            "offered": self.offered,
            "shed": self.shed,
            "served": self.served,
            "dropped": self.dropped,
            "availability": self.availability,
            "goodput": self.goodput,
            "degraded": self.degraded,
            "goodput_at_accuracy": self.goodput_at_accuracy,
            "p50_s": self.p50,
            "p99_s": self.p99,
            "cost": self.cost,
            "duration_s": self.duration_s,
            "replicas": [
                {
                    "name": o.spec.name,
                    "assigned": o.assigned,
                    "at_floor": o.at_floor,
                    "served": o.served,
                    "dropped": o.dropped,
                    "cost": o.cost,
                }
                for o in self.outcomes
            ],
        }


# ----------------------------------------------------------------------
# the router
# ----------------------------------------------------------------------
class FleetRouter:
    """Compose N replica simulators behind a routing policy.

    Parameters
    ----------
    time_model, accuracy_model:
        Calibrated models shared by every replica (each replica applies
        its own pruning degree to them).
    replicas:
        The fleet; names must be unique.
    routing:
        One of :data:`ROUTING_POLICIES`.
    admission:
        Optional :class:`AdmissionPolicy`; ``None`` admits everything.
    """

    def __init__(
        self,
        time_model: CalibratedTimeModel,
        accuracy_model: AccuracyModel,
        replicas: Sequence[ReplicaSpec],
        routing: str = "round-robin",
        admission: AdmissionPolicy | None = None,
    ) -> None:
        replicas = tuple(replicas)
        if not replicas:
            raise ConfigurationError(
                "a fleet needs at least one replica"
            )
        names = [r.name for r in replicas]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"replica names must be unique, got {names}"
            )
        if routing not in ROUTING_POLICIES:
            raise ConfigurationError(
                f"unknown routing policy {routing!r}; "
                f"available: {sorted(ROUTING_POLICIES)}"
            )
        if time_model.name != accuracy_model.name:
            raise ConfigurationError("time/accuracy model mismatch")
        self.time_model = time_model
        self.accuracy_model = accuracy_model
        self.replicas = replicas
        self.routing = routing
        self.admission = admission
        self.capacities = tuple(
            self._capacity(r) for r in replicas
        )
        self.accuracies = tuple(
            accuracy_model.accuracy(r.spec) for r in replicas
        )
        self.rates_per_hour = tuple(
            r.hourly_rate
            if r.hourly_rate is not None
            else r.configuration.total_price_per_hour
            for r in replicas
        )
        # the per-replica columns the decision pass reads
        self._top5 = np.array(
            [a.top5 for a in self.accuracies], dtype=float
        )
        self._rates = np.array(self.rates_per_hour, dtype=float)
        self._best = int(np.argmax(self._top5))
        self._weights = np.array(
            [
                r.weight if r.weight is not None else c
                for r, c in zip(replicas, self.capacities)
            ],
            dtype=float,
        )
        if routing == "weighted" and not np.all(self._weights > 0):
            raise ConfigurationError(
                "weighted routing needs positive capacities/weights"
            )

    # ------------------------------------------------------------------
    def _capacity(self, replica: ReplicaSpec) -> float:
        """Modelled saturated throughput (req/s) of one replica.

        Per worker: the clamped batch width divided by that batch's
        service time; elastic replicas count their minimum fleet (the
        capacity a router can rely on before scale-out kicks in).
        """
        total = 0.0
        for instance in replica.configuration.instances:
            device = instance.itype.gpu
            batching = self.time_model.batching_model(
                replica.spec, device
            )
            width = min(
                replica.policy.max_batch,
                self.time_model.max_batch(device),
            )
            total += instance.gpus_used * (
                width / batching.batch_time(width)
            )
        if replica.autoscale is not None:
            per_instance = total / len(replica.configuration.instances)
            total = per_instance * replica.autoscale.min_instances
        return total

    # ------------------------------------------------------------------
    def route(
        self,
        arrivals: np.ndarray,
        floors: np.ndarray | None = None,
        deadlines: np.ndarray | None = None,
    ) -> np.ndarray:
        """Assign each arrival to a replica index, or ``-1`` for shed.

        Pure decision pass — no replica is simulated.  ``floors`` is an
        optional per-request Top-5 accuracy requirement in percent
        (used by ``tiered`` and ``adaptive`` routing); ``deadlines`` is
        an optional per-request latency deadline in seconds (used by
        ``adaptive``).  ``None`` means no requirement (floor 0, or an
        infinite deadline).

        The decision pass is bit-identical to the per-arrival loop in
        :mod:`repro.serving.reference` — tested property-style in
        ``tests/test_columnar.py`` — while touching each replica's
        fluid backlog only where a decision actually reads it.
        """
        arrivals = np.asarray(arrivals, dtype=float)
        if arrivals.size == 0:
            raise ConfigurationError("no arrivals to route")
        if np.any(np.diff(arrivals) < 0):
            raise ConfigurationError("arrivals must be sorted")
        if floors is None:
            floors = np.zeros(arrivals.size)
        else:
            floors = np.asarray(floors, dtype=float)
            if floors.shape != arrivals.shape:
                raise ConfigurationError(
                    "floors must align with arrivals"
                )
        if deadlines is None:
            deadlines = np.full(arrivals.size, np.inf)
        else:
            deadlines = np.asarray(deadlines, dtype=float)
            if deadlines.shape != arrivals.shape:
                raise ConfigurationError(
                    "deadlines must align with arrivals"
                )
        if self.routing == "adaptive":
            return self._route_adaptive(arrivals, floors, deadlines)
        return self._route_columnar(arrivals, floors)

    def _route_columnar(
        self,
        arrivals: np.ndarray,
        floors: np.ndarray,
    ) -> np.ndarray:
        """Vectorized decision pass for every policy but ``adaptive``
        (see :meth:`_route_adaptive`), bit-identical to the reference
        :func:`repro.serving.reference.route`.

        Strategy: hoist everything that does not depend on the fluid
        backlog out of the per-arrival loop.

        * ``tiered`` floors repeat heavily, so the eligible/cheapest
          candidate set is computed once per *distinct* floor with the
          reference policy's numpy expressions, then looked up by code.
        * When no decision reads the backlog (round-robin, weighted,
          or tiered whose candidate sets are all singletons) and depth
          shedding is off, assignments are pure numpy — the token
          bucket, when present, is a cheap scalar pre-pass.
        * Otherwise a scalar loop runs with plain Python floats,
          draining only the *tracked* replicas a decision can read.
          Scalar ``max(0, b - dt*c)`` / first-min scans replicate the
          reference's ``np.maximum``/``np.argmin`` exactly (same IEEE
          ops, first-extremum ties).  Depth limits track every replica
          and add each drained backlog to the fleet total as it is
          written, left to right: the same fixed-order sum the
          reference computes, in the same pass as the drain.
        """
        n = arrivals.size
        n_replicas = len(self.replicas)
        routing = self.routing
        admission = self.admission
        rate = admission.rate_per_s if admission is not None else None
        queue_limit = (
            admission.queue_limit if admission is not None else None
        )
        degrade_limit = (
            admission.degrade_limit if admission is not None else None
        )
        depth_read = (
            queue_limit is not None or degrade_limit is not None
        )

        # --- per-distinct-floor candidate tables (tiered only) -------
        codes = cand_sets = zero_cands = None
        if routing == "tiered":

            def _tier_cands(floor: float) -> tuple[int, ...]:
                # the reference policy's numpy expressions
                eligible = np.flatnonzero(self._top5 >= floor - 1e-9)
                if eligible.size == 0:
                    return (self._best,)
                rates = self._rates[eligible]
                cheapest = eligible[
                    np.flatnonzero(rates == rates.min())
                ]
                return tuple(int(c) for c in cheapest)

            uniq, codes = np.unique(floors, return_inverse=True)
            cand_sets = [_tier_cands(f) for f in uniq.tolist()]
            if degrade_limit is not None:
                # degraded requests route with their floor waived
                zero_cands = _tier_cands(0.0)

        # which replicas can a decision actually read?
        if depth_read or routing == "jsq":
            tracked = list(range(n_replicas))
        elif routing == "tiered":
            tracked = sorted(
                {
                    c
                    for cands in cand_sets
                    if len(cands) > 1
                    for c in cands
                }
            )
        else:
            tracked = []

        # --- fully/mostly vectorized paths ----------------------------
        backlog_free = not tracked and queue_limit is None
        if backlog_free and routing in ("round-robin", "tiered"):
            if routing == "tiered":
                pickmap = np.array(
                    [cands[0] for cands in cand_sets],
                    dtype=np.int64,
                )
            if rate is None:
                if routing == "round-robin":
                    return np.arange(n, dtype=np.int64) % n_replicas
                return pickmap[codes]
            # token bucket only: scalar admission pre-pass, then
            # vectorized assignment over the admitted sub-stream
            assignment = np.full(n, -1, dtype=np.int64)
            idx = np.flatnonzero(self._admitted_mask(arrivals))
            if routing == "round-robin":
                assignment[idx] = (
                    np.arange(idx.size, dtype=np.int64) % n_replicas
                )
            else:
                assignment[idx] = pickmap[codes[idx]]
            return assignment

        # --- scalar loop over python floats ---------------------------
        capacity = [float(c) for c in self.capacities]
        backlog = [0.0] * n_replicas
        last_t = 0.0
        total = 0.0
        rate_on = rate is not None
        tokens = float(admission.burst) if admission is not None else 0.0
        burst = tokens
        last_refill = 0.0
        picks: list[int] = []
        if routing == "round-robin":
            next_rr = 0
        elif routing == "weighted":
            weights = self._weights.tolist()
            current = [0.0] * n_replicas
            wsum = float(self._weights.sum())
        code_list = codes.tolist() if routing == "tiered" else [0] * n
        for t, code in zip(arrivals.tolist(), code_list):
            dt = t - last_t
            if dt > 0.0:
                # drain and sum in one pass; the sum is read only under
                # depth limits, which track every replica in order, and
                # skipping zero terms is exact (x + 0.0 == x, x >= +0.0)
                total = 0.0
                for r in tracked:
                    drained = backlog[r] - dt * capacity[r]
                    if drained > 0.0:
                        backlog[r] = drained
                        total += drained
                    else:
                        backlog[r] = 0.0
                last_t = t
            elif depth_read:
                total = 0.0
                for b in backlog:
                    total += b
            degrade = False
            if admission is not None:
                if rate_on:
                    # same value as min(burst, tokens + dt * rate)
                    tokens = tokens + (t - last_refill) * rate
                    if tokens > burst:
                        tokens = burst
                    last_refill = t
                if (queue_limit is not None and total >= queue_limit) or (
                    rate_on and tokens < 1.0
                ):
                    picks.append(-1)
                    continue
                if rate_on:
                    tokens -= 1.0
                degrade = (
                    degrade_limit is not None and total >= degrade_limit
                )
            if routing == "round-robin":
                pick = next_rr
                next_rr += 1
                if next_rr == n_replicas:
                    next_rr = 0
            elif routing == "jsq":
                pick = 0
                best = backlog[0]
                for r in range(1, n_replicas):
                    if backlog[r] < best:
                        best = backlog[r]
                        pick = r
            elif routing == "weighted":
                pick = 0
                best = float("-inf")
                for r in range(n_replicas):
                    credit = current[r] + weights[r]
                    current[r] = credit
                    if credit > best:
                        best = credit
                        pick = r
                current[pick] -= wsum
            else:  # tiered with backlog tie-breaks
                cands = zero_cands if degrade else cand_sets[code]
                pick = cands[0]
                if len(cands) > 1:
                    best = backlog[pick]
                    for r in cands[1:]:
                        if backlog[r] < best:
                            best = backlog[r]
                            pick = r
            backlog[pick] += 1.0
            picks.append(pick)
        return np.asarray(picks, dtype=np.int64)

    def _route_adaptive(
        self,
        arrivals: np.ndarray,
        floors: np.ndarray,
        deadlines: np.ndarray,
    ) -> np.ndarray:
        """The ``adaptive`` decision pass, bit-identical to the reference
        :func:`repro.serving.reference.route`.

        Only the timeliness test ``backlog / capacity <= deadline`` (the
        reference's own IEEE division) and backlog comparisons depend on
        the fluid state, so the rest is precomputed once per *distinct*
        floor, plus floor 0 for degraded requests:

        * the floor-eligible replicas grouped by equal hourly rate, the
          groups in ascending rate and declaration order inside each.
          The first group holding a timely replica is the reference's
          cheapest eligible set; its smallest backlog wins, the first
          index on ties (``np.argmin``'s first minimum).
        * one accuracy-descending order (declaration order on ties) for
          the "most accurate timely replica" fallback: its first timely
          entry is the reference's ``np.argmax`` winner.  The last rung,
          the smallest estimated wait, is a plain first-min scan.

        The tables are keyed by floor, never by deadline: they hold
        (distinct floors + 1) x replicas entries, and continuous
        per-request deadlines cost nothing extra.  Each arrival drains
        every backlog and sums it in one left-to-right pass, as the
        shared loop of :meth:`_route_columnar` does under depth limits.
        """
        n_replicas = len(self.replicas)
        admission = self.admission
        rate = admission.rate_per_s if admission is not None else None
        queue_limit = (
            admission.queue_limit if admission is not None else None
        )
        degrade_limit = (
            admission.degrade_limit if admission is not None else None
        )
        top5 = self._top5
        rates = self._rates

        def _rate_groups(floor: float) -> tuple[tuple[int, ...], ...]:
            eligible = np.flatnonzero(top5 >= floor - 1e-9)
            eligible_rates = rates[eligible]
            return tuple(
                tuple(eligible[eligible_rates == r].tolist())
                for r in np.unique(eligible_rates).tolist()
            )

        uniq, codes = np.unique(floors, return_inverse=True)
        groups_by_code = [_rate_groups(f) for f in uniq.tolist()]
        zero_groups = _rate_groups(0.0)
        by_accuracy = np.argsort(-top5, kind="stable").tolist()

        capacity = [float(c) for c in self.capacities]
        backlog = [0.0] * n_replicas
        everyone = range(n_replicas)
        last_t = 0.0
        total = 0.0
        rate_on = rate is not None
        tokens = float(admission.burst) if admission is not None else 0.0
        burst = tokens
        last_refill = 0.0
        picks: list[int] = []
        for t, code, deadline in zip(
            arrivals.tolist(), codes.tolist(), deadlines.tolist()
        ):
            dt = t - last_t
            if dt > 0.0:
                # drain and sum in one left-to-right pass; skipping
                # zero terms is exact (x + 0.0 == x for x >= +0.0)
                total = 0.0
                for r in everyone:
                    drained = backlog[r] - dt * capacity[r]
                    if drained > 0.0:
                        backlog[r] = drained
                        total += drained
                    else:
                        backlog[r] = 0.0
                last_t = t
            else:
                total = 0.0
                for b in backlog:
                    total += b
            degrade = False
            if admission is not None:
                if rate_on:
                    # same value as min(burst, tokens + dt * rate)
                    tokens = tokens + (t - last_refill) * rate
                    if tokens > burst:
                        tokens = burst
                    last_refill = t
                if (queue_limit is not None and total >= queue_limit) or (
                    rate_on and tokens < 1.0
                ):
                    picks.append(-1)
                    continue
                if rate_on:
                    tokens -= 1.0
                degrade = (
                    degrade_limit is not None and total >= degrade_limit
                )
            pick = -1
            for group in zero_groups if degrade else groups_by_code[code]:
                for r in group:
                    b = backlog[r]
                    if b / capacity[r] <= deadline and (
                        pick < 0 or b < best
                    ):
                        pick = r
                        best = b
                if pick >= 0:
                    break
            if pick < 0:
                for r in by_accuracy:
                    if backlog[r] / capacity[r] <= deadline:
                        pick = r
                        break
            if pick < 0:
                pick = 0
                best = backlog[0] / capacity[0]
                for r in range(1, n_replicas):
                    wait = backlog[r] / capacity[r]
                    if wait < best:
                        best = wait
                        pick = r
            backlog[pick] += 1.0
            picks.append(pick)
        return np.asarray(picks, dtype=np.int64)

    def _admitted_mask(self, arrivals: np.ndarray) -> np.ndarray:
        """Token-bucket admission as a boolean mask (no depth limit).

        Scalar replay of the reference bucket — Python floats and
        ``np.float64`` share IEEE-754 arithmetic, so the refill math is
        identical.  Only valid when ``queue_limit`` is ``None`` (depth
        shedding couples admission to the backlog state).
        """
        admission = self.admission
        rate = admission.rate_per_s
        tokens = float(admission.burst)
        burst = tokens
        last_refill = 0.0
        flags = bytearray(arrivals.size)
        i = 0
        for t in arrivals.tolist():
            # same value as min(burst, tokens + dt * rate), fewer calls
            tokens = tokens + (t - last_refill) * rate
            if tokens > burst:
                tokens = burst
            last_refill = t
            if tokens >= 1.0:
                tokens -= 1.0
                flags[i] = 1
            i += 1
        return np.frombuffer(bytes(flags), dtype=np.uint8).astype(bool)

    # ------------------------------------------------------------------
    def run(
        self,
        arrivals: np.ndarray,
        floors: np.ndarray | None = None,
        deadlines: np.ndarray | None = None,
        telemetry: FleetTelemetry | None = None,
    ) -> FleetReport:
        """Route ``arrivals`` and serve every sub-stream; returns the
        fleet report.

        Each replica's sub-stream runs through the unchanged simulator
        with the replica's own :class:`~repro.cloud.faults.FaultPlan`;
        replicas that receive no requests idle (and are billed) for the
        fleet's makespan.  ``floors`` / ``deadlines`` are the optional
        per-request accuracy floors and latency deadlines the decision
        pass reads.  ``telemetry`` is an optional
        :class:`FleetTelemetry`; as with the bare simulators it never
        perturbs a simulated float.
        """
        arrivals = np.asarray(arrivals, dtype=float)
        with get_tracer().span(
            "router.run",
            replicas=len(self.replicas),
            routing=self.routing,
            requests=int(arrivals.size),
        ) as span:
            report = self._run(arrivals, floors, deadlines, telemetry)
        metrics = get_metrics()
        metrics.counter("router.runs").inc()
        metrics.counter("router.requests").inc(report.offered)
        metrics.counter("router.shed").inc(report.shed)
        metrics.counter("router.drops").inc(report.dropped)
        if report.degraded:
            # counter exists only when degradation happened, keeping
            # pre-adaptive counter snapshots (bench!) byte-identical
            metrics.counter("router.degraded").inc(report.degraded)
        metrics.gauge("router.goodput_at_accuracy").set(
            report.goodput_at_accuracy
        )
        from repro.obs.telemetry import record_report_gauges

        record_report_gauges(report, prefix="router", registry=metrics)
        if telemetry is not None:
            telemetry.finalize(metrics, prefix="router")
        if span is not None:
            span.tags["shed"] = report.shed
            span.tags["served"] = report.served
        return report

    def _run(
        self,
        arrivals: np.ndarray,
        floors: np.ndarray | None,
        deadlines: np.ndarray | None,
        telemetry: FleetTelemetry | None,
    ) -> FleetReport:
        assignment = self.route(arrivals, floors, deadlines)
        shed_count = int((assignment == -1).sum())
        if telemetry is not None and shed_count:
            for t in arrivals[assignment == -1]:
                telemetry.record_shed(float(t))
        # decision-level floor accounting over the final assignment
        # (post-hoc reads only — the decision floats are untouched)
        admitted = assignment >= 0
        if floors is None:
            met = admitted
        else:
            met = admitted.copy()
            met[admitted] = (
                self._top5[assignment[admitted]]
                >= np.asarray(floors, dtype=float)[admitted] - 1e-9
            )
        reports: list[object | None] = []
        assigned_counts: list[int] = []
        at_floor_counts: list[int] = []
        for index, replica in enumerate(self.replicas):
            mine = assignment == index
            sub = arrivals[mine]
            assigned_counts.append(int(sub.size))
            at_floor_counts.append(int(np.count_nonzero(met & mine)))
            if telemetry is not None:
                telemetry.record_tier(
                    replica.name,
                    assigned_counts[-1],
                    at_floor_counts[-1],
                )
            if sub.size == 0:
                reports.append(None)
                continue
            bundle = (
                telemetry.replica(replica.name)
                if telemetry is not None
                else None
            )
            reports.append(
                self._run_replica(replica, sub, bundle)
            )
        duration = max(
            (r.duration_s for r in reports if r is not None),
            default=float(arrivals[-1]) if arrivals.size else 0.0,
        )
        outcomes = []
        for replica, rate, assigned, at_floor, report in zip(
            self.replicas,
            self.rates_per_hour,
            assigned_counts,
            at_floor_counts,
            reports,
        ):
            if report is None:
                cost = hourly_rate_cost(rate, duration)
            else:
                cost = report.cost
            outcomes.append(
                ReplicaOutcome(
                    spec=replica,
                    assigned=assigned,
                    report=report,
                    cost=cost,
                    at_floor=at_floor,
                )
            )
        return FleetReport(
            offered=int(arrivals.size),
            shed=shed_count,
            duration_s=duration,
            routing=self.routing,
            outcomes=tuple(outcomes),
        )

    def _run_replica(
        self, replica: ReplicaSpec, sub: np.ndarray, bundle
    ):
        """Serve one replica's sub-stream through its simulator."""
        if replica.autoscale is not None:
            simulator = AutoscalingSimulator(
                self.time_model,
                self.accuracy_model,
                replica.configuration.instances[0].itype,
                replica.spec,
                replica.policy,
                replica.autoscale,
                hourly_rate=replica.hourly_rate,
            )
        else:
            simulator = ServingSimulator(
                self.time_model,
                self.accuracy_model,
                replica.configuration,
                replica.spec,
                replica.policy,
                hourly_rate=replica.hourly_rate,
            )
        return simulator.run(sub, replica.faults, telemetry=bundle)

    # ------------------------------------------------------------------
    def accuracy(self, replica: str) -> AccuracyPair:
        """The model accuracy the named replica serves at."""
        for spec, pair in zip(self.replicas, self.accuracies):
            if spec.name == replica:
                return pair
        raise KeyError(replica)
