"""Reactive autoscaling for the serving simulator.

The paper's related work (Section 2.2) is dominated by cloud
auto-scaling under deadlines and budgets (PRESS [8], Mao et al.
[21, 22], Sharma et al. [28]); its own evaluation allocates statically.
This module adds the missing piece: a reactive autoscaler over the
serving simulator, so the cost-accuracy trade can be studied under the
elasticity the cloud actually offers.

Mechanics: the fleet starts at ``min_instances`` of one instance type.
Every ``interval_s`` the controller inspects utilisation over the last
window and scales out (paying a boot delay before new GPUs serve) when
hot, or scales in (releasing the most recently launched instance once
its GPUs drain) when cold.  Billing is per instance, per second, from
launch to release — unlike the batch model's Eq. 1, an elastic fleet
doesn't bill released capacity.

Under a :class:`repro.cloud.faults.FaultPlan` the fleet also loses
instances to preemption: billing stops at the preemption instant (the
provider reclaimed the capacity), in-flight batches are requeued
against the per-request retry budget, and replacement capacity — kept
at or above ``min_instances`` — pays the boot delay before serving.
Preempted elastic instances never "recover"; fresh launches replace
them, which is how spot fleets actually behave.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.calibration.accuracy_model import AccuracyModel
from repro.cloud.catalog import InstanceType
from repro.cloud.faults import FaultPlan
from repro.cloud.pricing import hourly_rate_cost
from repro.errors import ConfigurationError
from repro.obs import get_metrics, get_tracer
from repro.perf.latency import CalibratedTimeModel
from repro.pruning.base import PruneSpec
from repro.serving.batcher import BatchPolicy, PendingQueue
from repro.serving.events import EventQueue
from repro.serving.metrics import RunStats
from repro.serving.simulator import _DROPPED, _SERVED

__all__ = ["AutoscalePolicy", "AutoscaleReport", "AutoscalingSimulator"]

@dataclass(frozen=True)
class AutoscalePolicy:
    """Reactive scaling rule.

    Attributes
    ----------
    interval_s:
        Control period: utilisation is evaluated this often.
    scale_out_above, scale_in_below:
        Utilisation thresholds (busy fraction over the last window).
    min_instances, max_instances:
        Fleet bounds.
    boot_delay_s:
        Seconds between launching an instance and its GPUs serving
        (billing starts at launch, as on EC2).
    scale_out_on_slo_burn:
        When True and the attached telemetry's SLO monitor is in the
        alert state at a control tick, scale out even below the
        utilisation threshold (burn-rate-driven scaling, Scavenger
        style).  Off by default — it only acts when a run passes a
        telemetry bundle with an SLO policy.
    """

    interval_s: float = 10.0
    scale_out_above: float = 0.75
    scale_in_below: float = 0.30
    min_instances: int = 1
    max_instances: int = 16
    boot_delay_s: float = 15.0
    scale_out_on_slo_burn: bool = False

    def __post_init__(self) -> None:
        if not 0 < self.scale_in_below < self.scale_out_above <= 1.0:
            raise ConfigurationError(
                "need 0 < scale_in_below < scale_out_above <= 1"
            )
        if not 1 <= self.min_instances <= self.max_instances:
            raise ConfigurationError("bad instance bounds")
        if self.interval_s <= 0 or self.boot_delay_s < 0:
            raise ConfigurationError("bad timing parameters")


@dataclass(frozen=True)
class AutoscaleReport(RunStats):
    """Outcome of an autoscaled serving run.

    ``latencies_s`` holds served requests only; under faults some
    requests may be dropped (retry budget exhausted, timed out, or no
    capacity left when the run ended).  Latency and goodput statistics
    come from :class:`~repro.serving.metrics.RunStats`.
    """

    requests: int
    duration_s: float
    latencies_s: np.ndarray
    cost: float
    fleet_timeline: tuple[tuple[float, int], ...]
    peak_instances: int
    mean_instances: float
    retries: int = 0
    dropped: int = 0
    preempted: int = 0


class _Instance:
    """One elastic instance: billing window + its GPU worker ids."""

    def __init__(
        self, launched_at: float, worker_ids: list[int]
    ) -> None:
        self.launched_at = launched_at
        self.released_at: float | None = None
        self.worker_ids = worker_ids
        self.draining = False


class AutoscalingSimulator:
    """Serve arrivals with a reactive, elastically billed fleet.

    ``hourly_rate`` overrides the per-instance hourly price (e.g. a
    spot rate from :func:`repro.cloud.pricing.spot_rate`); ``None``
    bills the instance type's on-demand rate.
    """

    def __init__(
        self,
        time_model: CalibratedTimeModel,
        accuracy_model: AccuracyModel,
        itype: InstanceType,
        spec: PruneSpec,
        batch_policy: BatchPolicy,
        autoscale: AutoscalePolicy,
        hourly_rate: float | None = None,
    ) -> None:
        if time_model.name != accuracy_model.name:
            raise ConfigurationError("time/accuracy model mismatch")
        if hourly_rate is not None and hourly_rate < 0:
            raise ConfigurationError("hourly rate must be non-negative")
        self.time_model = time_model
        self.accuracy_model = accuracy_model
        self.itype = itype
        self.spec = spec
        self.batch_policy = batch_policy
        self.autoscale = autoscale
        self.hourly_rate = hourly_rate
        self._batching = time_model.batching_model(spec, itype.gpu)
        self._cap = min(
            batch_policy.max_batch, time_model.max_batch(itype.gpu)
        )

    # ------------------------------------------------------------------
    def run(
        self,
        arrivals: np.ndarray,
        faults: FaultPlan | None = None,
        telemetry=None,
    ) -> AutoscaleReport:
        """Serve ``arrivals`` elastically; see
        :meth:`repro.serving.simulator.ServingSimulator.run` for the
        ``telemetry`` contract.  Unlike the static simulator, an
        attached SLO monitor can also *drive* scaling when the policy
        sets ``scale_out_on_slo_burn``."""
        from repro.obs.telemetry import record_report_gauges

        plan = faults if faults is not None else FaultPlan.none()
        arrivals = np.asarray(arrivals, dtype=float)
        if arrivals.size == 0:
            raise ConfigurationError("no arrivals to serve")
        if np.any(np.diff(arrivals) < 0):
            raise ConfigurationError("arrivals must be sorted")
        with get_tracer().span(
            "fleet.run", requests=int(arrivals.size)
        ) as span:
            report = self._run(arrivals, plan, telemetry)
        metrics = get_metrics()
        metrics.counter("fleet.runs").inc()
        metrics.counter("fleet.preemptions").inc(report.preempted)
        metrics.gauge("fleet.peak_instances").set(report.peak_instances)
        record_report_gauges(report, prefix="fleet", registry=metrics)
        if telemetry is not None:
            telemetry.finalize(metrics, prefix="fleet")
        if span is not None:
            span.tags["peak_instances"] = report.peak_instances
            span.tags["dropped"] = report.dropped
        return report

    def _run(
        self, arrivals: np.ndarray, plan: FaultPlan, telemetry=None
    ) -> AutoscaleReport:

        events = EventQueue()
        events.extend_sorted(arrivals, "arrival")
        events.push(self.autoscale.interval_s, "control", None)
        for preemption in plan.preemptions:
            events.push(preemption.at_s, "preempt", preemption)

        pending = PendingQueue()
        latencies = np.full(arrivals.size, np.nan)
        status = np.zeros(arrivals.size, dtype=np.uint8)
        retry_count = np.zeros(arrivals.size, dtype=np.int64)
        instances: list[_Instance] = []
        free: list[int] = []
        busy_window = 0.0  # worker-busy seconds in current control window
        worker_busy_until: dict[int, float] = {}
        next_worker_id = 0
        timeline: list[tuple[float, int]] = []
        served = 0
        dropped = 0
        retries_total = 0
        preempted_total = 0
        worker_epoch: dict[int, int] = {}
        inflight: dict[int, tuple[list, float]] = {}
        now = 0.0

        def live_instances() -> list[_Instance]:
            return [i for i in instances if i.released_at is None]

        def live_worker_count() -> int:
            return sum(
                len(i.worker_ids)
                for i in live_instances()
                if not i.draining
            )

        def launch(at: float) -> None:
            nonlocal next_worker_id
            ids = list(
                range(next_worker_id, next_worker_id + self.itype.gpus)
            )
            next_worker_id += self.itype.gpus
            for wid in ids:
                worker_epoch[wid] = 0
            instances.append(_Instance(at, ids))
            timeline.append((at, len(live_instances())))
            # GPUs come online after the boot delay
            events.push(
                at + self.autoscale.boot_delay_s, "online", ids
            )

        def try_release(at: float) -> None:
            """Release the newest non-draining instance beyond the
            minimum; it drains (stops taking work) immediately and is
            billed until its last GPU finishes."""
            candidates = [
                i
                for i in live_instances()
                if not i.draining
            ]
            if len(candidates) <= self.autoscale.min_instances:
                return
            victim = candidates[-1]
            victim.draining = True
            for wid in victim.worker_ids:
                if wid in free:
                    free.remove(wid)
            events.push(at, "maybe-drained", victim)

        def drop_request(request_id: int, at: float) -> None:
            nonlocal dropped
            if status[request_id] != _DROPPED:
                status[request_id] = _DROPPED
                dropped += 1
                if telemetry is not None:
                    telemetry.record_dropped(at)

        def purge(at: float) -> None:
            if plan.timeout_s is None:
                return
            while (
                pending
                and at - pending.oldest_arrival() > plan.timeout_s + 1e-9
            ):
                request_id, _ = pending.take(1)[0]
                drop_request(request_id, at)

        def requeue(batch: list, at: float) -> None:
            nonlocal retries_total
            for request_id, arrival_s in batch:
                retry_count[request_id] += 1
                if retry_count[request_id] > plan.retry_budget:
                    drop_request(request_id, at)
                else:
                    retries_total += 1
                    pending.requeue(request_id, arrival_s)

        def dispatch(at: float) -> None:
            nonlocal busy_window
            purge(at)
            while free and pending.should_dispatch(at, self.batch_policy):
                wid = free.pop()
                batch = pending.take(self._cap)
                service = self._batching.batch_time(
                    len(batch)
                ) * plan.slowdown_factor(wid, at)
                busy_window += service
                if telemetry is not None:
                    telemetry.record_batch(
                        at, len(batch), self._cap, len(pending)
                    )
                worker_busy_until[wid] = at + service
                inflight[wid] = (batch, at + service)
                events.push(
                    at + service,
                    "done",
                    (wid, batch, worker_epoch[wid]),
                )
            if pending and free:
                due = (
                    pending.oldest_arrival()
                    + self.batch_policy.max_wait_s
                )
                events.push(max(due, at), "timer", None)

        # initial fleet boots instantly (it exists before t=0)
        for _ in range(self.autoscale.min_instances):
            launch(0.0)
        for instance in instances:
            free.extend(instance.worker_ids)
        boot_skip = {
            wid for i in instances for wid in i.worker_ids
        }
        # collapse the per-launch construction records into one entry
        del timeline[:-1]

        while events:
            event = events.pop()
            now = event.time
            if event.kind == "arrival":
                pending.push(event.payload, now)
            elif event.kind == "done":
                wid, batch, batch_epoch = event.payload
                if batch_epoch != worker_epoch[wid]:
                    continue  # batch was cancelled by a preemption
                inflight.pop(wid, None)
                for request_id, arrival_s in batch:
                    latencies[request_id] = now - arrival_s
                    status[request_id] = _SERVED
                    if telemetry is not None:
                        telemetry.record_served(now, now - arrival_s)
                served += len(batch)
                owner = next(
                    i
                    for i in instances
                    if wid in i.worker_ids
                )
                if not owner.draining and owner.released_at is None:
                    free.append(wid)
                else:
                    events.push(now, "maybe-drained", owner)
            elif event.kind == "online":
                ids = [
                    wid
                    for wid in event.payload
                    if wid not in boot_skip
                ]
                if ids:
                    owner = next(
                        i for i in instances if ids[0] in i.worker_ids
                    )
                    # a preempted instance can't come online after death
                    if owner.released_at is None:
                        free.extend(ids)
            elif event.kind == "maybe-drained":
                instance = event.payload
                if instance.released_at is None and all(
                    worker_busy_until.get(wid, 0.0) <= now + 1e-9
                    for wid in instance.worker_ids
                ):
                    instance.released_at = now
                    timeline.append((now, len(live_instances())))
            elif event.kind == "preempt":
                preemption = event.payload
                candidates = [
                    i for i in live_instances() if not i.draining
                ]
                if not candidates:
                    continue  # nothing left for the provider to reclaim
                victim = candidates[
                    preemption.target % len(candidates)
                ]
                preempted_total += 1
                # billing stops at the preemption instant (Eq. 1 is
                # billed only while the capacity actually exists)
                victim.released_at = now
                timeline.append((now, len(live_instances())))
                for wid in victim.worker_ids:
                    worker_epoch[wid] += 1
                    if wid in free:
                        free.remove(wid)
                    if wid in inflight:
                        batch, _done_at = inflight.pop(wid)
                        requeue(batch, now)
                    worker_busy_until[wid] = 0.0
                # replacement capacity pays the boot delay
                if (
                    len(live_instances())
                    < self.autoscale.min_instances
                ):
                    launch(now)
            elif event.kind == "control":
                window_capacity = (
                    live_worker_count() * self.autoscale.interval_s
                )
                utilisation = (
                    busy_window / window_capacity
                    if window_capacity > 0
                    else 1.0
                )
                busy_window = 0.0
                get_metrics().counter("fleet.control_ticks").inc()
                slo_burning = (
                    self.autoscale.scale_out_on_slo_burn
                    and telemetry is not None
                    and telemetry.slo is not None
                    and telemetry.slo.burning
                )
                if (
                    utilisation > self.autoscale.scale_out_above
                    or slo_burning
                ) and (
                    len(live_instances())
                    < self.autoscale.max_instances
                ):
                    get_metrics().counter("fleet.scale_out").inc()
                    if slo_burning:
                        get_metrics().counter(
                            "fleet.slo_scale_out"
                        ).inc()
                    launch(now)
                elif (
                    utilisation < self.autoscale.scale_in_below
                    and not slo_burning
                ):
                    get_metrics().counter("fleet.scale_in").inc()
                    try_release(now)
                if served + dropped < arrivals.size:
                    events.push(
                        now + self.autoscale.interval_s, "control", None
                    )
            dispatch(now)

        # requests still queued at the event horizon are undeliverable
        while pending:
            request_id, _ = pending.take(1)[0]
            drop_request(request_id, now)

        # release whatever is still running at the end
        for instance in instances:
            if instance.released_at is None:
                instance.released_at = now
        rate = (
            self.hourly_rate
            if self.hourly_rate is not None
            else self.itype.price_per_hour
        )
        cost = sum(
            hourly_rate_cost(
                rate,
                instance.released_at - instance.launched_at,
            )
            for instance in instances
        )
        seconds = np.array(
            [
                (i.released_at - i.launched_at)
                for i in instances
            ]
        )
        mean_instances = float(seconds.sum() / max(now, 1e-9))
        served_mask = status == _SERVED
        return AutoscaleReport(
            requests=arrivals.size,
            duration_s=now,
            latencies_s=latencies[served_mask],
            cost=cost,
            fleet_timeline=tuple(timeline),
            peak_instances=max(n for _, n in timeline),
            mean_instances=mean_instances,
            retries=retries_total,
            dropped=dropped,
            preempted=preempted_total,
        )
