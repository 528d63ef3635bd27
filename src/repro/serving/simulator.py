"""The serving simulator and its report.

Each GPU of each instance in the configuration is one worker; service
time for a batch of ``b`` requests comes from the calibrated batching
model (``batch_time(b)``), so all the paper's machinery — pruning's time
fraction, device speedups, batch-size saturation — shapes the latency
distribution.  Billing is per-second pro-rated from simulation start to
the last completion, on every instance (the paper's Eq. 1 discipline).

The loop optionally runs under a :class:`repro.cloud.faults.FaultPlan`:
workers are preempted (in-flight batches cancelled and their requests
requeued against a per-request retry budget) and recover; batches run
through contention slowdown windows; queued requests past the plan's
timeout are dropped.  With a zero plan the event sequence — and hence
every float in the report — is identical to running with no plan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.calibration.accuracy_model import AccuracyModel, AccuracyPair
from repro.cloud.configuration import ResourceConfiguration
from repro.cloud.faults import FaultPlan
from repro.errors import ConfigurationError
from repro.obs import get_metrics, get_tracer
from repro.perf.batching import BatchingModel
from repro.perf.latency import CalibratedTimeModel
from repro.pruning.base import PruneSpec
from repro.serving.batcher import BatchPolicy
from repro.serving.columnar import columnar_run
from repro.serving.metrics import RunStats

__all__ = ["ServingSimulator", "ServingReport"]

# terminal request states (a request's status is 0 while pending)
_SERVED, _DROPPED = 1, 2


@dataclass(frozen=True)
class ServingReport(RunStats):
    """Outcome of one serving simulation.

    ``latencies_s`` holds served requests only (request-id order); under
    a fault plan some requests may instead be dropped — by preemption
    beyond their retry budget, by the queueing timeout, or because the
    run ended with no capacity left to serve them.  Latency and goodput
    statistics come from :class:`~repro.serving.metrics.RunStats`.
    """

    requests: int
    duration_s: float
    latencies_s: np.ndarray
    batch_sizes: np.ndarray
    busy_s: float
    worker_count: int
    cost: float
    accuracy: AccuracyPair
    retries: int = 0
    dropped: int = 0
    preempted: int = 0

    @property
    def mean_batch(self) -> float:
        """Mean dispatched batch width."""
        if self.batch_sizes.size == 0:
            return 0.0
        return float(self.batch_sizes.mean())

    @property
    def throughput(self) -> float:
        """Offered requests per second of simulated time (includes
        requests that were ultimately dropped)."""
        if self.duration_s == 0:
            return 0.0
        return self.requests / self.duration_s

    @property
    def utilisation(self) -> float:
        """Busy fraction across all workers over the run."""
        if self.duration_s == 0:
            return 0.0
        return self.busy_s / (self.worker_count * self.duration_s)


class ServingSimulator:
    """Online inference serving over a cloud resource configuration.

    Parameters
    ----------
    time_model, accuracy_model:
        Calibrated models of the CNN being served.
    configuration:
        Instances whose GPUs form the worker pool.
    spec:
        Degree of pruning of the deployed model.
    policy:
        Batch-forming policy; ``max_batch`` is clamped to each device's
        memory-limited batch size.
    hourly_rate:
        Override for the fleet's hourly price (e.g. a spot rate from
        :func:`repro.cloud.pricing.spot_rate`); ``None`` bills the
        configuration's on-demand total.

    Runs execute on the batch-granularity engine in
    :mod:`repro.serving.columnar`, a bit-for-bit replay of the
    per-event loop in :mod:`repro.serving.reference` (pinned by
    ``tests/test_columnar.py``).
    """

    def __init__(
        self,
        time_model: CalibratedTimeModel,
        accuracy_model: AccuracyModel,
        configuration: ResourceConfiguration,
        spec: PruneSpec,
        policy: BatchPolicy,
        hourly_rate: float | None = None,
    ) -> None:
        if time_model.name != accuracy_model.name:
            raise ConfigurationError("time/accuracy model mismatch")
        if hourly_rate is not None and hourly_rate < 0:
            raise ConfigurationError("hourly rate must be non-negative")
        self.time_model = time_model
        self.accuracy_model = accuracy_model
        self.configuration = configuration
        self.spec = spec
        self.policy = policy
        self.hourly_rate = hourly_rate
        # one worker per GPU in use; each carries its batching model
        self._workers: list[tuple[BatchingModel, int]] = []
        for instance in configuration.instances:
            device = instance.itype.gpu
            batching = time_model.batching_model(spec, device)
            cap = min(policy.max_batch, time_model.max_batch(device))
            self._workers.extend(
                (batching, cap) for _ in range(instance.gpus_used)
            )

    # ------------------------------------------------------------------
    def run(
        self,
        arrivals: np.ndarray,
        faults: FaultPlan | None = None,
        telemetry=None,
    ) -> ServingReport:
        """Serve all ``arrivals`` (sorted seconds); returns the report.

        ``faults`` schedules preemptions/slowdowns and sets the retry
        budget and queueing timeout; ``None`` is the reliable fleet.
        ``telemetry`` is an optional
        :class:`~repro.obs.telemetry.ServingTelemetry`: the event loop
        feeds it per-request latencies, drop events and queue/batch
        gauges (O(1) each, no retention), and its SLO monitor raises
        alert events; ``None`` skips every hook.  Telemetry never
        perturbs the simulation — the report is byte-identical with or
        without it.
        """
        from repro.obs.telemetry import record_report_gauges

        plan = faults if faults is not None else FaultPlan.none()
        arrivals = np.asarray(arrivals, dtype=float)
        if arrivals.size == 0:
            raise ConfigurationError("no arrivals to serve")
        if np.any(np.diff(arrivals) < 0):
            raise ConfigurationError("arrivals must be sorted")
        if arrivals[0] < 0:
            # the same error the per-event reference raises when it
            # builds the first arrival Event
            raise ValueError("event time must be non-negative")
        with get_tracer().span(
            "serving.run",
            workers=len(self._workers),
            requests=int(arrivals.size),
        ) as span:
            report = columnar_run(self, arrivals, plan, telemetry)
        metrics = get_metrics()
        metrics.counter("serving.runs").inc()
        metrics.counter("serving.requests").inc(report.requests)
        metrics.counter("serving.batches").inc(report.batch_sizes.size)
        metrics.counter("serving.requeues").inc(report.retries)
        metrics.counter("serving.drops").inc(report.dropped)
        metrics.counter("serving.preemptions").inc(report.preempted)
        record_report_gauges(report, prefix="serving", registry=metrics)
        if telemetry is not None:
            telemetry.finalize(metrics, prefix="serving")
        if span is not None:
            span.tags["batches"] = int(report.batch_sizes.size)
            span.tags["dropped"] = report.dropped
        return report
