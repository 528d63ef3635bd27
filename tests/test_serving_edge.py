"""Edge cases of the serving simulator the happy-path tests skip:
degenerate batch policies, burst arrivals on a single worker, the
error paths, and the zero-duration and nothing-served guards of every
run report."""

from __future__ import annotations

import numpy as np
import pytest

from repro.calibration import caffenet_accuracy_model, caffenet_time_model
from repro.calibration.accuracy_model import AccuracyPair
from repro.cloud import CloudInstance, ResourceConfiguration, instance_type
from repro.errors import ConfigurationError
from repro.pruning import PruneSpec
from repro.serving import BatchPolicy, ServingSimulator
from repro.service.loadgen import LoadReport
from repro.serving.autoscaler import AutoscaleReport
from repro.serving.batcher import PendingQueue
from repro.serving.metrics import LatencyStats, RunStats
from repro.serving.router import FleetReport, ReplicaOutcome, ReplicaSpec
from repro.serving.simulator import ServingReport


def _simulator(
    instance: str = "p2.xlarge",
    max_batch: int = 32,
    max_wait_s: float = 0.05,
) -> ServingSimulator:
    return ServingSimulator(
        caffenet_time_model(),
        caffenet_accuracy_model(),
        ResourceConfiguration([CloudInstance(instance_type(instance))]),
        PruneSpec.unpruned(),
        BatchPolicy(max_batch=max_batch, max_wait_s=max_wait_s),
    )


class TestSingleWorkerBurst:
    """One GPU, everything arrives at once."""

    def test_burst_at_t0_all_served(self):
        arr = np.zeros(100)
        report = _simulator(max_batch=16).run(arr)
        assert report.requests == 100
        assert report.served == 100
        assert report.batch_sizes.sum() == 100
        assert np.all(report.batch_sizes <= 16)
        assert np.all(report.latencies_s > 0)

    def test_burst_queueing_orders_latency(self):
        # FIFO on one worker: later request ids never finish earlier
        arr = np.zeros(40)
        report = _simulator(max_batch=8).run(arr)
        assert np.all(np.diff(report.latencies_s) >= -1e-12)

    def test_single_request(self):
        report = _simulator().run(np.array([0.0]))
        assert report.served == 1
        assert report.batch_sizes.tolist() == [1]
        assert report.duration_s == pytest.approx(
            report.latencies_s[0]
        )


class TestDegeneratePolicies:
    def test_zero_max_wait_dispatches_immediately(self):
        # with max_wait 0 a lone request never waits for company
        arr = np.array([0.0, 5.0, 10.0])  # far apart: no batching
        report = _simulator(max_wait_s=0.0).run(arr)
        assert report.batch_sizes.tolist() == [1, 1, 1]

    def test_zero_max_wait_still_batches_backlog(self):
        # a busy worker accumulates a queue even with max_wait 0
        arr = np.zeros(30)
        report = _simulator(max_batch=8, max_wait_s=0.0).run(arr)
        assert report.batch_sizes.max() > 1

    def test_cap_one_batches(self):
        arr = np.linspace(0.0, 1.0, 25)
        report = _simulator(max_batch=1, max_wait_s=0.2).run(arr)
        assert np.all(report.batch_sizes == 1)
        assert report.batch_sizes.size == 25

    def test_wait_cap_bounds_queueing_when_underloaded(self):
        # light load: no request waits much longer than max_wait +
        # one service time on an idle fleet
        arr = np.linspace(0.0, 10.0, 11)
        report = _simulator(max_batch=32, max_wait_s=0.3).run(arr)
        single = (
            caffenet_time_model()
            .batching_model(
                PruneSpec.unpruned(), instance_type("p2.xlarge").gpu
            )
            .batch_time(1)
        )
        assert report.latencies_s.max() <= 0.3 + 2 * single + 1e-9


class TestErrorPaths:
    def test_empty_arrivals_rejected(self):
        with pytest.raises(ConfigurationError):
            _simulator().run(np.array([]))

    def test_unsorted_arrivals_rejected(self):
        with pytest.raises(ConfigurationError):
            _simulator().run(np.array([1.0, 0.5, 2.0]))

    def test_negative_arrival_rejected(self):
        with pytest.raises(ValueError):
            _simulator().run(np.array([-1.0, 0.0]))

    def test_model_mismatch_rejected(self):
        from repro.calibration import googlenet_accuracy_model

        with pytest.raises(ConfigurationError):
            ServingSimulator(
                caffenet_time_model(),
                googlenet_accuracy_model(),
                ResourceConfiguration(
                    [CloudInstance(instance_type("p2.xlarge"))]
                ),
                PruneSpec.unpruned(),
                BatchPolicy(max_batch=4),
            )

    def test_negative_hourly_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            ServingSimulator(
                caffenet_time_model(),
                caffenet_accuracy_model(),
                ResourceConfiguration(
                    [CloudInstance(instance_type("p2.xlarge"))]
                ),
                PruneSpec.unpruned(),
                BatchPolicy(max_batch=4),
                hourly_rate=-1.0,
            )

    def test_pending_queue_empty_oldest_raises(self):
        with pytest.raises(IndexError):
            PendingQueue().oldest_arrival()


class TestPendingQueueRequeue:
    def test_requeue_keeps_arrival_order(self):
        q = PendingQueue()
        q.push(1, 1.0)
        q.push(2, 2.0)
        q.requeue(0, 0.5)  # a preempted, older request
        assert [r for r, _ in q.take(3)] == [0, 1, 2]

    def test_requeue_into_empty_queue(self):
        q = PendingQueue()
        q.requeue(7, 3.0)
        assert q.oldest_arrival() == 3.0

    def test_requeue_after_equal_arrivals(self):
        q = PendingQueue()
        q.push(0, 1.0)
        q.requeue(1, 1.0)  # ties go behind existing equal arrivals
        assert [r for r, _ in q.take(2)] == [0, 1]


def _zero_duration_report() -> ServingReport:
    return ServingReport(
        requests=1,
        duration_s=0.0,
        latencies_s=np.array([0.0]),
        batch_sizes=np.array([1]),
        busy_s=0.0,
        worker_count=1,
        cost=0.0,
        accuracy=AccuracyPair(top1=60.0, top5=80.0),
    )


def _report(cls, latencies_s: np.ndarray, duration_s: float = 0.0):
    """A one-request report of ``cls`` that served ``latencies_s``
    (one or none) in ``duration_s``."""
    dropped = 1 - latencies_s.size
    if cls is ServingReport:
        return ServingReport(
            requests=1,
            duration_s=duration_s,
            latencies_s=latencies_s,
            batch_sizes=np.ones(latencies_s.size, dtype=int),
            busy_s=0.0,
            worker_count=1,
            cost=0.0,
            accuracy=AccuracyPair(top1=60.0, top5=80.0),
            dropped=dropped,
        )
    if cls is AutoscaleReport:
        return AutoscaleReport(
            requests=1,
            duration_s=duration_s,
            latencies_s=latencies_s,
            cost=0.0,
            fleet_timeline=((0.0, 1),),
            peak_instances=1,
            mean_instances=1.0,
            dropped=dropped,
        )
    if cls is FleetReport:
        configuration = ResourceConfiguration(
            [CloudInstance(instance_type("p2.xlarge"))]
        )
        replica = ReplicaSpec(
            "a", configuration, PruneSpec.unpruned(), BatchPolicy(max_batch=1)
        )
        return FleetReport(
            offered=1,
            shed=0,
            duration_s=duration_s,
            routing="round-robin",
            outcomes=(
                ReplicaOutcome(
                    replica,
                    assigned=1,
                    report=_report(ServingReport, latencies_s, duration_s),
                    cost=0.0,
                ),
            ),
        )
    return LoadReport(
        requests=1,
        wall_s=duration_s,
        latencies_s=latencies_s,
        status_counts={},
        cache_hits=0,
        cache_misses=0,
    )


RUN_REPORTS = (ServingReport, AutoscaleReport, FleetReport)


class TestZeroDurationReport:
    """Regression: a single arrival at t=0 with instant service used to
    divide by duration == 0 in ``utilisation``.  The statistics every
    report shares (``LatencyStats``/``RunStats``) keep the same guards on
    each report class."""

    def test_utilisation_guarded(self):
        assert _zero_duration_report().utilisation == 0.0

    def test_throughput_and_goodput_guarded(self):
        report = _zero_duration_report()
        assert report.throughput == 0.0
        assert report.goodput == 0.0

    @pytest.mark.parametrize(
        "cls", (*RUN_REPORTS, LoadReport), ids=lambda cls: cls.__name__
    )
    def test_empty_latency_stats_are_nan_not_crash(self, cls):
        report = _report(cls, np.array([]), duration_s=1.0)
        assert isinstance(report, LatencyStats)
        for value in (report.p50, report.p95, report.p99):
            assert np.isnan(value)
        assert np.isnan(report.mean_latency)
        assert report.miss_rate(1.0) == 0.0

    @pytest.mark.parametrize("cls", RUN_REPORTS, ids=lambda cls: cls.__name__)
    def test_zero_duration_goodput_guarded(self, cls):
        report = _report(cls, np.array([0.0]))
        assert isinstance(report, RunStats)
        assert report.served == 1
        assert report.availability == 1.0
        assert report.drop_rate == 0.0
        assert report.goodput == 0.0

    @pytest.mark.parametrize("cls", RUN_REPORTS, ids=lambda cls: cls.__name__)
    def test_nothing_served(self, cls):
        report = _report(cls, np.array([]), duration_s=1.0)
        assert report.served == 0
        assert report.availability == 0.0
        assert report.drop_rate == 1.0
        assert report.goodput == 0.0

    def test_empty_batches_mean_zero(self):
        assert _report(ServingReport, np.array([])).mean_batch == 0.0
