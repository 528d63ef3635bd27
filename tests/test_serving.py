"""Tests for the discrete-event serving simulator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calibration import caffenet_accuracy_model, caffenet_time_model
from repro.cloud import CloudInstance, ResourceConfiguration, instance_type
from repro.errors import ConfigurationError
from repro.pruning import PruneSpec
from repro.serving import (
    BatchPolicy,
    ServingSimulator,
    bursty_arrivals,
    poisson_arrivals,
    uniform_arrivals,
)
from repro.serving.batcher import PendingQueue
from repro.serving.events import EventQueue


def _simulator(
    instance: str = "p2.8xlarge",
    spec: PruneSpec | None = None,
    max_batch: int = 64,
    max_wait_s: float = 0.2,
) -> ServingSimulator:
    return ServingSimulator(
        caffenet_time_model(),
        caffenet_accuracy_model(),
        ResourceConfiguration([CloudInstance(instance_type(instance))]),
        spec or PruneSpec.unpruned(),
        BatchPolicy(max_batch=max_batch, max_wait_s=max_wait_s),
    )


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        q.push(2.0, "b")
        q.push(1.0, "a")
        q.push(3.0, "c")
        assert [q.pop().kind for _ in range(3)] == ["a", "b", "c"]

    def test_ties_break_by_insertion(self):
        q = EventQueue()
        q.push(1.0, "first")
        q.push(1.0, "second")
        assert q.pop().kind == "first"

    def test_empty_pop_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1.0, "x")


class TestArrivals:
    def test_poisson_rate(self):
        arr = poisson_arrivals(100.0, 100.0, seed=0)
        assert arr.size == pytest.approx(10_000, rel=0.1)
        assert np.all(np.diff(arr) >= 0)
        assert arr[-1] < 100.0

    def test_poisson_deterministic(self):
        a = poisson_arrivals(50.0, 10.0, seed=4)
        b = poisson_arrivals(50.0, 10.0, seed=4)
        np.testing.assert_array_equal(a, b)

    def test_uniform_spacing(self):
        arr = uniform_arrivals(10.0, 2.0)
        assert arr.size == 20
        np.testing.assert_allclose(np.diff(arr), 0.1)

    def test_bursty_mean_rate_preserved(self):
        arr = bursty_arrivals(100.0, 200.0, seed=1)
        assert arr.size == pytest.approx(20_000, rel=0.15)

    def test_bursty_is_burstier_than_poisson(self):
        """Coefficient of variation of per-second counts must exceed
        the Poisson baseline."""
        def cv(arr):
            counts = np.bincount(arr.astype(int), minlength=200)[:200]
            return counts.std() / counts.mean()

        poisson = poisson_arrivals(100.0, 200.0, seed=2)
        bursty = bursty_arrivals(
            100.0, 200.0, burst_factor=8.0, seed=2
        )
        assert cv(bursty) > 1.5 * cv(poisson)

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_arrivals(0.0, 10.0)
        with pytest.raises(ValueError):
            uniform_arrivals(10.0, -1.0)
        with pytest.raises(ValueError):
            bursty_arrivals(10.0, 10.0, burst_factor=0.5)
        with pytest.raises(ValueError):
            bursty_arrivals(10.0, 10.0, burst_fraction=1.5)


class TestBatchPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_batch=4, max_wait_s=-1.0)
        # a NaN wait never satisfies the dispatch test: the engine
        # would re-arm its max-wait timer forever
        for wait in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                BatchPolicy(max_batch=4, max_wait_s=wait)

    def test_full_batch_dispatches(self):
        q = PendingQueue()
        for i in range(4):
            q.push(i, 0.0)
        assert q.should_dispatch(0.0, BatchPolicy(max_batch=4, max_wait_s=9))

    def test_timeout_dispatches(self):
        q = PendingQueue()
        q.push(0, 0.0)
        policy = BatchPolicy(max_batch=100, max_wait_s=0.5)
        assert not q.should_dispatch(0.4, policy)
        assert q.should_dispatch(0.5, policy)

    def test_float_rounding_at_deadline(self):
        # regression: 1.2 - 1.0 < 0.2 in binary floats
        q = PendingQueue()
        q.push(0, 1.0)
        policy = BatchPolicy(max_batch=100, max_wait_s=0.2)
        assert q.should_dispatch(1.0 + 0.2, policy)

    def test_take_is_fifo(self):
        q = PendingQueue()
        for i in range(5):
            q.push(i, float(i))
        assert [r for r, _ in q.take(3)] == [0, 1, 2]
        assert len(q) == 2


class TestServingSimulator:
    def test_every_request_served_once(self):
        sim = _simulator()
        arr = poisson_arrivals(100.0, 20.0, seed=3)
        report = sim.run(arr)
        assert report.requests == arr.size
        assert np.all(report.latencies_s > 0)
        assert report.batch_sizes.sum() == arr.size

    def test_latency_at_least_service_time(self):
        sim = _simulator(max_wait_s=0.0, max_batch=1)
        report = sim.run(np.array([0.0]))
        single = caffenet_time_model().batching_model(
            PruneSpec.unpruned(), instance_type("p2.8xlarge").gpu
        ).batch_time(1)
        assert report.latencies_s[0] == pytest.approx(single)

    def test_utilisation_bounded(self):
        sim = _simulator()
        report = sim.run(poisson_arrivals(150.0, 20.0, seed=5))
        assert 0.0 < report.utilisation <= 1.0

    def test_pruning_cuts_latency(self):
        arr = poisson_arrivals(200.0, 30.0, seed=6)
        base = _simulator().run(arr)
        pruned = _simulator(
            spec=PruneSpec({"conv1": 0.3, "conv2": 0.5})
        ).run(arr)
        assert pruned.p99 < base.p99
        assert pruned.accuracy.top5 < base.accuracy.top5

    def test_overload_grows_queueing_delay(self):
        light = _simulator().run(poisson_arrivals(50.0, 20.0, seed=7))
        heavy = _simulator().run(poisson_arrivals(320.0, 20.0, seed=7))
        assert heavy.p99 > light.p99

    def test_bigger_fleet_lower_latency_under_load(self):
        arr = poisson_arrivals(300.0, 20.0, seed=8)
        small = _simulator("p2.8xlarge").run(arr)
        config = ResourceConfiguration(
            [CloudInstance(instance_type("p2.16xlarge"))]
        )
        big = ServingSimulator(
            caffenet_time_model(),
            caffenet_accuracy_model(),
            config,
            PruneSpec.unpruned(),
            BatchPolicy(max_batch=64, max_wait_s=0.2),
        ).run(arr)
        assert big.p99 <= small.p99

    def test_miss_rate_monotone_in_slo(self):
        report = _simulator().run(poisson_arrivals(200.0, 20.0, seed=9))
        assert report.miss_rate(0.5) >= report.miss_rate(2.0)

    def test_cost_covers_whole_duration(self):
        report = _simulator().run(np.array([0.0, 5.0]))
        rate = instance_type("p2.8xlarge").price_per_hour
        assert report.cost >= report.duration_s * rate / 3600.0 - 1e-9

    def test_rejects_empty_and_unsorted(self):
        sim = _simulator()
        with pytest.raises(ConfigurationError):
            sim.run(np.array([]))
        with pytest.raises(ConfigurationError):
            sim.run(np.array([2.0, 1.0]))

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_deterministic_given_arrivals(self, seed):
        arr = poisson_arrivals(100.0, 5.0, seed=seed)
        a = _simulator().run(arr)
        b = _simulator().run(arr)
        np.testing.assert_array_equal(a.latencies_s, b.latencies_s)
        assert a.cost == b.cost
