"""Tests for the EC2 substrate: catalog, pricing, configurations, simulator."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.calibration import caffenet_accuracy_model, caffenet_time_model
from repro.cloud import (
    CloudInstance,
    CloudSimulator,
    EC2_CATALOG,
    G3_TYPES,
    P2_TYPES,
    ResourceConfiguration,
    billed_cost,
    billed_seconds,
    instance_type,
)
from repro.errors import ConfigurationError
from repro.pruning import PruneSpec


@pytest.fixture(scope="module")
def sim():
    return CloudSimulator(caffenet_time_model(), caffenet_accuracy_model())


class TestCatalog:
    """The paper's Table 3, row by row."""

    @pytest.mark.parametrize(
        "name,vcpus,gpus,mem,gpumem,price,gpu_name",
        [
            ("p2.xlarge", 4, 1, 61, 12, 0.90, "NVIDIA K80"),
            ("p2.8xlarge", 32, 8, 488, 96, 7.20, "NVIDIA K80"),
            ("p2.16xlarge", 64, 16, 732, 192, 14.40, "NVIDIA K80"),
            ("g3.4xlarge", 16, 1, 122, 8, 1.14, "NVIDIA M60"),
            ("g3.8xlarge", 32, 2, 244, 16, 2.28, "NVIDIA M60"),
            ("g3.16xlarge", 64, 4, 488, 32, 4.56, "NVIDIA M60"),
        ],
    )
    def test_table3_row(self, name, vcpus, gpus, mem, gpumem, price, gpu_name):
        t = instance_type(name)
        assert (t.vcpus, t.gpus, t.memory_gb) == (vcpus, gpus, mem)
        assert t.gpu_memory_gb == gpumem
        assert t.price_per_hour == price
        assert t.gpu.name == gpu_name

    def test_six_types_two_categories(self):
        assert len(EC2_CATALOG) == 6
        assert len(P2_TYPES) == 3 and len(G3_TYPES) == 3

    def test_per_gpu_price_constant_within_category(self):
        p2_prices = {t.price_per_gpu_hour for t in P2_TYPES}
        g3_prices = {t.price_per_gpu_hour for t in G3_TYPES}
        assert p2_prices == {0.90}
        assert g3_prices == {1.14}

    def test_unknown_type_raises(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            instance_type("p9.超large")


class TestPricing:
    def test_rounds_up_to_next_second(self):
        assert billed_seconds(0.2) == 1
        assert billed_seconds(59.01) == 60
        assert billed_seconds(60.0) == 60

    def test_cost_is_prorated_hourly(self):
        t = instance_type("p2.xlarge")
        assert billed_cost(t, 3600.0) == pytest.approx(0.90)
        assert billed_cost(t, 1800.0) == pytest.approx(0.45)

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            billed_seconds(-1.0)

    @given(st.floats(0.0, 10_000.0))
    @settings(max_examples=40, deadline=None)
    def test_billing_never_undercharges(self, seconds):
        t = instance_type("g3.4xlarge")
        exact = seconds * t.price_per_hour / 3600.0
        assert billed_cost(t, seconds) >= exact - 1e-12


class TestCloudInstance:
    def test_defaults_to_all_gpus(self):
        inst = CloudInstance(instance_type("p2.8xlarge"))
        assert inst.gpus_used == 8

    def test_single_gpu_mode(self):
        inst = CloudInstance(instance_type("p2.8xlarge"), gpus_used=1)
        assert inst.gpus_used == 1

    def test_too_many_gpus_rejected(self):
        with pytest.raises(ConfigurationError):
            CloudInstance(instance_type("p2.xlarge"), gpus_used=2)

    def test_more_gpus_faster(self):
        tm = caffenet_time_model()
        spec = PruneSpec.unpruned()
        one = CloudInstance(instance_type("p2.8xlarge"), gpus_used=1)
        all8 = CloudInstance(instance_type("p2.8xlarge"), gpus_used=8)
        assert all8.inference_time(tm, spec, 50_000) < one.inference_time(
            tm, spec, 50_000
        )

    def test_zero_images_zero_time(self):
        tm = caffenet_time_model()
        inst = CloudInstance(instance_type("p2.xlarge"))
        assert inst.inference_time(tm, PruneSpec.unpruned(), 0) == 0.0


class TestResourceConfiguration:
    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            ResourceConfiguration([])

    def test_total_price_sums(self):
        cfg = ResourceConfiguration(
            [
                CloudInstance(instance_type("p2.xlarge")),
                CloudInstance(instance_type("g3.4xlarge")),
            ]
        )
        assert cfg.total_price_per_hour == pytest.approx(0.90 + 1.14)

    def test_even_split_eq4(self):
        cfg = ResourceConfiguration(
            [CloudInstance(instance_type("p2.xlarge")) for _ in range(3)]
        )
        assert cfg.split_workload(10) == [4, 3, 3]
        assert sum(cfg.split_workload(10)) == 10

    def test_proportional_split_favours_fast_devices(self):
        cfg = ResourceConfiguration(
            [
                CloudInstance(instance_type("p2.xlarge")),  # 1 K80
                CloudInstance(instance_type("g3.4xlarge")),  # 1 M60 (2x)
            ]
        )
        alloc = cfg.split_workload_proportional(9000)
        assert sum(alloc) == 9000
        assert alloc[1] > alloc[0]  # M60 gets the bigger share

    def test_makespan_is_max_not_sum(self):
        tm = caffenet_time_model()
        single = ResourceConfiguration(
            [CloudInstance(instance_type("p2.xlarge"))]
        )
        double = ResourceConfiguration(
            [CloudInstance(instance_type("p2.xlarge")) for _ in range(2)]
        )
        t1 = single.makespan(tm, PruneSpec.unpruned(), 50_000)
        t2 = double.makespan(tm, PruneSpec.unpruned(), 50_000)
        assert t2 == pytest.approx(t1 / 2, rel=0.05)

    def test_cost_eq1_bills_all_instances_for_makespan(self):
        tm = caffenet_time_model()
        # one fast g3 + one slow p2: both are billed until the slow one ends
        cfg = ResourceConfiguration(
            [
                CloudInstance(instance_type("p2.xlarge")),
                CloudInstance(instance_type("g3.4xlarge")),
            ]
        )
        t, c = cfg.evaluate(tm, PruneSpec.unpruned(), 50_000)
        assert c == pytest.approx((0.90 + 1.14) * -(-t // 1) / 3600.0)

    def test_proportional_split_never_slower(self):
        tm = caffenet_time_model()
        cfg = ResourceConfiguration(
            [
                CloudInstance(instance_type("p2.xlarge")),
                CloudInstance(instance_type("g3.16xlarge")),
            ]
        )
        spec = PruneSpec.unpruned()
        even = cfg.makespan(tm, spec, 100_000)
        prop = cfg.makespan(tm, spec, 100_000, proportional_split=True)
        assert prop <= even

    def test_label(self):
        cfg = ResourceConfiguration(
            [
                CloudInstance(instance_type("p2.xlarge")),
                CloudInstance(instance_type("p2.xlarge")),
                CloudInstance(instance_type("g3.4xlarge")),
            ]
        )
        assert cfg.label() == "1xg3.4xlarge+2xp2.xlarge"


class TestSimulator:
    def test_result_fields(self, sim):
        cfg = ResourceConfiguration(
            [CloudInstance(instance_type("p2.xlarge"))]
        )
        r = sim.run(PruneSpec.unpruned(), cfg, 50_000)
        assert r.time_s / 60 == pytest.approx(19.0, rel=1e-6)
        assert r.cost == pytest.approx(19.0 / 60 * 0.90, rel=0.01)
        assert r.accuracy.top5 == pytest.approx(80.0)

    def test_tar_car_definitions(self, sim):
        cfg = ResourceConfiguration(
            [CloudInstance(instance_type("p2.xlarge"))]
        )
        r = sim.run(PruneSpec.unpruned(), cfg, 50_000)
        assert r.tar("top5") == pytest.approx(r.time_hours / 0.80)
        assert r.car("top5") == pytest.approx(r.cost / 0.80)

    def test_within_constraints(self, sim):
        cfg = ResourceConfiguration(
            [CloudInstance(instance_type("p2.xlarge"))]
        )
        r = sim.run(PruneSpec.unpruned(), cfg, 50_000)
        assert r.within(deadline_s=None, budget=None)
        assert r.within(deadline_s=r.time_s + 1, budget=r.cost + 1)
        assert not r.within(deadline_s=r.time_s - 1, budget=None)
        assert not r.within(deadline_s=None, budget=r.cost / 2)

    def test_pruning_reduces_time_and_cost(self, sim):
        cfg = ResourceConfiguration(
            [CloudInstance(instance_type("p2.xlarge"))]
        )
        base = sim.run(PruneSpec.unpruned(), cfg, 50_000)
        pruned = sim.run(PruneSpec({"conv2": 0.5}), cfg, 50_000)
        assert pruned.time_s < base.time_s
        assert pruned.cost < base.cost
        assert pruned.accuracy.top5 == base.accuracy.top5  # sweet spot

    def test_mismatched_models_rejected(self):
        from repro.calibration import googlenet_accuracy_model

        with pytest.raises(ConfigurationError, match="mismatch"):
            CloudSimulator(caffenet_time_model(), googlenet_accuracy_model())

    def test_zero_images_rejected(self, sim):
        cfg = ResourceConfiguration(
            [CloudInstance(instance_type("p2.xlarge"))]
        )
        with pytest.raises(ConfigurationError):
            sim.run(PruneSpec.unpruned(), cfg, 0)
