"""The unified evaluation space: spec, cache, columns and queries.

Covers the contracts every migrated consumer leans on:

* :class:`SpaceSpec` normalisation (degrees or raw specs) + validation;
* the process-wide content-keyed cache (hits across independently
  constructed model instances, metrics counters, eviction, clearing);
* columnar results agree exactly with per-point ``CloudSimulator.run``,
  including the ``proportional_split=True`` path;
* vectorised feasible/Pareto/argmin queries match the historical
  per-row code (``pareto_front``) on the same rows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.calibration import caffenet_accuracy_model, caffenet_time_model
from repro.cloud.catalog import instance_type
from repro.cloud.configuration import ResourceConfiguration
from repro.cloud.instance import CloudInstance
from repro.cloud.simulator import CloudSimulator
from repro.core.evalspace import (
    SpaceSpec,
    clear_space_cache,
    evaluate,
    space_cache_info,
)
from repro.core.pareto import pareto_front
from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry, scoped_observability
from repro.pruning.base import PruneSpec
from repro.pruning.schedule import DegreeOfPruning

IMAGES = 50_000

SPECS = [
    PruneSpec.unpruned(),
    PruneSpec({"conv1": 0.3}),
    PruneSpec({"conv2": 0.5}),
    PruneSpec({"conv1": 0.3, "conv2": 0.5}),
]


def _configs():
    p2 = instance_type("p2.xlarge")
    p2_8 = instance_type("p2.8xlarge")
    g3 = instance_type("g3.8xlarge")
    return [
        ResourceConfiguration([CloudInstance(p2)]),
        ResourceConfiguration([CloudInstance(p2_8)]),
        ResourceConfiguration([CloudInstance(p2_8), CloudInstance(g3)]),
    ]


def _space_spec(images=IMAGES, **kwargs):
    return SpaceSpec.build(
        caffenet_time_model(),
        caffenet_accuracy_model(),
        SPECS,
        _configs(),
        images,
        **kwargs,
    )


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_space_cache()
    yield
    clear_space_cache()


class TestSpaceSpec:
    def test_build_normalises_degrees_and_specs(self):
        mixed = [DegreeOfPruning.of(SPECS[1]), SPECS[2]]
        spec = SpaceSpec.build(
            caffenet_time_model(),
            caffenet_accuracy_model(),
            mixed,
            _configs(),
            IMAGES,
        )
        assert spec.specs == (SPECS[1], SPECS[2])
        assert all(isinstance(s, PruneSpec) for s in spec.specs)
        assert (spec.n_specs, spec.n_configurations) == (2, 3)
        assert spec.n_points == 6

    def test_rejects_degenerate_grids(self):
        tm, am = caffenet_time_model(), caffenet_accuracy_model()
        with pytest.raises(ConfigurationError):
            SpaceSpec.build(tm, am, [], _configs(), IMAGES)
        with pytest.raises(ConfigurationError):
            SpaceSpec.build(tm, am, SPECS, [], IMAGES)
        with pytest.raises(ConfigurationError):
            SpaceSpec.build(tm, am, SPECS, _configs(), 0)
        with pytest.raises(ConfigurationError):
            SpaceSpec.build(tm, am, ["conv1@30"], _configs(), IMAGES)

    def test_from_simulator_inherits_split_policy(self):
        sim = CloudSimulator(
            caffenet_time_model(),
            caffenet_accuracy_model(),
            proportional_split=True,
        )
        spec = SpaceSpec.from_simulator(sim, SPECS, _configs(), IMAGES)
        assert spec.proportional_split is True

    def test_cache_key_distinguishes_exact_ratios(self):
        # labels round to percent; the key must not (38.4% vs 38.42%)
        a = _space_spec()
        close = [PruneSpec({"conv1": 0.384}), PruneSpec({"conv1": 0.3842})]
        b = SpaceSpec.build(
            a.time_model, a.accuracy_model, close, _configs(), IMAGES
        )
        assert close[0].label() == close[1].label()
        assert len(set(b.cache_key()[2])) == 2


class TestCache:
    def test_content_equal_specs_share_one_evaluation(self):
        registry = MetricsRegistry()
        with scoped_observability(metrics=registry):
            # models built twice: identity differs, content matches
            first = evaluate(_space_spec())
            second = evaluate(_space_spec())
        assert first is second
        assert registry.counter("evalspace.cache_misses").value == 1
        assert registry.counter("evalspace.cache_hits").value == 1

    def test_split_policy_is_part_of_the_key(self):
        even = evaluate(_space_spec())
        proportional = evaluate(_space_spec(proportional_split=True))
        assert even is not proportional
        assert space_cache_info()["entries"] == 2

    def test_oldest_space_is_evicted_at_32(self):
        spaces = [evaluate(_space_spec(images=i)) for i in range(1, 34)]
        assert space_cache_info()["entries"] == 32
        # images=2 is still held; images=1, the oldest, was evicted
        assert evaluate(_space_spec(images=2)) is spaces[1]
        assert evaluate(_space_spec(images=1)) is not spaces[0]

    def test_clear_and_info(self):
        evaluate(_space_spec())
        info = space_cache_info()
        assert info["entries"] == 1
        assert info["points"] == len(SPECS) * 3
        clear_space_cache()
        assert space_cache_info() == {"entries": 0, "points": 0}


class TestColumns:
    def test_columns_match_per_point_simulation(self):
        space = evaluate(_space_spec())
        sim = CloudSimulator(caffenet_time_model(), caffenet_accuracy_model())
        for i, spec in enumerate(SPECS):
            for j, config in enumerate(_configs()):
                expected = sim.run(spec, config, IMAGES)
                flat = i * space.n_configurations + j
                row = space.results[flat]
                assert row is space.result_at(i, j)
                assert (row.spec, row.configuration) == (spec, config)
                assert space.time_s[flat] == expected.time_s
                assert space.cost[flat] == expected.cost
                assert space.top1[flat] == expected.accuracy.top1
                assert space.top5[flat] == expected.accuracy.top5

    def test_proportional_split_columns_match_simulator(self):
        space = evaluate(_space_spec(proportional_split=True))
        sim = CloudSimulator(
            caffenet_time_model(),
            caffenet_accuracy_model(),
            proportional_split=True,
        )
        hetero = _configs()[2]  # mixed p2+g3: the split actually matters
        expected = sim.run(SPECS[3], hetero, IMAGES)
        got = space.result_at(3, 2)
        assert got.time_s == expected.time_s
        assert got.cost == expected.cost
        # and the heterogeneous makespan beats the paper's even split
        even = evaluate(_space_spec())
        assert got.time_s < even.result_at(3, 2).time_s

    def test_tar_car_match_row_methods(self):
        space = evaluate(_space_spec())
        for metric in ("top1", "top5"):
            tar = space.tar(metric)
            car = space.car(metric)
            for i, row in enumerate(space.results):
                assert tar[i] == row.tar(metric)
                assert car[i] == row.car(metric)

    def test_grid_reshape_and_time_hours(self):
        space = evaluate(_space_spec())
        grid = space.grid(space.time_s)
        assert grid.shape == (space.n_specs, space.n_configurations)
        assert grid[1, 2] == space.result_at(1, 2).time_s
        np.testing.assert_allclose(space.time_hours, space.time_s / 3600.0)

    def test_unknown_metric_and_objective_raise(self):
        space = evaluate(_space_spec())
        with pytest.raises(KeyError):
            space.accuracy("top3")
        with pytest.raises(ValueError):
            space.objective("energy")


class TestQueries:
    def test_feasible_mask_and_rows(self):
        space = evaluate(_space_spec())
        deadline = float(np.median(space.time_s))
        budget = float(np.median(space.cost))
        mask = space.feasible_mask(deadline_s=deadline, budget=budget)
        expected = [
            r
            for r in space.results
            if r.time_s <= deadline and r.cost <= budget
        ]
        assert int(mask.sum()) == len(expected)
        assert space.feasible(deadline_s=deadline, budget=budget) == tuple(
            expected
        )
        # unconstrained: everything is feasible
        assert space.feasible_mask().all()

    def test_front_matches_legacy_pareto_front(self):
        space = evaluate(_space_spec())
        budget = float(np.median(space.cost))
        feasible = space.feasible(budget=budget)
        legacy = [
            p.payload
            for p in pareto_front(
                [(r.accuracy.top1, r.cost, r) for r in feasible]
            )
        ]
        assert list(space.front("top1", "cost", budget=budget)) == legacy

    def test_pareto_over_empty_feasible_set_is_empty(self):
        space = evaluate(_space_spec())
        assert space.pareto("top5", "cost", budget=-1.0).size == 0
        assert space.front("top5", "cost", budget=-1.0) == ()

    def test_argmin_tar_car(self):
        space = evaluate(_space_spec())
        tar = space.tar("top5")
        assert space.argmin_tar("top5") == int(np.argmin(tar))
        mask = space.cost <= float(np.median(space.cost))
        idx = space.argmin_car("top1", mask)
        assert mask[idx]
        car = space.car("top1")
        assert car[idx] == car[np.flatnonzero(mask)].min()
        with pytest.raises(ConfigurationError):
            space.argmin_tar(mask=np.zeros(len(space), dtype=bool))
