"""Benchmark: the unified evaluation core vs the legacy per-point loop.

Claims under test:

* grid evaluation through :func:`repro.core.evalspace.evaluate` returns
  exactly the rows the historical ``for spec: for config: run()`` loop
  produced (same order, same floats);
* time-model memoization bounds the expensive
  :meth:`CalibratedTimeModel.time_fraction` work by the number of
  *degrees x instance types*, not grid points: the Figure 9/10 grid
  (60 x 63 = 3 780 points over 3 p2 types) must cost at most
  60 x 3 = 180 time-model evaluations — the ``perf.time_model_evals``
  counter enforces it;
* a second content-equal request is a pure cache hit (no simulations).
"""

from __future__ import annotations

from repro.calibration import caffenet_accuracy_model, caffenet_time_model
from repro.cloud import P2_TYPES, CloudSimulator
from repro.core.config_space import enumerate_configurations
from repro.core.evalspace import SpaceSpec, clear_space_cache, evaluate
from repro.obs import MetricsRegistry, scoped_observability
from repro.pruning.schedule import caffenet_variant_set


def _study_grid():
    return (
        caffenet_variant_set(),
        enumerate_configurations(P2_TYPES, max_per_type=3),
    )


def test_grid_evaluation(benchmark):
    degrees, configurations = _study_grid()
    images = 20_000_000

    def evaluate_grid():
        clear_space_cache()
        registry = MetricsRegistry()
        with scoped_observability(metrics=registry):
            space = evaluate(
                SpaceSpec.build(
                    caffenet_time_model(),
                    caffenet_accuracy_model(),
                    degrees,
                    configurations,
                    images,
                )
            )
        return space, registry

    space, registry = benchmark.pedantic(
        evaluate_grid, rounds=3, iterations=1
    )
    assert len(space) == len(degrees) * len(configurations) == 3780

    # memoization bound: <= degrees x instance types, not grid points
    evals = registry.counter("perf.time_model_evals").value
    assert 0 < evals <= len(degrees) * len(P2_TYPES)

    # row-for-row identical to the legacy nested loop
    simulator = CloudSimulator(
        caffenet_time_model(), caffenet_accuracy_model()
    )
    legacy = [
        simulator.run(degree.spec, config, images)
        for degree in degrees
        for config in configurations
    ]
    assert len(legacy) == len(space)
    for flat, expected in enumerate(legacy):
        got = space.results[flat]
        assert (got.spec, got.configuration) == (
            expected.spec,
            expected.configuration,
        )
        assert got.time_s == expected.time_s
        assert got.cost == expected.cost
        assert got.accuracy == expected.accuracy

    # content-equal re-request: pure hit, zero new simulations
    registry2 = MetricsRegistry()
    with scoped_observability(metrics=registry2):
        again = evaluate(
            SpaceSpec.build(
                caffenet_time_model(),
                caffenet_accuracy_model(),
                degrees,
                configurations,
                images,
            )
        )
    assert again is space
    assert registry2.counter("evalspace.cache_hits").value == 1
    assert registry2.counter("cloud.simulations").value == 0
