"""Benchmark: Algorithm 1 — TAR/CAR greedy vs exhaustive allocation.

Paper: configuration search is O(2^|G|); the greedy runs in
O(|G| log |G|) and picks efficient configurations.  The two benchmarks
time each search on the same pool so the report shows the gap directly.
"""

from __future__ import annotations

import pytest

from repro.core.allocation import brute_force_allocate, greedy_allocate
from repro.experiments.algorithm1 import _resource_pool
from repro.pruning.schedule import algorithm1_variant_set

POOL = 10
IMAGES = 200_000
DEADLINE_S = 2 * 3600.0
BUDGET = 15.0


@pytest.fixture(scope="module")
def problem(caffenet_simulator):
    return (
        algorithm1_variant_set(),
        _resource_pool(POOL),
        caffenet_simulator,
    )


def test_algorithm1_greedy(benchmark, problem):
    degrees, pool, simulator = problem
    result = benchmark(
        greedy_allocate, degrees, pool, simulator, IMAGES, DEADLINE_S, BUDGET
    )
    assert result.result.within(DEADLINE_S, BUDGET)


def test_algorithm1_brute_force(benchmark, problem):
    degrees, pool, simulator = problem
    result = benchmark.pedantic(
        brute_force_allocate,
        args=(degrees, pool, simulator, IMAGES, DEADLINE_S, BUDGET),
        rounds=1,
        iterations=1,
    )
    assert result.evaluations == len(degrees) * (2**POOL - 1)


def test_algorithm1_quality_gap(benchmark, problem):
    """Greedy reaches brute-force accuracy; measure the combined run."""
    degrees, pool, simulator = problem
    small_pool = pool[:6]

    def both():
        g = greedy_allocate(
            degrees, small_pool, simulator, IMAGES, DEADLINE_S, BUDGET
        )
        b = brute_force_allocate(
            degrees, small_pool, simulator, IMAGES, DEADLINE_S, BUDGET
        )
        return g, b

    greedy, brute = benchmark.pedantic(both, rounds=1, iterations=1)
    assert greedy.accuracy_top5 == pytest.approx(brute.accuracy_top5)
    assert brute.result.cost <= greedy.result.cost + 1e-9
