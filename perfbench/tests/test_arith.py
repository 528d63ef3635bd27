"""The benchmark's own arithmetic: percentiles, self time, capacity."""

from __future__ import annotations

import math

import pytest

import arith
import layers
from arith import Span, Step


# ----------------------------------------------------------------------
# the percentile rule: at least ten samples beyond the reported one
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "q, smallest", [(50, 20), (90, 100), (95, 200), (99, 1000)]
)
def test_min_samples_leaves_ten_beyond(q, smallest):
    assert arith.min_samples(q) == smallest
    assert arith.beyond(smallest, q) == 10
    assert arith.beyond(smallest - 1, q) < 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 1001))
    assert arith.percentile(values, 99) == 990
    assert arith.percentile(values, 50) == 500
    assert arith.percentile(reversed(values), 90) == 900


def test_percentile_refuses_an_unsupported_tail():
    with pytest.raises(arith.InsufficientSamples, match="needs >= 1000"):
        arith.percentile(range(999), 99)
    with pytest.raises(arith.InsufficientSamples):
        arith.percentile([], 50)
    # the caller may waive the rule explicitly (a pass/fail probe)
    assert arith.percentile(range(10), 90, min_beyond=0) == 8


def test_highest_supported_percentile():
    assert arith.highest_supported(1000) == 99
    assert arith.highest_supported(240) == 95
    assert arith.highest_supported(100) == 90
    assert arith.highest_supported(19) == 47
    assert arith.highest_supported(10) is None
    for n in (19, 120, 240, 1000):
        assert arith.beyond(n, arith.highest_supported(n)) >= 10
        assert arith.beyond(n, arith.highest_supported(n) + 1) < 10


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def _tree():
    # A [0,10] > B [1,4], C [5,9] > D [6,7]
    return [
        Span(0, None, "a", 0.0, 10.0),
        Span(1, 0, "b", 1.0, 4.0),
        Span(2, 0, "c", 5.0, 9.0),
        Span(3, 2, "d", 6.0, 7.0),
    ]


def test_self_time_subtracts_direct_children_only():
    own = arith.self_times(_tree())
    assert own == {0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0}
    # a tree's self times partition its root's duration
    assert sum(own.values()) == 10.0


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [
        Span(0, None, "a", 0.0, 10.0),
        Span(1, 0, "b", 1.0, 5.0),
        Span(2, 0, "b", 3.0, 8.0),  # overlaps its sibling
        Span(3, 0, "b", 9.0, 12.0),  # runs past its parent
    ]
    assert arith.self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_layer_metrics_split_a_request_and_sum_to_its_wall():
    spans = [
        Span(0, None, "service.dispatch", 0.0, 10.0, {"status": 200}),
        Span(1, 0, "api.decode", 1.0, 2.0),
        Span(2, 0, "planner.select", 2.0, 8.0),
        Span(3, 2, "api.lock_wait", 2.0, 7.0),
        Span(4, 3, "evalspace.evaluate", 3.0, 6.0, {"miss": 1, "points": 300}),
        Span(5, 0, "api.render", 8.0, 9.0),
        Span(6, None, "service.dispatch", 20.0, 21.0, {"status": 503}),
    ]
    metrics, totals = layers.layer_metrics(spans)
    assert totals == {
        "service.dispatch": 3.0,
        "api.decode": 1.0,
        "planner.select": 1.0,
        "api.lock_wait": 2.0,
        "evalspace.evaluate": 3.0,
        "api.render": 1.0,
    }
    assert sum(totals.values()) == 11.0  # both dispatch spans' walls
    assert metrics["service.dispatch_ms"] == 1500.0  # 3 s over 2 calls
    assert metrics["service.requests"] == 2
    assert metrics["service.rejected"] == 1
    assert metrics["evalspace.build_s"] == 3.0
    assert metrics["evalspace.points_per_s"] == 100.0
    assert (metrics["evalspace.cache_hits"], metrics["evalspace.cache_misses"]) == (0, 1)
    assert metrics["router.route_s"] == 0.0


def test_recorder_links_nested_calls_and_records_failures():
    recorder = layers.Recorder()

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    inner_w = recorder.wrap("inner", inner)
    outer_w = recorder.wrap("outer", lambda x: inner_w(x) + 1)
    assert outer_w(1) == 2
    with pytest.raises(ValueError):
        outer_w(-1)
    by_layer = {}
    for span in recorder.spans:
        by_layer.setdefault(span.layer, []).append(span)
    assert len(by_layer["inner"]) == len(by_layer["outer"]) == 2
    for inner_span, outer_span in zip(by_layer["inner"], by_layer["outer"]):
        assert inner_span.parent == outer_span.id
        assert outer_span.start <= inner_span.start <= inner_span.end <= outer_span.end

    recorder.enabled = False
    assert outer_w(5) == 6
    assert len(recorder.spans) == 4


# ----------------------------------------------------------------------
# capacity search against a stub with a known capacity
# ----------------------------------------------------------------------
def _stub(capacity, *, generator_limit=math.inf, probed=None):
    def probe(rate):
        if probed is not None:
            probed.append(rate)
        return Step(rate, passed=rate <= capacity, generator_ok=rate <= generator_limit)

    return probe


@pytest.mark.parametrize("capacity", [12.5, 47.3, 600.0])
def test_search_brackets_a_known_capacity(capacity):
    result = arith.search_capacity(
        _stub(capacity), 30.0, resolution=0.025, max_steps=24
    )
    assert result.resolved
    assert capacity / 1.025 <= result.rate <= capacity
    assert not result.generator_limited


def test_search_starts_where_told_and_respects_its_budget():
    probed = []
    result = arith.search_capacity(
        _stub(47.3, probed=probed), 30.0, resolution=0.025, max_steps=8
    )
    assert probed[:2] == [30.0, 37.5]  # grows from the sustained start
    assert len(probed) == 8
    assert result.resolved and 46.1 < result.rate <= 47.3


def test_search_never_reports_a_rate_the_generator_missed():
    result = arith.search_capacity(
        _stub(100.0, generator_limit=40.0), 30.0, max_steps=16
    )
    assert result.rate <= 40.0
    assert result.generator_limited


def test_search_with_nothing_sustained_reports_none():
    result = arith.search_capacity(_stub(0.1), 30.0, max_steps=16)
    assert result.rate is None
    assert not result.resolved


def test_search_from_above_divides_down_to_a_sustained_step():
    probed = []
    result = arith.search_capacity(
        _stub(45.0, probed=probed), 400.0, resolution=0.05, max_steps=16
    )
    assert probed[:4] == [400.0, 320.0, 256.0, 204.8]
    assert result.resolved and 45.0 / 1.05 <= result.rate <= 45.0
