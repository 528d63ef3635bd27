"""``SingleFlightCache``: per-key single-flight, failure and eviction.

Every thread a test starts is joined with a timeout, so a regression
that makes one caller wait on another fails instead of hanging.
"""

from __future__ import annotations

import threading

import pytest

from repro.core.cache import MAX_ENTRIES, SingleFlightCache
from repro.obs import MetricsRegistry, scoped_observability

#: seconds any join may take; a blocked caller fails the test instead
JOIN_S = 10.0
#: seconds a gated build waits for its release, longer than every join
GATE_S = 60.0


def _start(fn, *args) -> tuple[threading.Thread, dict]:
    """Run ``fn(*args)`` on a daemon thread; the dict gets its outcome."""
    out: dict = {}

    def run():
        try:
            out["value"] = fn(*args)
        except BaseException as exc:  # handed to the asserting thread
            out["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, out


def _join(thread: threading.Thread) -> None:
    thread.join(JOIN_S)
    assert not thread.is_alive(), "caller still blocked after the timeout"


def _cache() -> SingleFlightCache:
    return SingleFlightCache("t", ("size", len))


@pytest.fixture()
def registry():
    registry = MetricsRegistry()
    with scoped_observability(metrics=registry):
        yield registry


def _counts(registry) -> tuple[int, int]:
    counters = registry.snapshot().get("counters", {})
    return counters.get("t.cache_misses", 0), counters.get("t.cache_hits", 0)


class TestSingleFlight:
    def test_hits_and_other_keys_never_wait_on_a_build(self, registry):
        cache = _cache()
        cache.get("warm", lambda: "w")
        entered, release = threading.Event(), threading.Event()

        def slow():
            entered.set()
            release.wait(GATE_S)
            return "slow"

        builder, built = _start(cache.get, "cold", slow)
        try:
            assert entered.wait(JOIN_S)
            hit, hit_out = _start(cache.get, "warm", lambda: "never")
            other, other_out = _start(cache.get, "other", lambda: "o")
            _join(hit)
            _join(other)
            assert hit_out == {"value": "w"}
            assert other_out == {"value": "o"}
            assert builder.is_alive()
        finally:
            release.set()
        _join(builder)
        assert built == {"value": "slow"}
        assert _counts(registry) == (3, 1)

    def test_concurrent_misses_on_one_key_compute_once(self, registry):
        cache = _cache()
        calls = []
        entered, release = threading.Event(), threading.Event()

        def compute():
            calls.append(1)
            entered.set()
            release.wait(GATE_S)
            return "v"

        leader, leader_out = _start(cache.get, "k", compute)
        assert entered.wait(JOIN_S)
        waiters = [_start(cache.get, "k", compute) for _ in range(5)]
        release.set()
        for thread, _ in [(leader, leader_out), *waiters]:
            _join(thread)
        assert [out for _, out in waiters] == [{"value": "v"}] * 5
        assert len(calls) == 1
        assert _counts(registry) == (1, 5)

    def test_failed_build_caches_nothing_and_waiters_retry(self, registry):
        cache = _cache()
        calls = []
        entered, release = threading.Event(), threading.Event()

        def compute():
            calls.append(1)
            if len(calls) == 1:
                entered.set()
                release.wait(GATE_S)
                raise RuntimeError("boom")
            return "v"

        leader, leader_out = _start(cache.get, "k", compute)
        assert entered.wait(JOIN_S)
        waiter, waiter_out = _start(cache.get, "k", compute)
        release.set()
        _join(leader)
        _join(waiter)
        assert isinstance(leader_out["error"], RuntimeError)
        # the waiter was released and built again itself
        assert waiter_out == {"value": "v"}
        assert len(calls) == 2
        assert cache.get("k", compute) == "v"
        assert len(calls) == 2
        assert _counts(registry) == (2, 1)

    def test_failed_build_is_recomputed_on_the_next_call(self, registry):
        cache = _cache()

        def boom():
            raise ValueError("bad spec")

        with pytest.raises(ValueError):
            cache.get("k", boom)
        assert cache.info() == {"entries": 0, "size": 0}
        assert cache.get("k", lambda: "ok") == "ok"
        assert _counts(registry) == (2, 0)


class TestBound:
    def test_oldest_entry_is_evicted_first(self, registry):
        assert MAX_ENTRIES == 32
        cache = _cache()
        for i in range(33):
            cache.get(i, lambda i=i: [i])
        assert cache.info() == {"entries": 32, "size": 32}
        assert cache.get(1, lambda: ["rebuilt"]) == [1]  # still held
        assert cache.get(0, lambda: ["rebuilt"]) == ["rebuilt"]
        assert _counts(registry) == (34, 1)

    def test_clear_drops_finished_entries(self):
        cache = _cache()
        cache.get("a", lambda: "xyz")
        assert cache.info() == {"entries": 1, "size": 3}
        cache.clear()
        assert cache.info() == {"entries": 0, "size": 0}
