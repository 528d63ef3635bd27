"""The sustained-soak harness: windowed replay, drift verdicts, and
deterministic fault injection.

Most cases drive a stub target (constant cost, instant answers) so the
detector arithmetic — not the planner — is under test, with small
windows to keep wall time down.  One short in-process soak against the
real service pins the integration end of the pipe.
"""

from __future__ import annotations

import json
import sys
import time
import types

import pytest

from repro.api import ApiError, clear_api_caches
from repro.obs import MetricsRegistry, Tracer, scoped_observability
from repro.obs.timeseries import TelemetryPipeline, WindowSnapshot
from repro.service import (
    InProcessTarget,
    PlanMixture,
    PlanningService,
    SoakInjection,
    run_load,
    run_soak,
)
from repro.service import loadgen
from repro.service.loadgen import (
    DRIFT_TOLERANCE,
    SOAK_POLICIES,
    _drift_verdicts,
)

#: tiny grid, so real-service cases stay cheap and cache-warm
SMALL = dict(
    catalog=("p2.16xlarge", "p2.8xlarge"),
    instances_per_type=2,
    images=1_000_000,
)

MIXTURE = PlanMixture(seed=3, **SMALL)

#: stub soak shape: 10 requests per 0.1s window, 3s total
FAST = dict(rate_per_s=100.0, duration_s=3.0, window_s=0.1)


#: the latency every stub request reports under ``stub_clock``
STUB_LATENCY_S = 0.002


@pytest.fixture()
def stub_clock(monkeypatch):
    """Every request the harness times takes exactly ``STUB_LATENCY_S``.

    The stub answers instantly, so the latency the harness measures is
    host scheduling jitter, and one stall on a busy host pages the
    latency detector.  Tests that watch other series read this clock:
    a request's completion read (taken in the replay coroutine once the
    request's ``scheduled`` time is set) answers ``scheduled +
    STUB_LATENCY_S``; the pacing and wall-time reads stay real.
    """
    completions = []

    def perf_counter():
        scheduled = sys._getframe(1).f_locals.get("scheduled")
        if scheduled is None:
            return time.perf_counter()
        completions.append(scheduled)
        return scheduled + STUB_LATENCY_S

    monkeypatch.setattr(
        loadgen, "time", types.SimpleNamespace(perf_counter=perf_counter)
    )
    yield
    assert completions, "the replay loop no longer times via `scheduled`"


class StubTarget:
    """Answers instantly with a fixed status and cost."""

    def __init__(self, *, status: int = 200, cost: float = 2.0) -> None:
        self.status = status
        self.cost = cost

    def probe(self, body):
        code = None
        if self.status == 503:
            code = "overloaded"
        elif self.status >= 400:
            code = "invalid_request"
        cost = self.cost if self.status == 200 else None
        return self.status, cost, code

    def cache_counters(self):
        return {"evalspace.cache_hits": 0, "evalspace.cache_misses": 0}


class TestSoakInjection:
    def test_window_validation(self):
        with pytest.raises(ApiError):
            SoakInjection(start_frac=0.7, end_frac=0.3)
        with pytest.raises(ApiError):
            SoakInjection(cost_scale=0.0)
        with pytest.raises(ApiError):
            SoakInjection(extra_latency_s=-1.0)

    def test_active_is_half_open(self):
        pulse = SoakInjection(start_frac=0.25, end_frac=0.5)
        assert not pulse.active(0.2)
        assert pulse.active(0.25)
        assert pulse.active(0.49)
        assert not pulse.active(0.5)


class TestSoakHealthy:
    def test_constant_target_is_quiet(self, stub_clock):
        report = run_soak(StubTarget(), MIXTURE, seed=3, **FAST)
        assert report.ok
        assert report.anomaly_events == ()
        assert report.flagged == ()
        assert report.requests == 300
        assert len(report.windows) >= 30  # latency + rates + cost
        # every verdict present came back clean
        assert all(not v.drifting for v in report.verdicts)
        metrics = {v.metric for v in report.verdicts}
        assert {"cost", "error_rate", "shed_rate"} <= metrics

    def test_summary_and_render_shapes(self, stub_clock):
        report = run_soak(StubTarget(), MIXTURE, seed=3, **FAST)
        summary = report.summary()
        assert summary["ok"] is True
        assert summary["requests"] == 300
        json.dumps(summary)  # wire-safe
        json.dumps(report.window_rows())
        text = report.render()
        assert "verdict   : ok" in text
        assert "no anomalies raised" in text

    def test_bad_durations_rejected(self):
        with pytest.raises(ApiError):
            run_soak(
                StubTarget(), MIXTURE, rate_per_s=10, duration_s=0.0
            )
        with pytest.raises(ApiError):
            run_soak(
                StubTarget(),
                MIXTURE,
                rate_per_s=10,
                duration_s=1.0,
                window_s=-1.0,
            )


class TestSoakInjected:
    def test_price_step_pulse_is_one_pair_on_cost(self, stub_clock):
        report = run_soak(
            StubTarget(),
            MIXTURE,
            seed=3,
            inject=SoakInjection(cost_scale=3.0),
            **FAST,
        )
        assert not report.ok
        assert report.flagged == ("cost",)
        assert report.raise_resolve_pairs == {"cost": (1, 1)}
        kinds = [e["kind"] for e in report.anomaly_events]
        assert kinds == ["anomaly.raise", "anomaly.resolve"]
        assert "DEGRADED" in report.render()

    def test_latency_tax_pulse_pages_latency(self):
        report = run_soak(
            StubTarget(),
            MIXTURE,
            seed=3,
            inject=SoakInjection(extra_latency_s=2.0),
            **FAST,
        )
        assert "latency_s" in report.flagged
        raises, resolves = report.raise_resolve_pairs["latency_s"]
        assert (raises, resolves) == (1, 1)

    def test_fault_mixture_switch_steps_the_error_rate(self):
        # the injected mixture is answered 400 by the stub; the
        # harness switches to it for the middle third only
        class Faulty(StubTarget):
            def probe(self, body):
                decoded = json.loads(body.decode("utf-8"))
                if decoded.get("catalog") == ["injected-fault"]:
                    return 400, None, "invalid_request"
                return super().probe(body)

        report = run_soak(
            Faulty(),
            MIXTURE,
            seed=3,
            inject=SoakInjection(
                mixture=PlanMixture(
                    seed=3,
                    images=SMALL["images"],
                    instances_per_type=SMALL["instances_per_type"],
                    catalog=("injected-fault",),
                )
            ),
            **FAST,
        )
        assert "error_rate" in report.flagged
        assert report.raise_resolve_pairs["error_rate"] == (1, 1)

    def test_persistent_step_drifts_without_resolving(self, stub_clock):
        # a step that never ends: raised at the edge, still active at
        # the end, and the first-vs-last verdict flags the drift too
        report = run_soak(
            StubTarget(),
            MIXTURE,
            seed=3,
            inject=SoakInjection(
                start_frac=0.4, end_frac=1.0, cost_scale=4.0
            ),
            **FAST,
        )
        assert "cost" in report.flagged
        raises, resolves = report.raise_resolve_pairs["cost"]
        assert raises == 1 and resolves == 0
        (cost_verdict,) = [
            v for v in report.verdicts if v.metric == "cost"
        ]
        assert cost_verdict.drifting
        assert cost_verdict.rel_change == pytest.approx(3.0, rel=0.05)


class TestDriftFloor:
    """A drift verdict needs the move to clear the detector's own
    absolute floor (50 ms for latency), not just the relative bar."""

    @staticmethod
    def _latency_verdict(head_s: float, tail_s: float):
        pipeline = TelemetryPipeline(window_s=1.0)
        series = pipeline.watch("latency_s", SOAK_POLICIES["latency_s"])
        for index in range(12):
            value = head_s if index < 6 else tail_s
            series.windows.append(
                WindowSnapshot(
                    "latency_s", index, float(index), 10, value, value,
                    value, value,
                )
            )
        (verdict,) = _drift_verdicts(pipeline, DRIFT_TOLERANCE)
        return verdict

    # scheduler jitter against an instant target: -47%, and a -56% move
    # that the relative bar alone would call drift; 1-2 ms either way
    @pytest.mark.parametrize("tail_s", [1.46e-3, 1.2e-3])
    def test_millisecond_jitter_is_not_drift(self, tail_s):
        verdict = self._latency_verdict(2.73e-3, tail_s)
        assert verdict.rel_change < -0.4
        assert not verdict.drifting

    def test_sustained_latency_step_still_drifts(self):
        verdict = self._latency_verdict(2.73e-3, 2.73e-3 + 0.25)
        assert verdict.drifting


class TestSoakAgainstRealService:
    def test_in_process_soak_is_clean_and_deterministic(self):
        clear_api_caches()
        with scoped_observability(
            Tracer(enabled=False), MetricsRegistry()
        ):
            report = run_soak(
                InProcessTarget(),
                MIXTURE,
                rate_per_s=25.0,
                duration_s=4.0,
                window_s=0.5,
                seed=3,
            )
        # 8 windows of round(rate * window) = 12 requests each
        assert report.requests == 96
        assert report.anomaly_events == ()
        cost_windows = [
            w for w in report.windows if w.metric == "cost" and w.count
        ]
        assert cost_windows  # real answers fed the cost series
        hit_windows = [
            w for w in report.windows if w.metric == "cache_hit_ratio"
        ]
        assert hit_windows  # counter deltas observed per chunk


class TestLoadReportErrorCodes:
    def test_invalid_catalog_counts_by_code(self):
        clear_api_caches()
        with scoped_observability(
            Tracer(enabled=False), MetricsRegistry()
        ):
            report = run_load(
                InProcessTarget(),
                PlanMixture(
                    seed=3,
                    images=SMALL["images"],
                    instances_per_type=2,
                    catalog=("no-such-instance",),
                ),
                rate_per_s=200.0,
                n_requests=10,
            )
        assert report.status_counts.get(400) == 10
        assert report.error_codes == {"invalid_request": 10}
        assert report.summary()["error_codes"] == {
            "invalid_request": 10
        }
        assert "invalid_request:10" in report.render()

    def test_shed_and_invalid_are_distinguishable(self):
        clear_api_caches()
        with scoped_observability(
            Tracer(enabled=False), MetricsRegistry()
        ):
            service = PlanningService(max_inflight=0)
            report = run_load(
                InProcessTarget(service),
                MIXTURE,
                rate_per_s=200.0,
                n_requests=10,
            )
        assert report.status_counts.get(503) == 10
        assert report.error_codes == {"overloaded": 10}

    def test_successful_answers_carry_costs(self):
        clear_api_caches()
        with scoped_observability(
            Tracer(enabled=False), MetricsRegistry()
        ):
            report = run_load(
                InProcessTarget(),
                MIXTURE,
                rate_per_s=200.0,
                n_requests=10,
            )
        assert report.costs.size == report.ok
        assert report.summary()["mean_cost"] > 0
