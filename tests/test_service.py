"""The planning control plane: routes, error mapping, concurrency.

``PlanningService.dispatch`` is exercised without sockets for the
route/error matrix; a real ``PlanningServer`` + ``PlanningClient``
pair covers the HTTP path end to end.  The concurrency test pins the
single-flight contract: N parallel identical ``/v1/plan`` requests
cost exactly one evaluation (1 miss, N-1 hits).
"""

from __future__ import annotations

import http.client
import json
import socket
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import ApiError, PlanRequest, PlanningClient, clear_api_caches
from repro.obs import MetricsRegistry, Tracer, scoped_observability
from repro.service import PlanMixture, PlanningServer, PlanningService
from repro.service.server import MAX_BODY_BYTES

#: a tiny grid so service tests never pay for the full catalog
SMALL = {"catalog": ("p2.16xlarge", "p2.8xlarge"), "instances_per_type": 2}


def _body(**kwargs) -> bytes:
    request = PlanRequest(**{**SMALL, **kwargs})
    return json.dumps(request.to_dict(), sort_keys=True).encode("utf-8")


@pytest.fixture()
def service():
    return PlanningService()


class TestDispatch:
    def test_plan_route_answers_200(self, service):
        status, content_type, payload = service.dispatch(
            "POST", "/v1/plan", _body(target=78.0, deadline_h=6.0)
        )
        assert status == 200
        assert content_type == "application/json"
        answer = json.loads(payload)
        assert answer["schema"] == "repro.api/v1"
        assert answer["kind"] == "min_budget"

    def test_healthz(self, service):
        status, _, payload = service.dispatch("GET", "/v1/healthz")
        assert status == 200
        health = json.loads(payload)
        assert health["status"] == "ok"
        assert "space_cache" in health and "fleet_cache" in health

    def test_metrics_is_openmetrics(self, service):
        status, content_type, payload = service.dispatch(
            "GET", "/v1/metrics"
        )
        assert status == 200
        assert content_type.startswith("text/plain")
        assert payload.decode("utf-8").rstrip().endswith("# EOF")

    def test_unknown_route_is_404(self, service):
        status, _, payload = service.dispatch("POST", "/v1/nope", b"{}")
        assert status == 404
        assert json.loads(payload)["error"]["code"] == "not_found"

    def test_wrong_method_is_405(self, service):
        status, _, payload = service.dispatch("GET", "/v1/plan")
        assert status == 405
        assert json.loads(payload)["error"]["code"] == "invalid_request"

    def test_bad_json_is_400(self, service):
        status, _, payload = service.dispatch(
            "POST", "/v1/plan", b"{not json"
        )
        assert status == 400
        assert json.loads(payload)["error"]["code"] == "invalid_request"

    def test_unknown_model_is_404(self, service):
        status, _, payload = service.dispatch(
            "POST",
            "/v1/plan",
            json.dumps({"target": 78.0, "model": "resnet"}).encode(),
        )
        assert status == 404
        assert json.loads(payload)["error"]["code"] == "unknown_model"

    def test_bad_schema_is_400(self, service):
        status, _, payload = service.dispatch(
            "POST",
            "/v1/plan",
            json.dumps(
                {"schema": "repro.api/v9", "target": 78.0}
            ).encode(),
        )
        assert status == 400

    def test_unknown_field_is_400(self, service):
        status, _, payload = service.dispatch(
            "POST",
            "/v1/plan",
            json.dumps({"target": 78.0, "deadlnie_h": 6.0}).encode(),
        )
        assert status == 400
        assert "deadlnie_h" in json.loads(payload)["error"]["message"]

    def test_infeasible_is_422(self, service):
        status, _, payload = service.dispatch(
            "POST", "/v1/plan", _body(target=80.0, metric="top1")
        )
        assert status == 422
        assert json.loads(payload)["error"]["code"] == "infeasible"

    def test_overload_is_503_and_exempts_health(self):
        shedding = PlanningService(max_inflight=0)
        status, _, payload = shedding.dispatch(
            "POST", "/v1/plan", _body(target=78.0)
        )
        assert status == 503
        assert json.loads(payload)["error"]["code"] == "overloaded"
        assert shedding.dispatch("GET", "/v1/healthz")[0] == 200
        assert shedding.dispatch("GET", "/v1/metrics")[0] == 200

    def test_negative_inflight_rejected(self):
        with pytest.raises(ApiError):
            PlanningService(max_inflight=-1)

    def test_query_string_and_trailing_slash_normalised(self, service):
        assert service.dispatch("GET", "/v1/healthz/?probe=1")[0] == 200

    def test_request_counter_ticks(self, service):
        registry = MetricsRegistry()
        with scoped_observability(Tracer(enabled=False), registry):
            service.dispatch(
                "POST", "/v1/plan", _body(target=78.0, deadline_h=6.0)
            )
        counters = registry.snapshot()["counters"]
        assert counters.get("service.requests") == 1


class TestSingleFlight:
    def test_parallel_identical_plans_cost_one_evaluation(self):
        """N parallel identical /v1/plan -> exactly 1 miss, N-1 hits."""
        n = 8
        service = PlanningService()
        # a content-key no other test uses, so the probe starts cold
        body = _body(target=78.0, deadline_h=6.0, images=19_000_001)
        registry = MetricsRegistry()
        clear_api_caches()
        with scoped_observability(Tracer(enabled=False), registry):
            with ThreadPoolExecutor(max_workers=n) as pool:
                statuses = list(
                    pool.map(
                        lambda _: service.dispatch(
                            "POST", "/v1/plan", body
                        )[0],
                        range(n),
                    )
                )
        assert statuses == [200] * n
        counters = registry.snapshot()["counters"]
        assert counters["evalspace.cache_misses"] == 1
        assert counters["evalspace.cache_hits"] == n - 1
        clear_api_caches()


class TestHttpServer:
    def test_end_to_end_with_client(self):
        registry = MetricsRegistry()
        with PlanningServer(port=0, registry=registry) as server:
            assert server.url.startswith("http://127.0.0.1:")
            client = PlanningClient(server.url)

            health = client.healthz()
            assert health["status"] == "ok"

            response = client.plan(
                PlanRequest(target=78.0, deadline_h=6.0, **SMALL)
            )
            assert response.kind == "min_budget"
            assert response.best.top5 >= 78.0

            with pytest.raises(ApiError) as exc:
                client.plan(
                    PlanRequest(target=80.0, metric="top1", **SMALL)
                )
            assert exc.value.code == "infeasible"

            text = client.metrics()
            assert "repro_service_requests_total" in text
            assert text.rstrip().endswith("# EOF")

    def test_close_is_idempotent(self):
        server = PlanningServer(port=0)
        server.start()
        server.close()
        server.close()


def _raw_exchange(
    server, head: str, body: bytes = b""
) -> tuple[list[bytes], bytes]:
    """Send raw bytes, keep the socket open, read until the server
    closes; returns the status lines and the raw bytes received.  A
    server that never answers or never closes fails on the socket
    timeout."""
    with socket.create_connection(
        (server.host, server.port), timeout=5.0
    ) as sock:
        sock.sendall(head.encode("latin-1") + b"\r\n" + body)
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    return [
        line
        for line in data.split(b"\r\n")
        if line.startswith(b"HTTP/1.1 ")
    ], data


class TestHostileContentLength:
    """``Content-Length`` comes from the client: a malformed one is
    answered 400 and an oversized one 413, each without reading the
    body, and the connection closes so no body byte is parsed as the
    next request."""

    @staticmethod
    def _post(length: str) -> str:
        return (
            "POST /v1/plan HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {length}\r\n"
        )

    def test_negative_length_answered_promptly(self):
        with PlanningServer(port=0) as server:
            # the client keeps its socket open: reading to EOF would
            # pin the worker until the timeout below fails the test
            statuses, data = _raw_exchange(server, self._post("-1"), b"{}")
        assert statuses == [b"HTTP/1.1 400 Bad Request"]
        assert b'"invalid_request"' in data

    def test_non_numeric_length_does_not_smuggle_a_request(self):
        smuggled = b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        with PlanningServer(port=0) as server:
            statuses, data = _raw_exchange(
                server, self._post("12abc"), smuggled
            )
        assert statuses == [b"HTTP/1.1 400 Bad Request"]
        assert b'"invalid_request"' in data

    def test_oversized_body_rejected_unread(self):
        with PlanningServer(port=0) as server:
            statuses, data = _raw_exchange(
                server, self._post(str(MAX_BODY_BYTES + 1))
            )
        assert statuses == [b"HTTP/1.1 413 Request Entity Too Large"]
        assert b'"invalid_request"' in data

    def test_overlong_digit_string_rejected(self):
        # past the interpreter's int() digit limit
        with PlanningServer(port=0) as server:
            statuses, _ = _raw_exchange(server, self._post("9" * 5000))
        assert statuses == [b"HTTP/1.1 413 Request Entity Too Large"]

    def test_body_at_the_cap_is_read(self):
        with PlanningServer(port=0) as server:
            statuses, data = _raw_exchange(
                server,
                self._post(str(MAX_BODY_BYTES)) + "Connection: close\r\n",
                b" " * MAX_BODY_BYTES,
            )
        assert statuses == [b"HTTP/1.1 400 Bad Request"]
        assert b"not valid JSON" in data

    def test_cap_exceeds_every_loadgen_body(self):
        largest = max(
            len(json.dumps(r.to_dict(), sort_keys=True).encode("utf-8"))
            for r in PlanMixture(seed=0).requests(200)
        )
        # ample headroom: a two-design fleet evaluation is ~5x a plan
        assert 1000 * largest < MAX_BODY_BYTES


class TestWorkBudget:
    """A body far under the byte cap can still ask for a grid too large
    to evaluate; the server answers 413 from the decoded request."""

    def test_over_budget_grid_is_413(self):
        body = b'{"target": 78, "instances_per_type": 10}'
        with PlanningServer(port=0) as server:
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=5.0
            )
            try:
                connection.request("POST", "/v1/plan", body)
                response = connection.getresponse()
                payload = json.loads(response.read())
            finally:
                connection.close()
        assert response.status == 413
        assert payload["error"]["code"] == "invalid_request"
        assert "points is over the" in payload["error"]["message"]


class TestNonFiniteNumbers:
    """``json.loads`` accepts ``NaN``/``Infinity``; a ``NaN`` max-wait
    once spun a server thread forever inside the evaluation lock, so
    every later plan timed out while ``/v1/healthz`` still answered."""

    NAN_BODY = (
        b'{"designs":[{"replicas":[{"instance_type":"p2.xlarge"}],'
        b'"max_wait_s":NaN}],"rate_per_s":10,"duration_s":5}'
    )

    def test_nan_body_is_400_and_the_next_plan_is_served(self):
        with PlanningServer(port=0) as server:
            # the timeout only guards against a hang; no timing is asserted
            connection = http.client.HTTPConnection(
                server.host, server.port, timeout=30.0
            )
            try:
                connection.request(
                    "POST", "/v1/fleet/evaluate", self.NAN_BODY
                )
                rejected = connection.getresponse()
                error = json.loads(rejected.read())["error"]
                connection.request(
                    "POST", "/v1/plan", _body(target=78.0, deadline_h=6.0)
                )
                served = connection.getresponse()
                served.read()
            finally:
                connection.close()
        assert rejected.status == 400
        assert error["code"] == "invalid_request"
        assert "NaN" in error["message"]
        assert served.status == 200

    @pytest.mark.parametrize("literal", [b"Infinity", b"-Infinity", b"NaN"])
    def test_every_non_finite_literal_is_400(self, service, literal):
        status, _, payload = service.dispatch(
            "POST", "/v1/plan", b'{"target": ' + literal + b"}"
        )
        assert status == 400
        assert literal.decode() in json.loads(payload)["error"]["message"]


class TestObservabilityRoutes:
    def test_healthz_reports_uptime_inflight_served(self):
        service = PlanningService()
        first = json.loads(service.dispatch("GET", "/v1/healthz")[2])
        assert first["uptime_s"] >= 0.0
        assert first["inflight"] == 0
        assert first["served"] == 0  # counted after dispatch completes
        service.dispatch(
            "POST", "/v1/plan", _body(target=78.0, deadline_h=6.0)
        )
        second = json.loads(service.dispatch("GET", "/v1/healthz")[2])
        assert second["served"] == 2  # healthz + plan
        assert second["uptime_s"] >= first["uptime_s"]

    def test_status_route_serves_windows_and_anomalies(self):
        service = PlanningService()
        for _ in range(3):
            service.dispatch(
                "POST", "/v1/plan", _body(target=78.0, deadline_h=6.0)
            )
        status, content_type, payload = service.dispatch(
            "GET", "/v1/status"
        )
        assert status == 200
        assert content_type == "application/json"
        body = json.loads(payload)
        assert body["schema"] == "repro.api/v1"
        assert body["anomalies"] == []
        metrics = body["metrics"]
        assert {
            "latency_s",
            "cost",
            "shed_rate",
            "error_rate",
            "cache_hit_ratio",
        } <= set(metrics)
        assert metrics["latency_s"]["detector"]["metric"] == "latency_s"

    def test_status_is_exempt_from_shedding(self):
        shedding = PlanningService(max_inflight=0)
        assert shedding.dispatch("GET", "/v1/status")[0] == 200

    def test_access_events_replace_the_stdlib_log(self):
        from repro.obs import get_event_bus

        service = PlanningService()
        events = []
        with get_event_bus().subscribed(events.append):
            service.dispatch(
                "POST", "/v1/plan", _body(target=78.0, deadline_h=6.0)
            )
            service.dispatch("GET", "/v1/healthz")
        access = [e for e in events if e["kind"] == "service.access"]
        assert [(e["method"], e["path"], e["status"]) for e in access] == [
            ("POST", "/v1/plan", 200),
            ("GET", "/v1/healthz", 200),
        ]
        for event in access:
            assert event["latency_s"] >= 0.0
            assert len(event["trace_id"]) == 16

    def test_dispatch_joins_the_header_trace(self):
        from repro.obs.context import TRACE_HEADER

        from repro.obs import get_event_bus

        service = PlanningService()
        events = []
        with get_event_bus().subscribed(events.append):
            service.dispatch(
                "GET",
                "/v1/healthz",
                b"",
                headers={TRACE_HEADER: "ab12cd34ef56ab78-7"},
            )
        (event,) = [e for e in events if e["kind"] == "service.access"]
        assert event["trace_id"] == "ab12cd34ef56ab78"

    def test_monitor_records_latency_shed_and_cost(self):
        clock = iter(
            [0.0] + [0.1 * i for i in range(1, 200)]
        ).__next__
        from repro.service import ServiceMonitor

        monitor = ServiceMonitor(window_s=1.0, clock=clock)
        service = PlanningService(max_inflight=0, monitor=monitor)
        for _ in range(12):
            service.dispatch("POST", "/v1/plan", _body(target=78.0))
        monitor.pipeline.flush()
        shed = monitor.pipeline.series["shed_rate"]
        assert shed.closed >= 1
        assert all(w.mean == 1.0 for w in shed.windows)  # all 503s
