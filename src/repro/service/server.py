"""The live planning service: ``repro.api`` over HTTP.

Two layers, split so tests and the in-process load generator can skip
the socket entirely:

* :class:`PlanningService` — transport-agnostic request dispatch.
  ``dispatch(method, path, body)`` maps a route to an API operation,
  serialises the typed response, and turns :class:`ApiError` into the
  versioned error body at its canonical HTTP status.  An optional
  in-flight limit sheds excess concurrency with ``503 overloaded``
  *before* any evaluation work starts.
* :class:`PlanningServer` — a stdlib ``ThreadingHTTPServer`` wrapper
  that binds a :class:`PlanningService` to a host/port, optionally
  installs a dedicated metrics registry for its lifetime (so
  ``GET /v1/metrics`` scrapes only service traffic), and runs in a
  daemon thread (``start()``/``close()``, or use it as a context
  manager).

Routes (all bodies JSON, schema ``repro.api/v1``):

========================  =====================================
``POST /v1/plan``         :func:`repro.api.plan`
``POST /v1/fleet/evaluate``  :func:`repro.api.evaluate_fleets`
``POST /v1/fleet/cheapest``  :func:`repro.api.cheapest_fleets`
``GET /v1/healthz``       liveness, uptime, inflight, cache occupancy
``GET /v1/metrics``       OpenMetrics exposition of the scope
``GET /v1/status``        windowed live metrics + active anomalies
========================  =====================================

Every planning answer is served from the process-wide content-keyed
caches, so a repeated query is a cache hit no matter which client
asked first.

Observability: each request runs inside a request-scoped
:class:`~repro.obs.context.TraceContext` (created fresh, or parsed
from the client's ``X-Repro-Trace`` header) under a
``service.request`` span, emits a structured ``service.access`` event
on the :class:`~repro.obs.events.EventBus` (method, path, status,
latency, trace id — the structured replacement for the silenced
stdlib access log), and feeds the :class:`ServiceMonitor`'s windowed
streaming aggregators, whose anomaly state ``GET /v1/status`` serves.
"""

from __future__ import annotations

import json
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.api import (
    API_SCHEMA,
    ApiError,
    FleetRequest,
    PlanRequest,
    cheapest_fleets,
    evaluate_fleets,
    plan,
)
from repro.obs import (
    MetricsRegistry,
    Tracer,
    get_event_bus,
    get_metrics,
    get_tracer,
    scoped_observability,
)
from repro.obs.context import TRACE_HEADER, TraceContext, activate, new_trace_id
from repro.obs.timeseries import AnomalyPolicy, TelemetryPipeline

__all__ = ["PlanningServer", "PlanningService", "ServiceMonitor"]

_JSON = "application/json"
_OPENMETRICS = "text/plain; version=0.0.4; charset=utf-8"

#: the largest request body the server reads; a longer
#: ``Content-Length`` is answered 413 without reading the body.  Real
#: requests stay under a few KB (a plan query ~0.2 KB, a two-design
#: fleet evaluation ~0.8 KB).
MAX_BODY_BYTES = 1 << 20


def _non_finite(literal: str):
    """``json.loads`` hook for ``NaN``/``Infinity``/``-Infinity``: the
    stdlib parser accepts them, RFC 8259 JSON has no such numbers."""
    raise ApiError(
        "invalid_request",
        f"request body holds the non-finite number {literal}; "
        "JSON numbers are finite",
    )


class ServiceMonitor:
    """Windowed live telemetry + anomaly detection for one service.

    Per planning request the service records latency, HTTP status
    (shed / error rates) and the answered plan's cost into fixed-width
    :class:`~repro.obs.timeseries.WindowedSeries`; once per window it
    samples the evaluation-cache hit ratio from the counter deltas.
    Each series feeds an edge-triggered
    :class:`~repro.obs.timeseries.AnomalyDetector`, so a spot-price
    step, a latency regression or a shed storm raises exactly one
    ``anomaly.raise`` event on the bus (and one ``anomaly.resolve``
    when it clears).  :meth:`status` is the ``/v1/status`` payload.

    ``clock`` is injectable for tests; stream time is seconds since
    construction.
    """

    #: metric name -> (statistic watched, detector policy).  Latency
    #: carries a 50ms absolute sigma floor so scheduler jitter on a
    #: busy host cannot page a sub-millisecond control plane.
    POLICIES: dict[str, AnomalyPolicy] = {
        "latency_s": AnomalyPolicy(
            stat="p99", rel_floor=0.25, min_sigma=0.05
        ),
        "cost": AnomalyPolicy(stat="mean"),
        "shed_rate": AnomalyPolicy(stat="mean", min_sigma=0.02),
        "error_rate": AnomalyPolicy(stat="mean", min_sigma=0.02),
        "cache_hit_ratio": AnomalyPolicy(stat="mean", min_sigma=0.02),
    }

    def __init__(
        self,
        *,
        window_s: float = 1.0,
        keep: int = 600,
        clock=time.monotonic,
    ) -> None:
        self._clock = clock
        self._epoch = clock()
        self._lock = threading.Lock()
        self.pipeline = TelemetryPipeline(window_s=window_s, keep=keep)
        for name, policy in self.POLICIES.items():
            self.pipeline.watch(name, policy)
        self._cache_window: int | None = None
        self._cache_last = (0, 0)

    # ------------------------------------------------------------------
    def now(self) -> float:
        """Stream time: seconds since the monitor was built."""
        return self._clock() - self._epoch

    def record(self, latency_s: float, status: int) -> None:
        """Feed one completed planning request."""
        t = self.now()
        with self._lock:
            self.pipeline.observe("latency_s", t, latency_s)
            self.pipeline.observe(
                "shed_rate", t, 1.0 if status == 503 else 0.0
            )
            self.pipeline.observe(
                "error_rate",
                t,
                0.0 if status in (200, 422) else 1.0,
            )
            self._sample_cache(t)

    def observe_cost(self, cost: float) -> None:
        """Feed one answered plan's headline cost (dollars)."""
        cost = float(cost)
        if not math.isfinite(cost):
            return
        t = self.now()
        with self._lock:
            self.pipeline.observe("cost", t, cost)

    def _sample_cache(self, t: float) -> None:
        """Once per window: hit ratio over the counter delta."""
        window = int(t // self.pipeline.window_s)
        registry = get_metrics()
        hits = registry.counter("evalspace.cache_hits").value
        misses = registry.counter("evalspace.cache_misses").value
        if self._cache_window is None:
            self._cache_window = window
            self._cache_last = (hits, misses)
            return
        if window <= self._cache_window:
            return
        d_hits = hits - self._cache_last[0]
        d_misses = misses - self._cache_last[1]
        total = d_hits + d_misses
        if total > 0:
            self.pipeline.observe("cache_hit_ratio", t, d_hits / total)
        self._cache_window = window
        self._cache_last = (hits, misses)

    # ------------------------------------------------------------------
    def status(self, recent: int = 5) -> dict:
        """JSON-ready live view (recent windows + anomaly state)."""
        with self._lock:
            return self.pipeline.status(recent)

    def active_anomalies(self) -> list[dict]:
        """Detectors currently raising."""
        with self._lock:
            return self.pipeline.active_anomalies()


class PlanningService:
    """Transport-agnostic dispatch of the ``/v1`` control-plane routes.

    Parameters
    ----------
    max_inflight:
        Upper bound on concurrently dispatched planning requests;
        excess requests are rejected immediately with ``503``
        (``overloaded``).  ``None`` disables the limit; ``0`` rejects
        every planning request (useful to test the error path
        deterministically).  ``healthz``/``metrics`` are exempt so the
        service stays observable under overload.
    """

    def __init__(
        self,
        *,
        max_inflight: int | None = None,
        monitor: ServiceMonitor | None = None,
    ) -> None:
        if max_inflight is not None and max_inflight < 0:
            raise ApiError(
                "invalid_request",
                f"max_inflight must be >= 0, got {max_inflight}",
            )
        self.max_inflight = max_inflight
        self.monitor = monitor if monitor is not None else ServiceMonitor()
        self._inflight = 0
        self._served = 0
        self._started = time.monotonic()
        self._lock = threading.Lock()
        self._plan_routes = {
            "/v1/plan": (PlanRequest, plan),
            "/v1/fleet/evaluate": (FleetRequest, evaluate_fleets),
            "/v1/fleet/cheapest": (FleetRequest, cheapest_fleets),
        }

    # ------------------------------------------------------------------
    def dispatch(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        headers=None,
    ) -> tuple[int, str, bytes]:
        """Answer one request; returns ``(status, content_type, body)``.

        Never raises: every failure becomes a serialised
        :class:`ApiError` body at its mapped status.

        ``headers`` is any mapping with ``.get`` (the stdlib handler
        passes its ``email.message.Message``); when it carries an
        ``X-Repro-Trace`` header the request joins that trace,
        otherwise a fresh trace id is minted.  Either way the route
        runs under a ``service.request`` span inside the activated
        context — which is what stitches handler/evalspace spans on
        *this* worker thread to the remote client's trace.
        """
        path = path.partition("?")[0].rstrip("/") or "/"
        raw = headers.get(TRACE_HEADER) if headers is not None else None
        context = TraceContext.from_header(raw)
        if context is None:
            context = TraceContext(new_trace_id())
        started = time.perf_counter()
        with activate(context), get_tracer().span(
            "service.request", method=method, path=path
        ) as span:
            try:
                if path == "/v1/healthz":
                    result = self._expect(method, "GET", self._healthz)
                elif path == "/v1/metrics":
                    result = self._expect(method, "GET", self._metrics)
                elif path == "/v1/status":
                    result = self._expect(method, "GET", self._status)
                elif path in self._plan_routes:
                    result = self._expect(
                        method, "POST", lambda: self._planning(path, body)
                    )
                else:
                    raise ApiError("not_found", f"no route {path!r}")
            except ApiError as exc:
                result = self._error(exc)
            except Exception as exc:  # pragma: no cover - defensive
                result = self._error(ApiError.from_exception(exc))
            status = result[0]
            if span is not None:
                span.tags["status"] = status
        latency_s = time.perf_counter() - started
        with self._lock:
            self._served += 1
        if path in self._plan_routes:
            self.monitor.record(latency_s, status)
        bus = get_event_bus()
        if bus.active:
            bus.emit(
                "service.access",
                method=method,
                path=path,
                status=status,
                latency_s=round(latency_s, 6),
                trace_id=context.trace_id,
            )
        return result

    # ------------------------------------------------------------------
    def _expect(self, method: str, expected: str, handler):
        if method != expected:
            raise ApiError(
                "invalid_request",
                f"use {expected} for this route, not {method}",
                http_status=405,
            )
        return handler()

    def _error(self, exc: ApiError) -> tuple[int, str, bytes]:
        get_metrics().counter("service.errors").inc()
        payload = json.dumps(exc.to_dict(), sort_keys=True).encode("utf-8")
        return exc.http_status, _JSON, payload

    def _healthz(self) -> tuple[int, str, bytes]:
        from repro.core.evalspace import space_cache_info
        from repro.serving.fleet import fleet_cache_info

        with self._lock:
            inflight, served = self._inflight, self._served
        payload = {
            "schema": API_SCHEMA,
            "status": "ok",
            "uptime_s": round(time.monotonic() - self._started, 3),
            "inflight": inflight,
            "served": served,
            "space_cache": space_cache_info(),
            "fleet_cache": fleet_cache_info(),
        }
        return 200, _JSON, json.dumps(payload, sort_keys=True).encode("utf-8")

    def _status(self) -> tuple[int, str, bytes]:
        payload = {
            "schema": API_SCHEMA,
            "uptime_s": round(time.monotonic() - self._started, 3),
            **self.monitor.status(),
        }
        return 200, _JSON, json.dumps(payload, sort_keys=True).encode("utf-8")

    def _metrics(self) -> tuple[int, str, bytes]:
        from repro.obs.export import prometheus_text

        text = prometheus_text(get_metrics().snapshot())
        return 200, _OPENMETRICS, text.encode("utf-8")

    def _planning(self, path: str, body: bytes) -> tuple[int, str, bytes]:
        request_cls, handler = self._plan_routes[path]
        with self._admitted():
            get_metrics().counter("service.requests").inc()
            try:
                payload = json.loads(
                    body.decode("utf-8") or "{}", parse_constant=_non_finite
                )
            except (UnicodeDecodeError, ValueError):
                raise ApiError(
                    "invalid_request", "request body is not valid JSON"
                ) from None
            response = handler(request_cls.from_dict(payload))
            points = getattr(response, "points", ())
            if points:
                # the answered plan's headline cost feeds the monitor's
                # cost series (a spot-price step shows up here first)
                self.monitor.observe_cost(points[0].cost)
            out = json.dumps(response.to_dict(), sort_keys=True)
            return 200, _JSON, out.encode("utf-8")

    # ------------------------------------------------------------------
    def _admitted(self):
        """Context manager holding one in-flight slot (or shedding)."""
        from contextlib import contextmanager

        @contextmanager
        def _slot():
            if self.max_inflight is not None:
                with self._lock:
                    if self._inflight >= self.max_inflight:
                        get_metrics().counter("service.rejected").inc()
                        raise ApiError(
                            "overloaded",
                            f"{self._inflight} requests in flight "
                            f"(limit {self.max_inflight}); retry later",
                        )
                    self._inflight += 1
            try:
                yield
            finally:
                if self.max_inflight is not None:
                    with self._lock:
                        self._inflight -= 1

        return _slot()


class _Handler(BaseHTTPRequestHandler):
    """Socket-facing shim: reads the body, defers to the service."""

    server_version = "repro-planning/1"
    protocol_version = "HTTP/1.1"

    def _handle(self) -> None:
        raw = self.headers.get("Content-Length", "0").strip()
        error = None
        if not (raw.isascii() and raw.isdigit()):
            # a negative length would read to EOF; a garbled one would
            # leave the body to be parsed as the next request
            error = ApiError(
                "invalid_request", f"malformed Content-Length {raw[:32]!r}"
            )
        elif len(raw) > 18 or int(raw) > MAX_BODY_BYTES:
            # (the length test keeps int() under its digit limit)
            error = ApiError(
                "invalid_request",
                f"request body over the {MAX_BODY_BYTES}-byte limit",
                http_status=413,
            )
        if error is not None:
            # the body stays unread, so the connection must close
            self._reply(*self.server.service._error(error), close=True)
            return
        length = int(raw)
        body = self.rfile.read(length) if length else b""
        self._reply(
            *self.server.service.dispatch(
                self.command, self.path, body, headers=self.headers
            )
        )

    def _reply(
        self,
        status: int,
        content_type: str,
        payload: bytes,
        close: bool = False,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        if close:
            # send_header also sets close_connection
            self.send_header("Connection", "close")
        # status line, headers and body leave in one write: a body sent
        # as a second small segment waits for the client's delayed ACK
        # under Nagle's algorithm (~40 ms per keep-alive response)
        head = b""
        if self.request_version != "HTTP/0.9":  # 0.9 answers are bare
            head = b"".join(self._headers_buffer) + b"\r\n"
            self._headers_buffer = []
        self.wfile.write(head + payload)

    do_GET = _handle
    do_POST = _handle

    def log_message(self, format: str, *args) -> None:
        """Silence the stdlib's unstructured stderr access log.

        The service publishes ``service.access`` events on the
        :class:`~repro.obs.events.EventBus` instead — same facts
        (method, path, status) plus latency and trace id, consumable
        by ``repro tail`` and any JSONL event log.
        """


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    # socketserver's default listen backlog of 5 drops (RST) bursty
    # open-loop connects long before the service itself is saturated
    request_queue_size = 128
    service: PlanningService


class PlanningServer:
    """A :class:`PlanningService` bound to a TCP port.

    Parameters
    ----------
    host, port:
        Bind address; port ``0`` picks a free one (see :attr:`url`).
    max_inflight:
        Passed to :class:`PlanningService`.
    registry:
        Optional :class:`~repro.obs.MetricsRegistry` installed as the
        observability scope for the server's lifetime, so
        ``GET /v1/metrics`` exposes only traffic served since start.
        ``None`` leaves the ambient scope in place.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_inflight: int | None = 64,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.service = PlanningService(max_inflight=max_inflight)
        self._http = _Server((host, port), _Handler)
        self._http.service = self.service
        self._registry = registry
        self._scope = None
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        """Bound host address."""
        return self._http.server_address[0]

    @property
    def port(self) -> int:
        """Bound TCP port (resolved when constructed with port 0)."""
        return self._http.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients should target."""
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    def start(self) -> "PlanningServer":
        """Serve in a daemon thread; returns self for chaining."""
        if self._thread is not None:
            return self
        if self._registry is not None:
            self._scope = scoped_observability(
                Tracer(enabled=False), self._registry
            )
            self._scope.__enter__()
        self._thread = threading.Thread(
            target=self._http.serve_forever,
            name="repro-planning-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI foreground mode)."""
        if self._registry is not None:
            with scoped_observability(
                Tracer(enabled=False), self._registry
            ):
                self._http.serve_forever()
        else:
            self._http.serve_forever()

    def close(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        if self._thread is not None:
            self._http.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._http.server_close()
        if self._scope is not None:
            self._scope.__exit__(None, None, None)
            self._scope = None

    def __enter__(self) -> "PlanningServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
