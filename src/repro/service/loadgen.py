"""Async open-loop load generation against the planning control plane.

The harness replays a seeded *trace* of planning queries against a
target (a live HTTP server or an in-process
:class:`~repro.service.server.PlanningService`), open-loop: request
``i`` is issued at its precomputed arrival time regardless of whether
earlier requests have completed, so a slow control plane accumulates
measurable queueing delay instead of silently throttling the offered
load.  Arrival times come from the same generators the serving
simulators use (:mod:`repro.serving.arrivals`), so the offered process
is reproducible from ``(arrival, rate, duration, seed)`` alone.

Pieces:

* :class:`PlanMixture` — a seeded mixture over targets / deadlines /
  budgets that expands into concrete
  :class:`~repro.api.PlanRequest` traces (all sharing one grid, so a
  warm service answers every query from the evaluation-space cache);
* :class:`InProcessTarget` / :class:`HttpTarget` — where requests go;
* :func:`run_load` — replay a trace, returning a :class:`LoadReport`
  with throughput, latency percentiles (measured from each request's
  *scheduled* arrival, so queueing counts), per-status *and*
  per-error-code counts and the evaluation-cache hit/miss delta
  observed during the run.
* :func:`run_soak` — sustained operation: the trace is replayed in
  window-sized chunks, each chunk's latencies/costs/rates streamed
  into a :class:`~repro.obs.timeseries.TelemetryPipeline` whose
  detectors raise/resolve anomalies, and the whole run is summarised
  as a :class:`SoakReport` with per-metric first-vs-last drift
  verdicts.  :class:`SoakInjection` deterministically perturbs a
  middle slice of the run (a fault-plan mixture, a spot-price step, a
  latency tax) so the detection path itself is testable.

The ``service.plan`` bench scenario wraps :func:`run_load` over the
in-process target; ``python -m repro loadgen`` drives a live server
(``--soak`` switches to the sustained harness).
"""

from __future__ import annotations

import asyncio
import http.client
import json
import math
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from repro.api import ApiError, PlanRequest
from repro.obs.timeseries import (
    AnomalyPolicy,
    TelemetryPipeline,
    WindowSnapshot,
)
from repro.serving.arrivals import ARRIVALS
from repro.serving.metrics import LatencyStats

__all__ = [
    "DriftVerdict",
    "HttpTarget",
    "InProcessTarget",
    "LoadReport",
    "PlanMixture",
    "SoakInjection",
    "SoakReport",
    "TRANSPORT_ERROR_STATUS",
    "run_load",
    "run_soak",
]

_CACHE_COUNTERS = ("evalspace.cache_hits", "evalspace.cache_misses")


# ----------------------------------------------------------------------
# request mixtures
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlanMixture:
    """A seeded mixture of planning queries over one shared grid.

    Each request draws independently (from ``seed``) a target from
    ``targets``, a deadline from ``deadlines_h`` and a budget from
    ``budgets`` (``None`` entries mean "constraint absent", selecting
    the frontier / min-budget / min-deadline query kinds).  Grid
    fields (``model``, ``images``, ``instances_per_type``,
    ``catalog``) are fixed across the mixture so every query plans
    over the *same* evaluated space — the warm-cache regime the
    control plane is sized for.
    """

    model: str = "caffenet"
    metric: str = "top5"
    targets: tuple[float, ...] = (78.0, 80.0)
    deadlines_h: tuple[float | None, ...] = (None, 6.0, 12.0)
    budgets: tuple[float | None, ...] = (None, 100.0)
    images: int = 20_000_000
    instances_per_type: int = 2
    catalog: tuple[str, ...] | None = None
    seed: int = 0

    def requests(self, n: int) -> list[PlanRequest]:
        """The first ``n`` requests of this mixture's trace."""
        rng = np.random.default_rng(self.seed)
        targets = rng.choice(np.asarray(self.targets, dtype=float), size=n)
        deadline_picks = rng.integers(0, len(self.deadlines_h), size=n)
        budget_picks = rng.integers(0, len(self.budgets), size=n)
        return [
            PlanRequest(
                target=float(targets[i]),
                model=self.model,
                metric=self.metric,
                deadline_h=self.deadlines_h[deadline_picks[i]],
                budget=self.budgets[budget_picks[i]],
                images=self.images,
                instances_per_type=self.instances_per_type,
                catalog=self.catalog,
            )
            for i in range(n)
        ]


# ----------------------------------------------------------------------
# targets
# ----------------------------------------------------------------------
def _parse_answer(payload: bytes) -> tuple[float | None, str | None]:
    """Pull ``(headline cost, error code)`` out of a response body.

    Either side may be ``None`` — an error body has no plan points, a
    frontier answer has no error, and garbage bytes have neither.
    """
    try:
        decoded = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None, None
    if not isinstance(decoded, dict):
        return None, None
    cost = error_code = None
    error = decoded.get("error")
    if isinstance(error, dict) and "code" in error:
        error_code = str(error["code"])
    points = decoded.get("points")
    if isinstance(points, list) and points:
        try:
            cost = float(points[0]["cost"])
        except (KeyError, TypeError, ValueError):
            cost = None
    return cost, error_code


class InProcessTarget:
    """Drive a :class:`~repro.service.server.PlanningService` directly.

    No sockets: ``send`` calls ``dispatch`` on the calling thread, so
    the measured latency is pure control-plane work.  Cache counters
    are read from the current observability scope.
    """

    def __init__(self, service=None) -> None:
        if service is None:
            from repro.service.server import PlanningService

            service = PlanningService()
        self.service = service

    def send(self, body: bytes) -> int:
        """POST one plan request; returns the HTTP status."""
        status, _, _ = self.service.dispatch("POST", "/v1/plan", body)
        return status

    def probe(self, body: bytes) -> tuple[int, float | None, str | None]:
        """POST one plan request; returns (status, cost, error code)."""
        status, _, payload = self.service.dispatch(
            "POST", "/v1/plan", body
        )
        cost, error_code = _parse_answer(payload)
        return status, cost, error_code

    def cache_counters(self) -> dict[str, int]:
        """Current evaluation-space hit/miss counters."""
        from repro.obs import get_metrics

        counters = get_metrics().snapshot().get("counters", {})
        return {k: int(counters.get(k, 0)) for k in _CACHE_COUNTERS}


#: synthetic status for requests that failed below HTTP (refused /
#: reset / truncated connections, timeouts) — counts as an error in
#: :class:`LoadReport` instead of aborting the whole replay
TRANSPORT_ERROR_STATUS = 599


class HttpTarget:
    """Drive a live server over HTTP (stdlib ``urllib`` per request)."""

    def __init__(self, base_url: str, *, timeout_s: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s

    def send(self, body: bytes) -> int:
        """POST one plan request; returns the HTTP status.

        Transport failures (connection refused/reset, timeouts,
        truncated responses) come back as
        :data:`TRANSPORT_ERROR_STATUS` — an open-loop harness must
        record a dropped connection as a data point, not die on it.
        """
        request = urllib.request.Request(
            f"{self.base_url}/v1/plan",
            data=body,
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        status, _, _ = self.probe(body)
        return status

    def probe(self, body: bytes) -> tuple[int, float | None, str | None]:
        """POST one plan request; returns (status, cost, error code).

        Transport failures report the error code ``"transport"``.
        """
        request = urllib.request.Request(
            f"{self.base_url}/v1/plan",
            data=body,
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout_s
            ) as response:
                payload, status = response.read(), response.status
        except urllib.error.HTTPError as exc:
            payload, status = exc.read(), exc.code
        except (urllib.error.URLError, http.client.HTTPException, OSError):
            return TRANSPORT_ERROR_STATUS, None, "transport"
        cost, error_code = _parse_answer(payload)
        return status, cost, error_code

    def cache_counters(self) -> dict[str, int]:
        """Scrape ``/v1/metrics`` and parse the evaluation counters."""
        from repro.obs.export import metric_name

        with urllib.request.urlopen(
            f"{self.base_url}/v1/metrics", timeout=self.timeout_s
        ) as response:
            text = response.read().decode("utf-8")
        wanted = {
            f"{metric_name(name)}_total": name for name in _CACHE_COUNTERS
        }
        out = {name: 0 for name in _CACHE_COUNTERS}
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            sample, _, value = line.rpartition(" ")
            if sample in wanted:
                out[wanted[sample]] = int(float(value))
        return out


# ----------------------------------------------------------------------
# the report
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LoadReport(LatencyStats):
    """What one load run measured.

    Latencies are completion minus *scheduled* arrival, in seconds —
    open-loop, so a saturated control plane shows up as queueing delay
    rather than reduced throughput.  The percentiles come from
    :class:`~repro.serving.metrics.LatencyStats`.
    """

    requests: int
    wall_s: float
    latencies_s: np.ndarray = field(repr=False)
    status_counts: dict[int, int]
    cache_hits: int
    cache_misses: int
    #: API error code -> count (``"overloaded"`` sheds vs
    #: ``"invalid_request"`` rejects vs ``"transport"`` drops are
    #: distinguishable even when statuses collide)
    error_codes: dict[str, int] = field(default_factory=dict)
    #: headline cost of each 200 answer, in arrival order
    costs: np.ndarray = field(
        default_factory=lambda: np.empty(0), repr=False
    )

    @property
    def qps(self) -> float:
        """Completed requests per second of wall time."""
        return self.requests / self.wall_s if self.wall_s else 0.0

    @property
    def ok(self) -> int:
        """Requests answered 200."""
        return self.status_counts.get(200, 0)

    @property
    def errors(self) -> int:
        """Requests answered anything but 200 or 422 (infeasible
        answers are valid planning outcomes, not harness errors)."""
        return sum(
            n
            for status, n in self.status_counts.items()
            if status not in (200, 422)
        )

    @property
    def cache_hit_ratio(self) -> float:
        """Evaluation-cache hits over total probes during the run."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def summary(self) -> dict:
        """JSON-ready headline numbers."""
        return {
            "requests": self.requests,
            "wall_s": self.wall_s,
            "qps": self.qps,
            "p50_ms": self.p50 * 1e3,
            "p95_ms": self.p95 * 1e3,
            "p99_ms": self.p99 * 1e3,
            "status": {
                str(k): v for k, v in sorted(self.status_counts.items())
            },
            "errors": self.errors,
            "error_codes": dict(sorted(self.error_codes.items())),
            "mean_cost": (
                float(self.costs.mean()) if self.costs.size else None
            ),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_ratio": self.cache_hit_ratio,
        }

    def render(self) -> str:
        """Human-readable report block."""
        status = "  ".join(
            f"{k}:{v}" for k, v in sorted(self.status_counts.items())
        )
        lines = [
            f"requests  : {self.requests} in {self.wall_s:.2f}s "
            f"({self.qps:.0f} qps)",
            f"latency   : p50 {self.p50 * 1e3:.2f}ms  "
            f"p95 {self.p95 * 1e3:.2f}ms  "
            f"p99 {self.p99 * 1e3:.2f}ms",
            f"status    : {status}",
            f"cache     : {self.cache_hits} hits / "
            f"{self.cache_misses} misses "
            f"({self.cache_hit_ratio:.1%} hit ratio)",
        ]
        if self.error_codes:
            codes = "  ".join(
                f"{k}:{v}" for k, v in sorted(self.error_codes.items())
            )
            lines.append(f"errors    : {codes}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# the generator
# ----------------------------------------------------------------------
def run_load(
    target,
    mixture: PlanMixture,
    *,
    rate_per_s: float,
    duration_s: float | None = None,
    n_requests: int | None = None,
    arrival: str = "uniform",
    seed: int | None = None,
    max_workers: int = 32,
) -> LoadReport:
    """Replay an open-loop planning trace against ``target``.

    Exactly one of ``duration_s`` / ``n_requests`` sizes the trace
    (``n_requests`` derives the duration from the rate, which keeps
    the request count — and therefore every cache counter —
    deterministic).  ``seed`` defaults to the mixture's.
    """
    if (duration_s is None) == (n_requests is None):
        raise ApiError(
            "invalid_request",
            "pass exactly one of duration_s / n_requests",
        )
    if rate_per_s <= 0:
        raise ApiError(
            "invalid_request", f"rate must be positive, got {rate_per_s}"
        )
    if arrival not in ARRIVALS:
        raise ApiError(
            "invalid_request",
            f"unknown arrival process {arrival!r}; "
            f"available: {sorted(ARRIVALS)}",
        )
    if n_requests is not None:
        duration_s = n_requests / rate_per_s
    arrivals = ARRIVALS[arrival](
        rate_per_s,
        duration_s,
        seed=mixture.seed if seed is None else seed,
    )
    if n_requests is not None:
        if arrivals.size < n_requests:
            extra = np.linspace(
                float(arrivals[-1]) if arrivals.size else 0.0,
                duration_s,
                num=n_requests - arrivals.size,
            )
            arrivals = np.concatenate([arrivals, extra])
        arrivals = arrivals[:n_requests]
    if arrivals.size == 0:
        raise ApiError(
            "invalid_request",
            "trace is empty; raise the rate or the duration",
        )
    requests = mixture.requests(arrivals.size)
    bodies = [
        json.dumps(r.to_dict(), sort_keys=True).encode("utf-8")
        for r in requests
    ]
    before = target.cache_counters()
    statuses, latencies, costs, codes, wall = asyncio.run(
        _replay(target, bodies, arrivals, max_workers)
    )
    after = target.cache_counters()
    status_counts: dict[int, int] = {}
    for status in statuses:
        status_counts[status] = status_counts.get(status, 0) + 1
    error_codes: dict[str, int] = {}
    for code in codes:
        if code is not None:
            error_codes[code] = error_codes.get(code, 0) + 1
    return LoadReport(
        requests=len(bodies),
        wall_s=wall,
        latencies_s=np.asarray(latencies, dtype=float),
        status_counts=status_counts,
        cache_hits=after["evalspace.cache_hits"]
        - before["evalspace.cache_hits"],
        cache_misses=after["evalspace.cache_misses"]
        - before["evalspace.cache_misses"],
        error_codes=error_codes,
        costs=np.asarray(
            [c for c in costs if c is not None], dtype=float
        ),
    )


async def _replay(
    target, bodies: list[bytes], arrivals: np.ndarray, max_workers: int
):
    """Issue every request at its arrival offset; gather latencies."""
    loop = asyncio.get_running_loop()
    n = len(bodies)
    statuses: list[int] = [0] * n
    latencies: list[float] = [0.0] * n
    costs: list[float | None] = [None] * n
    codes: list[str | None] = [None] * n
    probe = getattr(target, "probe", None)
    if probe is None:
        # bare targets (test stubs) only answer a status
        def probe(body, _send=target.send):
            return _send(body), None, None

    start = time.perf_counter()

    async def one(index: int, offset: float, body: bytes) -> None:
        delay = offset - (time.perf_counter() - start)
        if delay > 0:
            await asyncio.sleep(delay)
        scheduled = start + offset
        statuses[index], costs[index], codes[index] = (
            await loop.run_in_executor(executor, probe, body)
        )
        latencies[index] = time.perf_counter() - scheduled

    with ThreadPoolExecutor(max_workers=max_workers) as executor:
        await asyncio.gather(
            *(
                one(i, float(t), body)
                for i, (t, body) in enumerate(zip(arrivals, bodies))
            )
        )
    return statuses, latencies, costs, codes, time.perf_counter() - start


# ----------------------------------------------------------------------
# sustained soak
# ----------------------------------------------------------------------
#: what each soak metric's detector watches.  Latency is guarded on the
#: *median* with a 100% relative floor AND a 50ms absolute sigma floor:
#: a raise needs the median to sustain >= 5x its baseline and to move
#: by hundreds of milliseconds, so wall-clock jitter on a busy CI box
#: cannot page, while a real regression (a stalled cache, a saturated
#: executor, an injected latency tax) still does.  Costs and rates are
#: deterministic given the seed, so they keep tight floors.
SOAK_POLICIES: dict[str, AnomalyPolicy] = {
    "latency_s": AnomalyPolicy(
        stat="p50", rel_floor=1.0, min_sigma=0.05
    ),
    "cost": AnomalyPolicy(stat="mean"),
    "error_rate": AnomalyPolicy(stat="mean", min_sigma=0.02),
    "shed_rate": AnomalyPolicy(stat="mean", min_sigma=0.02),
    "cache_hit_ratio": AnomalyPolicy(stat="mean", min_sigma=0.02),
}

#: first-vs-last relative change beyond which a metric counts as
#: drifting ("did sustained operation degrade it"), provided the
#: absolute change also exceeds its detector's ``min_sigma``
DRIFT_TOLERANCE = 0.5


@dataclass(frozen=True)
class SoakInjection:
    """A deterministic mid-run perturbation for soak demos and tests.

    While the run's progress fraction is in ``[start_frac, end_frac)``
    the harness switches to ``mixture`` (when given — e.g. a
    fault-plan mixture whose requests the service rejects), multiplies
    observed costs by ``cost_scale`` (a simulated spot-price step) and
    adds ``extra_latency_s`` to observed latencies.  A pulse that ends
    before the run does should produce exactly one
    ``anomaly.raise``/``anomaly.resolve`` pair on the stepped metric.
    """

    start_frac: float = 1.0 / 3.0
    end_frac: float = 2.0 / 3.0
    mixture: PlanMixture | None = None
    cost_scale: float = 1.0
    extra_latency_s: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.start_frac < self.end_frac <= 1.0:
            raise ApiError(
                "invalid_request",
                "need 0 <= start_frac < end_frac <= 1, got "
                f"[{self.start_frac}, {self.end_frac})",
            )
        if self.cost_scale <= 0:
            raise ApiError(
                "invalid_request",
                f"cost_scale must be positive, got {self.cost_scale}",
            )
        if self.extra_latency_s < 0:
            raise ApiError(
                "invalid_request",
                "extra_latency_s must be >= 0, got "
                f"{self.extra_latency_s}",
            )

    def active(self, frac: float) -> bool:
        """Is the pulse live at progress fraction ``frac``?"""
        return self.start_frac <= frac < self.end_frac


@dataclass(frozen=True)
class DriftVerdict:
    """Did one metric drift between the start and the end of the soak?

    ``first`` and ``last`` are the metric's watched statistic averaged
    over the head and tail window slices; ``rel_change`` is their
    relative difference against the head (``inf`` when the head is
    zero and the tail is not).
    """

    metric: str
    stat: str
    first: float
    last: float
    rel_change: float
    drifting: bool

    def as_dict(self) -> dict:
        """JSON-ready row."""
        return {
            "metric": self.metric,
            "stat": self.stat,
            "first": self.first,
            "last": self.last,
            "rel_change": self.rel_change,
            "drifting": self.drifting,
        }


@dataclass(frozen=True)
class SoakReport:
    """What a sustained soak run measured.

    ``windows`` is every closed :class:`WindowSnapshot` across every
    metric; ``anomaly_events`` the raise/resolve stream; ``verdicts``
    the per-metric first-vs-last drift calls.  :attr:`ok` means the
    run ended quiet: nothing drifted, nothing raised.
    """

    duration_s: float
    window_s: float
    requests: int
    windows: tuple[WindowSnapshot, ...] = field(repr=False)
    anomaly_events: tuple[dict, ...]
    verdicts: tuple[DriftVerdict, ...]

    @property
    def drifting(self) -> tuple[str, ...]:
        """Metrics whose drift verdict came back positive."""
        return tuple(v.metric for v in self.verdicts if v.drifting)

    @property
    def flagged(self) -> tuple[str, ...]:
        """Metrics implicated by either path — an anomaly event during
        the run or a positive end-to-end drift verdict."""
        names = set(self.drifting)
        names.update(e["metric"] for e in self.anomaly_events)
        return tuple(sorted(names))

    @property
    def raise_resolve_pairs(self) -> dict[str, tuple[int, int]]:
        """Per metric: (raises, resolves) observed during the run."""
        out: dict[str, tuple[int, int]] = {}
        for event in self.anomaly_events:
            raises, resolves = out.get(event["metric"], (0, 0))
            if event["kind"] == "anomaly.raise":
                raises += 1
            else:
                resolves += 1
            out[event["metric"]] = (raises, resolves)
        return out

    @property
    def ok(self) -> bool:
        """True when the soak ended quiet (no drift, no anomalies)."""
        return not self.flagged

    def summary(self) -> dict:
        """JSON-ready headline view (the ``--json`` body)."""
        return {
            "duration_s": self.duration_s,
            "window_s": self.window_s,
            "requests": self.requests,
            "windows": len(self.windows),
            "ok": self.ok,
            "flagged": list(self.flagged),
            "anomaly_events": list(self.anomaly_events),
            "verdicts": [v.as_dict() for v in self.verdicts],
        }

    def window_rows(self) -> list[dict]:
        """Every closed window as a JSON row (the metrics artifact)."""
        return [w.as_dict() for w in self.windows]

    def render(self) -> str:
        """Human-readable soak verdict block."""
        lines = [
            f"soak      : {self.requests} requests over "
            f"{self.duration_s:.0f}s in {self.window_s:g}s windows "
            f"({len(self.windows)} closed)",
        ]
        for verdict in self.verdicts:
            flag = "DRIFT" if verdict.drifting else "ok"
            lines.append(
                f"  {verdict.metric:<16} {verdict.stat:<5} "
                f"{verdict.first:.4g} -> {verdict.last:.4g} "
                f"({verdict.rel_change:+.1%})  {flag}"
            )
        if self.anomaly_events:
            for event in self.anomaly_events:
                lines.append(
                    f"  {event['kind']:<16} {event['metric']} "
                    f"window {event['window']} (z={event['z']:+.1f})"
                )
        else:
            lines.append("  no anomalies raised")
        lines.append(f"verdict   : {'ok' if self.ok else 'DEGRADED'}")
        return "\n".join(lines)


def _drift_verdicts(
    pipeline: TelemetryPipeline, tolerance: float
) -> tuple[DriftVerdict, ...]:
    """First-vs-last drift calls over every watched series."""
    verdicts = []
    for name, series in sorted(pipeline.series.items()):
        detector = pipeline.detectors.get(name)
        stat = detector.policy.stat if detector is not None else "mean"
        # the detector's own absolute floor: a move smaller than the
        # jitter it ignores is not drift either, however large relative
        # to a near-zero head (2.7 ms -> 1.5 ms of latency)
        floor = detector.policy.min_sigma if detector is not None else 0.0
        rows = [
            w
            for w in series.windows
            if w.count > 0 and math.isfinite(w.stat(stat))
        ]
        if len(rows) < 2:
            continue
        # head/tail slices: up to a minute each, at most a third of
        # the run so they never overlap
        k = max(1, min(len(rows) // 3, int(60.0 / series.window_s)))
        first = float(np.mean([w.stat(stat) for w in rows[:k]]))
        last = float(np.mean([w.stat(stat) for w in rows[-k:]]))
        if first != 0.0:
            rel = (last - first) / abs(first)
        else:
            rel = math.inf if last != 0.0 else 0.0
        verdicts.append(
            DriftVerdict(
                metric=name,
                stat=stat,
                first=first,
                last=last,
                rel_change=rel,
                drifting=abs(last - first)
                > max(tolerance * abs(first), floor),
            )
        )
    return tuple(verdicts)


def run_soak(
    target,
    mixture: PlanMixture,
    *,
    rate_per_s: float,
    duration_s: float,
    window_s: float = 1.0,
    arrival: str = "uniform",
    seed: int | None = None,
    inject: SoakInjection | None = None,
    drift_tolerance: float = DRIFT_TOLERANCE,
    max_workers: int = 32,
) -> SoakReport:
    """Sustained soak: replay the trace window by window, streaming
    each chunk into windowed detectors, and verdict the drift.

    The trace is chunked into ``duration_s / window_s`` windows of
    ``round(rate * window_s)`` requests each (chunk ``w`` reseeded as
    ``seed + w``, so the offered load is deterministic end to end).
    Chunk observations are stamped mid-window at *scheduled* stream
    time — the stream clock advances with the trace, not the wall, so
    two soaks of the same seed land every observation in the same
    window regardless of machine speed.  ``inject`` perturbs the
    middle of the run; see :class:`SoakInjection`.
    """
    if duration_s <= 0:
        raise ApiError(
            "invalid_request",
            f"duration_s must be positive, got {duration_s}",
        )
    if window_s <= 0:
        raise ApiError(
            "invalid_request",
            f"window_s must be positive, got {window_s}",
        )
    n_windows = max(1, int(round(duration_s / window_s)))
    per_window = max(1, int(round(rate_per_s * window_s)))
    base_seed = mixture.seed if seed is None else seed
    pipeline = TelemetryPipeline(window_s=window_s)
    for name, policy in SOAK_POLICIES.items():
        pipeline.watch(name, policy)
    total = 0
    for w in range(n_windows):
        frac = w / n_windows
        injecting = inject is not None and inject.active(frac)
        chunk_mixture = mixture
        if injecting and inject.mixture is not None:
            chunk_mixture = inject.mixture
        chunk_mixture = replace(chunk_mixture, seed=base_seed + w)
        report = run_load(
            target,
            chunk_mixture,
            rate_per_s=rate_per_s,
            n_requests=per_window,
            arrival=arrival,
            seed=base_seed + w,
            max_workers=max_workers,
        )
        total += report.requests
        t = (w + 0.5) * window_s
        latencies = report.latencies_s
        if injecting and inject.extra_latency_s:
            latencies = latencies + inject.extra_latency_s
        pipeline.observe_many("latency_s", t, latencies.tolist())
        costs = report.costs
        if injecting and inject.cost_scale != 1.0:
            costs = costs * inject.cost_scale
        if costs.size:
            pipeline.observe_many("cost", t, costs.tolist())
        shed = report.status_counts.get(503, 0)
        pipeline.observe_many(
            "shed_rate",
            t,
            [1.0] * shed + [0.0] * (report.requests - shed),
        )
        pipeline.observe_many(
            "error_rate",
            t,
            [1.0] * report.errors
            + [0.0] * (report.requests - report.errors),
        )
        if report.cache_hits + report.cache_misses > 0:
            pipeline.observe(
                "cache_hit_ratio", t, report.cache_hit_ratio
            )
    pipeline.flush()
    windows = tuple(
        w
        for _, series in sorted(pipeline.series.items())
        for w in series.windows
    )
    return SoakReport(
        duration_s=n_windows * window_s,
        window_s=window_s,
        requests=total,
        windows=windows,
        anomaly_events=tuple(pipeline.anomaly_events()),
        verdicts=_drift_verdicts(pipeline, drift_tolerance),
    )
