"""Per-request serving telemetry: histograms, gauges and SLO monitors.

The serving simulators historically exposed only end-of-run aggregates
(a latency array on the report).  This module is the streaming view a
real serving fleet would export — built so a simulator can feed it from
inside the event loop without per-request object retention:

* :class:`LatencyHistogram` — fixed exponential buckets, O(1) per
  observation, percentile estimates by linear interpolation inside the
  bucket.  No sample list ever grows with traffic.
* :class:`GaugeStat` — streaming last/min/max/mean of a sampled gauge
  (queue depth at dispatch, batch occupancy).
* :class:`SloMonitor` — a sliding window (ring of coarse time buckets)
  over request outcomes, computing **burn rates** for two SLOs: an
  availability target (drops burn error budget) and a latency quantile
  target (requests slower than the threshold burn budget).  Burn rate
  is window error rate divided by error budget — 1.0 means errors are
  arriving exactly as fast as the SLO tolerates.  Alerts are
  edge-triggered: one ``slo.alert`` event on the bus when a burn rate
  crosses the policy's threshold, one ``slo.resolve`` when it clears.
* :class:`ServingTelemetry` — the bundle a simulator run carries; its
  :meth:`~ServingTelemetry.finalize` publishes the headline gauges
  (p50/p95/p99, peak queue depth, availability, goodput) into the
  current :class:`~repro.obs.metrics.MetricsRegistry` so every exporter
  sees them.

:func:`record_report_gauges` is the one source of truth mapping a
serving/autoscale report's goodput accounting onto registry gauges —
used by both simulators and by
:func:`repro.serving.metrics.availability_summary`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.events import get_event_bus
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "GaugeStat",
    "LatencyHistogram",
    "ServingTelemetry",
    "SloMonitor",
    "SloPolicy",
    "record_report_gauges",
]

#: 1 ms .. ~197 s in quarter-powers of two — wide enough for every
#: calibrated model at every load this repo simulates.  The 19% bucket
#: growth bounds the in-bucket interpolation error of any percentile to
#: the same 19%, at 72 buckets (576 bytes of counters).
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = tuple(
    0.001 * 2.0 ** (i / 4.0) for i in range(72)
)


class LatencyHistogram:
    """Streaming bucketed distribution; no per-request retention.

    ``bounds`` are the inclusive upper edges of the finite buckets; one
    overflow bucket catches everything beyond the last bound.  Memory
    is ``len(bounds) + 1`` integers regardless of traffic.
    """

    __slots__ = ("bounds", "counts", "count", "total", "_max", "_min")

    def __init__(
        self, bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS
    ) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ConfigurationError(
                "histogram bounds must be strictly increasing"
            )
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self._max = float("-inf")
        self._min = float("inf")

    # ------------------------------------------------------------------
    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value > self._max:
            self._max = value
        if value < self._min:
            self._min = value

    def observe_many(self, values) -> None:
        for value in values:
            self.observe(value)

    def observe_array(self, values: np.ndarray) -> None:
        """Observe a whole latency array in one columnar pass.

        Bucket counts come from ``np.searchsorted`` + ``np.bincount``
        (the same comparisons ``bisect_right`` makes, so the counts are
        identical); the running ``total`` is accumulated in array order
        so the float sum is bit-identical to calling :meth:`observe`
        once per element.
        """
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            return
        indices = np.searchsorted(self.bounds, values, side="right")
        per_bucket = np.bincount(indices, minlength=len(self.counts))
        for i, n in enumerate(per_bucket.tolist()):
            self.counts[i] += n
        self.count += int(values.size)
        # np.cumsum is a sequential left-to-right scan (unlike np.sum's
        # pairwise reduction), so seeding it with the running total
        # reproduces the scalar accumulation bit for bit
        self.total = float(
            np.cumsum(np.concatenate(([self.total], values)))[-1]
        )
        high = float(values.max())
        low = float(values.min())
        if high > self._max:
            self._max = high
        if low < self._min:
            self._min = low

    # ------------------------------------------------------------------
    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    @property
    def max(self) -> float:
        return self._max if self.count else float("nan")

    @property
    def min(self) -> float:
        return self._min if self.count else float("nan")

    def percentile(self, q: float) -> float:
        """Estimated percentile (linear interpolation in-bucket).

        Exact to within one bucket's width; the overflow bucket reports
        the observed maximum.  ``nan`` with no observations.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"q must be in [0, 100], got {q}")
        if self.count == 0:
            return float("nan")
        target = self.count * q / 100.0
        cumulative = 0
        for i, n in enumerate(self.counts):
            if n == 0:
                continue
            if cumulative + n >= target:
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = (
                    self.bounds[i]
                    if i < len(self.bounds)
                    else self._max
                )
                lo = max(lo, self._min) if i == 0 else lo
                frac = (target - cumulative) / n
                return lo + (hi - lo) * min(max(frac, 0.0), 1.0)
            cumulative += n
        return self._max

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def summary(self) -> dict[str, float | int]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }

    def as_dict(self) -> dict[str, object]:
        """JSON-ready bucket dump (bounds + counts + overflow)."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
        }


class GaugeStat:
    """Streaming last/min/max/mean over sampled gauge values."""

    __slots__ = ("name", "count", "total", "last", "_max", "_min")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.last: float | None = None
        self._max = float("-inf")
        self._min = float("inf")

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.last = value
        if value > self._max:
            self._max = value
        if value < self._min:
            self._min = value

    def observe_stream(self, values) -> None:
        """Observe a whole sequence in order, bit-identical to repeated
        :meth:`observe` calls.

        The running ``total`` is seeded into ``np.cumsum`` — a
        sequential left-to-right scan (unlike ``np.sum``'s pairwise
        reduction), so the accumulation is bit-identical to
        element-by-element float addition (the same argument
        :meth:`LatencyHistogram.observe_array` rests on) — while
        min/max reduce in one pass, order-independent for the finite
        values gauges carry.
        """
        if not isinstance(values, (list, tuple, np.ndarray)):
            values = list(values)
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            return
        self.count += int(arr.size)
        self.total = float(
            np.cumsum(np.concatenate(([self.total], arr)))[-1]
        )
        self.last = float(arr[-1])
        hi = float(arr.max())
        lo = float(arr.min())
        if hi > self._max:
            self._max = hi
        if lo < self._min:
            self._min = lo

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    @property
    def max(self) -> float:
        return self._max if self.count else float("nan")

    @property
    def min(self) -> float:
        return self._min if self.count else float("nan")

    def summary(self) -> dict[str, float | int | None]:
        return {
            "count": self.count,
            "last": self.last,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
        }


# ----------------------------------------------------------------------
# SLO monitoring
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SloPolicy:
    """What the fleet promised, and when to page about it.

    Attributes
    ----------
    latency_slo_s:
        The latency threshold of the quantile SLO (e.g. "p99 <= 2 s").
    latency_quantile:
        The promised quantile, in (0, 1).  ``0.99`` means up to 1% of
        requests may legitimately exceed ``latency_slo_s``.
    availability_target:
        Fraction of offered requests that must be served, in (0, 1).
    window_s, bucket_s:
        Sliding-window length and its bucket granularity.
    burn_alert:
        Alert when a burn rate reaches this multiple of budget-neutral
        consumption (1.0 = "errors exactly as fast as the SLO allows";
        SRE practice pages at several multiples of that).
    min_requests:
        Suppress evaluation until the window holds this many requests,
        so one slow request in an idle second does not page.
    """

    latency_slo_s: float
    latency_quantile: float = 0.99
    availability_target: float = 0.999
    window_s: float = 10.0
    bucket_s: float = 1.0
    burn_alert: float = 2.0
    min_requests: int = 20

    def __post_init__(self) -> None:
        if self.latency_slo_s <= 0:
            raise ConfigurationError("latency SLO must be positive")
        if not 0 < self.latency_quantile < 1:
            raise ConfigurationError("latency quantile must be in (0,1)")
        if not 0 < self.availability_target < 1:
            raise ConfigurationError(
                "availability target must be in (0,1)"
            )
        if self.bucket_s <= 0 or self.window_s < self.bucket_s:
            raise ConfigurationError(
                "need window_s >= bucket_s > 0"
            )
        if self.burn_alert <= 0:
            raise ConfigurationError("burn_alert must be positive")
        if self.min_requests < 1:
            raise ConfigurationError("min_requests must be >= 1")


class SloMonitor:
    """Sliding-window burn-rate monitor over request outcomes.

    Feed it completions (:meth:`record_served`) and losses
    (:meth:`record_dropped`) in event-time order; it keeps a ring of
    ``window_s / bucket_s`` coarse buckets, evaluates both burn rates
    after every bucket update, and raises/clears edge-triggered alerts.
    Memory and per-event work are O(1).
    """

    def __init__(self, policy: SloPolicy) -> None:
        self.policy = policy
        # ring buckets: deque of [bucket_index, requests, drops, slow]
        self._buckets: deque[list] = deque()
        self._requests = 0  # rolling window sums
        self._drops = 0
        self._slow = 0
        self._alerting: dict[str, bool] = {
            "availability": False,
            "latency": False,
        }
        self.alerts: list[dict] = []

    # ------------------------------------------------------------------
    def record_served(self, now: float, latency_s: float) -> None:
        self._record(now, slow=latency_s > self.policy.latency_slo_s)

    def record_dropped(self, now: float, n: int = 1) -> None:
        for _ in range(n):
            self._record(now, dropped=True)

    # ------------------------------------------------------------------
    def record_stream(
        self,
        times: np.ndarray,
        dropped: np.ndarray,
        slow: np.ndarray,
    ) -> None:
        """Replay a whole outcome stream in one columnar pass.

        ``times`` must be nondecreasing (the event-time-order contract
        of :meth:`record_served`/:meth:`record_dropped`); ``dropped``
        and ``slow`` are aligned boolean arrays.  The replay is exact:
        window sums, burn rates, edge-triggered alerts and the final
        ring state are bit-identical to feeding the stream one record
        at a time — the per-event Python loop is replaced by cumulative
        sums and ``np.searchsorted`` window lookups, and only the (rare)
        alert edges fall back to scalar bookkeeping.
        """
        times = np.asarray(times, dtype=float)
        if times.size == 0:
            return
        dropped = np.asarray(dropped, dtype=bool)
        slow = np.asarray(slow, dtype=bool)
        policy = self.policy
        wb = int(policy.window_s / policy.bucket_s)
        bucket = np.floor_divide(times, policy.bucket_s).astype(np.int64)
        horizon = bucket - wb
        # prior ring state (buckets recorded before this stream); the
        # common single-shot ingest starts from an empty ring, where
        # every prior window sum is a scalar zero
        prior = [list(b) for b in self._buckets]
        if prior:
            prior_idx = np.array([b[0] for b in prior], dtype=np.int64)
            prior_req = np.array([b[1] for b in prior], dtype=np.int64)
            prior_drop = np.array([b[2] for b in prior], dtype=np.int64)
            prior_slow = np.array([b[3] for b in prior], dtype=np.int64)
            # prior buckets surviving event i's expiry: index > horizon_i
            keep = np.searchsorted(prior_idx, horizon, side="right")
            prior_req_w = prior_req.sum() - np.concatenate(
                ([0], np.cumsum(prior_req))
            )[keep]
            prior_drop_w = prior_drop.sum() - np.concatenate(
                ([0], np.cumsum(prior_drop))
            )[keep]
            prior_slow_w = prior_slow.sum() - np.concatenate(
                ([0], np.cumsum(prior_slow))
            )[keep]
        else:
            prior_req_w = prior_drop_w = prior_slow_w = 0
        # stream events in event i's window: first j with bucket_j > horizon_i
        start = np.searchsorted(bucket, horizon, side="right")
        cum_drop = np.cumsum(dropped.astype(np.int64))
        cum_slow = np.cumsum(slow.astype(np.int64))
        i = np.arange(times.size)
        req_w = prior_req_w + (i - start + 1)
        drop_w = prior_drop_w + cum_drop - np.where(
            start > 0, cum_drop[start - 1], 0
        )
        slow_w = prior_slow_w + cum_slow - np.where(
            start > 0, cum_slow[start - 1], 0
        )
        burns = {
            "availability": (drop_w / req_w)
            / (1.0 - policy.availability_target),
            "latency": (slow_w / req_w) / (1.0 - policy.latency_quantile),
        }
        evaluated = np.flatnonzero(req_w >= policy.min_requests)
        # edge-triggered alerts: only the state *transitions* on the
        # evaluated subsequence matter, and diff finds them in one pass
        edges: list[tuple[int, int, str, bool]] = []
        for rank, slo in enumerate(("availability", "latency")):
            state = self._alerting[slo]
            firing = burns[slo][evaluated] >= policy.burn_alert
            flips = np.flatnonzero(
                np.diff(
                    np.concatenate(([state], firing)).astype(np.int8)
                )
            )
            for k in flips.tolist():
                state = bool(firing[k])
                edges.append((int(evaluated[k]), rank, slo, state))
            self._alerting[slo] = state
        edges.sort(key=lambda e: (e[0], e[1]))
        for j, _, slo, firing in edges:
            alert = {
                "kind": "slo.alert" if firing else "slo.resolve",
                "slo": slo,
                "at_s": float(times[j]),
                "burn_rate": float(burns[slo][j]),
                "window_requests": int(req_w[j]),
                "window_drops": int(drop_w[j]),
                "window_slow": int(slow_w[j]),
            }
            self.alerts.append(alert)
            get_event_bus().emit(alert["kind"], **alert)
        # final rolling sums + ring: the last event's window
        self._requests = int(req_w[-1])
        self._drops = int(drop_w[-1])
        self._slow = int(slow_w[-1])
        ring: dict[int, list[int]] = {
            int(b[0]): [int(b[1]), int(b[2]), int(b[3])]
            for b in prior
            if b[0] > horizon[-1]
        }
        tail = slice(int(start[-1]), times.size)
        uniq, inverse = np.unique(bucket[tail], return_inverse=True)
        req_by = np.bincount(inverse)
        drop_by = np.bincount(inverse, weights=dropped[tail]).astype(
            np.int64
        )
        slow_by = np.bincount(inverse, weights=slow[tail]).astype(
            np.int64
        )
        for idx, req, drp, slw in zip(uniq, req_by, drop_by, slow_by):
            entry = ring.setdefault(int(idx), [0, 0, 0])
            entry[0] += int(req)
            entry[1] += int(drp)
            entry[2] += int(slw)
        self._buckets = deque([i, *ring[i]] for i in sorted(ring))

    def _record(
        self, now: float, *, dropped: bool = False, slow: bool = False
    ) -> None:
        index = int(now // self.policy.bucket_s)
        if not self._buckets or self._buckets[-1][0] != index:
            self._buckets.append([index, 0, 0, 0])
        bucket = self._buckets[-1]
        bucket[1] += 1
        bucket[2] += dropped
        bucket[3] += slow
        self._requests += 1
        self._drops += dropped
        self._slow += slow
        # expire buckets that fell out of the window
        horizon = index - int(
            self.policy.window_s / self.policy.bucket_s
        )
        while self._buckets and self._buckets[0][0] <= horizon:
            _, requests, drops, slow_n = self._buckets.popleft()
            self._requests -= requests
            self._drops -= drops
            self._slow -= slow_n
        self._evaluate(now)

    # ------------------------------------------------------------------
    def burn_rates(self) -> dict[str, float]:
        """Current window burn rate per SLO (0.0 with no traffic)."""
        if self._requests == 0:
            return {"availability": 0.0, "latency": 0.0}
        availability_budget = 1.0 - self.policy.availability_target
        latency_budget = 1.0 - self.policy.latency_quantile
        return {
            "availability": (
                self._drops / self._requests / availability_budget
            ),
            "latency": self._slow / self._requests / latency_budget,
        }

    @property
    def burning(self) -> bool:
        """Is any SLO currently in the alert state?"""
        return any(self._alerting.values())

    def _evaluate(self, now: float) -> None:
        if self._requests < self.policy.min_requests:
            return
        for slo, burn in self.burn_rates().items():
            firing = burn >= self.policy.burn_alert
            if firing == self._alerting[slo]:
                continue
            self._alerting[slo] = firing
            alert = {
                "kind": "slo.alert" if firing else "slo.resolve",
                "slo": slo,
                "at_s": now,
                "burn_rate": burn,
                "window_requests": self._requests,
                "window_drops": self._drops,
                "window_slow": self._slow,
            }
            self.alerts.append(alert)
            get_event_bus().emit(alert["kind"], **alert)

    def summary(self) -> dict[str, object]:
        fired = [a for a in self.alerts if a["kind"] == "slo.alert"]
        return {
            "alerts_fired": len(fired),
            "alerts": list(self.alerts),
            "burn_rates": self.burn_rates(),
            "burning": self.burning,
        }


# ----------------------------------------------------------------------
# the bundle a simulator run carries
# ----------------------------------------------------------------------
class ServingTelemetry:
    """Per-request telemetry for one serving simulation.

    Pass an instance to ``ServingSimulator.run(..., telemetry=...)`` or
    ``AutoscalingSimulator.run(..., telemetry=...)``; the event loop
    feeds it and ``finalize()`` publishes the headline gauges.  With no
    telemetry attached (the default) the simulators skip every hook.
    """

    def __init__(
        self,
        slo: SloPolicy | None = None,
        latency_bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        self.latency = LatencyHistogram(latency_bounds)
        self.queue_depth = GaugeStat("queue_depth")
        self.batch_occupancy = GaugeStat("batch_occupancy")
        self.slo = SloMonitor(slo) if slo is not None else None

    # ------------------------------------------------------------------
    # hooks the simulators call (cheap, O(1), no retention)
    def record_served(self, now: float, latency_s: float) -> None:
        self.latency.observe(latency_s)
        if self.slo is not None:
            self.slo.record_served(now, latency_s)

    def record_dropped(self, now: float, n: int = 1) -> None:
        if self.slo is not None:
            self.slo.record_dropped(now, n)

    def record_batch(
        self, now: float, size: int, capacity: int, queued: int
    ) -> None:
        self.batch_occupancy.observe(
            size / capacity if capacity else 0.0
        )
        self.queue_depth.observe(queued)

    def record_batch_stream(self, sizes, capacities, queued) -> None:
        """Record a whole run's dispatch stream in one pass.

        ``sizes``/``capacities``/``queued`` are per-batch sequences in
        dispatch order.  Bit-identical to calling :meth:`record_batch`
        once per batch: the occupancy ratio is computed with the same
        expression and both gauges accumulate in the same order.  The
        batch gauges share no state with the latency/SLO side, so the
        columnar engine may defer this until after the event loop.
        """
        sizes_arr = np.asarray(sizes, dtype=float)
        caps_arr = np.asarray(capacities, dtype=float)
        # elementwise IEEE divide == the scalar `size / cap`; a zero
        # capacity maps to 0.0 exactly like the scalar conditional
        nonzero = caps_arr != 0.0
        ratios = np.where(
            nonzero,
            sizes_arr / np.where(nonzero, caps_arr, 1.0),
            0.0,
        )
        self.batch_occupancy.observe_stream(ratios)
        self.queue_depth.observe_stream(queued)

    def ingest_stream(
        self,
        times: np.ndarray,
        latencies: np.ndarray,
        dropped: np.ndarray,
    ) -> None:
        """Ingest a whole run's outcome stream in one columnar pass.

        ``times`` holds the event-ordered completion/drop timestamps the
        per-event hooks would have seen, ``latencies`` the per-request
        latency (ignored where ``dropped``), ``dropped`` the loss mask.
        Equivalent to calling :meth:`record_served` /
        :meth:`record_dropped` once per element, bit for bit — histogram
        totals, SLO window state and the alert sequence all match the
        scalar path.
        """
        times = np.asarray(times, dtype=float)
        if times.size == 0:
            return
        latencies = np.asarray(latencies, dtype=float)
        dropped = np.asarray(dropped, dtype=bool)
        served = ~dropped
        self.latency.observe_array(latencies[served])
        if self.slo is not None:
            slow = np.zeros(times.size, dtype=bool)
            slow[served] = (
                latencies[served] > self.slo.policy.latency_slo_s
            )
            self.slo.record_stream(times, dropped, slow)

    # ------------------------------------------------------------------
    @property
    def alerts(self) -> tuple[dict, ...]:
        return tuple(self.slo.alerts) if self.slo is not None else ()

    @property
    def alerts_fired(self) -> int:
        return sum(
            1 for a in self.alerts if a["kind"] == "slo.alert"
        )

    def finalize(
        self,
        registry: MetricsRegistry | None = None,
        prefix: str = "serving",
    ) -> None:
        """Publish headline gauges into ``registry`` (default: the
        current observability scope's registry)."""
        if registry is None:
            from repro.obs import get_metrics

            registry = get_metrics()
        if self.latency.count:
            for q, name in ((50, "p50"), (95, "p95"), (99, "p99")):
                registry.gauge(f"{prefix}.latency_{name}_s").set(
                    self.latency.percentile(q)
                )
        if self.queue_depth.count:
            registry.gauge(f"{prefix}.queue_depth_peak").set(
                self.queue_depth.max
            )
            registry.gauge(f"{prefix}.batch_occupancy_mean").set(
                self.batch_occupancy.mean
            )
        if self.slo is not None:
            registry.counter(f"{prefix}.slo_alerts").inc(
                self.alerts_fired
            )

    def summary(self) -> dict[str, object]:
        out: dict[str, object] = {
            "latency": self.latency.summary(),
            "queue_depth": self.queue_depth.summary(),
            "batch_occupancy": self.batch_occupancy.summary(),
        }
        if self.slo is not None:
            out["slo"] = self.slo.summary()
        return out


# ----------------------------------------------------------------------
# goodput accounting gauges (one source of truth)
# ----------------------------------------------------------------------
def record_report_gauges(
    report,
    *,
    prefix: str,
    registry: MetricsRegistry | None = None,
) -> None:
    """Register a run's goodput accounting as registry gauges.

    Works on any :class:`~repro.serving.metrics.RunStats` report
    (``availability`` / ``goodput`` / ``drop_rate``); gauges the report
    doesn't define (e.g. ``utilisation`` on autoscale runs) are
    skipped.  Every exporter then sees the same aggregates the render
    paths print — no ad-hoc recomputation.
    """
    if registry is None:
        from repro.obs import get_metrics

        registry = get_metrics()
    for attr in (
        "availability",
        "goodput",
        "drop_rate",
        "utilisation",
        "cost",
    ):
        value = getattr(report, attr, None)
        if value is None:
            continue
        value = float(value)
        if math.isfinite(value):
            registry.gauge(f"{prefix}.{attr}").set(value)
