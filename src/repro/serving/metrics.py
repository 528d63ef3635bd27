"""Post-hoc analysis of serving runs.

Every run report (serving, autoscale, fleet, load) takes its shared
statistics from the field-less bases :class:`LatencyStats` (over the
served latencies) and :class:`RunStats` (over the request counts).

:class:`ServingReport` carries raw latencies; operators want views:
per-second throughput series, a latency histogram, and the SLO-headroom
summary.  These are pure functions over the report, used by the CLI's
``serve`` output and the serving tests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.serving.simulator import ServingReport

__all__ = [
    "LatencyStats",
    "RunStats",
    "throughput_series",
    "latency_histogram",
    "render_histogram",
    "slo_headroom",
    "availability_summary",
]


class LatencyStats:
    """Latency statistics over a report's ``latencies_s`` (seconds,
    served requests only).

    With nothing served the percentiles and the mean are ``nan`` and the
    miss rate is ``0.0``.
    """

    latencies_s: np.ndarray

    def latency_percentile(self, q: float) -> float:
        """Latency percentile in seconds (q in [0, 100])."""
        latencies = self.latencies_s
        if latencies.size == 0:
            return float("nan")
        return float(np.percentile(latencies, q))

    @property
    def p50(self) -> float:
        """Median served latency in seconds."""
        return self.latency_percentile(50)

    @property
    def p95(self) -> float:
        """95th-percentile served latency in seconds."""
        return self.latency_percentile(95)

    @property
    def p99(self) -> float:
        """99th-percentile served latency in seconds."""
        return self.latency_percentile(99)

    @property
    def mean_latency(self) -> float:
        """Mean served latency in seconds."""
        latencies = self.latencies_s
        if latencies.size == 0:
            return float("nan")
        return float(latencies.mean())

    def miss_rate(self, slo_s: float) -> float:
        """Fraction of *served* requests exceeding a latency SLO."""
        latencies = self.latencies_s
        if latencies.size == 0:
            return 0.0
        return float((latencies > slo_s).mean())


class RunStats(LatencyStats):
    """Goodput accounting over a run's ``requests`` (offered),
    ``dropped`` and ``duration_s``.

    Every ratio is ``0.0`` on a zero denominator.
    """

    requests: int
    dropped: int
    duration_s: float

    @property
    def served(self) -> int:
        """Requests that completed (offered minus dropped)."""
        return self.requests - self.dropped

    @property
    def availability(self) -> float:
        """Fraction of offered requests that were served."""
        return self.served / self.requests if self.requests else 0.0

    @property
    def drop_rate(self) -> float:
        """Fraction of offered requests that were dropped."""
        return self.dropped / self.requests if self.requests else 0.0

    @property
    def goodput(self) -> float:
        """Served requests per second of simulated time."""
        return self.served / self.duration_s if self.duration_s else 0.0


def throughput_series(
    arrivals: np.ndarray, report: ServingReport, bin_s: float = 1.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(bin starts, offered rate, completion rate) per time bin.

    Offered = arrivals per bin; completed = request completions per bin
    (arrival time + latency).  A persistent gap means the fleet is
    underwater.
    """
    if bin_s <= 0:
        raise ValueError("bin_s must be positive")
    if report.latencies_s.size != np.asarray(arrivals).size:
        raise ValueError(
            "throughput_series needs one latency per arrival; runs with "
            "dropped requests don't have that — use availability_summary"
        )
    completions = arrivals + report.latencies_s
    horizon = float(completions.max())
    edges = np.arange(0.0, horizon + bin_s, bin_s)
    offered, _ = np.histogram(arrivals, bins=edges)
    completed, _ = np.histogram(completions, bins=edges)
    return edges[:-1], offered / bin_s, completed / bin_s


def latency_histogram(
    report: ServingReport, bins: int = 12
) -> tuple[np.ndarray, np.ndarray]:
    """(bin edges, counts) over the latency distribution."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    counts, edges = np.histogram(report.latencies_s, bins=bins)
    return edges, counts


def render_histogram(
    report: ServingReport, bins: int = 12, width: int = 40
) -> str:
    """ASCII latency histogram with percentile markers."""
    edges, counts = latency_histogram(report, bins)
    peak = counts.max() if counts.size else 1
    lines = []
    for i, count in enumerate(counts):
        bar = "#" * int(round(width * count / peak)) if peak else ""
        lines.append(
            f"{edges[i]:7.2f}-{edges[i + 1]:7.2f}s |{bar.ljust(width)}| "
            f"{count}"
        )
    lines.append(
        f"p50 {report.p50:.3f}s   p95 {report.p95:.3f}s"
        f"   p99 {report.p99:.3f}s"
    )
    return "\n".join(lines)


def slo_headroom(report: ServingReport, slo_s: float) -> dict[str, float]:
    """How close a run sails to its SLO.

    Returns the miss rate, the p99/SLO ratio (>1 = violating) and the
    latency margin (seconds between p99 and the SLO; negative when
    violating).
    """
    if slo_s <= 0:
        raise ValueError("slo_s must be positive")
    return {
        "miss_rate": report.miss_rate(slo_s),
        "p99_over_slo": report.p99 / slo_s,
        "margin_s": slo_s - report.p99,
    }


def availability_summary(
    report: ServingReport, slo_s: float | None = None
) -> dict[str, float]:
    """Reliability view of a (possibly faulted) serving run.

    Returns availability (served fraction), goodput (served req/s),
    drop and retry rates; with an SLO it adds ``slo_attainment`` — the
    fraction of *all offered* requests that were served within the SLO,
    so a dropped request counts as a miss (the client-side view, per
    the SLO-under-faults framing of Perseus-style tail studies).

    The same aggregates are registered as ``serving.*`` gauges in the
    current metrics registry (via
    :func:`repro.obs.telemetry.record_report_gauges`), so exports and
    the rendered summary always agree — one source of truth.
    """
    from repro.obs.telemetry import record_report_gauges

    if slo_s is not None and slo_s <= 0:
        raise ValueError("slo_s must be positive")
    record_report_gauges(report, prefix="serving")
    summary = {
        "availability": report.availability,
        "goodput": report.goodput,
        "drop_rate": report.drop_rate,
        "retry_rate": report.retries / report.requests,
        "preemptions": float(report.preempted),
    }
    if slo_s is not None:
        within = float((report.latencies_s <= slo_s).sum())
        summary["slo_attainment"] = within / report.requests
    return summary
