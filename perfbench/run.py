"""The repo benchmark: the planning service and the fleet simulator.

    python3 perfbench/run.py --workload plan-warm --seed 1 --seconds 12 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``plan-warm``  warm ``/v1/plan`` queries over HTTP keep-alive;
* ``plan-mixed`` the warm stream beside cold plans and fleet evaluations;
* ``fleet-sim``  a fixed batch of ``FleetRouter.run`` calls, in process.

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is a separate run with every layer's entry points wrapped
in spans and reports the per-layer metrics.  Both print one line per
metric (value, unit, sample count), then one JSON object as the last
line.  The exit status is 1 when an answer fails its correctness check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import arith  # noqa: E402

WORKLOADS = ("plan-warm", "plan-mixed", "fleet-sim")

#: name -> unit, exactly as listed in BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "latency_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "http.transport_ms": "ms",
    "http.connections": "count",
    "service.dispatch_ms": "ms",
    "service.requests": "count",
    "service.rejected": "count",
    "api.decode_ms": "ms",
    "api.render_ms": "ms",
    "planner.select_ms": "ms",
    "api.lock_wait_ms": "ms",
    "evalspace.build_s": "s",
    "evalspace.points_per_s": "1/s",
    "evalspace.cache_hits": "count",
    "evalspace.cache_misses": "count",
    "fleet.evaluate_s": "s",
    "fleet.cache_hits": "count",
    "fleet.cache_misses": "count",
    "router.route_s": "s",
    "router.decisions_per_s": "1/s",
    "router.shed": "count",
    "router.degraded": "count",
    "router.finalise_s": "s",
    "serving.run_s": "s",
    "serving.batches": "count",
    "serving.events": "count",
    "autoscale.run_s": "s",
    "autoscale.control_ticks": "count",
    "telemetry.ingest_s": "s",
    "loadgen.late_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.other_s": "s",
}


class Report:
    """Collects checks, counts and metrics; prints them at the end."""

    def __init__(self, trace: bool) -> None:
        self.trace = trace
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, float] = {}

    # -- checks and counts ---------------------------------------------
    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    def count(self, outcomes) -> None:
        sent = [o for o in outcomes if not o.cancelled]
        self.attempted += len(sent)
        self.failed += sum(1 for o in sent if o.failed)

    # -- printed lines -------------------------------------------------
    def text(self, line: str) -> None:
        print(line, flush=True)

    def note(self, name: str, value: float, unit: str, samples: int) -> None:
        self.text(f"{name:<28} {value:14.6g} {unit:<6} n={samples}")

    def metric(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = value
        self.note(name, value, unit, samples)

    def setups(self, seconds: list[float]) -> None:
        self.metric("setup_s", arith.median(seconds), "s", len(seconds))
        self.text("set-ups: " + " ".join(f"{s:.3f}" for s in seconds))

    def layers(self, metrics: dict, totals: dict, wall: float) -> None:
        """Per-layer metrics plus the self-time breakdown of ``wall``."""
        covered = sum(totals.values())
        metrics["trace.wall_s"] = wall
        metrics["trace.other_s"] = wall - covered
        self.text(f"self time by layer (traced wall {wall:.4f} s):")
        for layer, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
            self.text(f"  {layer:<22} {seconds:12.6f} s {seconds / wall:8.2%}")
        self.text(f"  {'other':<22} {wall - covered:12.6f} s {(wall - covered) / wall:8.2%}")
        for name, unit in PER_LAYER.items():
            self.metric(name, float(metrics.get(name, 0.0)), unit, 1)

    # -- the result line -----------------------------------------------
    def emit(self) -> bool:
        wanted = PER_LAYER if self.trace else END_TO_END
        metrics = {}
        for name, unit in wanted.items():
            value = self.metrics.get(name)
            if value is None or not math.isfinite(value):
                self.problems.append(f"metric {name} was not measured")
                value = 0.0
            metrics[name] = {"value": value, "unit": unit}
        if self.attempted < 1:
            self.problems.append("nothing was attempted")
        else:
            self.note(
                "error_rate", self.failed / self.attempted, "ratio", self.attempted
            )
        for problem in self.problems:
            print(f"CHECK FAILED: {problem}", flush=True)
        correct = not self.problems
        print(
            json.dumps(
                {
                    "correct": correct,
                    "attempted": max(1, self.attempted),
                    "failed": self.failed,
                    "metrics": metrics,
                }
            ),
            flush=True,
        )
        return correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the planning service and fleet simulator."
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds, so every server it started is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(
            f"error: no program to measure: {os.path.join(ROOT, 'src', 'repro')} "
            "is missing (run from a checkout of the repository)",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    report = Report(trace=bool(args.trace))
    report.text(
        f"workload {args.workload}  seed {args.seed}  "
        f"seconds {args.seconds:g}  trace {args.trace}"
    )
    if args.workload == "fleet-sim":
        import fleet_workload

        if args.trace:
            fleet_workload.run_traced(args.seed, args.seconds, report)
        else:
            fleet_workload.run_untraced(args.seed, args.seconds, report)
    else:
        import plan_workloads

        shape = {
            "plan-warm": plan_workloads.PLAN_WARM,
            "plan-mixed": plan_workloads.PLAN_MIXED,
        }[args.workload]
        run = plan_workloads.run_traced if args.trace else plan_workloads.run_untraced
        run(shape, args.seed, args.seconds, report)
    return 0 if report.emit() else 1


if __name__ == "__main__":
    sys.exit(main())
