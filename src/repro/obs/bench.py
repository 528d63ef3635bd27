"""Bench trajectory recorder: ``BENCH_<n>.json`` and the regression gate.

The ROADMAP's "fast as the hardware allows" goal is only enforceable
against a recorded trajectory.  This module defines a small suite of
hot-path scenarios (the same paths ``benchmarks/`` exercises under
pytest-benchmark), runs each under a fresh observability scope, and
captures two things per scenario:

* **wall seconds** — min over ``repeats`` runs, the paper's own
  min-of-N measurement protocol (Section 4) applied to ourselves;
* **work counters** — the full counter snapshot (``perf.time_model_evals``,
  ``evalspace.cache_hits``, ``serving.events``, ...), which is
  deterministic for fixed seeds and therefore catches *algorithmic*
  regressions (lost memoization, extra simulations) exactly, with no
  tolerance band.

``record(root)`` writes the next ``BENCH_<n>.json`` at the repo root
(schema ``repro.bench/v1``); ``check(root)`` reruns the suite and
compares against the most recent record — wall time may drift within a
tolerance, counters must match exactly.  ``repro bench --record`` /
``--check`` are the CLI front ends; CI runs both on every push.
"""

from __future__ import annotations

import json
import os
import re
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from pathlib import Path

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer

__all__ = [
    "BENCH_SCHEMA",
    "BenchEntry",
    "BenchRecord",
    "CheckReport",
    "SCENARIOS",
    "check",
    "latest_record",
    "next_index",
    "record",
    "run_suite",
]

BENCH_SCHEMA = "repro.bench/v1"

_BENCH_NAME = re.compile(r"^BENCH_(\d+)\.json$")


# ----------------------------------------------------------------------
# scenarios
# ----------------------------------------------------------------------
def _scenario_evalspace_grid() -> None:
    """The Figure 9/10 grid through the unified evaluation core."""
    from repro.calibration import (
        caffenet_accuracy_model,
        caffenet_time_model,
    )
    from repro.cloud.catalog import P2_TYPES
    from repro.core.config_space import enumerate_configurations
    from repro.core.evalspace import (
        SpaceSpec,
        clear_space_cache,
        evaluate,
    )
    from repro.pruning.schedule import caffenet_variant_set

    def grid():  # fresh model instances on every call
        return SpaceSpec.build(
            caffenet_time_model(),
            caffenet_accuracy_model(),
            caffenet_variant_set(),
            enumerate_configurations(P2_TYPES, max_per_type=3),
            20_000_000,
        )

    clear_space_cache()
    space = evaluate(grid())
    assert len(space) == 3780
    # a content-equal re-request must be a pure cache hit
    evaluate(grid())


def _scenario_serving_faulty() -> None:
    """A faulty serving run with full per-request telemetry attached."""
    from repro.calibration import (
        caffenet_accuracy_model,
        caffenet_time_model,
    )
    from repro.cloud.catalog import instance_type
    from repro.cloud.configuration import ResourceConfiguration
    from repro.cloud.faults import FaultPlan
    from repro.cloud.instance import CloudInstance
    from repro.obs.telemetry import ServingTelemetry, SloPolicy
    from repro.pruning.base import PruneSpec
    from repro.serving.arrivals import poisson_arrivals
    from repro.serving.batcher import BatchPolicy
    from repro.serving.simulator import ServingSimulator

    arrivals = poisson_arrivals(120.0, 30.0, seed=7)
    plan = FaultPlan.sample(
        duration_s=30.0,
        workers=8,
        mtbf_s=20.0,
        recovery_s=5.0,
        retry_budget=2,
        timeout_s=3.0,
        seed=7,
    )
    simulator = ServingSimulator(
        caffenet_time_model(),
        caffenet_accuracy_model(),
        ResourceConfiguration([CloudInstance(instance_type("p2.8xlarge"))]),
        PruneSpec.unpruned(),
        BatchPolicy(max_batch=32, max_wait_s=0.05),
    )
    simulator.run(
        arrivals,
        plan,
        telemetry=ServingTelemetry(SloPolicy(latency_slo_s=1.0)),
    )


def _scenario_allocation_greedy() -> None:
    """Algorithm 1 (greedy) over the degree ladder and full catalog."""
    from repro.calibration import (
        caffenet_accuracy_model,
        caffenet_time_model,
    )
    from repro.cloud.catalog import EC2_CATALOG
    from repro.cloud.instance import CloudInstance
    from repro.cloud.simulator import CloudSimulator
    from repro.core.allocation import greedy_allocate
    from repro.pruning.schedule import algorithm1_variant_set

    simulator = CloudSimulator(
        caffenet_time_model(), caffenet_accuracy_model()
    )
    pool = [
        CloudInstance(itype)
        for itype in EC2_CATALOG
        for _ in range(2)
    ]
    greedy_allocate(
        algorithm1_variant_set(),
        pool,
        simulator,
        images=20_000_000,
        deadline_s=12 * 3600.0,
        budget=150.0,
    )


def _scenario_autoscale_surge() -> None:
    """The elastic fleet riding a bursty surge."""
    from repro.calibration import (
        caffenet_accuracy_model,
        caffenet_time_model,
    )
    from repro.cloud.catalog import instance_type
    from repro.pruning.base import PruneSpec
    from repro.serving.arrivals import bursty_arrivals
    from repro.serving.autoscaler import (
        AutoscalePolicy,
        AutoscalingSimulator,
    )
    from repro.serving.batcher import BatchPolicy

    arrivals = bursty_arrivals(60.0, 60.0, seed=3)
    AutoscalingSimulator(
        caffenet_time_model(),
        caffenet_accuracy_model(),
        instance_type("p2.xlarge"),
        PruneSpec.unpruned(),
        BatchPolicy(max_batch=16, max_wait_s=0.05),
        AutoscalePolicy(interval_s=5.0, max_instances=8),
    ).run(arrivals)


def _scenario_fleet_routed() -> None:
    """A tiered, admission-controlled fleet through the cached
    evaluation path (one miss, then a pure content-cache hit)."""
    from repro.calibration import (
        caffenet_accuracy_model,
        caffenet_time_model,
    )
    from repro.cloud.catalog import instance_type
    from repro.cloud.configuration import ResourceConfiguration
    from repro.cloud.instance import CloudInstance
    from repro.pruning.base import PruneSpec
    from repro.serving.batcher import BatchPolicy
    from repro.serving.fleet import (
        FleetSpec,
        FleetWorkload,
        clear_fleet_cache,
        evaluate_fleet,
    )
    from repro.serving.router import AdmissionPolicy, ReplicaSpec

    clear_fleet_cache()
    policy = BatchPolicy(max_batch=32, max_wait_s=0.05)
    sweet = PruneSpec({"conv1": 0.3, "conv2": 0.5})
    spec = FleetSpec(
        caffenet_time_model(),
        caffenet_accuracy_model(),
        (
            ReplicaSpec(
                "gold",
                ResourceConfiguration(
                    [CloudInstance(instance_type("p2.8xlarge"))]
                ),
                PruneSpec.unpruned(),
                policy,
            ),
            ReplicaSpec(
                "cheap-a",
                ResourceConfiguration(
                    [CloudInstance(instance_type("p2.xlarge"))]
                ),
                sweet,
                policy,
            ),
            ReplicaSpec(
                "cheap-b",
                ResourceConfiguration(
                    [CloudInstance(instance_type("p2.xlarge"))]
                ),
                sweet,
                policy,
            ),
        ),
        routing="tiered",
        admission=AdmissionPolicy(rate_per_s=150.0, burst=64),
    )
    workload = FleetWorkload(
        120.0, 30.0, seed=5, floors=((0.0, 0.7), (75.0, 0.3))
    )
    evaluate_fleet(spec, workload)
    # a content-equal re-request must be a pure cache hit
    evaluate_fleet(spec, workload)


def _scenario_service_plan() -> dict[str, float]:
    """Warm-cache planning queries through the full service dispatch
    path: one cold grid evaluation, then an open-loop replay of 400
    mixed queries that must all be evaluation-cache hits.  Extras
    capture the control-plane throughput and latency percentiles the
    acceptance bar (>= 1k plan-queries/s warm) is measured against."""
    import json

    from repro.api import clear_api_caches
    from repro.service import (
        InProcessTarget,
        PlanMixture,
        PlanningService,
        run_load,
    )

    # memoized models keep their per-degree memos warm across repeats;
    # start each repeat truly cold or the work counters drift
    clear_api_caches()
    mixture = PlanMixture(
        catalog=("p2.xlarge", "p2.8xlarge", "p2.16xlarge"),
        instances_per_type=3,
        images=20_000_000,
        seed=17,
    )
    service = PlanningService()
    warm = json.dumps(
        mixture.requests(1)[0].to_dict(), sort_keys=True
    ).encode("utf-8")
    status, _, _ = service.dispatch("POST", "/v1/plan", warm)
    assert status in (200, 422)
    report = run_load(
        InProcessTarget(service),
        mixture,
        rate_per_s=2000.0,
        n_requests=400,
        arrival="uniform",
        max_workers=8,
    )
    assert report.errors == 0, report.status_counts
    assert (report.cache_misses, report.cache_hits) == (0, 400)
    return {
        "offered_qps": report.qps,
        "p50_ms": report.p50 * 1e3,
        "p95_ms": report.p95 * 1e3,
        "p99_ms": report.p99 * 1e3,
        "cache_hit_ratio": report.cache_hit_ratio,
    }


def _scenario_serving_columnar() -> None:
    """A million-request saturation drain through the columnar engine.

    25 kreq/s offered against one p2.8xlarge — the queue grows for the
    whole window and drains after, so nearly every batch dispatches
    full.  The point is scale: the columnar event loop is O(batches +
    structural events), so a 278x-larger stream than ``serving.faulty``
    must stay within the same order of wall time.  The outcome is
    seed-deterministic; the asserts pin it exactly.
    """
    from repro.calibration import (
        caffenet_accuracy_model,
        caffenet_time_model,
    )
    from repro.cloud.catalog import instance_type
    from repro.cloud.configuration import ResourceConfiguration
    from repro.cloud.instance import CloudInstance
    from repro.obs.telemetry import ServingTelemetry, SloPolicy
    from repro.pruning.base import PruneSpec
    from repro.serving.arrivals import poisson_arrivals
    from repro.serving.batcher import BatchPolicy
    from repro.serving.simulator import ServingSimulator

    arrivals = poisson_arrivals(25_000.0, 40.0, seed=13)
    report = ServingSimulator(
        caffenet_time_model(),
        caffenet_accuracy_model(),
        ResourceConfiguration(
            [CloudInstance(instance_type("p2.8xlarge"))]
        ),
        PruneSpec.unpruned(),
        BatchPolicy(max_batch=64, max_wait_s=0.02),
    ).run(
        arrivals,
        telemetry=ServingTelemetry(SloPolicy(latency_slo_s=1.0)),
    )
    assert arrivals.size == 1_001_317
    assert report.requests == 1_001_317
    assert report.served == 1_001_317
    assert report.dropped == 0
    assert report.batch_sizes.size == 15_646


def _scenario_fleet_columnar() -> None:
    """A million requests routed across a tiered three-replica fleet.

    ~900 req/s for ~19 simulated minutes against a fleet sized just
    under saturation, with token-bucket admission trimming Poisson
    bursts.  Floors split the stream across tiers: floor-75 requests
    can only run on ``gold``, the rest take the cheapest tier
    (``cheap-b``, priced above ``cheap-a``, idles by design — a
    standby the tiered policy never needs).  The routing decision pass
    is the columnar fast path: candidate sets per distinct floor plus
    a scalar token bucket, no per-arrival numpy.  Deterministic; the
    asserts pin the exact assignment.
    """
    from repro.calibration import (
        caffenet_accuracy_model,
        caffenet_time_model,
    )
    from repro.cloud.catalog import instance_type
    from repro.cloud.configuration import ResourceConfiguration
    from repro.cloud.instance import CloudInstance
    from repro.pruning.base import PruneSpec
    from repro.serving.batcher import BatchPolicy
    from repro.serving.fleet import FleetWorkload
    from repro.serving.router import (
        AdmissionPolicy,
        FleetRouter,
        ReplicaSpec,
    )

    def config(itype: str, count: int = 1) -> ResourceConfiguration:
        return ResourceConfiguration(
            [
                CloudInstance(instance_type(itype))
                for _ in range(count)
            ]
        )

    policy = BatchPolicy(max_batch=64, max_wait_s=0.02)
    sweet = PruneSpec({"conv1": 0.3, "conv2": 0.5})
    router = FleetRouter(
        caffenet_time_model(),
        caffenet_accuracy_model(),
        (
            ReplicaSpec(
                "gold",
                config("p2.8xlarge", 2),
                PruneSpec.unpruned(),
                policy,
            ),
            ReplicaSpec(
                "cheap-a",
                config("p2.8xlarge"),
                sweet,
                policy,
                hourly_rate=4.0,
            ),
            ReplicaSpec(
                "cheap-b",
                config("p2.8xlarge"),
                sweet,
                policy,
                hourly_rate=4.5,
            ),
        ),
        routing="tiered",
        admission=AdmissionPolicy(rate_per_s=880.0, burst=256),
    )
    workload = FleetWorkload(
        900.0, 1112.0, seed=29, floors=((0.0, 0.45), (75.0, 0.55))
    )
    arrivals = workload.arrivals()
    report = router.run(
        arrivals, floors=workload.accuracy_floors(arrivals.size)
    )
    assert report.offered == 1_000_537
    assert report.shed == 21_747
    assert report.served == 978_790
    assert tuple(o.assigned for o in report.outcomes) == (
        538_597,
        440_193,
        0,
    )
    assert report.dropped == report.shed  # no replica-side losses


def _scenario_fleet_adaptive() -> object:
    """A flash crowd served twice: static tiers vs dynamic degradation.

    ~200k requests in a quiet/crowd/quiet profile (350 -> 1000 -> 350
    req/s) over one unpruned "gold" p2.8xlarge and two sweet-spot
    pruned ones; 40% of requests carry a Top-5 floor only gold clears,
    so the crowd overloads gold (~273 req/s of capacity against ~400
    req/s of floored demand).  The same arrivals run once under static
    ``tiered`` routing + queue-limit shedding and once under
    ``adaptive`` routing + graceful degradation (``degrade_limit``),
    exercising the per-request decision pass of both policies at
    scale.  Deterministic; the asserts pin the exact decisions and the
    headline claim — degradation turns every shed into a served
    request and beats the static policy's served-at-floor count.
    """
    import numpy as np

    from repro.calibration import (
        caffenet_accuracy_model,
        caffenet_time_model,
    )
    from repro.cloud.catalog import instance_type
    from repro.cloud.configuration import ResourceConfiguration
    from repro.cloud.instance import CloudInstance
    from repro.pruning.base import PruneSpec
    from repro.serving.arrivals import poisson_arrivals
    from repro.serving.batcher import BatchPolicy
    from repro.serving.router import (
        AdmissionPolicy,
        FleetRouter,
        ReplicaSpec,
    )

    def config() -> ResourceConfiguration:
        return ResourceConfiguration(
            [CloudInstance(instance_type("p2.8xlarge"))]
        )

    policy = BatchPolicy(max_batch=64, max_wait_s=0.02)
    sweet = PruneSpec({"conv1": 0.3, "conv2": 0.5})
    replicas = (
        ReplicaSpec("gold", config(), PruneSpec.unpruned(), policy),
        ReplicaSpec("cheap-a", config(), sweet, policy),
        ReplicaSpec("cheap-b", config(), sweet, policy),
    )
    tm, am = caffenet_time_model(), caffenet_accuracy_model()
    segment_s = 120.0
    arrivals = np.concatenate(
        [
            poisson_arrivals(350.0, segment_s, seed=31),
            poisson_arrivals(1000.0, segment_s, seed=32) + segment_s,
            poisson_arrivals(350.0, segment_s, seed=33)
            + 2 * segment_s,
        ]
    )
    # same derivation scheme as FleetWorkload's floor/deadline draws
    floors = np.random.default_rng(31 + 0x0F100).choice(
        [0.0, 75.0], size=arrivals.size, p=[0.6, 0.4]
    )
    deadlines = np.random.default_rng(31 + 0x0D1E5).choice(
        [0.2, 0.6], size=arrivals.size, p=[0.5, 0.5]
    )

    static = FleetRouter(
        tm,
        am,
        replicas,
        routing="tiered",
        admission=AdmissionPolicy(queue_limit=300.0),
    ).run(arrivals, floors=floors, deadlines=deadlines)
    assert static.offered == 204_044
    assert static.shed == 37_524
    assert static.served == 166_520
    assert static.degraded == 0
    assert tuple(o.assigned for o in static.outcomes) == (
        80_868,
        55_806,
        29_846,
    )

    adaptive = FleetRouter(
        tm,
        am,
        replicas,
        routing="adaptive",
        admission=AdmissionPolicy(
            queue_limit=300.0, degrade_limit=150.0
        ),
    ).run(arrivals, floors=floors, deadlines=deadlines)
    assert adaptive.offered == 204_044
    assert adaptive.shed == 0
    assert adaptive.served == 204_044
    assert adaptive.degraded == 15_357
    assert tuple(o.assigned for o in adaptive.outcomes) == (
        80_736,
        71_800,
        51_508,
    )
    assert tuple(o.at_floor for o in adaptive.outcomes) == (
        80_736,
        56_443,
        51_508,
    )
    # the headline: degradation beats shedding at equal accuracy
    assert adaptive.served_at_floor > static.served_at_floor
    return {
        "tiered_goodput_at_accuracy": static.goodput_at_accuracy,
        "adaptive_goodput_at_accuracy": adaptive.goodput_at_accuracy,
    }


#: name -> callable; each runs one hot path end to end and may return
#: a mapping of float "extras" (latency percentiles, throughput) that
#: ride along in the record without being gated.
SCENARIOS: dict[str, Callable[[], object]] = {
    "evalspace.grid": _scenario_evalspace_grid,
    "serving.faulty": _scenario_serving_faulty,
    "serving.columnar": _scenario_serving_columnar,
    "allocation.greedy": _scenario_allocation_greedy,
    "autoscale.surge": _scenario_autoscale_surge,
    "fleet.routed": _scenario_fleet_routed,
    "fleet.columnar": _scenario_fleet_columnar,
    "fleet.adaptive": _scenario_fleet_adaptive,
    "service.plan": _scenario_service_plan,
}


# ----------------------------------------------------------------------
# records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BenchEntry:
    """One scenario's slice of a bench record.

    ``extras`` are informational floats the scenario returned (service
    throughput, latency percentiles): recorded for the trajectory,
    never gated — unlike ``counters`` they measure the machine, not
    the algorithm.
    """

    name: str
    wall_s: float
    counters: dict[str, int]
    extras: dict[str, float] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.extras is None:
            object.__setattr__(self, "extras", {})

    def as_dict(self) -> dict[str, object]:
        out: dict[str, object] = {
            "name": self.name,
            "wall_s": self.wall_s,
            "counters": dict(self.counters),
        }
        if self.extras:
            out["extras"] = dict(self.extras)
        return out


@dataclass(frozen=True)
class BenchRecord:
    """One point on the repo's performance trajectory."""

    index: int
    created_unix: float
    repeats: int
    environment: dict[str, object]
    entries: tuple[BenchEntry, ...]

    def entry(self, name: str) -> BenchEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def to_dict(self) -> dict[str, object]:
        return {
            "schema": BENCH_SCHEMA,
            "index": self.index,
            "created_unix": self.created_unix,
            "repeats": self.repeats,
            "environment": dict(self.environment),
            "entries": [e.as_dict() for e in self.entries],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> BenchRecord:
        if payload.get("schema") != BENCH_SCHEMA:
            raise ValueError(
                f"not a {BENCH_SCHEMA} document: {payload.get('schema')!r}"
            )
        return cls(
            index=int(payload["index"]),
            created_unix=float(payload["created_unix"]),
            repeats=int(payload["repeats"]),
            environment=dict(payload["environment"]),
            entries=tuple(
                BenchEntry(
                    name=e["name"],
                    wall_s=float(e["wall_s"]),
                    counters={
                        k: int(v) for k, v in e["counters"].items()
                    },
                    extras={
                        k: float(v)
                        for k, v in e.get("extras", {}).items()
                    },
                )
                for e in payload["entries"]
            ),
        )

    @classmethod
    def read(cls, path: str | os.PathLike) -> BenchRecord:
        return cls.from_dict(json.loads(Path(path).read_text()))

    def write(self, path: str | os.PathLike) -> Path:
        path = Path(path)
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        tmp.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        os.replace(tmp, path)
        return path


# ----------------------------------------------------------------------
# running
# ----------------------------------------------------------------------
def run_suite(
    scenarios: Mapping[str, Callable[[], None]] | None = None,
    *,
    repeats: int = 3,
    only: tuple[str, ...] | None = None,
) -> list[BenchEntry]:
    """Run each scenario ``repeats`` times; keep min wall + counters.

    Every repeat runs under a fresh scope (new tracer + registry) and
    with the process-wide evaluation-space cache cleared, so counters
    reflect exactly one cold run and repeats do not accumulate.
    Counter snapshots must agree across repeats — a scenario whose work
    depends on run order is a bug this assertion catches early.
    """
    from repro.core.evalspace import clear_space_cache
    from repro.obs import scoped_observability

    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    scenarios = SCENARIOS if scenarios is None else scenarios
    if only is not None:
        unknown = [n for n in only if n not in scenarios]
        if unknown:
            raise KeyError(
                f"unknown scenarios {unknown}; "
                f"available: {sorted(scenarios)}"
            )
        scenarios = {n: scenarios[n] for n in only}
    entries = []
    for name, fn in scenarios.items():
        best = float("inf")
        counters: dict[str, int] | None = None
        extras: dict[str, float] = {}
        for _ in range(repeats):
            clear_space_cache()
            registry = MetricsRegistry()
            with scoped_observability(Tracer(enabled=False), registry):
                wall0 = time.perf_counter()
                returned = fn()
                wall = time.perf_counter() - wall0
            if wall < best:
                best = wall
                if isinstance(returned, Mapping):
                    extras = {
                        str(k): float(v) for k, v in returned.items()
                    }
            snapshot = registry.snapshot()["counters"]
            if counters is not None and snapshot != counters:
                raise AssertionError(
                    f"scenario {name!r} is nondeterministic: counters "
                    f"changed between repeats"
                )
            counters = snapshot
        entries.append(
            BenchEntry(
                name=name,
                wall_s=best,
                counters=counters or {},
                extras=extras,
            )
        )
    return entries


def bench_paths(root: str | os.PathLike) -> list[Path]:
    """Existing ``BENCH_<n>.json`` files under ``root``, by index."""
    out = []
    for path in Path(root).iterdir():
        match = _BENCH_NAME.match(path.name)
        if match:
            out.append((int(match.group(1)), path))
    return [p for _, p in sorted(out)]


def next_index(root: str | os.PathLike) -> int:
    paths = bench_paths(root)
    if not paths:
        return 1
    return int(_BENCH_NAME.match(paths[-1].name).group(1)) + 1


def latest_record(root: str | os.PathLike) -> BenchRecord | None:
    paths = bench_paths(root)
    return BenchRecord.read(paths[-1]) if paths else None


def record(
    root: str | os.PathLike,
    *,
    repeats: int = 3,
    scenarios: Mapping[str, Callable[[], None]] | None = None,
    only: tuple[str, ...] | None = None,
) -> Path:
    """Run the suite and write the next ``BENCH_<n>.json`` under root.

    ``root`` is created (with parents) when it does not exist yet, so
    ``--record --root /tmp/fresh`` works without a prior mkdir.
    """
    from repro.obs.manifest import environment_info

    Path(root).mkdir(parents=True, exist_ok=True)
    entries = run_suite(scenarios, repeats=repeats, only=only)
    bench = BenchRecord(
        index=next_index(root),
        created_unix=time.time(),
        repeats=repeats,
        environment=environment_info(),
        entries=tuple(entries),
    )
    return bench.write(Path(root) / f"BENCH_{bench.index}.json")


# ----------------------------------------------------------------------
# the regression gate
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CheckReport:
    """Outcome of one ``check`` run against the latest record.

    ``failures`` break the gate; ``warnings`` (wall-clock drift past
    the warn ratio, against the latest record *or* cumulatively
    against the first) only surface it.  ``machine_drift`` notes that
    the baseline was recorded on a different machine (``cpu_count`` or
    ``machine`` mismatch), in which case every *wall* comparison is
    demoted to a warning — cross-machine wall clocks measure the
    hardware, not the code — while counter drift still fails hard.
    """

    baseline_index: int
    tolerance: float
    lines: tuple[str, ...]
    failures: tuple[str, ...]
    warnings: tuple[str, ...] = ()
    machine_drift: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures


def _sanitize_machine(value: object, limit: int = 48) -> str:
    """A recorded machine string, safe to print in the gate report.

    Records are hand-editable JSON, so the stored ``machine`` value is
    untrusted: control characters are escaped as ``\\xNN`` (a raw
    ``\\r`` or ANSI escape would corrupt the terminal report and can
    spoof gate lines) and over-long values are capped at ``limit``
    characters with a ``...`` marker.
    """
    text = str(value)
    safe = "".join(
        ch if ch.isprintable() else f"\\x{ord(ch):02x}"
        for ch in text
    )
    if len(safe) > limit:
        safe = safe[:limit] + "..."
    return safe


def _machines_differ(environment: Mapping) -> bool:
    """True when the recorded host differs from the current one.

    Compares the two stable hardware axes ``environment_info``
    records — ``cpu_count`` and ``machine`` — so a record produced on
    a different box demotes wall gates instead of failing them.
    Records predating these keys compare as drifted (unknown host).
    """
    from repro.obs.manifest import environment_info

    current = environment_info()
    for key in ("cpu_count", "machine"):
        if environment.get(key) != current[key]:
            return True
    return False


def check(
    root: str | os.PathLike,
    *,
    tolerance: float = 0.5,
    warn_ratio: float = 1.5,
    fail_ratio: float | None = None,
    repeats: int = 3,
    scenarios: Mapping[str, Callable[[], None]] | None = None,
    only: tuple[str, ...] | None = None,
) -> CheckReport:
    """Rerun the suite and gate against the most recent record.

    Wall time may regress up to ``tolerance`` (fractional: 0.5 allows
    +50%, absorbing shared-runner noise); counters must match exactly —
    any drift means the amount of *work* changed, which a tolerance
    band must never absorb.  Scenarios present in only one of the two
    suites are reported but not failed (the suite itself may grow).

    ``warn_ratio`` surfaces slowdowns the hard gate would let through:
    a scenario whose wall exceeds ``warn_ratio`` times the latest
    record (without failing the tolerance), or — the creeping case a
    latest-only gate is blind to — ``warn_ratio`` times the *first*
    record on the trajectory, lands in ``CheckReport.warnings``.

    ``fail_ratio`` hardens that second comparison: when set, a
    scenario whose wall exceeds ``fail_ratio`` times the first record
    *fails* instead of warning.  The latest-record tolerance only
    bounds one step; this bounds the whole trajectory, which is what
    CI enforces so slow creep cannot launder itself one +49% at a
    time.

    Both wall gates are demoted to warnings when the baseline was
    recorded on different hardware (see :class:`CheckReport`); the
    counter gate is machine-independent and always hard.
    """
    baseline = latest_record(root)
    if baseline is None:
        raise FileNotFoundError(
            f"no BENCH_*.json under {root}; run `repro bench --record`"
        )
    paths = bench_paths(root)
    first = BenchRecord.read(paths[0])
    fresh = run_suite(scenarios, repeats=repeats, only=only)
    machine_drift = _machines_differ(baseline.environment)
    lines: list[str] = []
    failures: list[str] = []
    warnings: list[str] = []
    if machine_drift:
        stored = _sanitize_machine(
            baseline.environment.get("machine", "<unknown>")
        )
        warnings.append(
            f"baseline BENCH_{baseline.index} was recorded on "
            f"different hardware (machine {stored!r}, cpu_count/"
            "machine mismatch); wall gates demoted to warnings, "
            "counters still gate"
        )

    def wall_gate(message: str) -> str:
        """Fail on this machine's own records, warn across machines."""
        if machine_drift:
            warnings.append(message)
            return "WARN"
        failures.append(message)
        return "SLOW"

    base_names = {e.name for e in baseline.entries}
    first_names = {e.name for e in first.entries}
    for entry in fresh:
        if entry.name not in base_names:
            lines.append(f"{entry.name}: new scenario (no baseline)")
            continue
        prior = baseline.entry(entry.name)
        ratio = (
            entry.wall_s / prior.wall_s
            if prior.wall_s > 0
            else float("inf")
        )
        verdict = "ok"
        if ratio > 1.0 + tolerance:
            verdict = wall_gate(
                f"{entry.name}: wall {entry.wall_s:.3f}s vs "
                f"{prior.wall_s:.3f}s baseline "
                f"({ratio:.2f}x > {1.0 + tolerance:.2f}x allowed)"
            )
        elif ratio > warn_ratio:
            verdict = "WARN"
            warnings.append(
                f"{entry.name}: wall {entry.wall_s:.3f}s is "
                f"{ratio:.2f}x the latest record "
                f"(warn threshold {warn_ratio:.2f}x)"
            )
        if entry.name in first_names:
            origin = first.entry(entry.name)
            cumulative = (
                entry.wall_s / origin.wall_s
                if origin.wall_s > 0
                else float("inf")
            )
            if fail_ratio is not None and cumulative > fail_ratio:
                verdict = wall_gate(
                    f"{entry.name}: trajectory budget exceeded — "
                    f"wall {entry.wall_s:.3f}s is {cumulative:.2f}x "
                    f"BENCH_{first.index} "
                    f"(fail threshold {fail_ratio:.2f}x)"
                )
            elif (
                first.index != baseline.index
                and cumulative > warn_ratio
            ):
                warnings.append(
                    f"{entry.name}: trajectory drift — wall "
                    f"{entry.wall_s:.3f}s is {cumulative:.2f}x "
                    f"BENCH_{first.index} "
                    f"(warn threshold {warn_ratio:.2f}x)"
                )
        drifted = {
            k: (prior.counters.get(k), entry.counters.get(k))
            for k in set(prior.counters) | set(entry.counters)
            if prior.counters.get(k) != entry.counters.get(k)
        }
        if drifted:
            verdict = "DRIFT"
            detail = ", ".join(
                f"{k}: {was} -> {now}"
                for k, (was, now) in sorted(drifted.items())
            )
            failures.append(
                f"{entry.name}: work counters drifted ({detail})"
            )
        lines.append(
            f"{entry.name}: {entry.wall_s:.3f}s "
            f"(baseline {prior.wall_s:.3f}s, {ratio:.2f}x) {verdict}"
        )
    return CheckReport(
        baseline_index=baseline.index,
        tolerance=tolerance,
        lines=tuple(lines),
        failures=tuple(failures),
        warnings=tuple(warnings),
        machine_drift=machine_drift,
    )
