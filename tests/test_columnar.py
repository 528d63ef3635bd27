"""Differential tests for the columnar serving/routing engines.

The columnar engines are exact-replay rewrites: they must make the same
IEEE-754 float operations in the same order as the per-event loops in
:mod:`repro.serving.reference`, so every comparison here is bit-for-bit
(``repr`` / ``tobytes``), not ``allclose``.  The sweeps are
property-style — seeds x fault plans x batch policies x admission
configs — deliberately covering the fast paths *and* the branches that
force the scalar loops.

The one intentionally approximate kernel is
:func:`repro.serving.router.fluid_backlog_trajectory`, whose prefix-max
closed form regroups float terms; it is tested against the stepped
reference ``_RoutingState`` with a tight tolerance.
"""

from __future__ import annotations

import ast
import contextlib
import dataclasses
import random
import signal
from pathlib import Path

import numpy as np
import pytest

from repro.calibration import caffenet_accuracy_model, caffenet_time_model
from repro.cloud.catalog import instance_type
from repro.cloud.configuration import ResourceConfiguration
from repro.cloud.faults import FaultPlan, Preemption, Slowdown
from repro.cloud.instance import CloudInstance
from repro.errors import ConfigurationError
from repro.obs.telemetry import (
    GaugeStat,
    LatencyHistogram,
    ServingTelemetry,
    SloMonitor,
    SloPolicy,
)
from repro.pruning.base import PruneSpec
from repro.serving import (
    ROUTING_POLICIES,
    AdmissionPolicy,
    BatchPolicy,
    FleetRouter,
    FleetWorkload,
    ReplicaSpec,
    ServingSimulator,
    fluid_backlog_trajectory,
    poisson_arrivals,
)
from repro.serving import reference
from repro.serving.events import EventQueue
from repro.serving.reference import _total_backlog

TM = caffenet_time_model()
AM = caffenet_accuracy_model()
SWEET = PruneSpec({"conv1": 0.3, "conv2": 0.5})
SPECS = (
    PruneSpec.unpruned(),
    PruneSpec.uniform(("conv1", "conv2"), 0.3),
    SWEET,
)


def _config(itype: str, n: int = 1) -> ResourceConfiguration:
    return ResourceConfiguration(
        [CloudInstance(instance_type(itype)) for _ in range(n)]
    )


def _simulator(itype, spec, policy) -> ServingSimulator:
    return ServingSimulator(TM, AM, _config(itype), spec, policy)


def _report_fingerprint(report) -> tuple:
    """Every float via repr / tobytes — equality means bit-equality."""
    return (
        report.requests,
        repr(report.duration_s),
        report.latencies_s.tobytes(),
        report.batch_sizes.tobytes(),
        repr(report.busy_s),
        report.worker_count,
        repr(report.cost),
        repr(report.accuracy),
        report.retries,
        report.dropped,
        report.preempted,
    )


def _telemetry_fingerprint(telemetry) -> tuple:
    hist = telemetry.latency
    parts = [
        (
            tuple(hist.counts),
            hist.count,
            repr(hist.total),
            repr(hist._min),
            repr(hist._max),
        )
    ]
    for gauge in (telemetry.batch_occupancy, telemetry.queue_depth):
        parts.append(repr(gauge.summary()))
    if telemetry.slo is not None:
        slo = telemetry.slo
        parts.append(
            (
                tuple(tuple(b) for b in slo._buckets),
                slo._requests,
                slo._drops,
                slo._slow,
                tuple(sorted(slo._alerting.items())),
                repr(slo.alerts),
            )
        )
    return tuple(parts)


def _fault_plan(rng: random.Random, duration: float) -> FaultPlan:
    kind = rng.randrange(5)
    if kind == 0:
        return FaultPlan()
    if kind == 1:
        return FaultPlan(timeout_s=rng.choice([0.05, 0.5, 3.0]))
    if kind == 2:
        return FaultPlan(
            preemptions=tuple(
                Preemption(
                    at_s=rng.uniform(0, duration),
                    target=rng.randrange(16),
                    recover_after_s=rng.choice([None, 0.5, 3.0]),
                )
                for _ in range(rng.randrange(1, 4))
            ),
            retry_budget=rng.randrange(0, 3),
            timeout_s=rng.choice([None, 1.0]),
        )
    if kind == 3:
        return FaultPlan(
            slowdowns=tuple(
                Slowdown(
                    target=rng.randrange(8),
                    start_s=rng.uniform(0, duration),
                    duration_s=rng.uniform(0.5, duration),
                    factor=rng.uniform(1.1, 4.0),
                )
                for _ in range(rng.randrange(1, 3))
            ),
        )
    return FaultPlan.sample(
        duration_s=duration,
        workers=8,
        mtbf_s=rng.choice([5.0, 20.0]),
        recovery_s=2.0,
        retry_budget=2,
        timeout_s=rng.choice([None, 0.8, 3.0]),
        seed=rng.randrange(10_000),
    )


class TestServingEngineEquivalence:
    """Both simulator engines must produce bit-identical runs."""

    @pytest.mark.parametrize("trial", range(24))
    def test_property_sweep_bit_identical(self, trial):
        rng = random.Random(9100 + trial)
        duration = rng.choice([4.0, 11.0])
        arrivals = poisson_arrivals(
            rng.choice([20.0, 120.0, 400.0]),
            duration,
            seed=rng.randrange(10_000),
        )
        itype = rng.choice(["p2.xlarge", "p2.8xlarge"])
        spec = rng.choice(SPECS)
        policy = BatchPolicy(
            max_batch=rng.choice([1, 4, 32, 64]),
            max_wait_s=rng.choice([0.0, 0.01, 0.05, 0.2]),
        )
        plan = _fault_plan(rng, duration)
        slo = (
            SloPolicy(latency_slo_s=rng.choice([0.1, 1.0]))
            if rng.random() < 0.7
            else None
        )
        sim = _simulator(itype, spec, policy)
        columnar_telemetry = ServingTelemetry(slo=slo)
        columnar = sim.run(
            arrivals, faults=plan, telemetry=columnar_telemetry
        )
        reference_telemetry = ServingTelemetry(slo=slo)
        replay = reference.serve(sim, arrivals, plan, reference_telemetry)
        assert _report_fingerprint(columnar) == _report_fingerprint(replay)
        assert _telemetry_fingerprint(
            columnar_telemetry
        ) == _telemetry_fingerprint(reference_telemetry)

    def test_negative_arrivals_rejected_by_both_engines(self):
        sim = _simulator("p2.xlarge", SWEET, BatchPolicy(8))
        with pytest.raises(ValueError):
            sim.run(np.array([-1.0, 0.5]))
        with pytest.raises(ValueError):
            reference.serve(sim, np.array([-1.0, 0.5]), FaultPlan.none())

    @pytest.mark.parametrize("arrival_s", [6799319039689.096, 1e300])
    def test_far_future_arrival_is_served(self, arrival_s):
        # at t ~ 6.8e12, (t + 0.05) - t == 0.0498046875: a max-wait test
        # with only its 1 ns epsilon never passed there, and the timer
        # re-armed at its own firing time forever
        sim = _simulator("p2.8xlarge", SWEET, BatchPolicy(32, 0.05))
        arrivals = np.array([arrival_s])
        with _time_limit(10):
            columnar = sim.run(arrivals)
            replay = reference.serve(sim, arrivals, FaultPlan.none())
        assert columnar.served == 1
        assert _report_fingerprint(columnar) == _report_fingerprint(replay)

    def test_far_future_fleet_workload_is_served(self):
        arrivals = FleetWorkload(1e-13, 1e13, seed=0).arrivals()
        assert arrivals.tolist() == [6799319039689.096]
        router = FleetRouter(
            TM,
            AM,
            [
                ReplicaSpec(
                    "solo",
                    _config("p2.8xlarge"),
                    SWEET,
                    BatchPolicy(32, 0.05),
                )
            ],
        )
        with _time_limit(10):
            report = router.run(arrivals)
        assert report.served == 1


@contextlib.contextmanager
def _time_limit(seconds: int):
    """Fail (instead of hanging) when the block runs past ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _replicas(rng: random.Random, count: int) -> list[ReplicaSpec]:
    return [
        ReplicaSpec(
            name=f"r{i}",
            configuration=_config(
                rng.choice(["p2.xlarge", "p2.8xlarge"])
            ),
            spec=rng.choice(SPECS),
            policy=BatchPolicy(
                rng.choice([8, 32]), rng.choice([0.01, 0.05])
            ),
            hourly_rate=rng.choice([None, 1.0, 1.0, 2.5]),
            weight=rng.choice([None, None, 1.0, 3.0]),
        )
        for i in range(count)
    ]


def _admission(rng: random.Random) -> AdmissionPolicy | None:
    kind = rng.randrange(5)
    if kind == 0:
        return None
    if kind == 1:
        return AdmissionPolicy()  # open: both knobs disabled
    if kind == 2:
        return AdmissionPolicy(
            rate_per_s=rng.choice([0.0, 20.0, 150.0]),
            burst=rng.choice([0, 5, 64]),
        )
    if kind == 3:
        return AdmissionPolicy(
            queue_limit=rng.choice([0.0, 5.0, 200.0])
        )
    return AdmissionPolicy(
        rate_per_s=rng.choice([20.0, 150.0]),
        burst=rng.choice([1, 32]),
        queue_limit=rng.choice([3.0, 400.0]),
    )


class TestRouteDecisionEquivalence:
    """The columnar decision pass replays the reference loop exactly.

    The sweep covers every routing policy, every admission shape, and
    replica counts up to nine; depth-limited fleets of eight to ten
    replicas get their own sweep under all five policies.
    """

    @pytest.mark.parametrize("trial", range(60))
    def test_assignment_sweep_bit_identical(self, trial):
        rng = random.Random(4400 + trial)
        replicas = _replicas(rng, rng.choice([1, 2, 3, 4, 9]))
        routing = rng.choice(
            ["round-robin", "jsq", "weighted", "tiered"]
        )
        admission = _admission(rng)
        arrivals = poisson_arrivals(
            rng.choice([10.0, 80.0, 300.0]),
            rng.choice([3.0, 10.0]),
            seed=rng.randrange(10_000),
        )
        if rng.random() < 0.5:
            floors = None
        else:
            frng = np.random.default_rng(rng.randrange(10_000))
            floors = frng.choice(
                [0.0, 60.0, 75.0, 82.0, 99.5], size=arrivals.size
            )
        router = FleetRouter(
            TM, AM, replicas, routing=routing, admission=admission
        )
        assert np.array_equal(
            router.route(arrivals, floors),
            reference.route(router, arrivals, floors),
        )

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("routing", ROUTING_POLICIES)
    def test_depth_limited_large_fleet_bit_identical(self, routing, seed):
        """8-10 replicas offered 1.3x their capacity, so both the
        ``degrade_limit`` and the ``queue_limit`` bind."""
        rng = random.Random(5500 + seed)
        replicas = _replicas(rng, rng.choice([8, 9, 10]))
        admission = AdmissionPolicy(
            rate_per_s=rng.choice([None, 1500.0]),
            burst=64,
            queue_limit=rng.choice([40.0, 120.0]),
            degrade_limit=rng.choice([10.0, 40.0]),
        )
        router = FleetRouter(
            TM, AM, replicas, routing=routing, admission=admission
        )
        arrivals = poisson_arrivals(
            1.3 * sum(router.capacities), 2.0, seed=seed
        )
        drng = np.random.default_rng(seed)
        floors = drng.choice([0.0, 75.0, 82.0], size=arrivals.size)
        deadlines = drng.choice([0.05, 0.5, np.inf], size=arrivals.size)
        columnar = router.route(arrivals, floors, deadlines)
        assert (columnar == -1).any()  # the depth limits bind
        assert np.array_equal(
            columnar,
            reference.route(router, arrivals, floors, deadlines),
        )


class TestReferenceIsTestOnly:
    def test_no_production_module_imports_the_reference(self):
        """The reference loops are the tests' oracle, never an engine:
        no module under ``src/`` imports them, lazily or not."""
        src = Path(__file__).resolve().parent.parent / "src"
        importers = []
        for path in sorted(src.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    names = [f"{node.module}.{a.name}" for a in node.names]
                else:
                    continue
                if any(
                    n.startswith("repro.serving.reference") for n in names
                ):
                    importers.append(path.relative_to(src).as_posix())
        assert importers == []


class _UnitCapacityRouter(FleetRouter):
    """A router whose replicas all drain one request per second."""

    def _capacity(self, replica: ReplicaSpec) -> float:
        return 1.0


class TestBacklogSumOrder:
    """Depth limits compare one fixed-order, left-to-right backlog sum.

    On backlogs ``(1.0, 2**-53, 2**-53)`` that sum is ``1.0``; the
    compensated ``sum()`` of Python 3.12 gives ``1.0000000000000002``.
    A limit between the two must shed or degrade by the left-to-right
    value in both engines, on every Python version.
    """

    LIMIT = float(np.nextafter(1.0, 2.0))

    def _route(self, admission, last_floor):
        replicas = [
            ReplicaSpec(
                name,
                _config("p2.xlarge"),
                spec,
                BatchPolicy(8),
                hourly_rate=rate,
            )
            for name, spec, rate in (
                ("gold", PruneSpec.unpruned(), 2.5),
                ("a", SWEET, 1.0),
                ("b", SWEET, 1.0),
            )
        ]
        router = _UnitCapacityRouter(
            TM, AM, replicas, routing="tiered", admission=admission
        )
        # "a" and "b" take one request each at t=0 and drain to 2**-53
        # at t=1-2**-53, when "gold" takes one; the last arrival then
        # reads backlogs (1.0, 2**-53, 2**-53)
        late = 1.0 - 2.0**-53
        arrivals = np.array([0.0, 0.0, late, late])
        floors = np.array([0.0, 0.0, 100.0, last_floor])
        picks = router.route(arrivals, floors)
        assert np.array_equal(
            picks, reference.route(router, arrivals, floors)
        )
        return picks.tolist()

    def test_total_backlog_sums_left_to_right(self):
        assert _total_backlog([1.0, 2.0**-53, 2.0**-53]) == 1.0
        # nine terms: past the length where np.sum starts regrouping
        assert _total_backlog([1.0] + [2.0**-53] * 8) == 1.0
        assert 1.0 < self.LIMIT

    def test_queue_limit_reads_left_to_right_sum(self):
        picks = self._route(AdmissionPolicy(queue_limit=self.LIMIT), 0.0)
        assert picks == [1, 2, 0, 1]  # admitted, not shed

    def test_degrade_limit_reads_left_to_right_sum(self):
        picks = self._route(
            AdmissionPolicy(degrade_limit=self.LIMIT), 100.0
        )
        assert picks == [1, 2, 0, 0]  # floor kept, not waived


def _adaptive_admission(rng: random.Random) -> AdmissionPolicy | None:
    kind = rng.randrange(5)
    if kind == 0:
        return None
    if kind == 1:
        return AdmissionPolicy(
            queue_limit=rng.choice([5.0, 60.0, 400.0])
        )
    if kind == 2:
        return AdmissionPolicy(
            queue_limit=60.0,
            degrade_limit=rng.choice([0.0, 10.0, 60.0]),
        )
    if kind == 3:
        return AdmissionPolicy(
            degrade_limit=rng.choice([0.0, 8.0, 120.0])
        )
    return AdmissionPolicy(
        rate_per_s=rng.choice([20.0, 150.0]),
        burst=rng.choice([1, 32]),
        queue_limit=rng.choice([30.0, 400.0]),
        degrade_limit=rng.choice([3.0, 30.0]),
    )


class TestAdaptiveDecisionEquivalence:
    """The adaptive policy's scalar replay is bit-identical too.

    Seeds x admission shapes (including ``degrade_limit``, which
    forces the depth-read paths) x deadline mixtures x replica counts
    up to nine.
    """

    @pytest.mark.parametrize("trial", range(40))
    def test_adaptive_sweep_bit_identical(self, trial):
        rng = random.Random(8800 + trial)
        replicas = _replicas(rng, rng.choice([1, 2, 3, 4, 9]))
        admission = _adaptive_admission(rng)
        arrivals = poisson_arrivals(
            rng.choice([10.0, 80.0, 300.0]),
            rng.choice([3.0, 10.0]),
            seed=rng.randrange(10_000),
        )
        drng = np.random.default_rng(rng.randrange(10_000))
        floors = drng.choice(
            [0.0, 60.0, 75.0, 82.0, 99.5], size=arrivals.size
        )
        if rng.random() < 0.25:
            deadlines = None
        else:
            deadlines = drng.choice(
                [0.02, 0.3, 2.0, np.inf], size=arrivals.size
            )
        router = FleetRouter(
            TM, AM, replicas, routing="adaptive", admission=admission
        )
        assert np.array_equal(
            router.route(arrivals, floors, deadlines),
            reference.route(router, arrivals, floors, deadlines),
        )

    def _assert_matches_reference(self, router, arrivals, floors, deadlines):
        columnar = router.route(arrivals, floors, deadlines)
        assert np.array_equal(
            columnar,
            reference.route(router, arrivals, floors, deadlines),
        )
        return columnar

    @pytest.mark.parametrize("seed", range(3))
    def test_one_hourly_rate_bit_identical(self, seed):
        """Every replica at one rate (the flash-crowd shape): each
        decision is a timely backlog tie-break inside one group."""
        rng = random.Random(9100 + seed)
        replicas = [
            dataclasses.replace(r, hourly_rate=1.0)
            for r in _replicas(rng, rng.choice([3, 5, 9]))
        ]
        router = FleetRouter(
            TM,
            AM,
            replicas,
            routing="adaptive",
            admission=AdmissionPolicy(queue_limit=60.0, degrade_limit=20.0),
        )
        arrivals = poisson_arrivals(
            1.2 * sum(router.capacities), 1.0, seed=seed
        )
        drng = np.random.default_rng(seed)
        floors = drng.choice([0.0, 75.0], size=arrivals.size)
        deadlines = drng.choice([0.02, 0.2], size=arrivals.size)
        picks = self._assert_matches_reference(
            router, arrivals, floors, deadlines
        )
        assert len(set(picks.tolist()) - {-1}) > 1

    @pytest.mark.parametrize("seed", range(3))
    def test_continuous_deadlines_and_floors_bit_identical(self, seed):
        """Per-request deadlines and floors drawn from continuous
        ranges: one candidate table per distinct floor, none per
        deadline."""
        rng = random.Random(9200 + seed)
        replicas = _replicas(rng, rng.choice([3, 4, 9]))
        router = FleetRouter(
            TM,
            AM,
            replicas,
            routing="adaptive",
            admission=rng.choice(
                [None, AdmissionPolicy(queue_limit=80.0, degrade_limit=30.0)]
            ),
        )
        arrivals = poisson_arrivals(
            1.1 * sum(router.capacities), 1.0, seed=seed
        )
        drng = np.random.default_rng(seed)
        floors = drng.uniform(55.0, 85.0, size=arrivals.size)
        deadlines = drng.uniform(0.0, 0.3, size=arrivals.size)
        assert np.unique(floors).size == arrivals.size
        self._assert_matches_reference(router, arrivals, floors, deadlines)

    @pytest.mark.parametrize("seed", range(3))
    def test_unreachable_floors_take_the_fallback_ladder(self, seed):
        """Floors above every replica's Top-5: each arrival falls to
        the most accurate timely replica, or to the smallest wait."""
        rng = random.Random(9300 + seed)
        replicas = _replicas(rng, rng.choice([2, 3, 9]))
        router = FleetRouter(TM, AM, replicas, routing="adaptive")
        arrivals = poisson_arrivals(
            1.5 * sum(router.capacities), 1.0, seed=seed
        )
        floors = np.full(arrivals.size, 101.0)
        deadlines = np.random.default_rng(seed).choice(
            [0.0, 0.01, 0.1, np.inf], size=arrivals.size
        )
        picks = self._assert_matches_reference(
            router, arrivals, floors, deadlines
        )
        # both rungs ran: the most accurate replica and some other
        assert router._best in picks and len(set(picks.tolist())) > 1

    def test_wait_equal_to_deadline_is_timely(self):
        """At unit capacity ``backlog / capacity`` is the backlog
        itself, so a wait landing exactly on the deadline is reached
        and must count as timely (``<=``, not ``<``)."""
        replicas = [
            ReplicaSpec(
                name,
                _config("p2.xlarge"),
                spec,
                BatchPolicy(8),
                hourly_rate=rate,
            )
            for name, spec, rate in (
                ("cheap", SWEET, 1.0),
                ("gold", PruneSpec.unpruned(), 2.5),
            )
        ]
        router = _UnitCapacityRouter(TM, AM, replicas, routing="adaptive")
        arrivals = np.array([0.0, 0.0, 0.0, 0.5])
        floors = np.zeros(4)
        # "cheap" waits 1.0 for the second arrival and 1.5 for the last
        deadlines = np.array([1.0, 1.0, 1.0, 1.5])
        picks = self._assert_matches_reference(
            router, arrivals, floors, deadlines
        )
        assert picks.tolist() == [0, 0, 1, 0]

    def test_min_wait_ties_go_to_the_first_replica(self):
        """The last rung, with both waits equal: ``np.argmin``'s first
        minimum, i.e. declaration order."""
        replicas = [
            ReplicaSpec(
                name,
                _config("p2.xlarge"),
                spec,
                BatchPolicy(8),
                hourly_rate=rate,
            )
            for name, spec, rate in (
                ("cheap", SWEET, 1.0),
                ("gold", PruneSpec.unpruned(), 2.5),
            )
        ]
        router = _UnitCapacityRouter(TM, AM, replicas, routing="adaptive")
        arrivals = np.zeros(3)
        # an unreachable floor sends the second arrival to "gold", so
        # the third finds both backlogs at 1.0, past its deadline
        floors = np.array([0.0, 101.0, 0.0])
        deadlines = np.array([np.inf, np.inf, 0.5])
        picks = self._assert_matches_reference(
            router, arrivals, floors, deadlines
        )
        assert picks.tolist() == [0, 1, 0]

    @pytest.mark.parametrize("seed", range(3))
    def test_simultaneous_bursts_under_degrade_limit(self, seed):
        """Bursts of equal timestamps (``dt == 0``): the backlog is not
        drained, yet the depth limits still read its full sum."""
        rng = random.Random(9400 + seed)
        replicas = _replicas(rng, rng.choice([3, 4, 9]))
        router = FleetRouter(
            TM,
            AM,
            replicas,
            routing="adaptive",
            admission=AdmissionPolicy(
                queue_limit=rng.choice([None, 60.0]), degrade_limit=15.0
            ),
        )
        starts = poisson_arrivals(
            0.3 * sum(router.capacities), 1.0, seed=seed
        )
        arrivals = np.repeat(starts, 5)
        drng = np.random.default_rng(seed)
        floors = drng.choice([0.0, 75.0, 82.0], size=arrivals.size)
        deadlines = drng.choice([0.05, 0.5], size=arrivals.size)
        self._assert_matches_reference(router, arrivals, floors, deadlines)

    def test_degrade_limit_with_tiered_bit_identical(self):
        """The admission-level degradation rung is policy-agnostic;
        cover its columnar candidate-table path under ``tiered``."""
        for seed in (1, 2, 3):
            rng = random.Random(7700 + seed)
            replicas = _replicas(rng, 3)
            router = FleetRouter(
                TM,
                AM,
                replicas,
                routing="tiered",
                admission=AdmissionPolicy(
                    queue_limit=40.0, degrade_limit=10.0
                ),
            )
            arrivals = poisson_arrivals(200.0, 5.0, seed=seed)
            floors = np.random.default_rng(seed).choice(
                [0.0, 75.0, 99.0], size=arrivals.size
            )
            assert np.array_equal(
                router.route(arrivals, floors),
                reference.route(router, arrivals, floors),
            )


def _fleet_fingerprint(report) -> tuple:
    """Sheds plus every replica's assignment count and report."""
    return report.shed, tuple(
        (
            o.assigned,
            None if o.report is None else _report_fingerprint(o.report),
        )
        for o in report.outcomes
    )


def _reference_fleet_fingerprint(
    router, arrivals, floors=None, deadlines=None
) -> tuple:
    """:func:`_fleet_fingerprint` of the same run composed from the
    reference loops: ``reference.route``, then ``reference.serve`` on
    every (static) replica's sub-stream."""
    assignment = reference.route(router, arrivals, floors, deadlines)
    rows = []
    for index, replica in enumerate(router.replicas):
        sub = arrivals[assignment == index]
        if sub.size == 0:
            rows.append((0, None))
            continue
        sim = ServingSimulator(
            TM,
            AM,
            replica.configuration,
            replica.spec,
            replica.policy,
            hourly_rate=replica.hourly_rate,
        )
        plan = FaultPlan.none() if replica.faults is None else replica.faults
        report = reference.serve(sim, sub, plan)
        rows.append((int(sub.size), _report_fingerprint(report)))
    return int((assignment == -1).sum()), tuple(rows)


def _with_faults(rng: random.Random, replicas, duration: float):
    return [
        ReplicaSpec(
            name=r.name,
            configuration=r.configuration,
            spec=r.spec,
            policy=r.policy,
            hourly_rate=r.hourly_rate,
            weight=r.weight,
            faults=_fault_plan(rng, duration),
        )
        for r in replicas
    ]


class TestFleetEngineEquivalence:
    """End-to-end: a fleet run equals the same run composed from the
    reference routing and serving loops, byte for byte."""

    def test_routed_fleet_bit_identical_across_engines(self):
        arrivals = poisson_arrivals(150.0, 12.0, seed=11)
        floors = np.random.default_rng(11).choice(
            [0.0, 75.0], size=arrivals.size
        )
        router = FleetRouter(
            TM,
            AM,
            _replicas(random.Random(21), 3),
            routing="tiered",
            admission=AdmissionPolicy(rate_per_s=120.0, burst=32),
        )
        assert _fleet_fingerprint(
            router.run(arrivals, floors=floors)
        ) == _reference_fleet_fingerprint(router, arrivals, floors)

    def test_adaptive_fleet_bit_identical_across_engines(self):
        """Seeds x fault plans x deadline mixtures: the full adaptive
        run (decisions + serving) agrees."""
        for seed in (2, 9, 17):
            rng = random.Random(600 + seed)
            replicas = _with_faults(rng, _replicas(rng, 3), 12.0)
            arrivals = poisson_arrivals(150.0, 12.0, seed=seed)
            drng = np.random.default_rng(seed)
            floors = drng.choice([0.0, 75.0], size=arrivals.size)
            deadlines = drng.choice(
                [0.05, 0.5, np.inf], size=arrivals.size
            )
            router = FleetRouter(
                TM,
                AM,
                replicas,
                routing="adaptive",
                admission=AdmissionPolicy(
                    queue_limit=80.0, degrade_limit=30.0
                ),
            )
            report = router.run(
                arrivals, floors=floors, deadlines=deadlines
            )
            assert _fleet_fingerprint(
                report
            ) == _reference_fleet_fingerprint(
                router, arrivals, floors, deadlines
            )

    @pytest.mark.parametrize("routing", ROUTING_POLICIES)
    def test_faulty_nine_replica_fleet_bit_identical(self, routing):
        """Every policy on a depth-limited nine-replica fleet whose
        replicas each run their own fault plan."""
        rng = random.Random(650 + ROUTING_POLICIES.index(routing))
        router = FleetRouter(
            TM,
            AM,
            _with_faults(rng, _replicas(rng, 9), 3.0),
            routing=routing,
            admission=AdmissionPolicy(queue_limit=30.0, degrade_limit=10.0),
        )
        arrivals = poisson_arrivals(
            1.2 * sum(router.capacities), 3.0, seed=rng.randrange(99)
        )
        drng = np.random.default_rng(rng.randrange(99))
        floors = drng.choice([0.0, 75.0], size=arrivals.size)
        deadlines = drng.choice([0.05, 0.5, np.inf], size=arrivals.size)
        report = router.run(arrivals, floors=floors, deadlines=deadlines)
        assert report.shed > 0
        assert _fleet_fingerprint(report) == _reference_fleet_fingerprint(
            router, arrivals, floors, deadlines
        )


class TestFluidBacklogTrajectory:
    def test_matches_stepped_state(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 300))
            arrivals = np.sort(rng.uniform(0, 30, n))
            count = int(rng.integers(1, 5))
            capacities = rng.uniform(0.1, 50.0, count)
            assignment = rng.integers(-1, count, n)
            state = reference._RoutingState(capacities)
            expected = np.empty((n, count))
            for i, (t, a) in enumerate(zip(arrivals, assignment)):
                state.advance(float(t))
                if a >= 0:
                    state.assign(int(a))
                expected[i] = state.backlog
            got = fluid_backlog_trajectory(
                arrivals, assignment, capacities
            )
            assert got.shape == (n, count)
            assert np.allclose(got, expected, atol=1e-9)

    def test_sheds_pass_time_but_add_nothing(self):
        trajectory = fluid_backlog_trajectory(
            np.array([0.0, 1.0, 2.0]),
            np.array([0, -1, -1]),
            [0.5],
        )
        # one assignment at t=0, then pure drain at 0.5 req/s
        assert np.allclose(trajectory[:, 0], [1.0, 0.5, 0.0])

    def test_misaligned_assignment_rejected(self):
        with pytest.raises(ConfigurationError):
            fluid_backlog_trajectory(
                np.array([0.0, 1.0]), np.array([0]), [1.0]
            )


class TestTelemetryBatchApis:
    """Each columnar ingest path equals its scalar twin bit-for-bit."""

    def test_histogram_observe_array(self):
        values = np.random.default_rng(0).lognormal(-3, 1.5, 500)
        scalar, batched = LatencyHistogram(), LatencyHistogram()
        for v in values:
            scalar.observe(float(v))
        batched.observe_array(values[:123])
        batched.observe_array(values[123:])
        assert scalar.counts == batched.counts
        assert scalar.count == batched.count
        assert repr(scalar.total) == repr(batched.total)
        assert repr(scalar._min) == repr(batched._min)
        assert repr(scalar._max) == repr(batched._max)

    def test_gauge_observe_stream(self):
        values = np.random.default_rng(1).uniform(0, 40, 400)
        scalar, batched = GaugeStat("g"), GaugeStat("g")
        for v in values:
            scalar.observe(float(v))
        batched.observe_stream(values[:17])
        batched.observe_stream(values[17:])
        assert repr(scalar.summary()) == repr(batched.summary())

    def test_slo_record_stream(self):
        rng = np.random.default_rng(2)
        times = np.sort(rng.uniform(0, 600, 2000))
        dropped = rng.random(2000) < 0.2
        slow = (rng.random(2000) < 0.3) & ~dropped
        policy = SloPolicy(latency_slo_s=0.5)
        scalar, batched = SloMonitor(policy), SloMonitor(policy)
        for t, d, s in zip(times, dropped, slow):
            if d:
                scalar.record_dropped(float(t))
            else:
                scalar._record(float(t), slow=bool(s))
        split = 700
        batched.record_stream(
            times[:split], dropped[:split], slow[:split]
        )
        batched.record_stream(
            times[split:], dropped[split:], slow[split:]
        )
        assert list(scalar._buckets) == list(batched._buckets)
        assert scalar._requests == batched._requests
        assert scalar._drops == batched._drops
        assert scalar._slow == batched._slow
        assert scalar.alerts == batched.alerts

    def test_serving_telemetry_batch_stream(self):
        rng = np.random.default_rng(3)
        sizes = rng.integers(1, 33, 150)
        capacities = np.full(150, 32)
        queued = rng.integers(0, 90, 150)
        scalar = ServingTelemetry()
        batched = ServingTelemetry()
        for s, c, q in zip(sizes, capacities, queued):
            scalar.record_batch(0.0, int(s), int(c), int(q))
        batched.record_batch_stream(
            sizes.tolist(), capacities.tolist(), queued.tolist()
        )
        assert repr(scalar.summary()) == repr(batched.summary())

    def test_ingest_stream_matches_scalar_hooks(self):
        rng = np.random.default_rng(4)
        times = np.sort(rng.uniform(0, 120, 800))
        latencies = rng.lognormal(-2, 1, 800)
        dropped = rng.random(800) < 0.15
        policy = SloPolicy(latency_slo_s=0.25)
        scalar = ServingTelemetry(slo=policy)
        batched = ServingTelemetry(slo=policy)
        for t, lat, d in zip(times, latencies, dropped):
            if d:
                scalar.record_dropped(float(t))
            else:
                scalar.record_served(float(t), float(lat))
        batched.ingest_stream(times, latencies, dropped)
        assert _telemetry_fingerprint(scalar) == _telemetry_fingerprint(
            batched
        )


class TestEventQueueExtendSorted:
    def test_pop_order_matches_individual_pushes(self):
        rng = np.random.default_rng(5)
        times = np.sort(rng.uniform(0, 10, 200))
        pushed, bulk = EventQueue(), EventQueue()
        # pre-existing content on both queues
        for queue in (pushed, bulk):
            queue.push(4.25, "timer")
            queue.push(0.0, "preempt", "p")
        for idx, t in enumerate(times):
            pushed.push(float(t), "arrival", idx)
        bulk.extend_sorted(times, "arrival")
        while pushed:
            a, b = pushed.pop(), bulk.pop()
            assert (a.time, a.seq, a.kind, a.payload) == (
                b.time,
                b.seq,
                b.kind,
                b.payload,
            )
        assert not bulk

    def test_empty_batch_is_noop(self):
        queue = EventQueue()
        queue.extend_sorted([], "arrival")
        assert len(queue) == 0

    def test_unsorted_batch_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().extend_sorted([1.0, 0.5], "arrival")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().extend_sorted([-0.1, 0.5], "arrival")

    def test_explicit_payloads(self):
        queue = EventQueue()
        queue.extend_sorted([1.0, 2.0], "done", payloads=["a", "b"])
        assert queue.pop().payload == "a"
        assert queue.pop().payload == "b"
