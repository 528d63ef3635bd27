"""The per-event reference loops: the executable specification.

Production serving runs :func:`repro.serving.columnar.columnar_run` and
production routing runs the columnar decision pass inside
:meth:`repro.serving.router.FleetRouter.route`.  Both are exact
replays of the two loops kept here:

* :func:`serve` — one event at a time: every arrival, dispatch,
  completion, timer, preemption and recovery is an
  :class:`~repro.serving.events.Event` on a heap;
* :func:`route` — one ``advance`` / ``select`` / ``assign`` cycle per
  arrival over a :class:`_RoutingState` fluid backlog, with one policy
  object per routing name.

Their signatures mirror the production entry points:
``serve(sim, arrivals, plan, telemetry)`` takes what ``columnar_run``
takes, and ``route(router, arrivals, floors, deadlines)`` what
``FleetRouter.route`` takes.  Inputs are assumed validated, as in
production.  The differential tests (``tests/test_columnar.py``)
compare the two engines bit for bit; nothing under ``repro`` imports
this module and :mod:`repro.serving` does not export it.  A new routing
policy lands here and in the columnar pass together.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.cloud.faults import FaultPlan
from repro.cloud.pricing import hourly_rate_cost
from repro.errors import ConfigurationError
from repro.obs import get_metrics
from repro.serving.batcher import PendingQueue
from repro.serving.events import EventQueue
from repro.serving.simulator import (
    _DROPPED,
    _SERVED,
    ServingReport,
    ServingSimulator,
)

if TYPE_CHECKING:
    from repro.serving.router import FleetRouter

__all__ = ["POLICIES", "route", "serve"]


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------
def serve(
    sim: ServingSimulator,
    arrivals: np.ndarray,
    plan: FaultPlan,
    telemetry=None,
) -> ServingReport:
    """Serve sorted ``arrivals`` on ``sim``'s worker pool, one event at
    a time, under fault ``plan``; returns the report
    :meth:`ServingSimulator.run` returns, byte for byte."""
    events = EventQueue()
    events.extend_sorted(arrivals, "arrival")
    for preemption in plan.preemptions:
        events.push(preemption.at_s, "preempt", preemption)

    pool = len(sim._workers)
    pending = PendingQueue()
    free_workers = list(range(pool))
    latencies = np.full(arrivals.size, np.nan)
    status = np.zeros(arrivals.size, dtype=np.uint8)
    retry_count = np.zeros(arrivals.size, dtype=np.int64)
    batch_sizes: list[int] = []
    busy_s = 0.0
    timer_at: float | None = None
    now = 0.0
    down: set[int] = set()
    # incarnation counter per worker: a "done" event carrying a
    # stale epoch belongs to a batch cancelled by preemption
    epoch = [0] * pool
    inflight: dict[int, tuple[list, float]] = {}
    retries_total = 0
    preempted_total = 0

    def purge(now: float) -> None:
        """Drop queued requests past the plan's timeout (the queue
        is arrival-sorted, so expired entries sit at the head)."""
        if plan.timeout_s is None:
            return
        while (
            pending
            and now - pending.oldest_arrival() > plan.timeout_s + 1e-9
        ):
            request_id, _ = pending.take(1)[0]
            status[request_id] = _DROPPED
            if telemetry is not None:
                telemetry.record_dropped(now)

    def requeue(batch: list, now: float) -> None:
        nonlocal retries_total
        for request_id, arrival_s in batch:
            retry_count[request_id] += 1
            if retry_count[request_id] > plan.retry_budget:
                status[request_id] = _DROPPED
                if telemetry is not None:
                    telemetry.record_dropped(now)
            else:
                retries_total += 1
                pending.requeue(request_id, arrival_s)

    def dispatch(now: float) -> None:
        nonlocal busy_s, timer_at
        purge(now)
        while free_workers and pending.should_dispatch(now, sim.policy):
            worker_id = free_workers.pop()
            batching, cap = sim._workers[worker_id]
            batch = pending.take(cap)
            service = batching.batch_time(
                len(batch)
            ) * plan.slowdown_factor(worker_id, now)
            busy_s += service
            batch_sizes.append(len(batch))
            if telemetry is not None:
                telemetry.record_batch(now, len(batch), cap, len(pending))
            inflight[worker_id] = (batch, now + service)
            events.push(
                now + service,
                "done",
                (worker_id, batch, epoch[worker_id]),
            )
        if pending and free_workers:
            # waiting on max_wait: arm a timer for the oldest request
            due = pending.oldest_arrival() + sim.policy.max_wait_s
            if timer_at is None or due < timer_at:
                timer_at = due
                events.push(max(due, now), "timer", None)

    events_dispatched = 0
    while events:
        event = events.pop()
        events_dispatched += 1
        now = event.time
        if event.kind == "arrival":
            pending.push(event.payload, now)
        elif event.kind == "done":
            worker_id, batch, batch_epoch = event.payload
            if batch_epoch != epoch[worker_id]:
                continue  # batch was cancelled by a preemption
            inflight.pop(worker_id, None)
            free_workers.append(worker_id)
            for request_id, arrival_s in batch:
                latencies[request_id] = now - arrival_s
                status[request_id] = _SERVED
                if telemetry is not None:
                    telemetry.record_served(now, now - arrival_s)
        elif event.kind == "timer":
            timer_at = None
        elif event.kind == "preempt":
            preemption = event.payload
            worker_id = preemption.target % pool
            if worker_id in down:
                continue  # already out; nothing more to take
            preempted_total += 1
            down.add(worker_id)
            epoch[worker_id] += 1
            if worker_id in free_workers:
                free_workers.remove(worker_id)
            if worker_id in inflight:
                batch, done_at = inflight.pop(worker_id)
                busy_s -= done_at - now  # the cancelled tail never ran
                requeue(batch, now)
            if preemption.recover_after_s is not None:
                events.push(
                    now + preemption.recover_after_s,
                    "recover",
                    worker_id,
                )
        elif event.kind == "recover":
            worker_id = event.payload
            if worker_id in down:
                down.remove(worker_id)
                free_workers.append(worker_id)
        dispatch(now)

    get_metrics().counter("serving.events").inc(events_dispatched)

    # requests still queued when the event horizon ends had no
    # surviving capacity (or timed out unseen): they are dropped
    while pending:
        request_id, _ = pending.take(1)[0]
        status[request_id] = _DROPPED
        if telemetry is not None:
            telemetry.record_dropped(now)

    duration = now  # last event time
    served_mask = status == _SERVED
    rate = (
        sim.hourly_rate
        if sim.hourly_rate is not None
        else sim.configuration.total_price_per_hour
    )
    return ServingReport(
        requests=arrivals.size,
        duration_s=duration,
        latencies_s=latencies[served_mask],
        batch_sizes=np.asarray(batch_sizes),
        busy_s=busy_s,
        worker_count=pool,
        cost=hourly_rate_cost(rate, duration),
        accuracy=sim.accuracy_model.accuracy(sim.spec),
        retries=retries_total,
        dropped=int((status == _DROPPED).sum()),
        preempted=preempted_total,
    )


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------
def _total_backlog(backlog: Sequence[float]) -> float:
    """Fleet-wide fluid queue estimate (what depth limits compare).

    One fixed-order, left-to-right ``+=`` sum, which the decision pass
    in :meth:`~repro.serving.router.FleetRouter.route` reproduces as it
    drains: ``sum()`` switched to compensated summation in Python 3.12
    and ``np.sum`` regroups from eight elements on.
    """
    total = 0.0
    for b in backlog:
        total += b
    return total


class _RoutingState:
    """Mutable per-run view the policies share.

    ``backlog`` is a fluid model of each replica's queue: it decays at
    the replica's modelled saturated throughput between arrivals and
    grows by one per assignment.  Deterministic by construction — no
    co-simulation with the replica event loops is needed.
    """

    def __init__(self, capacities: Sequence[float]) -> None:
        self.capacity = np.asarray(capacities, dtype=float)
        self.backlog = np.zeros(len(capacities))
        self._last_t = 0.0

    def advance(self, now: float) -> None:
        """Drain every backlog to ``now`` at the replica's capacity."""
        dt = now - self._last_t
        if dt > 0:
            self.backlog = np.maximum(
                0.0, self.backlog - dt * self.capacity
            )
            self._last_t = now

    def assign(self, replica: int) -> None:
        """Record one request routed to ``replica``."""
        self.backlog[replica] += 1.0

    @property
    def total_backlog(self) -> float:
        """Fleet-wide fluid queue estimate (for depth limits)."""
        return _total_backlog(self.backlog.tolist())


class _RoundRobin:
    """Cycle replicas in declaration order."""

    def __init__(self, router: FleetRouter) -> None:
        self._n = len(router.replicas)
        self._next = 0

    def select(
        self,
        now: float,
        floor: float,
        deadline: float,
        state: _RoutingState,
    ) -> int:
        """Pick the next replica in the cycle (floor/deadline ignored)."""
        pick = self._next
        self._next = (self._next + 1) % self._n
        return pick


class _JoinShortestQueue:
    """Route to the replica with the smallest fluid backlog."""

    def __init__(self, router: FleetRouter) -> None:
        pass

    def select(
        self,
        now: float,
        floor: float,
        deadline: float,
        state: _RoutingState,
    ) -> int:
        """Pick the least-loaded replica (ties go to the lowest index)."""
        return int(np.argmin(state.backlog))


class _WeightedThroughput:
    """Smooth weighted round-robin over modelled throughput.

    The classic smooth-WRR scheme: each replica accumulates its weight
    every arrival, the largest accumulator wins and pays back the total
    weight.  With weights (3, 1) the sequence is A A B A — spread out,
    not bursty, and fully deterministic.
    """

    def __init__(self, router: FleetRouter) -> None:
        self._weights = np.array(
            [
                r.weight if r.weight is not None else c
                for r, c in zip(router.replicas, router.capacities)
            ],
            dtype=float,
        )
        if not np.all(self._weights > 0):
            raise ConfigurationError(
                "weighted routing needs positive capacities/weights"
            )
        self._current = np.zeros(len(self._weights))

    def select(
        self,
        now: float,
        floor: float,
        deadline: float,
        state: _RoutingState,
    ) -> int:
        """Pick by smooth weighted round-robin (floor/deadline ignored)."""
        self._current += self._weights
        pick = int(np.argmax(self._current))
        self._current[pick] -= self._weights.sum()
        return pick


class _AccuracyTiered:
    """Cheapest replica whose accuracy clears the request's floor.

    ``floor`` is a Top-5 accuracy requirement in percent.  Among the
    replicas that clear it, the lowest hourly rate wins; rate ties are
    broken by the smaller fluid backlog, then declaration order.  When
    *no* replica clears the floor the request degrades gracefully to
    the most accurate replica instead of being rejected.
    """

    def __init__(self, router: FleetRouter) -> None:
        self._top5 = np.array(
            [a.top5 for a in router.accuracies], dtype=float
        )
        self._rates = np.array(router.rates_per_hour, dtype=float)
        self._best = int(np.argmax(self._top5))

    def select(
        self,
        now: float,
        floor: float,
        deadline: float,
        state: _RoutingState,
    ) -> int:
        """Pick the cheapest floor-clearing replica (see class doc)."""
        eligible = np.flatnonzero(self._top5 >= floor - 1e-9)
        if eligible.size == 0:
            return self._best
        rates = self._rates[eligible]
        cheapest = eligible[np.flatnonzero(rates == rates.min())]
        if cheapest.size == 1:
            return int(cheapest[0])
        return int(cheapest[np.argmin(state.backlog[cheapest])])


class _Adaptive:
    """Per-request accuracy tier from deadline, floor, and backlog.

    Deadline-aware tiered routing with a degradation ladder: among the
    replicas that clear the request's accuracy floor *and* whose fluid
    estimated wait (``backlog / capacity``) fits its deadline, the
    lowest hourly rate wins — rate ties go to the smaller backlog,
    then declaration order, exactly like ``tiered``.  When no replica
    satisfies both, the request degrades gracefully instead of piling
    onto a saturated tier: first to the most accurate replica that
    still makes the deadline (a lower-accuracy answer in time beats an
    accurate one too late), and when even that fails, to the replica
    with the smallest estimated wait.
    """

    def __init__(self, router: FleetRouter) -> None:
        self._top5 = np.array(
            [a.top5 for a in router.accuracies], dtype=float
        )
        self._rates = np.array(router.rates_per_hour, dtype=float)
        self._capacity = np.asarray(router.capacities, dtype=float)

    def select(
        self,
        now: float,
        floor: float,
        deadline: float,
        state: _RoutingState,
    ) -> int:
        """Cheapest floor-clearing replica whose estimated wait meets
        the deadline; degrade to the most accurate timely replica,
        then to the smallest estimated wait (see class doc)."""
        backlog = state.backlog
        wait = backlog / self._capacity
        timely = wait <= deadline
        eligible = np.flatnonzero(timely & (self._top5 >= floor - 1e-9))
        if eligible.size == 0:
            makes_it = np.flatnonzero(timely)
            if makes_it.size:
                return int(makes_it[np.argmax(self._top5[makes_it])])
            return int(np.argmin(wait))
        rates = self._rates[eligible]
        cheapest = eligible[np.flatnonzero(rates == rates.min())]
        if cheapest.size == 1:
            return int(cheapest[0])
        return int(cheapest[np.argmin(backlog[cheapest])])


#: routing policy name -> reference implementation (same names as
#: :data:`repro.serving.router.ROUTING_POLICIES`).
POLICIES: dict[str, type] = {
    "round-robin": _RoundRobin,
    "jsq": _JoinShortestQueue,
    "weighted": _WeightedThroughput,
    "tiered": _AccuracyTiered,
    "adaptive": _Adaptive,
}


def route(
    router: FleetRouter,
    arrivals: np.ndarray,
    floors: np.ndarray | None = None,
    deadlines: np.ndarray | None = None,
) -> np.ndarray:
    """Assign each arrival to a replica index of ``router``, or ``-1``
    for shed, one arrival at a time.

    ``floors`` / ``deadlines`` default to no requirement (floor 0, an
    infinite deadline), as in :meth:`FleetRouter.route`.  Past the
    admission policy's ``degrade_limit`` the request's floor is waived
    (passed to the policy as 0), the graceful-degradation rung before
    ``queue_limit`` shedding.
    """
    arrivals = np.asarray(arrivals, dtype=float)
    if floors is None:
        floors = np.zeros(arrivals.size)
    if deadlines is None:
        deadlines = np.full(arrivals.size, np.inf)
    policy = POLICIES[router.routing](router)
    state = _RoutingState(router.capacities)
    admission = router.admission
    tokens = float(admission.burst) if admission else 0.0
    last_refill = 0.0
    assignment = np.empty(arrivals.size, dtype=np.int64)
    for i, (t, floor, deadline) in enumerate(
        zip(arrivals, floors, deadlines)
    ):
        state.advance(t)
        degrade = False
        if admission is not None:
            if admission.rate_per_s is not None:
                tokens = min(
                    float(admission.burst),
                    tokens + (t - last_refill) * admission.rate_per_s,
                )
                last_refill = t
            shed = (
                admission.queue_limit is not None
                and state.total_backlog >= admission.queue_limit
            ) or (admission.rate_per_s is not None and tokens < 1.0)
            if shed:
                assignment[i] = -1
                continue
            if admission.rate_per_s is not None:
                tokens -= 1.0
            degrade = (
                admission.degrade_limit is not None
                and state.total_backlog >= admission.degrade_limit
            )
        pick = policy.select(
            float(t),
            0.0 if degrade else float(floor),
            float(deadline),
            state,
        )
        state.assign(pick)
        assignment[i] = pick
    return assignment
