"""The operations behind the API types — one implementation, every
transport.

:func:`plan`, :func:`evaluate_fleets` and :func:`cheapest_fleets` take
the request dataclasses from :mod:`repro.api.types` and answer them
against the process-wide content-keyed caches
(:func:`repro.core.evalspace.evaluate`,
:func:`repro.serving.fleet.evaluate_fleet`).  The HTTP service, the
CLI subcommands and library callers all land here, so a query issued
over any transport warms the cache for every other one.

Request resolution is memoized: the (model, grid, workload) fields of
a request map to long-lived :class:`~repro.core.evalspace.SpaceSpec` /
model objects via ``lru_cache``, so a warm planning query costs one
precomputed-hash cache probe plus the vectorised selection — the
property the ``service.plan`` bench scenario measures.  Both caches
are single-flight per key: concurrent identical requests produce one
miss, and hits or other keys never wait on that build.

:func:`fleet_report` and :func:`select_cheapest_fleet` are the
spec-level entry points for callers that already hold
:class:`~repro.serving.fleet.FleetSpec` objects (experiments,
notebooks); :mod:`repro.core.planner` holds the private selection
kernels behind both.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

from repro.api.types import (
    ApiError,
    FleetDesign,
    FleetRequest,
    FleetResponse,
    FleetView,
    PlanPoint,
    PlanRequest,
    PlanResponse,
)
from repro.calibration import MODELS
from repro.errors import InfeasibleError, ReproError
from repro.obs import get_tracer

__all__ = [
    "cheapest_fleets",
    "clear_api_caches",
    "evaluate_fleets",
    "fleet_report",
    "goodput_accuracy_frontier",
    "plan",
    "select_cheapest_fleet",
]

# ----------------------------------------------------------------------
# memoized request resolution
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def _model_pair(name: str):
    """The calibrated (time, accuracy) model pair for ``name``."""
    if name not in MODELS:
        raise ApiError("unknown_model", f"unknown model {name!r}")
    row = MODELS[name]
    return row.time_model(), row.accuracy_model()


@lru_cache(maxsize=32)
def _plan_space_spec(
    model: str,
    images: int,
    instances_per_type: int,
    catalog: tuple[str, ...] | None,
):
    """The grid spec a plan request resolves to (memoized: repeated
    requests reuse one spec instance, whose cache key hashes once)."""
    from repro.cloud.catalog import EC2_CATALOG, instance_type
    from repro.core.config_space import enumerate_configurations
    from repro.core.evalspace import SpaceSpec

    time_model, accuracy_model = _model_pair(model)
    types = (
        tuple(EC2_CATALOG)
        if catalog is None
        else tuple(instance_type(n) for n in catalog)
    )
    return SpaceSpec.build(
        time_model,
        accuracy_model,
        MODELS[model].plan_degrees(),
        enumerate_configurations(types, max_per_type=instances_per_type),
        images,
    )


def planning_space(request: PlanRequest):
    """The memoized :class:`~repro.core.planner.PlanningSpace` a plan
    request runs its queries over (evaluated on first use)."""
    from repro.core.evalspace import evaluate
    from repro.core.planner import PlanningSpace

    try:
        spec = _plan_space_spec(
            request.model,
            request.images,
            request.instances_per_type,
            request.catalog,
        )
    except ReproError as exc:
        raise ApiError.from_exception(exc) from exc
    return PlanningSpace(space=evaluate(spec), metric=request.metric)


# ----------------------------------------------------------------------
# planning
# ----------------------------------------------------------------------
def plan(request: PlanRequest, *, space=None) -> PlanResponse:
    """Answer one :class:`PlanRequest`.

    ``space`` overrides the grid — pass a
    :class:`~repro.core.planner.PlanningSpace` built from your own
    calibrated models to plan over a custom space (the request's
    model/grid fields are then ignored for evaluation but still label
    the response).  Raises :class:`ApiError` (``infeasible`` when no
    grid point satisfies the constraints).
    """
    from repro.core.planner import (
        _iso_accuracy_frontier,
        _min_budget_for,
        _min_deadline_for,
    )

    with get_tracer().span(
        "api.plan", model=request.model, target=request.target
    ) as span:
        if space is None:
            space = planning_space(request)
        target = float(request.target)
        try:
            if request.deadline_h is not None:
                result = _min_budget_for(
                    space, target, request.deadline_h * 3600.0
                )
                if (
                    request.budget is not None
                    and result.cost > request.budget
                ):
                    raise InfeasibleError(
                        f"cheapest plan inside {request.deadline_h:g}h "
                        f"costs ${result.cost:.2f} > budget "
                        f"${request.budget:.2f}"
                    )
                kind, results = "min_budget", [result]
            elif request.budget is not None:
                kind, results = "min_deadline", [
                    _min_deadline_for(space, target, request.budget)
                ]
            else:
                kind, results = "frontier", _iso_accuracy_frontier(
                    space, target
                )
        except ReproError as exc:
            raise ApiError.from_exception(exc) from exc
        if span is not None:
            span.tags["kind"] = kind
        return PlanResponse(
            kind=kind,
            request=request,
            points=tuple(PlanPoint.from_result(r) for r in results),
        )


# ----------------------------------------------------------------------
# fleets
# ----------------------------------------------------------------------
def _bind_design(design: FleetDesign, index: int, model: str):
    """Build the :class:`~repro.serving.fleet.FleetSpec` a declarative
    design describes, bound to ``model``'s calibrated pair."""
    from repro.cloud.catalog import instance_type
    from repro.cloud.configuration import ResourceConfiguration
    from repro.cloud.instance import CloudInstance
    from repro.pruning.base import PruneSpec
    from repro.serving.batcher import BatchPolicy
    from repro.serving.fleet import FleetSpec
    from repro.serving.router import AdmissionPolicy, ReplicaSpec

    time_model, accuracy_model = _model_pair(model)
    policy = BatchPolicy(
        max_batch=design.max_batch, max_wait_s=design.max_wait_s
    )
    replicas = []
    for i, replica in enumerate(design.replicas):
        configuration = ResourceConfiguration(
            [
                CloudInstance(instance_type(replica.instance_type))
                for _ in range(replica.count)
            ]
        )
        name = replica.name
        if name is None:
            name = f"r{i + 1}-{replica.instance_type}" + (
                "-pruned" if replica.spec else ""
            )
        replicas.append(
            ReplicaSpec(
                name=name,
                configuration=configuration,
                spec=PruneSpec(dict(replica.spec)),
                policy=policy,
                weight=replica.weight,
            )
        )
    admission = None
    if (
        design.admission_rate_per_s is not None
        or design.queue_limit is not None
    ):
        admission = AdmissionPolicy(
            rate_per_s=design.admission_rate_per_s,
            burst=design.admission_burst,
            queue_limit=design.queue_limit,
        )
    return FleetSpec(
        time_model=time_model,
        accuracy_model=accuracy_model,
        replicas=tuple(replicas),
        routing=design.routing,
        admission=admission,
    )


def _fleet_response(request: FleetRequest, kind: str) -> FleetResponse:
    """Bind every design, then evaluate each (a bad name or design
    fails before any simulation runs); ``cheapest`` names the winner."""
    from repro.core.planner import _cheapest_report

    with get_tracer().span(f"api.fleet.{kind}", designs=len(request.designs)):
        workload = request.workload()
        designs = tuple(enumerate(request.designs))
        names = [design.label(index) for index, design in designs]
        if len(set(names)) != len(names):
            raise ApiError(
                "invalid_request",
                f"design names must be unique, got {names}",
            )
        try:
            specs = [_bind_design(d, i, request.model) for i, d in designs]
            reports = [fleet_report(spec, workload) for spec in specs]
        except ReproError as exc:
            raise ApiError.from_exception(exc) from exc
    chosen = None
    if kind == "cheapest":
        try:
            best = _cheapest_report(
                reports, request.availability, request.p99_s
            )
        except ReproError as exc:
            raise ApiError.from_exception(exc) from exc
        chosen = names[best]
    return FleetResponse(
        kind=kind,
        views=tuple(
            FleetView.from_report(name, spec, report)
            for name, spec, report in zip(names, specs, reports)
        ),
        chosen=chosen,
        reports=tuple(reports),
    )


def evaluate_fleets(request: FleetRequest) -> FleetResponse:
    """Evaluate every design in ``request`` under its workload."""
    return _fleet_response(request, "evaluate")


def cheapest_fleets(request: FleetRequest) -> FleetResponse:
    """Pick the cheapest design meeting the request's availability and
    (optional) p99 constraints; every design's view is still returned
    so callers can see why the winner won."""
    return _fleet_response(request, "cheapest")


# ----------------------------------------------------------------------
# spec-level entry points (callers holding FleetSpec objects)
# ----------------------------------------------------------------------
def fleet_report(spec, workload):
    """Evaluate one :class:`~repro.serving.fleet.FleetSpec` under a
    :class:`~repro.serving.fleet.FleetWorkload` through the
    content-keyed fleet cache (single-flight per key)."""
    from repro.serving.fleet import evaluate_fleet

    return evaluate_fleet(spec, workload)


def goodput_accuracy_frontier(
    candidates: Sequence,
    workload,
):
    """The cost / goodput-at-accuracy Pareto frontier over candidate
    :class:`~repro.serving.fleet.FleetSpec` objects.

    Evaluates every candidate under ``workload`` (through the shared
    fleet cache) and keeps the fleets no rival beats on *both* axes —
    lower hourly cost and higher
    :attr:`~repro.serving.router.FleetReport.goodput_at_accuracy`
    (served requests credited at their accuracy floor, per second).
    This is the planner query a degradation policy is judged by: a
    fleet that sheds or over-degrades under load falls off the
    frontier even when its raw goodput looks fine.

    Returns ``(spec, report)`` pairs sorted by ascending hourly cost.
    Raises :class:`ApiError` (``invalid_request``) when no candidates
    are given.
    """
    candidates = tuple(candidates)
    if not candidates:
        raise ApiError(
            "invalid_request",
            "goodput frontier needs at least one candidate",
        )
    evaluated = [
        (spec, fleet_report(spec, workload)) for spec in candidates
    ]
    frontier = []
    for spec, report in evaluated:
        dominated = any(
            (
                other.hourly_rate <= spec.hourly_rate
                and other_report.goodput_at_accuracy
                > report.goodput_at_accuracy
            )
            or (
                other.hourly_rate < spec.hourly_rate
                and other_report.goodput_at_accuracy
                >= report.goodput_at_accuracy
            )
            for other, other_report in evaluated
        )
        if not dominated:
            frontier.append((spec, report))
    frontier.sort(
        key=lambda pair: (
            pair[0].hourly_rate,
            -pair[1].goodput_at_accuracy,
        )
    )
    return frontier


def select_cheapest_fleet(
    candidates: Sequence,
    workload,
    *,
    availability: float = 0.999,
    p99_s: float | None = None,
):
    """Cheapest candidate :class:`~repro.serving.fleet.FleetSpec`
    meeting availability A and p99 L; returns ``(spec, report)``.

    Candidates are evaluated through the fleet cache; declaration order
    breaks cost ties.  Raises :class:`ApiError` (``infeasible``) when
    no candidate qualifies.
    """
    from repro.core.planner import _cheapest_report

    candidates = tuple(candidates)
    try:
        if not candidates:
            raise InfeasibleError("no candidate fleets to choose from")
        reports = [fleet_report(spec, workload) for spec in candidates]
        best = _cheapest_report(reports, availability, p99_s)
    except ReproError as exc:
        raise ApiError.from_exception(exc) from exc
    return candidates[best], reports[best]


# ----------------------------------------------------------------------
# cache hygiene
# ----------------------------------------------------------------------
def clear_api_caches() -> None:
    """Drop every API-layer memo *and* the evaluation caches.

    Benchmarks and tests that count cache traffic must start cold:
    memoized model instances also keep their per-degree
    ``time_fraction`` memos, so anything short of a full clear leaks
    warm state into the next measurement.
    """
    from repro.core.evalspace import clear_space_cache
    from repro.serving.fleet import clear_fleet_cache

    _model_pair.cache_clear()
    _plan_space_spec.cache_clear()
    clear_space_cache()
    clear_fleet_cache()
