"""Frozen, schema-versioned request/response types of the public API.

Every way into the planner — the ``python -m repro plan`` CLI, the
:mod:`repro.service` HTTP control plane, library callers, the load
generator — speaks these types.  They are deliberately boring:

* **requests** (:class:`PlanRequest`, :class:`FleetRequest` and its
  parts) are frozen dataclasses that validate on construction and
  round-trip losslessly through ``to_dict``/``from_dict``, so a JSON
  body over HTTP and a keyword call in a notebook build the *same*
  object and therefore hit the same content-keyed caches;
* **responses** (:class:`PlanResponse`, :class:`FleetResponse`) carry
  plain-data views plus, for library callers, the rich simulation
  objects they were built from; ``PlanResponse.render()`` reproduces
  the historical CLI text byte-for-byte;
* **errors** (:class:`ApiError`) give every failure a stable machine
  code and a canonical HTTP status, mapped from the library exception
  hierarchy by :meth:`ApiError.from_exception`.

The schema string ``repro.api/v1`` stamps every serialised payload;
compatible extensions add optional fields, incompatible ones bump the
version.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import TYPE_CHECKING

from repro.errors import (
    ConfigurationError,
    InfeasibleError,
    PruningError,
    ReproError,
    UnknownArtefactError,
)

if TYPE_CHECKING:
    from repro.cloud.simulator import SimulationResult
    from repro.serving.fleet import FleetSpec, FleetWorkload
    from repro.serving.router import FleetReport

__all__ = [
    "API_SCHEMA",
    "ERROR_STATUS",
    "MAX_FLEET_REQUESTS",
    "MAX_PLAN_GRID_POINTS",
    "ApiError",
    "FleetDesign",
    "FleetReplica",
    "FleetRequest",
    "FleetResponse",
    "FleetView",
    "PlanPoint",
    "PlanRequest",
    "PlanResponse",
    "ReplicaView",
]

API_SCHEMA = "repro.api/v1"

#: stable error code -> canonical HTTP status.  Codes are part of the
#: v1 contract: clients may switch on them, so they never change
#: meaning; new failure modes get new codes.
ERROR_STATUS: dict[str, int] = {
    "invalid_request": 400,
    "unknown_model": 404,
    "unknown_artefact": 404,
    "not_found": 404,
    "infeasible": 422,
    "overloaded": 503,
    "internal": 500,
}

_KNOWN_MODELS = ("caffenet", "googlenet")
_KNOWN_METRICS = ("top1", "top5")

#: work budget of one plan request, in evaluation-grid points
#: (configurations x degrees of pruning).  It admits the paper's own
#: space: up to 3 instances of each of the 6 catalog types over
#: caffenet's 60 degrees, 245,700 points (the default 2 per type is
#: 43,680).
MAX_PLAN_GRID_POINTS = 250_000
#: work budget of one fleet request, in simulated requests
#: (rate x duration x designs)
MAX_FLEET_REQUESTS = 1_000_000


class ApiError(ReproError):
    """A failure with a stable machine code and HTTP status.

    ``code`` is one of the :data:`ERROR_STATUS` keys; ``http_status``
    defaults to the canonical status for the code.  The message is the
    human-readable reason, ``detail`` an optional structured payload.
    """

    def __init__(
        self,
        code: str,
        message: str,
        *,
        http_status: int | None = None,
        detail: object = None,
    ) -> None:
        if code not in ERROR_STATUS:
            raise ValueError(f"unknown ApiError code {code!r}")
        super().__init__(message)
        self.code = code
        self.http_status = (
            ERROR_STATUS[code] if http_status is None else http_status
        )
        self.detail = detail

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The serialised error body every transport returns."""
        error: dict = {"code": self.code, "message": str(self)}
        if self.detail is not None:
            error["detail"] = self.detail
        return {"schema": API_SCHEMA, "error": error}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ApiError":
        """Rebuild an error a server serialised (client side)."""
        error = payload.get("error")
        if not isinstance(error, Mapping) or "code" not in error:
            raise ValueError(f"not an {API_SCHEMA} error body: {payload!r}")
        code = error["code"]
        if code not in ERROR_STATUS:
            code = "internal"
        return cls(
            code,
            str(error.get("message", "")),
            detail=error.get("detail"),
        )

    @classmethod
    def from_exception(cls, exc: Exception) -> "ApiError":
        """Map a library exception onto the stable code space.

        ``ApiError`` passes through; the planner's
        :class:`~repro.errors.InfeasibleError` becomes ``infeasible``
        (422), :class:`~repro.errors.UnknownArtefactError` becomes
        ``unknown_artefact`` (404), other validation errors become
        ``invalid_request`` (400) and anything unexpected is
        ``internal`` (500).
        """
        if isinstance(exc, cls):
            return exc
        if isinstance(exc, InfeasibleError):
            return cls("infeasible", str(exc))
        if isinstance(exc, UnknownArtefactError):
            return cls("unknown_artefact", str(exc))
        if isinstance(exc, (ConfigurationError, PruningError, ReproError)):
            return cls("invalid_request", str(exc))
        return cls("internal", f"{type(exc).__name__}: {exc}")


# ----------------------------------------------------------------------
# shared (de)serialisation helpers
# ----------------------------------------------------------------------
def _require_mapping(payload: object, what: str) -> Mapping:
    if not isinstance(payload, Mapping):
        raise ApiError(
            "invalid_request",
            f"{what} must be a JSON object, got {type(payload).__name__}",
        )
    return payload


def _check_schema(payload: Mapping, what: str) -> None:
    schema = payload.get("schema")
    if schema is not None and schema != API_SCHEMA:
        raise ApiError(
            "invalid_request",
            f"{what} carries schema {schema!r}; this server speaks "
            f"{API_SCHEMA}",
        )


def _reject_unknown_keys(
    payload: Mapping, allowed: Sequence[str], what: str
) -> None:
    unknown = sorted(set(payload) - {*allowed, "schema"})
    if unknown:
        raise ApiError(
            "invalid_request",
            f"{what} has unknown fields {unknown}; "
            f"allowed: {sorted(allowed)}",
        )


def _number(value: object, what: str, *, optional: bool = False):
    if value is None and optional:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ApiError(
            "invalid_request",
            f"{what} must be a number, got {value!r}",
        )
    return float(value)


def _json_float(value: float) -> float | None:
    """JSON has no NaN/inf; non-finite floats serialise as ``null``."""
    return float(value) if math.isfinite(value) else None


def _from_json_float(value: object) -> float:
    return float("nan") if value is None else float(value)


# ----------------------------------------------------------------------
# planning
# ----------------------------------------------------------------------
@lru_cache(maxsize=256)
def _plan_grid_points(
    model: str, n_types: int | None, instances_per_type: int
) -> int:
    """Evaluation-grid points of a plan over ``n_types`` catalog types
    (``None``: the full catalog), as the handlers enumerate them."""
    from repro.api.handlers import _plan_degrees
    from repro.cloud.catalog import EC2_CATALOG
    from repro.core.config_space import configuration_space_size

    if n_types is None:
        n_types = len(EC2_CATALOG)
    return configuration_space_size(n_types, instances_per_type) * len(
        _plan_degrees(model)
    )


@dataclass(frozen=True)
class PlanRequest:
    """One inverse planning query over the evaluation grid.

    ``deadline_h`` set — cheapest budget inside the deadline (and, if
    ``budget`` is also set, a feasibility check against it);
    ``budget`` alone — fastest deadline on the budget; neither — the
    full iso-accuracy (time, cost) frontier.  ``catalog`` optionally
    restricts the grid to a subset of instance-type names (default:
    the full EC2 catalog).
    """

    target: float
    model: str = "caffenet"
    metric: str = "top5"
    deadline_h: float | None = None
    budget: float | None = None
    images: int = 20_000_000
    instances_per_type: int = 2
    catalog: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.model not in _KNOWN_MODELS:
            raise ApiError(
                "unknown_model",
                f"unknown model {self.model!r}; "
                f"available: {list(_KNOWN_MODELS)}",
            )
        if self.metric not in _KNOWN_METRICS:
            raise ApiError(
                "invalid_request",
                f"metric must be one of {list(_KNOWN_METRICS)}, "
                f"got {self.metric!r}",
            )
        if not isinstance(self.target, (int, float)) or isinstance(
            self.target, bool
        ):
            raise ApiError(
                "invalid_request",
                f"target must be a number, got {self.target!r}",
            )
        if not 0.0 < float(self.target) <= 100.0:
            raise ApiError(
                "invalid_request",
                f"target accuracy must be in (0, 100], got {self.target}",
            )
        for name in ("deadline_h", "budget"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ApiError(
                    "invalid_request",
                    f"{name} must be positive, got {value}",
                )
        if self.images < 1:
            raise ApiError(
                "invalid_request", f"images must be >= 1, got {self.images}"
            )
        if self.instances_per_type < 1:
            raise ApiError(
                "invalid_request",
                f"instances_per_type must be >= 1, "
                f"got {self.instances_per_type}",
            )
        if self.catalog is not None:
            object.__setattr__(
                self, "catalog", tuple(str(n) for n in self.catalog)
            )
            if not self.catalog:
                raise ApiError(
                    "invalid_request", "catalog must not be empty"
                )
        points = _plan_grid_points(
            self.model,
            None if self.catalog is None else len(self.catalog),
            self.instances_per_type,
        )
        if points > MAX_PLAN_GRID_POINTS:
            raise ApiError(
                "invalid_request",
                f"plan grid of {points:,} points is over the "
                f"{MAX_PLAN_GRID_POINTS:,}-point budget of one request; "
                f"lower instances_per_type or narrow the catalog",
                http_status=413,
            )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The JSON body of this request."""
        out: dict = {
            "schema": API_SCHEMA,
            "model": self.model,
            "target": self.target,
            "metric": self.metric,
            "deadline_h": self.deadline_h,
            "budget": self.budget,
            "images": self.images,
            "instances_per_type": self.instances_per_type,
        }
        if self.catalog is not None:
            out["catalog"] = list(self.catalog)
        return out

    @classmethod
    def from_dict(cls, payload: object) -> "PlanRequest":
        """Validate and build from a decoded JSON body."""
        payload = _require_mapping(payload, "plan request")
        _check_schema(payload, "plan request")
        _reject_unknown_keys(
            payload,
            [f.name for f in fields(cls)],
            "plan request",
        )
        if "target" not in payload:
            raise ApiError(
                "invalid_request", "plan request needs a 'target' field"
            )
        catalog = payload.get("catalog")
        if catalog is not None:
            if not isinstance(catalog, Sequence) or isinstance(
                catalog, (str, bytes)
            ):
                raise ApiError(
                    "invalid_request",
                    "catalog must be a list of instance-type names",
                )
            catalog = tuple(str(n) for n in catalog)
        images = payload.get("images", 20_000_000)
        ipt = payload.get("instances_per_type", 2)
        if isinstance(images, bool) or not isinstance(images, int):
            raise ApiError(
                "invalid_request", f"images must be an integer, got {images!r}"
            )
        if isinstance(ipt, bool) or not isinstance(ipt, int):
            raise ApiError(
                "invalid_request",
                f"instances_per_type must be an integer, got {ipt!r}",
            )
        return cls(
            target=_number(payload["target"], "target"),
            model=str(payload.get("model", "caffenet")),
            metric=str(payload.get("metric", "top5")),
            deadline_h=_number(
                payload.get("deadline_h"), "deadline_h", optional=True
            ),
            budget=_number(payload.get("budget"), "budget", optional=True),
            images=images,
            instances_per_type=ipt,
            catalog=catalog,
        )

    def cache_key(self) -> tuple:
        """Content identity (used by tests and memoising callers)."""
        return (
            self.model,
            float(self.target),
            self.metric,
            self.deadline_h,
            self.budget,
            self.images,
            self.instances_per_type,
            self.catalog,
        )


@dataclass(frozen=True)
class PlanPoint:
    """One grid point a planning answer names (a plain-data view)."""

    spec: str
    configuration: str
    time_s: float
    cost: float
    top1: float
    top5: float

    @classmethod
    def from_result(cls, result: "SimulationResult") -> "PlanPoint":
        """Project a rich simulation record onto the wire view."""
        return cls(
            spec=result.spec.label(),
            configuration=result.configuration.label(),
            time_s=float(result.time_s),
            cost=float(result.cost),
            top1=float(result.accuracy.top1),
            top5=float(result.accuracy.top5),
        )

    @property
    def time_h(self) -> float:
        """Completion time in hours."""
        return self.time_s / 3600.0

    def to_dict(self) -> dict:
        """The JSON form of this point."""
        return {
            "spec": self.spec,
            "configuration": self.configuration,
            "time_s": self.time_s,
            "cost": self.cost,
            "top1": self.top1,
            "top5": self.top5,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "PlanPoint":
        """Rebuild a point from its JSON form."""
        payload = _require_mapping(payload, "plan point")
        return cls(
            spec=str(payload["spec"]),
            configuration=str(payload["configuration"]),
            time_s=float(payload["time_s"]),
            cost=float(payload["cost"]),
            top1=float(payload["top1"]),
            top5=float(payload["top5"]),
        )


@dataclass(frozen=True)
class PlanResponse:
    """The answer to one :class:`PlanRequest`.

    ``kind`` is ``min_budget`` / ``min_deadline`` / ``frontier``;
    ``points`` holds one point for the scalar queries and the full
    fastest-first curve for the frontier.  ``render()`` reproduces the
    historical ``repro plan`` output byte-for-byte.
    """

    kind: str
    request: PlanRequest
    points: tuple[PlanPoint, ...]

    @property
    def best(self) -> PlanPoint:
        """The headline point (the only one for scalar queries)."""
        return self.points[0]

    # ------------------------------------------------------------------
    def _show(self, p: PlanPoint) -> list[str]:
        return [
            f"degree of pruning : {p.spec}",
            f"configuration     : {p.configuration}",
            f"time              : {p.time_h:.2f} h",
            f"cost              : ${p.cost:.2f}",
            f"accuracy          : top1 {p.top1:.1f}% / "
            f"top5 {p.top5:.1f}%",
        ]

    def render(self) -> str:
        """The CLI text of this answer (no trailing newline)."""
        r = self.request
        if self.kind == "min_budget":
            lines = [
                f"minimum budget for {r.target:g}% {r.metric} "
                f"within {r.deadline_h:g}h:"
            ]
            lines.extend(self._show(self.best))
        elif self.kind == "min_deadline":
            lines = [
                f"minimum deadline for {r.target:g}% {r.metric} "
                f"within ${r.budget:.2f}:"
            ]
            lines.extend(self._show(self.best))
        else:
            lines = [
                f"iso-accuracy frontier at {r.target:g}% {r.metric} "
                f"({len(self.points)} points, fastest first):"
            ]
            lines.extend(
                f"  {p.time_h:7.2f} h  ${p.cost:8.2f}  "
                f"{p.spec}  on  {p.configuration}"
                for p in self.points
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """The JSON body of this response."""
        return {
            "schema": API_SCHEMA,
            "kind": self.kind,
            "request": self.request.to_dict(),
            "points": [p.to_dict() for p in self.points],
        }

    @classmethod
    def from_dict(cls, payload: object) -> "PlanResponse":
        """Rebuild a response from its JSON body (client side)."""
        payload = _require_mapping(payload, "plan response")
        _check_schema(payload, "plan response")
        return cls(
            kind=str(payload["kind"]),
            request=PlanRequest.from_dict(payload["request"]),
            points=tuple(
                PlanPoint.from_dict(p) for p in payload["points"]
            ),
        )


# ----------------------------------------------------------------------
# fleets
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FleetReplica:
    """One replica of a declarative fleet design (JSON-able).

    ``spec`` holds the degree of pruning as ``layer -> ratio``
    (canonicalised to a sorted tuple so the dataclass hashes).
    """

    instance_type: str
    count: int = 1
    spec: tuple[tuple[str, float], ...] = ()
    name: str | None = None
    weight: float | None = None

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ApiError(
                "invalid_request",
                f"replica count must be >= 1, got {self.count}",
            )
        if isinstance(self.spec, Mapping):
            object.__setattr__(
                self,
                "spec",
                tuple(sorted((str(k), float(v)) for k, v in self.spec.items())),
            )
        else:
            object.__setattr__(
                self,
                "spec",
                tuple(sorted((str(k), float(v)) for k, v in self.spec)),
            )

    def to_dict(self) -> dict:
        """The JSON form of this replica."""
        out: dict = {
            "instance_type": self.instance_type,
            "count": self.count,
            "spec": {k: v for k, v in self.spec},
        }
        if self.name is not None:
            out["name"] = self.name
        if self.weight is not None:
            out["weight"] = self.weight
        return out

    @classmethod
    def from_dict(cls, payload: object) -> "FleetReplica":
        """Validate and build from a decoded JSON object."""
        payload = _require_mapping(payload, "fleet replica")
        _reject_unknown_keys(
            payload, [f.name for f in fields(cls)], "fleet replica"
        )
        if "instance_type" not in payload:
            raise ApiError(
                "invalid_request",
                "fleet replica needs an 'instance_type' field",
            )
        spec = payload.get("spec", ())
        if not isinstance(spec, (Mapping, Sequence)) or isinstance(
            spec, (str, bytes)
        ):
            raise ApiError(
                "invalid_request",
                "replica spec must be a {layer: ratio} object",
            )
        count = payload.get("count", 1)
        if isinstance(count, bool) or not isinstance(count, int):
            raise ApiError(
                "invalid_request",
                f"replica count must be an integer, got {count!r}",
            )
        return cls(
            instance_type=str(payload["instance_type"]),
            count=count,
            spec=spec if isinstance(spec, Mapping) else tuple(spec),
            name=(
                None
                if payload.get("name") is None
                else str(payload["name"])
            ),
            weight=_number(
                payload.get("weight"), "replica weight", optional=True
            ),
        )


@dataclass(frozen=True)
class FleetDesign:
    """A whole candidate fleet: replicas + routing + admission.

    The JSON-able counterpart of
    :class:`repro.serving.fleet.FleetSpec`; the handler layer binds it
    to a model pair to build the spec it evaluates.
    """

    replicas: tuple[FleetReplica, ...]
    name: str | None = None
    routing: str = "round-robin"
    admission_rate_per_s: float | None = None
    admission_burst: int = 32
    queue_limit: float | None = None
    max_batch: int = 32
    max_wait_s: float = 0.05

    def __post_init__(self) -> None:
        object.__setattr__(self, "replicas", tuple(self.replicas))
        if not self.replicas:
            raise ApiError(
                "invalid_request", "fleet design needs >= 1 replica"
            )

    def label(self, index: int) -> str:
        """This design's display name (``fleet-<n>`` when unnamed)."""
        return self.name if self.name is not None else f"fleet-{index + 1}"

    def to_dict(self) -> dict:
        """The JSON form of this design."""
        out: dict = {
            "replicas": [r.to_dict() for r in self.replicas],
            "routing": self.routing,
            "max_batch": self.max_batch,
            "max_wait_s": self.max_wait_s,
        }
        if self.name is not None:
            out["name"] = self.name
        if self.admission_rate_per_s is not None:
            out["admission_rate_per_s"] = self.admission_rate_per_s
            out["admission_burst"] = self.admission_burst
        if self.queue_limit is not None:
            out["queue_limit"] = self.queue_limit
        return out

    @classmethod
    def from_dict(cls, payload: object) -> "FleetDesign":
        """Validate and build from a decoded JSON object."""
        payload = _require_mapping(payload, "fleet design")
        _reject_unknown_keys(
            payload, [f.name for f in fields(cls)], "fleet design"
        )
        replicas = payload.get("replicas")
        if not isinstance(replicas, Sequence) or isinstance(
            replicas, (str, bytes)
        ):
            raise ApiError(
                "invalid_request",
                "fleet design needs a 'replicas' list",
            )
        burst = payload.get("admission_burst", 32)
        if isinstance(burst, bool) or not isinstance(burst, int):
            raise ApiError(
                "invalid_request",
                f"admission_burst must be an integer, got {burst!r}",
            )
        return cls(
            replicas=tuple(FleetReplica.from_dict(r) for r in replicas),
            name=(
                None
                if payload.get("name") is None
                else str(payload["name"])
            ),
            routing=str(payload.get("routing", "round-robin")),
            admission_rate_per_s=_number(
                payload.get("admission_rate_per_s"),
                "admission_rate_per_s",
                optional=True,
            ),
            admission_burst=burst,
            queue_limit=_number(
                payload.get("queue_limit"), "queue_limit", optional=True
            ),
            max_batch=int(payload.get("max_batch", 32)),
            max_wait_s=float(payload.get("max_wait_s", 0.05)),
        )


@dataclass(frozen=True)
class FleetRequest:
    """Evaluate (or pick the cheapest of) candidate fleet designs.

    ``workload`` uses the same fields as
    :class:`repro.serving.fleet.FleetWorkload`; ``availability`` and
    ``p99_s`` are the feasibility constraints of the *cheapest* query
    and are ignored by plain evaluation.
    """

    designs: tuple[FleetDesign, ...]
    rate_per_s: float
    duration_s: float
    model: str = "caffenet"
    arrival: str = "poisson"
    seed: int = 0
    floors: tuple[tuple[float, float], ...] = ()
    availability: float = 0.999
    p99_s: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "designs", tuple(self.designs))
        object.__setattr__(
            self,
            "floors",
            tuple((float(f), float(w)) for f, w in self.floors),
        )
        if self.model not in _KNOWN_MODELS:
            raise ApiError(
                "unknown_model",
                f"unknown model {self.model!r}; "
                f"available: {list(_KNOWN_MODELS)}",
            )
        if not self.designs:
            raise ApiError(
                "invalid_request", "fleet request needs >= 1 design"
            )
        if not (self.rate_per_s > 0 and self.duration_s > 0):
            raise ApiError(
                "invalid_request",
                "workload rate and duration must be positive",
            )
        simulated = self.rate_per_s * self.duration_s * len(self.designs)
        if simulated > MAX_FLEET_REQUESTS:
            raise ApiError(
                "invalid_request",
                f"{simulated:,.0f} simulated requests (rate x duration x "
                f"designs) is over the {MAX_FLEET_REQUESTS:,}-request "
                f"budget of one request",
                http_status=413,
            )

    def workload(self) -> "FleetWorkload":
        """The reproducible offered load this request describes."""
        from repro.serving.fleet import FleetWorkload

        try:
            return FleetWorkload(
                self.rate_per_s,
                self.duration_s,
                arrival=self.arrival,
                seed=self.seed,
                floors=self.floors,
            )
        except ReproError as exc:
            raise ApiError.from_exception(exc) from exc

    def to_dict(self) -> dict:
        """The JSON body of this request."""
        return {
            "schema": API_SCHEMA,
            "model": self.model,
            "designs": [d.to_dict() for d in self.designs],
            "rate_per_s": self.rate_per_s,
            "duration_s": self.duration_s,
            "arrival": self.arrival,
            "seed": self.seed,
            "floors": [list(f) for f in self.floors],
            "availability": self.availability,
            "p99_s": self.p99_s,
        }

    @classmethod
    def from_dict(cls, payload: object) -> "FleetRequest":
        """Validate and build from a decoded JSON body."""
        payload = _require_mapping(payload, "fleet request")
        _check_schema(payload, "fleet request")
        _reject_unknown_keys(
            payload, [f.name for f in fields(cls)], "fleet request"
        )
        designs = payload.get("designs")
        if not isinstance(designs, Sequence) or isinstance(
            designs, (str, bytes)
        ):
            raise ApiError(
                "invalid_request", "fleet request needs a 'designs' list"
            )
        for name in ("rate_per_s", "duration_s"):
            if name not in payload:
                raise ApiError(
                    "invalid_request",
                    f"fleet request needs a {name!r} field",
                )
        floors = payload.get("floors", ())
        if not isinstance(floors, Sequence) or isinstance(
            floors, (str, bytes)
        ):
            raise ApiError(
                "invalid_request",
                "floors must be a list of [floor, fraction] pairs",
            )
        seed = payload.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ApiError(
                "invalid_request", f"seed must be an integer, got {seed!r}"
            )
        try:
            floor_pairs = tuple(
                (float(f), float(w)) for f, w in floors
            )
        except (TypeError, ValueError):
            raise ApiError(
                "invalid_request",
                "floors must be a list of [floor, fraction] pairs",
            ) from None
        return cls(
            designs=tuple(FleetDesign.from_dict(d) for d in designs),
            rate_per_s=_number(payload["rate_per_s"], "rate_per_s"),
            duration_s=_number(payload["duration_s"], "duration_s"),
            model=str(payload.get("model", "caffenet")),
            arrival=str(payload.get("arrival", "poisson")),
            seed=seed,
            floors=floor_pairs,
            availability=_number(
                payload.get("availability", 0.999), "availability"
            ),
            p99_s=_number(payload.get("p99_s"), "p99_s", optional=True),
        )


@dataclass(frozen=True)
class ReplicaView:
    """One replica's slice of a fleet evaluation (plain data)."""

    name: str
    served: int
    dropped: int
    cost: float
    p99_s: float
    top5: float

    def to_dict(self) -> dict:
        """The JSON form of this view."""
        return {
            "name": self.name,
            "served": self.served,
            "dropped": self.dropped,
            "cost": self.cost,
            "p99_s": _json_float(self.p99_s),
            "top5": self.top5,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ReplicaView":
        """Rebuild a view from its JSON form."""
        return cls(
            name=str(payload["name"]),
            served=int(payload["served"]),
            dropped=int(payload["dropped"]),
            cost=float(payload["cost"]),
            p99_s=_from_json_float(payload.get("p99_s")),
            top5=float(payload["top5"]),
        )


@dataclass(frozen=True)
class FleetView:
    """One design's fleet-wide outcome (plain data)."""

    name: str
    offered: int
    shed: int
    served: int
    dropped: int
    availability: float
    goodput: float
    cost: float
    hourly_rate: float
    p50_s: float
    p99_s: float
    replicas: tuple[ReplicaView, ...]

    @classmethod
    def from_report(
        cls, name: str, spec: "FleetSpec", report: "FleetReport"
    ) -> "FleetView":
        """Project a rich :class:`FleetReport` onto the wire view."""
        replicas = []
        for outcome in report.outcomes:
            accuracy = spec.accuracy_model.accuracy(outcome.spec.spec)
            p99 = (
                outcome.report.latency_percentile(99)
                if outcome.report is not None
                else float("nan")
            )
            replicas.append(
                ReplicaView(
                    name=outcome.spec.name,
                    served=outcome.served,
                    dropped=outcome.dropped,
                    cost=float(outcome.cost),
                    p99_s=float(p99),
                    top5=float(accuracy.top5),
                )
            )
        return cls(
            name=name,
            offered=report.offered,
            shed=report.shed,
            served=report.served,
            dropped=report.dropped,
            availability=float(report.availability),
            goodput=float(report.goodput),
            cost=float(report.cost),
            hourly_rate=float(spec.hourly_rate),
            p50_s=float(report.latency_percentile(50)),
            p99_s=float(report.latency_percentile(99)),
            replicas=tuple(replicas),
        )

    def to_dict(self) -> dict:
        """The JSON form of this view."""
        return {
            "name": self.name,
            "offered": self.offered,
            "shed": self.shed,
            "served": self.served,
            "dropped": self.dropped,
            "availability": self.availability,
            "goodput": self.goodput,
            "cost": self.cost,
            "hourly_rate": self.hourly_rate,
            "p50_s": _json_float(self.p50_s),
            "p99_s": _json_float(self.p99_s),
            "replicas": [r.to_dict() for r in self.replicas],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "FleetView":
        """Rebuild a view from its JSON form."""
        payload = _require_mapping(payload, "fleet view")
        return cls(
            name=str(payload["name"]),
            offered=int(payload["offered"]),
            shed=int(payload["shed"]),
            served=int(payload["served"]),
            dropped=int(payload["dropped"]),
            availability=float(payload["availability"]),
            goodput=float(payload["goodput"]),
            cost=float(payload["cost"]),
            hourly_rate=float(payload["hourly_rate"]),
            p50_s=_from_json_float(payload.get("p50_s")),
            p99_s=_from_json_float(payload.get("p99_s")),
            replicas=tuple(
                ReplicaView.from_dict(r) for r in payload["replicas"]
            ),
        )


@dataclass(frozen=True)
class FleetResponse:
    """The answer to one :class:`FleetRequest`.

    ``kind`` is ``evaluate`` (one view per design, request order) or
    ``cheapest`` (``chosen`` names the winner; views still cover every
    design so callers can see *why*).  ``reports`` carries the rich
    :class:`FleetReport` objects for in-process callers; it is never
    serialised.
    """

    kind: str
    views: tuple[FleetView, ...]
    chosen: str | None = None
    reports: tuple = field(
        default=(), repr=False, compare=False
    )

    def view(self, name: str) -> FleetView:
        """The view of the design named ``name``."""
        for v in self.views:
            if v.name == name:
                return v
        raise KeyError(name)

    def to_dict(self) -> dict:
        """The JSON body of this response (rich reports excluded)."""
        out: dict = {
            "schema": API_SCHEMA,
            "kind": self.kind,
            "views": [v.to_dict() for v in self.views],
        }
        if self.chosen is not None:
            out["chosen"] = self.chosen
        return out

    @classmethod
    def from_dict(cls, payload: object) -> "FleetResponse":
        """Rebuild a response from its JSON body (client side)."""
        payload = _require_mapping(payload, "fleet response")
        _check_schema(payload, "fleet response")
        return cls(
            kind=str(payload["kind"]),
            views=tuple(
                FleetView.from_dict(v) for v in payload["views"]
            ),
            chosen=(
                None
                if payload.get("chosen") is None
                else str(payload["chosen"])
            ),
        )
