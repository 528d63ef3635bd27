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

Each request and response class declares its wire format once, as a
table of :class:`_Field` rows in emission order (JSON kind, bounds,
choices, how ``None`` travels).  One codec reads the tables: it
decodes (``from_dict``), validates (every constructor, keyword or
wire) and encodes (``to_dict``), so the library and the wire share one
check path, and the docs field reference and the test fuzzer are
derived from the same rows.

The schema string ``repro.api/v1`` stamps every serialised payload;
compatible extensions add optional fields, incompatible ones bump the
version.
"""

from __future__ import annotations

import math
import numbers
import re
import reprlib
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import cached_property, lru_cache, partial
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
    "MAX_FLEET_INSTANCES",
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
#: work budget of one fleet request, in simulated instances (replica
#: counts summed over every design), since binding and simulating a
#: fleet takes time linear in its instances.  It admits seven designs
#: of the paper's largest configuration (3 of each of the 6 types).
MAX_FLEET_INSTANCES = 128


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
# the wire schema: one field table per class, one codec
# ----------------------------------------------------------------------
#: JSON kinds of a field; a wire class (its own table) is a kind too
STRING, INTEGER, NUMBER = "string", "integer", "number"
#: a JSON array of the field's ``item`` kind (a tuple in Python)
LIST = "list"
#: a ``{name: number}`` object (a name-sorted tuple of pairs in Python)
RATIOS = "{string: number}"
#: a ``[[number, number], ...]`` array (a tuple of float pairs)
PAIRS = "[[number, number]]"

_WANT = {
    NUMBER: "a finite number",
    INTEGER: "an integer",
    STRING: "a string",
}


@dataclass(frozen=True)
class _Field:
    """One JSON field of a wire class, with every rule it obeys.

    ``bounds`` is an interval such as ``"(0, 100]"`` holding each
    number of the field (for :data:`RATIOS` and :data:`PAIRS`, each
    pair's value).  A field with ``choices`` must be one of them, else
    the request fails with ``code``.  ``null`` says what ``None`` is
    on the wire: ``"emit"`` a JSON null, ``"omit"`` the key, or
    ``"nan"``: a null that stands for a NaN float.  ``emit_if`` names
    a field without whose value this one is not emitted.  ``required``
    and ``optional`` (``None`` allowed) follow the dataclass defaults.
    """

    name: str
    kind: object
    bounds: str | None = None
    item: object = None
    choices: tuple = ()
    code: str = "invalid_request"
    null: str = "emit"
    emit_if: str | None = None
    required: bool = False
    optional: bool = False

    @property
    def json_type(self) -> str:
        """The field's JSON type, as the field reference prints it."""
        kind = self.item if self.kind == LIST else self.kind
        name = kind if isinstance(kind, str) else kind.__name__
        return f"[{name}]" if self.kind == LIST else name

    @cached_property
    def interval(self) -> tuple[float, bool, float, bool]:
        """:attr:`bounds` parsed: ``(lo, lo_open, hi, hi_open)``."""
        lo, hi = (
            float(end.replace("∞", "inf"))
            for end in self.bounds[1:-1].split(",")
        )
        return lo, self.bounds[0] == "(", hi, self.bounds[-1] == ")"

    @cached_property
    def from_json(self):
        """How a JSON value becomes a constructor argument: nested
        objects are decoded (``None``: it is passed as it is)."""
        if self.kind == LIST and isinstance(self.item, type):
            return self._decode_list
        if isinstance(self.kind, type):
            return partial(_decode, self.kind)
        return None

    def _decode_list(self, items: object) -> tuple:
        if not isinstance(items, list):
            raise _kind_error(self, items)
        return tuple(_decode(self.item, v) for v in items)

    @cached_property
    def to_json(self):
        """How a non-null value becomes JSON data (``None``: as it is)."""
        if self.null == "nan":
            return lambda v: v if math.isfinite(v) else None
        if self.kind == RATIOS:
            return dict
        if self.kind == PAIRS:
            return lambda pairs: [list(p) for p in pairs]
        if self.kind == LIST and isinstance(self.item, type):
            return lambda items: [_encode(v) for v in items]
        if self.kind == LIST:
            return list
        return _encode if isinstance(self.kind, type) else None

    def within(self, x: float) -> bool:
        """Whether the number ``x`` lies inside :attr:`bounds`."""
        lo, lo_open, hi, hi_open = self.interval
        return (lo < x if lo_open else lo <= x) and (
            x < hi if hi_open else x <= hi
        )


def _wire(*table: _Field, body: bool = False, strict: bool = True):
    """Make the decorated class a frozen dataclass speaking ``table``.

    ``body`` classes are whole JSON bodies, stamped with (and checked
    against) :data:`API_SCHEMA`.  ``strict`` classes (the requests)
    reject unknown keys; responses ignore them, so an older client
    reads a newer server.
    """

    def bind(cls):
        if "__post_init__" not in vars(cls):
            cls.__post_init__ = _check
        cls = dataclass(frozen=True)(cls)
        defaults = {f.name: f.default for f in fields(cls)}
        cls._WIRE = tuple(
            replace(
                f,
                required=defaults[f.name] is MISSING and f.null != "nan",
                optional=defaults[f.name] is None,
            )
            for f in table
        )
        cls._KEYS = frozenset(f.name for f in table) | {"schema"}
        cls._BODY, cls._STRICT = body, strict
        cls._WHAT = re.sub(r"(?<!^)(?=[A-Z])", " ", cls.__name__).lower()
        # bound per class rather than inherited, so a tracer can wrap
        # one class's entry point (perfbench wraps PlanRequest.from_dict)
        cls.to_dict = _encode
        cls.from_dict = classmethod(_decode)
        return cls

    return bind


def _finite(value: object) -> float | None:
    """``value`` as a finite float; ``None`` if it is no such number."""
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            return None
        try:
            value = float(value)
        except OverflowError:
            return None
    return value if math.isfinite(value) else None


def _pair(kind: str, pair: object) -> tuple | None:
    """One ``(key, float)`` pair of a RATIOS or PAIRS field, or ``None``."""
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        return None
    key, value = pair
    if kind == RATIOS:
        key = key if isinstance(key, str) else None
    else:
        key = _finite(key)
    value = _finite(value)
    return None if key is None or value is None else (key, value)


def _as_number(f: _Field, value: object) -> float:
    number = _finite(value)
    if number is not None:
        return number
    if f.null == "nan" and isinstance(value, float) and value != value:
        return value
    raise _kind_error(f, value)


def _as_integer(f: _Field, value: object) -> int:
    if type(value) is int:
        return value
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise _kind_error(f, value)


def _as_string(f: _Field, value: object) -> str:
    if isinstance(value, str):
        return value
    raise _kind_error(f, value)


def _as_list(f: _Field, value: object) -> tuple:
    item = str if f.item == STRING else f.item
    if isinstance(value, (list, tuple)) and all(
        isinstance(v, item) for v in value
    ):
        return tuple(value)
    raise _kind_error(f, value)


def _as_pairs(f: _Field, value: object) -> tuple:
    if f.kind == RATIOS and isinstance(value, Mapping):
        value = tuple(value.items())
    if isinstance(value, (list, tuple)):
        pairs = tuple(_pair(f.kind, p) for p in value)
        if None not in pairs:
            return tuple(sorted(pairs)) if f.kind == RATIOS else pairs
    raise _kind_error(f, value)


def _as_wire(f: _Field, value: object) -> object:
    if isinstance(value, f.kind):
        return value
    raise _kind_error(f, value)


#: check one of each kind: the canonical Python form of a non-null value
_AS = {
    NUMBER: _as_number,
    INTEGER: _as_integer,
    STRING: _as_string,
    LIST: _as_list,
    RATIOS: _as_pairs,
    PAIRS: _as_pairs,
}


def _kind_error(f: _Field, value: object) -> ApiError:
    want = _WANT.get(f.kind, f"of JSON type {f.json_type}")
    return ApiError(
        "invalid_request",
        f"{f.name} must be {want}, got {reprlib.repr(value)}",
    )


def _typed(f: _Field, value: object) -> object:
    """Check one: ``value`` in the field's canonical Python form, or an
    error naming the field when its JSON type is wrong."""
    if f.choices:
        return value  # the membership test settles the type too
    if value is not None:
        return _AS.get(f.kind, _as_wire)(f, value)
    if f.null == "nan":
        return math.nan
    if f.optional:
        return None
    raise _kind_error(f, value)


def _in_range(f: _Field, value: object) -> None:
    """Check two: ``value`` is one of the choices and inside the bounds."""
    if f.choices:
        if value not in f.choices:
            raise ApiError(
                f.code,
                f"{f.name} must be one of {list(f.choices)}, "
                f"got {reprlib.repr(value)}",
            )
    elif f.bounds is not None and value is not None:
        values = (
            (v for _, v in value) if f.kind in (RATIOS, PAIRS) else (value,)
        )
        for v in values:
            if not f.within(v):
                raise ApiError(
                    "invalid_request",
                    f"{f.name} must be in {f.bounds}, got {reprlib.repr(v)}",
                )


def _check(self) -> None:
    """Validate and canonicalise every wire field (the constructor
    check of every wire class): all JSON types first, then choices and
    bounds, each in table order."""
    for f in self._WIRE:
        value = getattr(self, f.name)
        typed = _typed(f, value)
        if typed is not value:
            object.__setattr__(self, f.name, typed)
    for f in self._WIRE:
        if f.choices or f.bounds is not None:
            _in_range(f, getattr(self, f.name))


def _decode(cls, payload: object):
    """Validate a decoded JSON value and build the class from it."""
    what = cls._WHAT
    if not isinstance(payload, Mapping):
        raise ApiError(
            "invalid_request",
            f"{what} must be a JSON object, got {type(payload).__name__}",
        )
    schema = payload.get("schema")
    if cls._BODY and schema is not None and schema != API_SCHEMA:
        raise ApiError(
            "invalid_request",
            f"{what} carries schema {reprlib.repr(schema)}; this server "
            f"speaks {API_SCHEMA}",
        )
    if cls._STRICT and not cls._KEYS.issuperset(payload):
        raise ApiError(
            "invalid_request",
            f"{what} has unknown fields "
            f"{reprlib.repr(sorted(set(payload) - cls._KEYS))}; "
            f"allowed: {sorted(f.name for f in cls._WIRE)}",
        )
    kwargs = {}
    for f in cls._WIRE:
        if f.name in payload:
            value = payload[f.name]
            if f.from_json is not None:
                value = f.from_json(value)
            kwargs[f.name] = value
        elif f.required:
            raise ApiError(
                "invalid_request", f"{what} needs a {f.name!r} field"
            )
        elif f.null == "nan":
            kwargs[f.name] = None
    return cls(**kwargs)


def _encode(self) -> dict:
    """The JSON form of this object (a whole body carries ``schema``)."""
    out: dict = {"schema": API_SCHEMA} if self._BODY else {}
    for f in self._WIRE:
        value = getattr(self, f.name)
        if value is None:
            if f.null == "omit":
                continue
        elif f.to_json is not None:
            value = f.to_json(value)
        if f.emit_if is None or getattr(self, f.emit_if) is not None:
            out[f.name] = value
    return out


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


@_wire(
    _Field("model", STRING, choices=_KNOWN_MODELS, code="unknown_model"),
    _Field("target", NUMBER, "(0, 100]"),
    _Field("metric", STRING, choices=_KNOWN_METRICS),
    _Field("deadline_h", NUMBER, "(0, ∞)"),
    _Field("budget", NUMBER, "(0, ∞)"),
    _Field("images", INTEGER, "[1, 1e15]"),
    _Field("instances_per_type", INTEGER, "[1, ∞)"),
    _Field("catalog", LIST, item=STRING, null="omit"),
    body=True,
)
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
        _check(self)
        if self.catalog == ():
            raise ApiError("invalid_request", "catalog must not be empty")
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

    def cache_key(self) -> tuple:
        """Content identity (used by tests and memoising callers)."""
        return (
            self.model,
            self.target,
            self.metric,
            self.deadline_h,
            self.budget,
            self.images,
            self.instances_per_type,
            self.catalog,
        )


@_wire(
    _Field("spec", STRING),
    _Field("configuration", STRING),
    _Field("time_s", NUMBER),
    _Field("cost", NUMBER),
    _Field("top1", NUMBER),
    _Field("top5", NUMBER),
    strict=False,
)
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
            time_s=result.time_s,
            cost=result.cost,
            top1=result.accuracy.top1,
            top5=result.accuracy.top5,
        )

    @property
    def time_h(self) -> float:
        """Completion time in hours."""
        return self.time_s / 3600.0


@_wire(
    _Field("kind", STRING, choices=("min_budget", "min_deadline", "frontier")),
    _Field("request", PlanRequest),
    _Field("points", LIST, item=PlanPoint),
    body=True,
    strict=False,
)
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


# ----------------------------------------------------------------------
# fleets
# ----------------------------------------------------------------------
@_wire(
    _Field("instance_type", STRING),
    _Field("count", INTEGER, "[1, ∞)"),
    _Field("spec", RATIOS, "[0, 1)"),
    _Field("name", STRING, null="omit"),
    _Field("weight", NUMBER, "(0, ∞)", null="omit"),
)
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


@_wire(
    _Field("replicas", LIST, item=FleetReplica),
    _Field("routing", STRING),
    _Field("max_batch", INTEGER, "[1, ∞)"),
    _Field("max_wait_s", NUMBER, "[0, 1e6]"),
    _Field("name", STRING, null="omit"),
    _Field("admission_rate_per_s", NUMBER, "[0, ∞)", null="omit"),
    _Field(
        "admission_burst",
        INTEGER,
        "(-∞, 1e15]",
        emit_if="admission_rate_per_s",
    ),
    _Field("queue_limit", NUMBER, "[0, ∞)", null="omit"),
)
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
        _check(self)
        if not self.replicas:
            raise ApiError(
                "invalid_request", "fleet design needs >= 1 replica"
            )

    def label(self, index: int) -> str:
        """This design's display name (``fleet-<n>`` when unnamed)."""
        return self.name if self.name is not None else f"fleet-{index + 1}"


@_wire(
    _Field("model", STRING, choices=_KNOWN_MODELS, code="unknown_model"),
    _Field("designs", LIST, item=FleetDesign),
    _Field("rate_per_s", NUMBER, "(0, ∞)"),
    _Field("duration_s", NUMBER, "(0, 1e6]"),
    _Field("arrival", STRING),
    _Field("seed", INTEGER, "[0, ∞)"),
    _Field("floors", PAIRS, "[0, 1]"),
    _Field("availability", NUMBER),
    _Field("p99_s", NUMBER),
    body=True,
)
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
        _check(self)
        if not self.designs:
            raise ApiError(
                "invalid_request", "fleet request needs >= 1 design"
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
        instances = sum(r.count for d in self.designs for r in d.replicas)
        if instances > MAX_FLEET_INSTANCES:
            raise ApiError(
                "invalid_request",
                f"{instances:,} instances (replica counts over every "
                f"design) is over the {MAX_FLEET_INSTANCES:,}-instance "
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


@_wire(
    _Field("name", STRING),
    _Field("served", INTEGER),
    _Field("dropped", INTEGER),
    _Field("cost", NUMBER),
    _Field("p99_s", NUMBER, null="nan"),
    _Field("top5", NUMBER),
    strict=False,
)
class ReplicaView:
    """One replica's slice of a fleet evaluation (plain data)."""

    name: str
    served: int
    dropped: int
    cost: float
    p99_s: float
    top5: float


@_wire(
    _Field("name", STRING),
    _Field("offered", INTEGER),
    _Field("shed", INTEGER),
    _Field("served", INTEGER),
    _Field("dropped", INTEGER),
    _Field("availability", NUMBER),
    _Field("goodput", NUMBER),
    _Field("cost", NUMBER),
    _Field("hourly_rate", NUMBER),
    _Field("p50_s", NUMBER, null="nan"),
    _Field("p99_s", NUMBER, null="nan"),
    _Field("replicas", LIST, item=ReplicaView),
    strict=False,
)
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
                else math.nan
            )
            replicas.append(
                ReplicaView(
                    name=outcome.spec.name,
                    served=outcome.served,
                    dropped=outcome.dropped,
                    cost=outcome.cost,
                    p99_s=p99,
                    top5=accuracy.top5,
                )
            )
        return cls(
            name=name,
            offered=report.offered,
            shed=report.shed,
            served=report.served,
            dropped=report.dropped,
            availability=report.availability,
            goodput=report.goodput,
            cost=report.cost,
            hourly_rate=spec.hourly_rate,
            p50_s=report.latency_percentile(50),
            p99_s=report.latency_percentile(99),
            replicas=tuple(replicas),
        )


@_wire(
    _Field("kind", STRING, choices=("evaluate", "cheapest")),
    _Field("views", LIST, item=FleetView),
    _Field("chosen", STRING, null="omit"),
    body=True,
    strict=False,
)
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
    reports: tuple = field(default=(), repr=False, compare=False)

    def view(self, name: str) -> FleetView:
        """The view of the design named ``name``."""
        for v in self.views:
            if v.name == name:
                return v
        raise KeyError(name)
