"""The ``/v1`` wire schema at the service edge.

A malformed field is the client's fault, so it must come back as a
typed ``400 invalid_request`` that names the field, never as a
``500 internal`` raised from deep inside a handler, and never as a
silent coercion (``1.5`` read as ``1``, ``5`` read as ``"5"``).
"""

from __future__ import annotations

import dataclasses
import json
import math
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import ERROR_STATUS, FleetRequest, PlanRequest
from repro.api.types import (
    INTEGER,
    LIST,
    MAX_FLEET_INSTANCES,
    MAX_FLEET_REQUESTS,
    MAX_PLAN_GRID_POINTS,
    NUMBER,
    PAIRS,
    RATIOS,
    STRING,
)
from repro.cloud.catalog import EC2_CATALOG
from repro.cnn.models import CAFFENET_CONV_LAYERS, GOOGLENET_SELECTED_LAYERS
from repro.serving import ROUTING_POLICIES
from repro.service import PlanningService

PLAN = "/v1/plan"
FLEET = "/v1/fleet/evaluate"


def _fleet(design=None, replica=None, **top) -> dict:
    """A one-design, one-replica fleet body with overrides."""
    body = {
        "designs": [
            {
                "replicas": [
                    {"instance_type": "p2.xlarge", **(replica or {})}
                ],
                **(design or {}),
            }
        ],
        "rate_per_s": 10,
        "duration_s": 5,
    }
    body.update(top)
    return body


def _case(route, body, field, id):
    raw = body if isinstance(body, bytes) else json.dumps(body).encode()
    return pytest.param(route, raw, field, id=id)


#: (route, body, text the error message must contain)
MALFORMED = [
    # each of these raised out of a handler as a 500
    _case(FLEET, _fleet(replica={"spec": {"conv1": "abc"}}), "spec",
          "spec-ratio-is-a-string"),
    _case(FLEET, _fleet(replica={"spec": [1, 2]}), "spec",
          "spec-is-a-list-of-numbers"),
    _case(FLEET, _fleet(design={"max_batch": "x"}), "max_batch",
          "max-batch-is-a-string"),
    _case(
        FLEET,
        b'{"designs":[{"replicas":[{"instance_type":"p2.xlarge"}],'
        b'"max_batch":Infinity}],"rate_per_s":10,"duration_s":5}',
        "Infinity",
        "max-batch-is-infinity",
    ),
    _case(FLEET, _fleet(design={"max_wait_s": [1]}), "max_wait_s",
          "max-wait-is-a-list"),
    _case(FLEET, _fleet(seed=-1), "seed", "negative-seed"),
    # each of these was silently coerced and answered 200
    _case(FLEET, _fleet(design={"max_batch": 1.5}), "max_batch",
          "max-batch-is-fractional"),
    _case(FLEET, _fleet(design={"max_batch": "4"}), "max_batch",
          "max-batch-is-a-numeric-string"),
    _case(FLEET, _fleet(design={"max_batch": True}), "max_batch",
          "max-batch-is-a-bool"),
    _case(FLEET, _fleet(design={"max_wait_s": "0.1"}), "max_wait_s",
          "max-wait-is-a-numeric-string"),
    _case(FLEET, _fleet(design={"name": 5}), "name",
          "design-name-is-a-number"),
    _case(FLEET, _fleet(replica={"name": 5}), "name",
          "replica-name-is-a-number"),
    _case(PLAN, {"target": 78.0, "catalog": [1]}, "catalog",
          "catalog-entry-is-a-number"),
]


@pytest.mark.parametrize("route, body, field", MALFORMED)
def test_malformed_field_is_a_typed_400(route, body, field):
    status, _, payload = PlanningService().dispatch("POST", route, body)
    assert status == 400, payload
    error = json.loads(payload)["error"]
    assert error["code"] == "invalid_request"
    assert field in error["message"]


# ----------------------------------------------------------------------
# the fuzz: strategies derived from the same field tables
# ----------------------------------------------------------------------
#: any JSON value, NaN and the infinities included (``json.dumps``
#: writes them as the literals the server must refuse)
JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6,
)

#: registry names a free-text field may also take, so examples reach
#: the simulator rather than stopping at an unknown name
NAMES = {
    "instance_type": tuple(t.name for t in EC2_CATALOG),
    "routing": ROUTING_POLICIES,
    "arrival": ("poisson", "uniform", "bursty"),
}
LAYERS = CAFFENET_CONV_LAYERS + GOOGLENET_SELECTED_LAYERS

#: the fields that set a request's work: their valid values are kept
#: small, they are always sent and never null (a null or absent catalog
#: is the full one, whose cold grid takes seconds), and their invalid
#: values include over-budget ones, so that any example is cheap and
#: the budgets themselves are exercised
SMALL_TYPES = ("p2.xlarge", "g3.4xlarge", "p2.8xlarge")
NARROW = {
    "catalog": (
        st.lists(
            st.sampled_from(SMALL_TYPES), min_size=1, max_size=2, unique=True
        ),
        st.lists(st.text(max_size=4), max_size=2),
    ),
    "instances_per_type": (
        st.integers(1, 2),
        st.integers(min_value=10**5),
    ),
    "rate_per_s": (
        st.floats(1.0, 20.0),
        st.floats(min_value=1e7, allow_infinity=False),
    ),
    "duration_s": (st.floats(1.0, 5.0), st.floats(0.2, 1e4)),
    "count": (
        st.integers(1, 3),
        st.integers(min_value=MAX_FLEET_INSTANCES + 1),
    ),
}


def _numbers(lo, lo_open, hi, hi_open, integral):
    """Numbers inside one interval (``None`` ends are unbounded)."""
    ints = st.integers(
        None if lo is None else math.floor(lo) + (lo_open or lo % 1 > 0),
        None if hi is None else math.ceil(hi) - (hi_open or hi % 1 > 0),
    )
    if integral:
        return ints
    return ints | st.floats(
        lo,
        hi,
        exclude_min=lo_open and lo is not None,
        exclude_max=hi_open and hi is not None,
        allow_nan=False,
        allow_infinity=False,
    )


def _end(x):
    return None if math.isinf(x) else x


def _mostly(common, rare, odds):
    """``common``, but ``rare`` one draw in ``odds`` (shrinks to rare)."""
    return st.integers(0, odds - 1).flatmap(
        lambda i: common if i else rare
    )


def _valid(f):
    """Values the table admits for field ``f``."""
    if f.name in NARROW:
        return NARROW[f.name][0]
    lo, lo_open, hi, hi_open = f.interval if f.bounds else (
        -math.inf, False, math.inf, False
    )
    inside = _numbers(_end(lo), lo_open, _end(hi), hi_open, False)
    if f.choices:
        values = st.sampled_from(f.choices)
    elif f.kind in (NUMBER, INTEGER):
        values = _numbers(
            _end(lo), lo_open, _end(hi), hi_open, f.kind == INTEGER
        )
    elif f.kind == STRING:
        values = (
            st.sampled_from(NAMES[f.name])
            if f.name in NAMES
            else st.text(max_size=12)
        )
    elif f.kind == LIST:
        values = st.lists(_object(f.item), min_size=1, max_size=2)
    elif f.kind == RATIOS:
        ratios = st.dictionaries(
            _mostly(st.sampled_from(LAYERS), st.text(max_size=6), 8),
            inside,
            max_size=3,
        )
        values = ratios | ratios.map(lambda r: [list(kv) for kv in r.items()])
    elif f.kind == PAIRS:
        number = _numbers(None, False, None, False, False)
        mixtures = st.just([]) | st.tuples(
            number, number, st.floats(0.0, 1.0)
        ).map(lambda t: [[t[0], t[2]], [t[1], 1.0 - t[2]]])
        values = _mostly(
            mixtures, st.lists(st.tuples(number, inside), max_size=3), 4
        )
    else:
        values = _object(f.kind)
    return values | st.none() if f.optional else values


def _invalid(f):
    """Values of the wrong JSON type or outside the bounds of ``f``."""
    out = [JSON.filter(lambda v: v is not None) if f.name in NARROW else JSON]
    if f.name in NAMES:
        out.append(st.text(max_size=12))
    if f.name in NARROW:
        out.append(NARROW[f.name][1])
    if f.bounds:
        lo, lo_open, hi, hi_open = f.interval
        integral = f.kind == INTEGER
        outside = []
        if not math.isinf(lo):
            outside.append(_numbers(None, False, lo, not lo_open, integral))
        if not math.isinf(hi):
            outside.append(_numbers(hi, not hi_open, None, False, integral))
        outside = st.one_of(outside)
        if f.kind == RATIOS:
            outside = st.dictionaries(
                st.sampled_from(LAYERS), outside, min_size=1, max_size=1
            )
        elif f.kind == PAIRS:
            outside = outside.map(lambda v: [[0.0, v]])
        out.append(outside)
    return st.one_of(out)


def _object(cls):
    """Valid JSON objects for wire class ``cls``, built from its table
    (optional fields come and go)."""
    field = {f.name: _valid(f) for f in cls._WIRE}
    always = {
        name: field[name]
        for name in field
        if name in NARROW
        or cls.__dataclass_fields__[name].default is dataclasses.MISSING
    }
    return st.fixed_dictionaries(
        always, optional={k: v for k, v in field.items() if k not in always}
    )


def _spots(cls, obj):
    """Every ``(object, field)`` of a valid object tree."""
    for f in cls._WIRE:
        yield obj, f
        if f.kind == LIST and isinstance(f.item, type):
            for item in obj.get(f.name) or ():
                yield from _spots(f.item, item)


@st.composite
def _body(draw, cls):
    """A request body: a valid object with up to two faults (a field
    made invalid, a required field dropped, a stray key), or, one
    draw in sixteen, any JSON value at all."""
    if not draw(st.integers(0, 15)):
        return draw(JSON)
    body = draw(_object(cls))
    spots = list(_spots(cls, body))
    for _ in range(draw(st.integers(0, 2))):
        obj, f = draw(st.sampled_from(spots))
        fault = draw(st.sampled_from(("invalid", "drop", "stray")))
        if fault == "invalid":
            obj[f.name] = draw(_invalid(f))
        elif fault == "drop" and f.name not in NARROW:
            obj.pop(f.name, None)
        else:
            obj[draw(st.text(min_size=1, max_size=6))] = draw(JSON)
    return body


ROUTES = {
    "/v1/plan": _body(PlanRequest),
    "/v1/fleet/evaluate": _body(FleetRequest),
    "/v1/fleet/cheapest": _body(FleetRequest),
}


@contextmanager
def _work_meter():
    """Count the grid points and simulated requests/instances the
    evaluation caches are asked for."""
    from repro.core import evalspace
    from repro.serving import fleet

    work = {"points": 0, "requests": 0.0, "instances": 0}
    evaluate, evaluate_fleet = evalspace.evaluate, fleet.evaluate_fleet

    def grid(spec):
        work["points"] += len(spec.specs) * len(spec.configurations)
        return evaluate(spec)

    def simulate(spec, workload):
        work["requests"] += workload.rate_per_s * workload.duration_s
        work["instances"] += sum(
            len(r.configuration) for r in spec.replicas
        )
        return evaluate_fleet(spec, workload)

    with mock.patch.object(evalspace, "evaluate", grid), mock.patch.object(
        fleet, "evaluate_fleet", simulate
    ):
        yield work


SERVICE = PlanningService()


@pytest.mark.parametrize("route", sorted(ROUTES))
@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
    ],
)
@given(data=st.data())
def test_any_body_gets_200_or_a_typed_4xx(route, data):
    body = json.dumps(data.draw(ROUTES[route], label="body")).encode()
    with _work_meter() as work:
        status, _, payload = SERVICE.dispatch("POST", route, body)
    assert work["points"] <= MAX_PLAN_GRID_POINTS
    assert work["requests"] <= MAX_FLEET_REQUESTS
    assert work["instances"] <= MAX_FLEET_INSTANCES
    if status != 200:
        code = json.loads(payload)["error"]["code"]
        assert code != "internal", payload
        assert status in (ERROR_STATUS[code], 413), payload
