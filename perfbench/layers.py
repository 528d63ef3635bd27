"""Span wrappers around the public entry points of each layer.

:func:`install` replaces the functions and methods listed in
:data:`TARGETS` with timing wrappers that record one
:class:`~arith.Span` per call into a :class:`Recorder`, linked to the
wrapped call that encloses it on the same thread.  Nothing under
``src/`` knows about them; :func:`install` returns the function that
puts the originals back.

:func:`layer_metrics` turns the recorded spans into the per-layer
metrics named in ``BENCHMARK.json``: self times (span duration minus
the wrapped children it encloses), per-call means and work counts.
"""

from __future__ import annotations

import importlib
import itertools
import threading
import time

from arith import Span, self_times


class Recorder:
    """Keeps spans in memory until the run ends."""

    def __init__(self, enabled: bool = True) -> None:
        #: while False, wrappers call straight through and record nothing
        self.enabled = enabled
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, layer: str, fn, probe=None):
        """``fn`` timed as one ``layer`` span per call.

        ``probe`` is an optional ``(before, after)`` pair: ``before()``
        runs just before the call, ``after(state, result)`` just after,
        and the dict it returns becomes the span's ``info``.
        """
        recorder = self

        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            stack = getattr(recorder._local, "stack", None)
            if stack is None:
                stack = recorder._local.stack = []
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else None
            state = probe[0]() if probe else None
            stack.append(span_id)
            result = failed = None
            start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                failed = exc
                raise
            finally:
                end = time.monotonic()
                stack.pop()
                info = (
                    probe[1](state, result)
                    if probe and failed is None
                    else {}
                )
                recorder.spans.append(
                    Span(span_id, parent, layer, start, end, info)
                )

        wrapper.__wrapped__ = fn
        return wrapper


# ----------------------------------------------------------------------
# probes: work counts read at the layer boundary
# ----------------------------------------------------------------------
def _counter(name: str):
    def read():
        from repro.obs import get_metrics

        return get_metrics().counter(name).value

    return read


def _delta(name: str, key: str, extra=None):
    read = _counter(name)

    def after(before, result):
        info = {key: read() - before}
        if extra is not None:
            info.update(extra(result, info))
        return info

    return read, after


def _after_only(fn):
    return (lambda: None), (lambda _state, result: fn(result))


_PROBES = {
    "service.dispatch": _after_only(lambda r: {"status": r[0]}),
    "evalspace.evaluate": _delta(
        "evalspace.cache_misses",
        "miss",
        lambda r, info: {"points": len(r.results) if info["miss"] else 0},
    ),
    "fleet.evaluate": _delta("fleet.cache_misses", "miss"),
    "router.route": _after_only(lambda r: {"decisions": int(r.size)}),
    "router.run": _after_only(lambda r: {"shed": r.shed, "degraded": r.degraded}),
    "serving.run": _delta(
        "serving.events",
        "events",
        lambda r, _info: {"batches": int(r.batch_sizes.size)},
    ),
    "autoscale.run": _delta("fleet.control_ticks", "ticks"),
}

#: (module, attribute path, layer) for every wrapped entry point.  A
#: function bound by name in several modules is listed once per module.
TARGETS = (
    ("repro.service.server", "PlanningService.dispatch", "service.dispatch"),
    ("repro.api.types", "PlanRequest.from_dict", "api.decode"),
    ("repro.api.types", "FleetRequest.from_dict", "api.decode"),
    ("repro.api.types", "PlanResponse.to_dict", "api.render"),
    ("repro.api.types", "FleetResponse.to_dict", "api.render"),
    ("repro.api.handlers", "plan", "planner.select"),
    ("repro.api", "plan", "planner.select"),
    ("repro.service.server", "plan", "planner.select"),
    ("repro.api.handlers", "planning_space", "api.lock_wait"),
    ("repro.api.handlers", "fleet_report", "api.lock_wait"),
    ("repro.core.evalspace", "evaluate", "evalspace.evaluate"),
    ("repro.serving.fleet", "evaluate_fleet", "fleet.evaluate"),
    ("repro.serving.router", "FleetRouter.route", "router.route"),
    ("repro.serving.router", "FleetRouter.run", "router.run"),
    ("repro.serving.simulator", "ServingSimulator.run", "serving.run"),
    ("repro.serving.autoscaler", "AutoscalingSimulator.run", "autoscale.run"),
    ("repro.obs.telemetry", "ServingTelemetry.ingest_stream", "telemetry.ingest"),
    (
        "repro.obs.telemetry",
        "ServingTelemetry.record_batch_stream",
        "telemetry.ingest",
    ),
    ("repro.obs.telemetry", "ServingTelemetry.finalize", "telemetry.ingest"),
)


def install(recorder: Recorder):
    """Wrap every target; returns a callable that restores them."""
    wrapped: dict[int, object] = {}
    undo = []
    for module_name, path, layer in TARGETS:
        owner = importlib.import_module(module_name)
        *outer, name = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = vars(owner)[name]
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        # one wrapper per function, however many names bind it
        if id(fn) not in wrapped:
            wrapped[id(fn)] = recorder.wrap(layer, fn, _PROBES.get(layer))
        replacement = wrapped[id(fn)]
        setattr(
            owner,
            name,
            classmethod(replacement) if is_classmethod else replacement,
        )
        undo.append((owner, name, raw))

    def restore() -> None:
        for owner, name, raw in reversed(undo):
            setattr(owner, name, raw)

    return restore


# ----------------------------------------------------------------------
# spans -> per-layer metrics
# ----------------------------------------------------------------------
def _sum(spans, layer: str, key: str) -> float:
    return sum(s.info.get(key, 0) for s in spans if s.layer == layer)


def layer_metrics(spans) -> tuple[dict[str, float], dict[str, float]]:
    """``(metrics, self-time totals by layer)`` for ``spans``."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span in spans:
        totals[span.layer] = totals.get(span.layer, 0.0) + own[span.id]
        calls[span.layer] = calls.get(span.layer, 0) + 1

    def mean_ms(layer: str) -> float:
        if not calls.get(layer):
            return 0.0
        return 1e3 * totals[layer] / calls[layer]

    misses = [
        s
        for s in spans
        if s.layer == "evalspace.evaluate" and s.info.get("miss")
    ]
    build_s = sum(own[s.id] for s in misses)
    points = sum(s.info.get("points", 0) for s in misses)
    evaluations = calls.get("evalspace.evaluate", 0)
    fleet_calls = calls.get("fleet.evaluate", 0)
    fleet_misses = int(_sum(spans, "fleet.evaluate", "miss"))
    route_s = totals.get("router.route", 0.0)
    decisions = _sum(spans, "router.route", "decisions")
    metrics = {
        "service.dispatch_ms": mean_ms("service.dispatch"),
        "service.requests": calls.get("service.dispatch", 0),
        "service.rejected": sum(
            1
            for s in spans
            if s.layer == "service.dispatch" and s.info.get("status") == 503
        ),
        "api.decode_ms": mean_ms("api.decode"),
        "api.render_ms": mean_ms("api.render"),
        "planner.select_ms": mean_ms("planner.select"),
        "api.lock_wait_ms": mean_ms("api.lock_wait"),
        "evalspace.build_s": build_s,
        "evalspace.points_per_s": points / build_s if build_s else 0.0,
        "evalspace.cache_hits": evaluations - len(misses),
        "evalspace.cache_misses": len(misses),
        "fleet.evaluate_s": totals.get("fleet.evaluate", 0.0),
        "fleet.cache_hits": fleet_calls - fleet_misses,
        "fleet.cache_misses": fleet_misses,
        "router.route_s": route_s,
        "router.decisions_per_s": decisions / route_s if route_s else 0.0,
        "router.shed": int(_sum(spans, "router.run", "shed")),
        "router.degraded": int(_sum(spans, "router.run", "degraded")),
        "router.finalise_s": totals.get("router.run", 0.0),
        "serving.run_s": totals.get("serving.run", 0.0),
        "serving.batches": int(_sum(spans, "serving.run", "batches")),
        "serving.events": int(_sum(spans, "serving.run", "events")),
        "autoscale.run_s": totals.get("autoscale.run", 0.0),
        "autoscale.control_ticks": int(_sum(spans, "autoscale.run", "ticks")),
        "telemetry.ingest_s": totals.get("telemetry.ingest", 0.0),
    }
    return metrics, totals


def to_json(spans) -> list[list]:
    """Spans as plain lists (the traced server's on-disk format)."""
    return [[s.id, s.parent, s.layer, s.start, s.end, s.info] for s in spans]


def from_json(rows) -> list[Span]:
    """Inverse of :func:`to_json`."""
    return [Span(*row) for row in rows]
