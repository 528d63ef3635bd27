"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``catalog``
    Print the EC2 instance catalog (Table 3).
``experiments [id ...] [--jobs N] [--format text|json] [--no-cache]``
    Regenerate all (or selected) paper artefacts, optionally in
    parallel; ``--format json`` emits structured results plus the run
    manifest.
``report [id ...] [--output PATH]``
    Build the Markdown experiment report from structured results.
``sweep --model M --layer L``
    Single-layer pruning sweep: time / Top-1 / Top-5 per ratio.
``allocate --images N --deadline H --budget D``
    Run Algorithm 1 over the degrees ladder and the full catalog.
``simulate --spec conv1=0.3,conv2=0.5 --instances p2.xlarge ...``
    Evaluate one (degree of pruning, configuration) pair.
``plan --target 78 [--deadline H] [--budget D]``
    Inverse planning over the evaluation space: cheapest budget for a
    deadline, fastest deadline for a budget, or the full iso-accuracy
    (time, cost) frontier when neither constraint is given.  Routed
    through :mod:`repro.api` (the same typed surface the HTTP service
    exposes).
``service [--host H] [--port P] [--max-inflight N] [--log-json PATH]``
    Serve the versioned planning API over HTTP in the foreground:
    ``POST /v1/plan``, ``POST /v1/fleet/evaluate``,
    ``POST /v1/fleet/cheapest``, ``GET /v1/healthz``,
    ``GET /v1/metrics`` (OpenMetrics), ``GET /v1/status`` (windowed
    live metrics + anomaly state).  ``--log-json`` appends every
    structured event — per-request ``service.access`` lines included —
    to a JSONL file ``repro tail`` can follow.
``loadgen [--url URL] [--rate R] [--duration S | --requests N]``
    Replay a seeded open-loop planning-query mixture against a running
    service (``--url``) or an in-process dispatcher (no sockets), and
    report throughput, latency percentiles and cache hit ratio.
    ``--soak`` switches to the sustained harness: the trace runs in
    fixed windows (``--window``) through streaming anomaly detectors,
    optionally perturbed mid-run (``--inject
    price-step|fault-plan|latency``), and exits non-zero unless the
    :class:`~repro.service.loadgen.SoakReport` comes back clean
    (``--windows-out`` dumps every closed window as JSON).
``tail PATH [--follow] [--kind K ...] [--trace ID] [--limit N]``
    Pretty-follow a ``repro.events/v1`` JSONL event log: filter by
    event kind prefixes and/or trace id, optionally waiting for new
    events like ``tail -f``.
``metrics [id ...] [--format openmetrics|json] [--output PATH]``
    Run artefacts (uncached) and export their metric snapshots as
    Prometheus/OpenMetrics text or flat JSON.
``bench [--record | --check] [--tolerance F] [--warn-ratio F] [--fail-ratio F]``
    Performance-trajectory recorder: run the bench suite, append a
    ``BENCH_<n>.json`` snapshot (``--record``), or gate against the
    latest snapshot (``--check``, non-zero exit on regression;
    wall-time drift past ``--warn-ratio`` — against the latest or the
    first record — is surfaced as a warning, and ``--fail-ratio``
    turns the first-record comparison into a hard gate; baselines
    from different hardware demote wall gates to warnings).
``serve --instances p2.xlarge ... [--faults MTBF] [--slo S]``
    Online-serving simulation: latency percentiles, utilisation,
    cost, fault/goodput accounting and streaming telemetry.
``serve --fleet --replica [Nx]ITYPE[:SPEC] ... [--routing P]``
    Route requests across N heterogeneous replicas (round-robin /
    jsq / weighted / tiered / adaptive, ``--adaptive`` as shorthand)
    with optional admission control (``--admission-rate`` /
    ``--admission-burst``/``--queue-limit``/``--degrade-limit``) and
    per-request accuracy floors and deadlines (``--floors``,
    ``--deadlines``).
``trace --instances p2.xlarge ... [--images N] [--chrome-out PATH]``
    Per-instance execution trace of one batch job (ASCII Gantt,
    optionally Chrome trace-event JSON).
``export DIRECTORY [id ...]``
    Write all (or selected) artefacts as txt/json/csv files.

``experiments``, ``serve`` and ``trace`` take telemetry flags:
``--trace-out`` (Chrome trace-event JSON, loads at ui.perfetto.dev),
``--metrics-out`` (OpenMetrics text, or flat JSON for ``.json`` paths)
and ``--log-json`` (JSONL structured-event log).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from dataclasses import replace

from repro.api.types import _KNOWN_METRICS
from repro.calibration import MODELS
from repro.errors import ReproError, UnknownArtefactError
from repro.serving.arrivals import ARRIVALS
from repro.serving.router import ROUTING_POLICIES

__all__ = ["main", "build_parser"]


def _parse_spec(text: str):
    """Parse ``conv1=0.3,conv2=0.5`` into a PruneSpec."""
    from repro.pruning.base import PruneSpec

    if not text or text == "none":
        return PruneSpec.unpruned()
    ratios = {}
    for part in text.split(","):
        if "=" not in part:
            raise argparse.ArgumentTypeError(
                f"expected layer=ratio, got {part!r}"
            )
        layer, _, value = part.partition("=")
        try:
            ratios[layer.strip()] = float(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad ratio {value!r} for layer {layer!r}"
            ) from None
    return PruneSpec(ratios)


def _models(name: str):
    """Fresh calibrated (time, accuracy) models for ``--model``."""
    row = MODELS[name]
    return row.time_model(), row.accuracy_model()


#: ``--inject`` presets: the :class:`~repro.service.SoakInjection`
#: fields each one perturbs the middle of a soak with
_INJECTIONS = {
    "price-step": lambda mixture: {"cost_scale": 3.0},
    # a catalog only the server can reject: every pulse request comes
    # back 4xx, stepping the error rate
    "fault-plan": lambda mixture: {
        "mixture": replace(mixture, catalog=("injected-fault",))
    },
    "latency": lambda mixture: {"extra_latency_s": 0.25},
}


def _add_model_flag(parser: argparse.ArgumentParser) -> None:
    """The shared ``--model`` flag: one of :data:`MODELS`."""
    parser.add_argument("--model", default="caffenet", choices=list(MODELS))


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    """The shared ``--trace-out/--metrics-out/--log-json`` trio."""
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write a Chrome trace-event JSON (ui.perfetto.dev)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help=(
            "write the metric snapshot as OpenMetrics text "
            "(flat JSON when PATH ends in .json)"
        ),
    )
    parser.add_argument(
        "--log-json",
        metavar="PATH",
        help="append structured events (JSONL, repro.events/v1)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Cost-accuracy performance of cloud applications "
            "(ICPP Workshops 2020 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, help: str) -> argparse.ArgumentParser:
        """A subcommand whose parsed arguments ``main`` hands to ``run``."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        return p

    command("catalog", _cmd_catalog, "print the EC2 catalog (Table 3)")

    p_exp = command(
        "experiments", _cmd_experiments, "regenerate paper tables/figures"
    )
    p_exp.add_argument(
        "ids", nargs="*", help="artefact ids (default: all)"
    )
    p_exp.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (default 1: serial)",
    )
    p_exp.add_argument(
        "--format",
        dest="fmt",
        default="text",
        choices=["text", "json"],
        help="text renders tables; json emits structured data + manifest",
    )
    p_exp.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute even when a cached result matches",
    )
    p_exp.add_argument(
        "--manifest",
        metavar="PATH",
        help="where to write the run manifest "
        "(default results/run_manifest.json)",
    )
    _add_telemetry_flags(p_exp)

    p_report = command(
        "report", _cmd_report, "Markdown report from structured results"
    )
    p_report.add_argument(
        "ids", nargs="*", help="artefact ids (default: all)"
    )
    p_report.add_argument(
        "--output", metavar="PATH", help="write to PATH instead of stdout"
    )
    p_report.add_argument(
        "--jobs", type=int, default=1, metavar="N"
    )

    p_sweep = command("sweep", _cmd_sweep, "single-layer pruning sweep")
    _add_model_flag(p_sweep)
    p_sweep.add_argument("--layer", required=True)
    p_sweep.add_argument("--images", type=int, default=50_000)

    p_alloc = command(
        "allocate", _cmd_allocate, "Algorithm 1 over the full catalog"
    )
    _add_model_flag(p_alloc)
    p_alloc.add_argument("--images", type=int, required=True)
    p_alloc.add_argument(
        "--deadline", type=float, required=True, help="hours"
    )
    p_alloc.add_argument(
        "--budget", type=float, required=True, help="dollars"
    )
    p_alloc.add_argument(
        "--instances-per-type", type=int, default=3
    )

    p_sim = command(
        "simulate", _cmd_simulate, "evaluate one (spec, configuration) pair"
    )
    _add_model_flag(p_sim)
    p_sim.add_argument(
        "--spec",
        type=_parse_spec,
        default="none",
        help="layer=ratio[,layer=ratio...] or 'none'",
    )
    p_sim.add_argument(
        "--instances",
        nargs="+",
        required=True,
        help="instance type names, repeated for multiples",
    )
    p_sim.add_argument("--images", type=int, default=50_000)

    p_plan = command(
        "plan",
        _cmd_plan,
        "inverse planning: budget/deadline for a target accuracy",
    )
    _add_model_flag(p_plan)
    p_plan.add_argument(
        "--target",
        type=float,
        required=True,
        help="target accuracy in percent",
    )
    p_plan.add_argument(
        "--metric", default="top5", choices=list(_KNOWN_METRICS)
    )
    p_plan.add_argument(
        "--deadline", type=float, help="deadline in hours (-> min budget)"
    )
    p_plan.add_argument(
        "--budget", type=float, help="budget in dollars (-> min deadline)"
    )
    p_plan.add_argument("--images", type=int, default=20_000_000)
    p_plan.add_argument("--instances-per-type", type=int, default=2)

    p_service = command(
        "service", _cmd_service, "serve the versioned planning API over HTTP"
    )
    p_service.add_argument(
        "--host", default="127.0.0.1", help="bind address"
    )
    p_service.add_argument(
        "--port",
        type=int,
        default=8765,
        help="TCP port (0 picks a free one; default 8765)",
    )
    p_service.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        metavar="N",
        help="shed planning requests beyond N in flight with 503 "
        "(default 64)",
    )
    p_service.add_argument(
        "--log-json",
        metavar="PATH",
        help="append structured events (access log, anomalies; "
        "JSONL, repro.events/v1)",
    )

    p_load = command(
        "loadgen",
        _cmd_loadgen,
        "open-loop load harness for the planning service",
    )
    p_load.add_argument(
        "--url",
        metavar="URL",
        help="base URL of a running service (default: dispatch "
        "in-process, no sockets)",
    )
    p_load.add_argument(
        "--rate", type=float, default=500.0, help="offered req/s"
    )
    volume = p_load.add_mutually_exclusive_group()
    volume.add_argument(
        "--duration", type=float, help="trace length in seconds"
    )
    volume.add_argument(
        "--requests", type=int, help="exact request count instead"
    )
    p_load.add_argument(
        "--arrival",
        default="uniform",
        choices=list(ARRIVALS),
    )
    p_load.add_argument("--seed", type=int, default=0)
    _add_model_flag(p_load)
    p_load.add_argument("--images", type=int, default=20_000_000)
    p_load.add_argument("--instances-per-type", type=int, default=2)
    p_load.add_argument(
        "--catalog",
        nargs="+",
        metavar="ITYPE",
        help="restrict the grid to these instance types "
        "(default: the full EC2 catalog)",
    )
    p_load.add_argument(
        "--workers",
        type=int,
        default=32,
        metavar="N",
        help="client-side concurrency (default 32)",
    )
    p_load.add_argument(
        "--json",
        action="store_true",
        help="machine-readable summary instead of text",
    )
    p_load.add_argument(
        "--soak",
        action="store_true",
        help="sustained soak: windowed streaming detectors + drift "
        "verdicts (exit 1 unless the report comes back clean)",
    )
    p_load.add_argument(
        "--window",
        type=float,
        default=1.0,
        metavar="S",
        help="soak window width in seconds (default 1.0)",
    )
    p_load.add_argument(
        "--inject",
        choices=list(_INJECTIONS),
        help="perturb the middle third of the soak: a 3x cost step, "
        "a mixture the service rejects, or +250ms latency",
    )
    p_load.add_argument(
        "--windows-out",
        metavar="PATH",
        help="write every closed soak window as a JSON array",
    )
    p_load.add_argument(
        "--log-json",
        metavar="PATH",
        help="append structured events (anomaly raise/resolve; "
        "JSONL, repro.events/v1)",
    )

    p_tail = command(
        "tail", _cmd_tail, "follow a JSONL event log (repro.events/v1)"
    )
    p_tail.add_argument("path", help="JSONL event-log file")
    p_tail.add_argument(
        "--follow",
        "-f",
        action="store_true",
        help="keep waiting for new events (ctrl-c to stop)",
    )
    p_tail.add_argument(
        "--kind",
        action="append",
        metavar="PREFIX",
        help="only events whose kind starts with PREFIX "
        "(repeatable, e.g. --kind anomaly --kind service.access)",
    )
    p_tail.add_argument(
        "--trace",
        metavar="ID",
        help="only events carrying this trace id",
    )
    p_tail.add_argument(
        "--limit",
        type=int,
        metavar="N",
        help="stop after N matching events",
    )

    p_serve = command(
        "serve", _cmd_serve, "online-serving simulation (latency percentiles)"
    )
    _add_model_flag(p_serve)
    p_serve.add_argument(
        "--spec", type=_parse_spec, default="none"
    )
    p_serve.add_argument(
        "--instances",
        nargs="+",
        help="instance types of the (single-endpoint) fleet",
    )
    p_serve.add_argument("--rate", type=float, default=200.0, help="req/s")
    p_serve.add_argument("--duration", type=float, default=60.0, help="s")
    p_serve.add_argument(
        "--arrival",
        default="poisson",
        choices=list(ARRIVALS),
    )
    p_serve.add_argument("--max-batch", type=int, default=32)
    p_serve.add_argument("--max-wait", type=float, default=0.05)
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument(
        "--histogram",
        action="store_true",
        help="also print the latency histogram",
    )
    p_serve.add_argument(
        "--slo", type=float, help="report headroom against a p99 SLO (s)"
    )
    p_serve.add_argument(
        "--faults",
        type=float,
        metavar="MTBF_S",
        help=(
            "inject seeded worker preemptions with this mean time "
            "between failures (seconds)"
        ),
    )
    p_serve.add_argument(
        "--fault-recovery",
        type=float,
        default=15.0,
        help="seconds a preempted worker takes to return (default 15)",
    )
    p_serve.add_argument(
        "--retry-budget",
        type=int,
        default=2,
        help="requeues allowed per request before it is dropped",
    )
    p_serve.add_argument(
        "--request-timeout",
        type=float,
        help="drop requests still queued this long after arrival (s)",
    )
    p_serve.add_argument(
        "--spot",
        action="store_true",
        help="bill the fleet at the EC2 spot discount",
    )
    p_serve.add_argument(
        "--fleet",
        action="store_true",
        help=(
            "route across a heterogeneous replica fleet "
            "(use --replica; --instances/--spec are ignored)"
        ),
    )
    p_serve.add_argument(
        "--replica",
        action="append",
        metavar="[Nx]ITYPE[:SPEC]",
        help=(
            "add a fleet replica: N instances of ITYPE serving SPEC "
            "(e.g. 2xp2.xlarge:conv1=0.3,conv2=0.5); repeatable"
        ),
    )
    p_serve.add_argument(
        "--routing",
        default="round-robin",
        choices=list(ROUTING_POLICIES),
        help="fleet routing policy",
    )
    p_serve.add_argument(
        "--adaptive",
        action="store_true",
        help=(
            "shorthand for --routing adaptive: pick an accuracy tier "
            "per request from its deadline, floor, and backlog"
        ),
    )
    p_serve.add_argument(
        "--floors",
        metavar="TOP5=FRAC,...",
        help=(
            "per-request Top-5 accuracy floor mixture for tiered/"
            "adaptive routing, e.g. 0=0.7,75=0.3"
        ),
    )
    p_serve.add_argument(
        "--deadlines",
        metavar="SECONDS=FRAC,...",
        help=(
            "per-request latency deadline mixture for adaptive "
            "routing, e.g. 0.5=0.8,2=0.2"
        ),
    )
    p_serve.add_argument(
        "--admission-rate",
        type=float,
        help="token-bucket admission rate (req/s); omit for no limit",
    )
    p_serve.add_argument(
        "--admission-burst",
        type=int,
        default=32,
        help="token-bucket burst size (default 32)",
    )
    p_serve.add_argument(
        "--queue-limit",
        type=float,
        help="shed arrivals when the fleet backlog exceeds this depth",
    )
    p_serve.add_argument(
        "--degrade-limit",
        type=float,
        help=(
            "waive accuracy floors (serve degraded instead of "
            "shedding) past this fleet backlog depth"
        ),
    )
    _add_telemetry_flags(p_serve)

    p_trace = command(
        "trace", _cmd_trace, "per-instance execution trace of a batch job"
    )
    _add_model_flag(p_trace)
    p_trace.add_argument("--spec", type=_parse_spec, default="none")
    p_trace.add_argument("--instances", nargs="+", required=True)
    p_trace.add_argument("--images", type=int, default=1_000_000)
    p_trace.add_argument(
        "--proportional",
        action="store_true",
        help="capacity-proportional split instead of the paper's Eq. 4",
    )
    p_trace.add_argument(
        "--chrome-out",
        metavar="PATH",
        help="also write the gantt as Chrome trace-event JSON",
    )

    p_export = command(
        "export", _cmd_export, "write all artefacts as txt/json/csv"
    )
    p_export.add_argument("directory")
    p_export.add_argument("ids", nargs="*", help="artefact subset")

    p_metrics = command(
        "metrics", _cmd_metrics, "export artefact metric snapshots"
    )
    p_metrics.add_argument(
        "ids", nargs="*", help="artefact ids (default: all)"
    )
    p_metrics.add_argument(
        "--format",
        dest="fmt",
        default="openmetrics",
        choices=["openmetrics", "json"],
        help="OpenMetrics text exposition or flat JSON",
    )
    p_metrics.add_argument(
        "--output", metavar="PATH", help="write to PATH instead of stdout"
    )
    p_metrics.add_argument("--jobs", type=int, default=1, metavar="N")

    p_bench = command(
        "bench",
        _cmd_bench,
        "performance-trajectory recorder / regression gate",
    )
    mode = p_bench.add_mutually_exclusive_group()
    mode.add_argument(
        "--record",
        action="store_true",
        help="append the next BENCH_<n>.json snapshot",
    )
    mode.add_argument(
        "--check",
        action="store_true",
        help="gate against the latest snapshot (non-zero exit on "
        "regression)",
    )
    p_bench.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        metavar="F",
        help="allowed fractional wall-time slowdown for --check "
        "(default 0.5 = +50%%; counters must match exactly)",
    )
    p_bench.add_argument(
        "--warn-ratio",
        type=float,
        default=1.5,
        metavar="F",
        help="warn (without failing) when --check wall time exceeds "
        "F times the latest record, or F times the first record on "
        "the trajectory (default 1.5)",
    )
    p_bench.add_argument(
        "--fail-ratio",
        type=float,
        default=None,
        metavar="F",
        help="hard-fail --check when wall time exceeds F times the "
        "FIRST record on the trajectory (bounds cumulative creep the "
        "per-step tolerance cannot; demoted to a warning when the "
        "baseline came from different hardware)",
    )
    p_bench.add_argument(
        "--repeats",
        type=int,
        default=3,
        metavar="N",
        help="wall time is the min over N runs (default 3, the "
        "paper's min-of-3 protocol)",
    )
    p_bench.add_argument(
        "--only",
        nargs="+",
        metavar="SCENARIO",
        help="scenario subset (default: the full suite)",
    )
    p_bench.add_argument(
        "--root",
        default=".",
        metavar="DIR",
        help="directory holding BENCH_<n>.json files (default: cwd)",
    )
    return parser


def _cmd_catalog(args: argparse.Namespace) -> int:
    from repro.experiments.tables import render_table3

    print(render_table3())
    return 0


def _run_selection(ids: Sequence[str], jobs: int, use_cache: bool, manifest_path=None):
    """Run the selection through the engine (all artefacts when empty)."""
    from repro.experiments.engine import run_experiments

    return run_experiments(
        tuple(ids) or None,
        jobs=jobs,
        use_cache=use_cache,
        manifest_path=manifest_path,
    )


def _maybe_event_log(path):
    """A :class:`JsonlEventLog` for ``path``, or a no-op context."""
    from contextlib import nullcontext

    if path is None:
        return nullcontext()
    from repro.obs import JsonlEventLog

    return JsonlEventLog(path)


def _write_metrics(path, snapshots, *, label: str = "artefact") -> None:
    """Write metric snapshots to ``path``.

    ``.json`` paths get the flat-JSON schema; anything else gets
    OpenMetrics text (one labelled series per snapshot when there are
    several).
    """
    import json
    from pathlib import Path

    from repro.obs.export import (
        metrics_json,
        prometheus_text,
        prometheus_text_multi,
    )

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.suffix == ".json":
        payload = {name: metrics_json(s) for name, s in snapshots.items()}
        if len(payload) == 1:
            payload = next(iter(payload.values()))
        path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    elif len(snapshots) == 1:
        path.write_text(prometheus_text(next(iter(snapshots.values()))))
    else:
        path.write_text(prometheus_text_multi(snapshots, label=label))


def _cmd_experiments(args: argparse.Namespace) -> int:
    import json

    # cached results carry no trace or metrics, so exporting implies
    # recomputation
    use_cache = not args.no_cache
    if args.trace_out or args.metrics_out:
        use_cache = False
    with _maybe_event_log(args.log_json):
        run = _run_selection(
            args.ids, args.jobs, use_cache, args.manifest
        )
    if args.trace_out:
        from repro.obs.export import merge_chrome_traces, write_chrome_trace

        write_chrome_trace(
            args.trace_out,
            merge_chrome_traces(
                {r.artefact: r.trace for r in run.results}
            ),
        )
        print(f"trace   -> {args.trace_out}", file=sys.stderr)
    if args.metrics_out:
        _write_metrics(
            args.metrics_out,
            {r.artefact: r.metrics for r in run.results},
        )
        print(f"metrics -> {args.metrics_out}", file=sys.stderr)
    if args.fmt == "json":
        payload = {
            "manifest": run.manifest.to_dict(),
            "results": [
                {
                    "artefact": r.artefact,
                    "title": r.title,
                    "category": r.category,
                    "status": r.status,
                    "data": r.data,
                    "text": r.text,
                    "error": r.error,
                }
                for r in run.results
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for output in run.results:
            print(f"\n=== {output.artefact}: {output.title} ===")
            if output.status == "error":
                print(f"ERROR:\n{output.error}", file=sys.stderr)
            else:
                print(output.text)
    return 1 if run.manifest.errors else 0


def _cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.experiments.report import build_markdown_report

    run = _run_selection(args.ids, args.jobs, use_cache=True)
    text = build_markdown_report(run.results, run.manifest)
    if args.output:
        Path(args.output).write_text(text)
        print(args.output)
    else:
        print(text)
    return 1 if run.manifest.errors else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.cloud.simulator import CloudSimulator
    from repro.experiments.fig6_caffenet_sweeps import sweep_layer
    from repro.experiments.report import format_table

    time_model, accuracy_model = _models(args.model)
    simulator = CloudSimulator(time_model, accuracy_model)
    sweep = sweep_layer(simulator, args.layer, images=args.images)
    print(
        format_table(
            ["Prune", "Time (min)", "Top-1 (%)", "Top-5 (%)"],
            [
                (f"{r * 100:.0f}%", f"{t:.2f}", f"{a1:.1f}", f"{a5:.1f}")
                for r, t, a1, a5 in zip(
                    sweep.ratios, sweep.time_min, sweep.top1, sweep.top5
                )
            ],
        )
    )
    print(
        f"last sweet spot: {sweep.sweet_spot.last_sweet_spot * 100:.0f}% "
        f"({sweep.sweet_spot.time_reduction * 100:.1f}% time saved)"
    )
    return 0


def _cmd_allocate(args: argparse.Namespace) -> int:
    from repro.cloud.catalog import EC2_CATALOG
    from repro.cloud.instance import CloudInstance
    from repro.cloud.simulator import CloudSimulator
    from repro.core.allocation import greedy_allocate
    from repro.errors import InfeasibleError

    time_model, accuracy_model = _models(args.model)
    simulator = CloudSimulator(time_model, accuracy_model)
    pool = [
        CloudInstance(itype)
        for itype in EC2_CATALOG
        for _ in range(args.instances_per_type)
    ]
    try:
        allocation = greedy_allocate(
            MODELS[args.model].allocate_degrees(),
            pool,
            simulator,
            images=args.images,
            deadline_s=args.deadline * 3600.0,
            budget=args.budget,
        )
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    r = allocation.result
    print(f"degree of pruning : {r.spec.label()}")
    print(f"configuration     : {r.configuration.label()}")
    print(f"time              : {r.time_s / 3600.0:.2f} h")
    print(f"cost              : ${r.cost:.2f}")
    print(f"accuracy          : top1 {r.accuracy.top1:.1f}% / top5 {r.accuracy.top5:.1f}%")
    print(f"TAR / CAR (top5)  : {r.tar():.3f} / {r.car():.3f}")
    print(f"model evaluations : {allocation.evaluations}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.cloud.catalog import instance_type
    from repro.cloud.configuration import ResourceConfiguration
    from repro.cloud.instance import CloudInstance
    from repro.core.evalspace import SpaceSpec, evaluate

    time_model, accuracy_model = _models(args.model)
    config = ResourceConfiguration(
        [CloudInstance(instance_type(n)) for n in args.instances]
    )
    # a 1x1 grid: repeated invocations hit the evaluation-space cache
    space = evaluate(
        SpaceSpec.build(
            time_model, accuracy_model, [args.spec], [config], args.images
        )
    )
    r = space.results[0]
    print(f"spec      : {r.spec.label()}")
    print(f"config    : {r.configuration.label()}")
    print(f"time      : {r.time_s:.1f} s ({r.time_s / 60.0:.2f} min)")
    print(f"cost      : ${r.cost:.4f}")
    print(f"accuracy  : top1 {r.accuracy.top1:.1f}% / top5 {r.accuracy.top5:.1f}%")
    print(f"TAR (top5): {r.tar():.4f} h | CAR (top5): ${r.car():.4f}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro import api

    request = api.PlanRequest(
        target=args.target,
        model=args.model,
        metric=args.metric,
        deadline_h=args.deadline,
        budget=args.budget,
        images=args.images,
        instances_per_type=args.instances_per_type,
    )
    try:
        response = api.plan(request)
    except api.ApiError as exc:
        if exc.code == "infeasible":
            print(f"infeasible: {exc}", file=sys.stderr)
            return 1
        raise
    print(response.render())
    return 0


def _cmd_service(args: argparse.Namespace) -> int:
    from repro.obs import MetricsRegistry
    from repro.service import PlanningServer

    server = PlanningServer(
        args.host,
        args.port,
        max_inflight=args.max_inflight,
        registry=MetricsRegistry(),
    )
    print(f"serving on {server.url} (ctrl-c to stop)", file=sys.stderr)
    try:
        with _maybe_event_log(args.log_json):
            server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def _soak_injection(preset: str | None, mixture):
    """Build the :class:`SoakInjection` a ``--inject`` preset names."""
    from repro.service import SoakInjection

    if preset is None:
        return None
    return SoakInjection(**_INJECTIONS[preset](mixture))


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json

    from repro.service import (
        HttpTarget,
        InProcessTarget,
        PlanMixture,
        run_load,
        run_soak,
    )

    mixture = PlanMixture(
        model=args.model,
        images=args.images,
        instances_per_type=args.instances_per_type,
        catalog=tuple(args.catalog) if args.catalog else None,
        seed=args.seed,
    )
    target = HttpTarget(args.url) if args.url else InProcessTarget()
    duration = args.duration
    if duration is None and args.requests is None:
        duration = 5.0
    if args.soak:
        if duration is None:
            duration = args.requests / args.rate
        with _maybe_event_log(args.log_json):
            soak = run_soak(
                target,
                mixture,
                rate_per_s=args.rate,
                duration_s=duration,
                window_s=args.window,
                arrival=args.arrival,
                seed=args.seed,
                inject=_soak_injection(args.inject, mixture),
                max_workers=args.workers,
            )
        if args.windows_out:
            from pathlib import Path

            path = Path(args.windows_out)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(
                json.dumps(soak.window_rows(), indent=2, sort_keys=True)
            )
            print(f"windows -> {args.windows_out}", file=sys.stderr)
        if args.json:
            print(json.dumps(soak.summary(), indent=2, sort_keys=True))
        else:
            print(soak.render())
        return 0 if soak.ok else 1
    with _maybe_event_log(args.log_json):
        report = run_load(
            target,
            mixture,
            rate_per_s=args.rate,
            duration_s=duration,
            n_requests=args.requests,
            arrival=args.arrival,
            seed=args.seed,
            max_workers=args.workers,
        )
    if args.json:
        print(json.dumps(report.summary(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0


def _tail_matches(event: dict, kinds, trace_id) -> bool:
    """Does one decoded event pass the ``repro tail`` filters?"""
    kind = str(event.get("kind", ""))
    if kinds and not any(kind.startswith(k) for k in kinds):
        return False
    if trace_id is not None and event.get("trace_id") != trace_id:
        return False
    return True


def _cmd_tail(args: argparse.Namespace) -> int:
    import json
    import time
    from pathlib import Path

    path = Path(args.path)
    if not path.exists():
        print(f"error: no such file {args.path!r}", file=sys.stderr)
        return 2
    kinds = tuple(args.kind or ())
    shown = 0
    try:
        with path.open("r") as handle:
            while True:
                line = handle.readline()
                if not line:
                    if not args.follow:
                        break
                    time.sleep(0.2)
                    continue
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except ValueError:
                    continue
                if not isinstance(event, dict):
                    continue
                if not _tail_matches(event, kinds, args.trace):
                    continue
                print(json.dumps(event, sort_keys=True))
                shown += 1
                if args.limit is not None and shown >= args.limit:
                    break
    except KeyboardInterrupt:
        pass
    return 0


def _faults_and_rate(args: argparse.Namespace, configuration, seed: int):
    """``(FaultPlan, hourly rate)`` of one serving deployment.

    The plan samples ``--faults`` preemptions (seeded with ``seed``) or
    only applies ``--request-timeout``/``--retry-budget``; it is
    ``None`` when neither flag is given.  The rate is the ``--spot``
    price of ``configuration``, ``None`` for on-demand billing.
    """
    from repro.cloud.faults import FaultPlan
    from repro.cloud.pricing import spot_rate

    plan = None
    if args.faults is not None:
        plan = FaultPlan.sample(
            duration_s=args.duration,
            workers=configuration.total_gpus,
            mtbf_s=args.faults,
            recovery_s=args.fault_recovery,
            retry_budget=args.retry_budget,
            timeout_s=args.request_timeout,
            seed=seed,
        )
    elif args.request_timeout is not None:
        plan = FaultPlan(
            retry_budget=args.retry_budget, timeout_s=args.request_timeout
        )
    hourly_rate = (
        spot_rate(configuration.total_price_per_hour) if args.spot else None
    )
    return plan, hourly_rate


def _write_serve_outputs(args: argparse.Namespace, tracer, registry) -> None:
    """Write ``serve``'s ``--trace-out`` trace and ``--metrics-out``
    snapshot, when asked for."""
    if args.trace_out:
        from repro.obs.export import chrome_trace, write_chrome_trace

        write_chrome_trace(args.trace_out, chrome_trace(tracer))
        print(f"trace   -> {args.trace_out}", file=sys.stderr)
    if args.metrics_out:
        _write_metrics(args.metrics_out, {"serve": registry.snapshot()})
        print(f"metrics -> {args.metrics_out}", file=sys.stderr)


def _cmd_serve(args: argparse.Namespace) -> int:
    if args.fleet:
        return _cmd_serve_fleet(args)
    from repro.cloud.catalog import instance_type
    from repro.cloud.configuration import ResourceConfiguration
    from repro.cloud.instance import CloudInstance
    from repro.serving import BatchPolicy, ServingSimulator

    if not args.instances:
        print("serve needs --instances (or --fleet)", file=sys.stderr)
        return 2
    time_model, accuracy_model = _models(args.model)
    config = ResourceConfiguration(
        [CloudInstance(instance_type(n)) for n in args.instances]
    )
    arrivals = ARRIVALS[args.arrival](
        args.rate, args.duration, seed=args.seed
    )
    plan, hourly_rate = _faults_and_rate(args, config, args.seed)
    simulator = ServingSimulator(
        time_model,
        accuracy_model,
        config,
        args.spec,
        BatchPolicy(max_batch=args.max_batch, max_wait_s=args.max_wait),
        hourly_rate=hourly_rate,
    )
    from repro.obs import MetricsRegistry, Tracer, scoped_observability
    from repro.obs.telemetry import ServingTelemetry, SloPolicy

    telemetry = ServingTelemetry(
        SloPolicy(latency_slo_s=args.slo) if args.slo is not None else None
    )
    tracer = Tracer(enabled=bool(args.trace_out))
    registry = MetricsRegistry()
    with scoped_observability(tracer, registry):
        with _maybe_event_log(args.log_json):
            report = simulator.run(arrivals, plan, telemetry=telemetry)
    if plan is None:
        print(f"served    : {report.requests} requests in {report.duration_s:.1f}s")
    else:
        print(f"served    : {report.served}/{report.requests} requests in {report.duration_s:.1f}s")
    print(f"latency   : p50 {report.p50:.3f}s  p99 {report.p99:.3f}s  mean {report.mean_latency:.3f}s")
    print(f"batching  : mean width {report.mean_batch:.1f}")
    print(f"fleet     : {report.worker_count} GPUs at {report.utilisation:.0%} utilisation")
    print(f"cost      : ${report.cost:.4f}" + (" (spot)" if args.spot else ""))
    print(f"accuracy  : top5 {report.accuracy.top5:.1f}%")
    if plan is not None:
        print(
            f"faults    : {report.preempted} preemptions, "
            f"{report.retries} retries, {report.dropped} dropped "
            f"(availability {report.availability:.1%}, "
            f"goodput {report.goodput:.1f} req/s)"
        )
    if args.histogram:
        from repro.serving.metrics import render_histogram

        print(render_histogram(report))
    if args.slo is not None:
        from repro.serving.metrics import slo_headroom

        headroom = slo_headroom(report, args.slo)
        print(
            f"SLO {args.slo:.2f}s: miss rate {headroom['miss_rate']:.1%}, "
            f"margin {headroom['margin_s']:+.2f}s"
        )
    hist = telemetry.latency
    print(
        f"telemetry : p50 {hist.p50:.3f}s  p95 {hist.p95:.3f}s  "
        f"p99 {hist.p99:.3f}s  (streaming histogram, "
        f"{hist.count} samples)"
    )
    print(
        f"            queue depth peak {telemetry.queue_depth.max:.0f}, "
        f"batch occupancy mean {telemetry.batch_occupancy.mean:.0%}"
    )
    for alert in telemetry.alerts:
        state = "FIRING" if alert["kind"] == "slo.alert" else "resolved"
        print(
            f"SLO alert : [{state}] {alert['slo']} "
            f"burn {alert['burn_rate']:.1f}x at t={alert['at_s']:.1f}s"
        )
    _write_serve_outputs(args, tracer, registry)
    return 0


def _parse_replica(entry: str, index: int):
    """Parse one ``[Nx]ITYPE[:SPEC]`` replica description."""
    import re

    from repro.cloud.catalog import instance_type
    from repro.cloud.configuration import ResourceConfiguration
    from repro.cloud.instance import CloudInstance

    count = 1
    match = re.match(r"^(\d+)x(.+)$", entry)
    if match:
        count, entry = int(match.group(1)), match.group(2)
    itype_name, _, spec_text = entry.partition(":")
    spec = _parse_spec(spec_text or "none")
    itype = instance_type(itype_name)
    configuration = ResourceConfiguration(
        [CloudInstance(itype) for _ in range(count)]
    )
    name = f"r{index + 1}-{itype_name}" + (
        "-pruned" if spec.ratios else ""
    )
    return name, configuration, spec


def _parse_mixture(text: str | None, flag: str, unit: str):
    """Parse ``VALUE=FRACTION,...`` (e.g. ``--floors 0=0.7,75=0.3``)
    into a mixture tuple; ``()`` when the flag is absent."""
    from repro.errors import ConfigurationError

    if not text:
        return ()
    pairs = []
    for part in text.split(","):
        value, _, fraction = part.partition("=")
        if not fraction:
            raise ConfigurationError(
                f"{flag} expects {unit}=FRACTION pairs, got {part!r}"
            )
        try:
            pairs.append((float(value), float(fraction)))
        except ValueError:
            raise ConfigurationError(
                f"{flag} expects numeric {unit}=FRACTION pairs, "
                f"got {part!r}"
            ) from None
    return tuple(pairs)


def _cmd_serve_fleet(args: argparse.Namespace) -> int:
    from repro.serving import (
        AdmissionPolicy,
        BatchPolicy,
        FleetRouter,
        FleetTelemetry,
        FleetWorkload,
        ReplicaSpec,
        SloPolicy,
    )

    if not args.replica:
        print(
            "serve --fleet needs at least one --replica", file=sys.stderr
        )
        return 2
    time_model, accuracy_model = _models(args.model)
    policy = BatchPolicy(
        max_batch=args.max_batch, max_wait_s=args.max_wait
    )
    replicas = []
    for i, entry in enumerate(args.replica):
        name, configuration, spec = _parse_replica(entry, i)
        plan, hourly_rate = _faults_and_rate(
            args, configuration, args.seed + i
        )
        replicas.append(
            ReplicaSpec(
                name=name,
                configuration=configuration,
                spec=spec,
                policy=policy,
                faults=plan,
                hourly_rate=hourly_rate,
            )
        )
    admission = None
    if (
        args.admission_rate is not None
        or args.queue_limit is not None
        or args.degrade_limit is not None
    ):
        admission = AdmissionPolicy(
            rate_per_s=args.admission_rate,
            burst=args.admission_burst,
            queue_limit=args.queue_limit,
            degrade_limit=args.degrade_limit,
        )
    routing = "adaptive" if args.adaptive else args.routing
    workload = FleetWorkload(
        args.rate,
        args.duration,
        arrival=args.arrival,
        seed=args.seed,
        floors=_parse_mixture(args.floors, "--floors", "TOP5"),
        deadlines=_parse_mixture(args.deadlines, "--deadlines", "SECONDS"),
    )
    arrivals = workload.arrivals()
    floors = workload.accuracy_floors(arrivals.size)
    deadlines = workload.deadlines_s(arrivals.size)
    router = FleetRouter(
        time_model,
        accuracy_model,
        replicas,
        routing=routing,
        admission=admission,
    )
    from repro.obs import MetricsRegistry, Tracer, scoped_observability

    telemetry = FleetTelemetry(
        SloPolicy(latency_slo_s=args.slo) if args.slo is not None else None
    )
    tracer = Tracer(enabled=bool(args.trace_out))
    registry = MetricsRegistry()
    with scoped_observability(tracer, registry):
        with _maybe_event_log(args.log_json):
            report = router.run(
                arrivals,
                floors=floors,
                deadlines=deadlines,
                telemetry=telemetry,
            )
    print(
        f"fleet     : {len(replicas)} replicas, "
        f"{routing} routing"
        + (" + admission control" if admission is not None else "")
    )
    print(
        f"served    : {report.served}/{report.offered} requests in "
        f"{report.duration_s:.1f}s "
        f"({report.shed} shed, {report.dropped - report.shed} dropped)"
    )
    if report.degraded:
        print(
            f"degraded  : {report.degraded} requests served below "
            f"their accuracy floor "
            f"(goodput-at-accuracy "
            f"{report.goodput_at_accuracy:.1f} req/s)"
        )
    print(
        f"latency   : p50 {report.p50:.3f}s  p99 {report.p99:.3f}s"
    )
    print(
        f"cost      : ${report.cost:.4f}"
        + (" (spot)" if args.spot else "")
        + f"  (availability {report.availability:.1%}, "
        f"goodput {report.goodput:.1f} req/s)"
    )
    for outcome in report.outcomes:
        accuracy = router.accuracy(outcome.spec.name)
        if outcome.report is None:
            print(
                f"  {outcome.spec.name:<24} idle "
                f"(${outcome.cost:.4f} for the makespan)"
            )
            continue
        print(
            f"  {outcome.spec.name:<24} {outcome.served:>6} served  "
            f"p99 {outcome.report.latency_percentile(99):.3f}s  "
            f"top5 {accuracy.top5:.1f}%  ${outcome.cost:.4f}"
        )
    aggregate = telemetry.aggregate_latency
    if aggregate.count:
        print(
            f"telemetry : p50 {aggregate.p50:.3f}s  "
            f"p95 {aggregate.p95:.3f}s  p99 {aggregate.p99:.3f}s  "
            f"({aggregate.count} samples across "
            f"{len(telemetry.per_replica)} replicas)"
        )
    if args.slo is not None:
        burn = report.burn_rates(SloPolicy(latency_slo_s=args.slo))
        print(
            f"SLO burn  : availability {burn['availability']:.2f}x  "
            f"latency {burn['latency']:.2f}x  "
            f"({telemetry.alerts_fired} alerts fired)"
        )
    _write_serve_outputs(args, tracer, registry)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.cloud.catalog import instance_type
    from repro.cloud.configuration import ResourceConfiguration
    from repro.cloud.instance import CloudInstance
    from repro.cloud.trace import render_gantt, trace_job

    time_model, _ = _models(args.model)
    config = ResourceConfiguration(
        [CloudInstance(instance_type(n)) for n in args.instances]
    )
    trace = trace_job(
        time_model,
        args.spec,
        config,
        args.images,
        proportional_split=args.proportional,
    )
    print(render_gantt(trace))
    if args.chrome_out:
        from repro.obs.export import (
            chrome_trace_from_job,
            write_chrome_trace,
        )

        write_chrome_trace(args.chrome_out, chrome_trace_from_job(trace))
        print(f"trace   -> {args.chrome_out}", file=sys.stderr)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.experiments.export import export_all

    for path in export_all(args.directory, tuple(args.ids) or None):
        print(path)
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from repro.obs.export import (
        metrics_json,
        prometheus_text_multi,
    )

    # cached results carry empty snapshots, so always recompute
    run = _run_selection(args.ids, args.jobs, use_cache=False)
    snapshots = {r.artefact: r.metrics for r in run.results}
    if args.fmt == "json":
        text = json.dumps(
            {name: metrics_json(s) for name, s in snapshots.items()},
            indent=2,
            sort_keys=True,
        )
    else:
        text = prometheus_text_multi(snapshots)
    if args.output:
        from pathlib import Path

        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text if text.endswith("\n") else text + "\n")
        print(args.output)
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return 1 if run.manifest.errors else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.obs import bench

    only = tuple(args.only) if args.only else None
    if args.check:
        try:
            report = bench.check(
                args.root,
                tolerance=args.tolerance,
                warn_ratio=args.warn_ratio,
                fail_ratio=args.fail_ratio,
                repeats=args.repeats,
                only=only,
            )
        except FileNotFoundError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(
            f"baseline: BENCH_{report.baseline_index}.json "
            f"(tolerance +{report.tolerance:.0%} wall, counters exact)"
        )
        for line in report.lines:
            print(line)
        for warning in report.warnings:
            print(f"WARN: {warning}", file=sys.stderr)
        if not report.ok:
            print(
                f"FAIL: {len(report.failures)} regression(s)",
                file=sys.stderr,
            )
            return 1
        print("ok: no regressions")
        return 0
    if args.record:
        path = bench.record(args.root, repeats=args.repeats, only=only)
        for entry in bench.BenchRecord.read(path).entries:
            print(
                f"{entry.name:<20s} {entry.wall_s * 1e3:8.1f} ms  "
                f"{sum(entry.counters.values()):>8d} ops"
            )
        print(path)
        return 0
    for entry in bench.run_suite(repeats=args.repeats, only=only):
        print(
            f"{entry.name:<20s} {entry.wall_s * 1e3:8.1f} ms  "
            f"{sum(entry.counters.values()):>8d} ops"
        )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except UnknownArtefactError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
