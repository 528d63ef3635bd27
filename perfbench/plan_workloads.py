"""``plan-warm`` and ``plan-mixed``: the planning service over HTTP.

The program under test is ``python -m repro service`` in its own
process; this module talks to it only through ``/v1`` over persistent
HTTP/1.1 keep-alive connections (:mod:`openloop`).

plan-warm
    Warm ``/v1/plan`` queries from :class:`repro.service.PlanMixture`
    over the default full-catalog grid, over two connections: a
    closed-loop phase for latency, an open-loop phase at a fixed rate,
    then an open-loop capacity search starting from the closed-loop
    answer rate.
plan-mixed
    The same warm stream on one connection, beside a second connection
    carrying cold work at a fixed rate: ``/v1/plan`` on fresh small
    grids and ``/v1/fleet/evaluate`` with fresh workload seeds, both
    always cache misses.  The same phases, with the cold stream running
    through all of them.

Every answer body is compared byte for byte with the in-process
:mod:`repro.api` answer to the same request.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import queue
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import arith
import layers
import openloop
from fleet_workload import peak_rss_mb

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench")

#: setups per untraced run; ``setup_s`` is their median
SETUPS = 5
#: shares of ``--seconds``: the plain-socket client's closed loop (see
#: :mod:`openloop`), the closed-loop latency phase, the fixed-rate phase
#: and the capacity search
PLAIN_SHARE, CLOSED_SHARE, FIXED_SHARE, CAPACITY_SHARE = 0.05, 0.5, 0.1, 0.35
#: closed-loop jobs queued per connection-second (more than any server
#: can answer; the rest are cancelled when the phase ends)
CLOSED_BACKLOG = 2000
#: a capacity step whose generator handed a tenth of its requests over
#: later than this share of the latency limit is void: the client, not
#: the server, fell behind (rarer spikes are host scheduling noise)
GENERATOR_SLACK = 0.1
BOOT_TIMEOUT_S = 120.0
#: a capacity step's jobs still unsent this long after its last
#: scheduled send are cancelled (the step has failed by then)
GRACE_S = 1.0
#: the evaluation cache keeps 32 grids oldest-first; the warm grid is
#: the oldest, so a server must see fewer cold grids than that
MAX_COLD_GRIDS = 24
COLD_CATALOG = ("p2.xlarge", "p2.8xlarge", "p2.16xlarge")


@dataclass(frozen=True)
class Shape:
    """The fixed parameters of one planning workload."""

    #: warm plans per second in the fixed-rate phase
    rate: float
    #: keep-alive connections carrying the warm stream
    warm_connections: int
    #: cold operations per second on their own connection (0: none)
    cold_rate: float
    #: p90 warm latency a capacity step must stay within
    limit_s: float


#: capacity probes, sharing CAPACITY_SHARE of ``--seconds`` evenly
MAX_STEPS = 5
#: capacity bisection stops at this failing/sustaining ratio - 1
RESOLUTION = 0.05

PLAN_WARM = Shape(rate=200.0, warm_connections=2, cold_rate=0.0, limit_s=0.100)
PLAN_MIXED = Shape(rate=100.0, warm_connections=1, cold_rate=1.0, limit_s=0.500)


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------
class Server:
    """One planning-service process (plain, or under the span wrappers)."""

    def __init__(self, traced: bool = False) -> None:
        self.traced = traced
        os.makedirs(WORK, exist_ok=True)
        self.spans_path = os.path.join(
            WORK, f"spans-{os.getpid()}-{time.monotonic_ns()}.json"
        )
        if traced:
            argv = [
                sys.executable,
                os.path.join(ROOT, "perfbench", "traced_server.py"),
                "--spans",
                self.spans_path,
            ]
        else:
            argv = [sys.executable, "-m", "repro", "service", "--port", "0"]
        env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.argv, self.env = argv, env
        self.proc: subprocess.Popen | None = None
        self._pump: threading.Thread | None = None
        self.host, self.port = "127.0.0.1", 0
        #: cold grids this server has evaluated (see MAX_COLD_GRIDS)
        self.cold_grids = 0

    def start(self, warm_body: bytes) -> float:
        """Boot, answer one warm-up plan; returns the seconds it took."""
        started = time.monotonic()
        self.proc = subprocess.Popen(
            self.argv,
            cwd=ROOT,
            env=self.env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        lines: queue.Queue = queue.Queue()

        def pump() -> None:
            for line in self.proc.stderr:
                lines.put(line)
            lines.put(None)

        self._pump = threading.Thread(target=pump, daemon=True)
        self._pump.start()
        deadline = started + BOOT_TIMEOUT_S
        while True:
            try:
                line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError("planning service did not come up") from None
            if line is None:
                raise RuntimeError("planning service exited during boot")
            match = re.search(r"serving on http://([\d.]+):(\d+)", line)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                break
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=BOOT_TIMEOUT_S
        )
        try:
            connection.request(
                "POST",
                "/v1/plan",
                body=warm_body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            response.read()
        finally:
            connection.close()
        if response.status not in (200, 422):
            raise RuntimeError(f"warm-up plan answered {response.status}")
        return time.monotonic() - started

    def stop(self) -> list | None:
        """Stop the process; returns the traced server's spans."""
        if self.proc is None:
            return None
        if self.proc.poll() is None:
            # SIGTERM, not SIGINT: a shell that starts a job in the
            # background leaves SIGINT ignored in all its children
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self._pump is not None:
            self._pump.join(timeout=5)
        self.proc = None
        if not self.traced or not os.path.exists(self.spans_path):
            return None
        with open(self.spans_path, encoding="utf-8") as fh:
            spans = layers.from_json(json.load(fh))
        os.remove(self.spans_path)
        return spans


# ----------------------------------------------------------------------
# inputs (all derived from the seed)
# ----------------------------------------------------------------------
def _body(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


class Inputs:
    """Seeded request streams: warm plans, cold plans, cold fleets.

    The warm stream is stratified: each distinct query of the
    :class:`~repro.service.PlanMixture` comes up equally often, in an
    order the seed shuffles.  The queries cost from ~0.1 to ~4 ms, so
    the drawn shares of an unstratified trace would move every warm
    figure from seed to seed.
    """

    #: warm bodies per cycle (a multiple of the mixture's 12 queries)
    WARM_CYCLE = 4800

    def __init__(self, seed: int) -> None:
        import numpy as np

        from repro.service import PlanMixture

        distinct: dict[tuple, bytes] = {}
        for request in PlanMixture(seed=seed).requests(self.WARM_CYCLE):
            distinct.setdefault(request.cache_key(), _body(request.to_dict()))
        bodies = list(distinct.values())
        order = np.random.default_rng([seed, 0x3A7]).permutation(self.WARM_CYCLE)
        self.warm = [bodies[i % len(bodies)] for i in order]
        self._rng = np.random.default_rng([seed, 0xC01D])
        self._warm_next = 0
        self._cold_next = 0

    def warm_body(self) -> bytes:
        body = self.warm[self._warm_next % len(self.warm)]
        self._warm_next += 1
        return body

    def cold_job(self, at: float) -> openloop.Job:
        """The next cold operation: plans and fleets alternate."""
        from repro.api import FleetDesign, FleetReplica, FleetRequest, PlanRequest

        index = self._cold_next
        self._cold_next += 1
        rng = self._rng
        if index % 2 == 0:
            request = PlanRequest(
                target=float(rng.choice([70.0, 75.0, 78.0])),
                deadline_h=[None, 6.0, 12.0][int(rng.integers(3))],
                budget=[None, 100.0][int(rng.integers(2))],
                # a fresh images count is a fresh grid: always a miss
                images=1_000_000 + 7 * index + 1,
                instances_per_type=3,
                catalog=COLD_CATALOG,
            )
            return openloop.Job(
                at, "cold", "/v1/plan", _body(request.to_dict()), "cold-plan"
            )
        sweet = {"conv1": 0.3, "conv2": 0.5}
        request = FleetRequest(
            designs=(
                FleetDesign(
                    replicas=(
                        FleetReplica("p2.8xlarge", name="gold"),
                        FleetReplica("p2.xlarge", spec=sweet, name="cheap-a"),
                        FleetReplica("p2.xlarge", spec=sweet, name="cheap-b"),
                    ),
                    name="tiered",
                    routing="tiered",
                    admission_rate_per_s=300.0,
                    admission_burst=64,
                ),
                FleetDesign(
                    replicas=(FleetReplica("p2.8xlarge", count=2),),
                    name="pair",
                    routing="round-robin",
                ),
            ),
            rate_per_s=float(rng.choice([120.0, 200.0])),
            duration_s=60.0,
            # a fresh workload seed is a fresh fleet key: always a miss
            seed=int(rng.integers(1 << 30)) * 64 + index,
            floors=((0.0, 0.7), (75.0, 0.3)),
        )
        return openloop.Job(
            at,
            "cold",
            "/v1/fleet/evaluate",
            _body(request.to_dict()),
            "cold-fleet",
        )


# ----------------------------------------------------------------------
# correctness: every answer against the in-process API
# ----------------------------------------------------------------------
class Reference:
    """In-process :mod:`repro.api` answers, one per distinct request."""

    def __init__(self) -> None:
        self._answers: dict[tuple[str, bytes], tuple[int, bytes]] = {}

    def answer(self, path: str, body: bytes) -> tuple[int, bytes]:
        key = (path, body)
        if key not in self._answers:
            from repro.api import (
                ApiError,
                FleetRequest,
                PlanRequest,
                evaluate_fleets,
                plan,
            )

            payload = json.loads(body.decode("utf-8"))
            try:
                if path == "/v1/plan":
                    response = plan(PlanRequest.from_dict(payload))
                else:
                    response = evaluate_fleets(FleetRequest.from_dict(payload))
                self._answers[key] = (200, _body(response.to_dict()))
            except ApiError as exc:
                self._answers[key] = (exc.http_status, _body(exc.to_dict()))
        return self._answers[key]

    def mismatches(self, outcomes) -> int:
        """Answered outcomes whose status or body differs."""
        wrong = 0
        for outcome in outcomes:
            if outcome.failed or outcome.cancelled:
                continue
            expected = self.answer(outcome.job.path, outcome.job.body)
            if (outcome.status, outcome.body) != expected:
                wrong += 1
        return wrong


# ----------------------------------------------------------------------
# phases
# ----------------------------------------------------------------------
def _jobs(inputs: Inputs, shape: Shape, rate: float, duration: float):
    """Open loop: warm plans at ``rate``, plus the cold stream."""
    warm = [
        openloop.Job(at, "warm", "/v1/plan", inputs.warm_body(), "warm")
        for at in openloop.uniform(rate, duration)
    ]
    return warm + _cold_jobs(inputs, shape, duration)


def _closed_warm(inputs: Inputs, connections: int, duration: float):
    """Closed loop: every warm connection sends its next plan as soon as
    the last one is answered."""
    return [
        openloop.Job(None, "warm", "/v1/plan", inputs.warm_body(), "warm")
        for _ in range(int(CLOSED_BACKLOG * duration * connections))
    ]


def _closed_jobs(inputs: Inputs, shape: Shape, duration: float):
    """The closed-loop warm stream plus the (open-loop) cold stream."""
    return _closed_warm(inputs, shape.warm_connections, duration) + _cold_jobs(
        inputs, shape, duration
    )


def _cold_jobs(inputs: Inputs, shape: Shape, duration: float):
    if not shape.cold_rate:
        return []
    return [
        inputs.cold_job(at) for at in openloop.uniform(shape.cold_rate, duration)
    ]


def _typical_latency(outcomes) -> float:
    """Each distinct warm query's median latency, averaged over them.

    Half the mixture's queries cost ~0.1 ms and the next group ~0.4 ms,
    so the median of all warm latencies sits in the gap between the two
    groups, where noise moves it most.
    """
    by_query: dict[bytes, list[float]] = {}
    for o in outcomes:
        if o.job.kind == "warm" and not o.cancelled:
            by_query.setdefault(o.job.body, []).append(o.latency)
    return statistics.fmean(arith.median(v) for v in by_query.values())


def _answer_rate(outcomes) -> float:
    """Warm answers per second, as measured: the rate of completions
    between the first and the last."""
    done = sorted(o.done for o in outcomes if o.job.kind == "warm" and not o.cancelled)
    return (len(done) - 1) / (done[-1] - done[0])


def _judge(outcomes, rate: float, shape: Shape) -> arith.Step:
    """Sustained: warm p90 within the limit, nothing failed or left
    unsent, and the generator on schedule."""
    sent = [o for o in outcomes if not o.cancelled]
    warm = [o.latency for o in sent if o.job.kind == "warm"]
    p90 = arith.percentile(warm, 90, min_beyond=0) if warm else math.inf
    late = arith.percentile([o.late for o in outcomes], 90, min_beyond=0)
    return arith.Step(
        rate=rate,
        passed=(
            p90 <= shape.limit_s
            and len(sent) == len(outcomes)
            and not any(o.failed for o in sent)
        ),
        generator_ok=late <= GENERATOR_SLACK * shape.limit_s,
    )


@dataclass
class Measured:
    """Everything one server saw in one measurement window."""

    closed: list
    fixed: list
    steps: list
    capacity: arith.Capacity | None
    connections: int

    @property
    def outcomes(self) -> list:
        return self.closed + self.fixed + [o for step in self.steps for o in step]


def measure(
    server: Server,
    inputs: Inputs,
    shape: Shape,
    seconds: float,
    *,
    fixed_rate: bool = True,
    search: bool = True,
) -> Measured:
    """The closed-loop latency phase, then (``fixed_rate``) the
    fixed-rate phase, then (``search``) the capacity search."""
    # a short GIL switch interval keeps the generator thread punctual
    # while worker threads parse responses
    sys.setswitchinterval(0.0005)
    pools = {"warm": shape.warm_connections}
    if shape.cold_rate:
        pools["cold"] = 1
    client = openloop.Client(server.host, server.port, pools)
    try:
        closed_s = CLOSED_SHARE * seconds
        closed = client.run(
            _closed_jobs(inputs, shape, closed_s), cancel_after=closed_s
        )
        fixed: list = []
        steps: list = []
        capacity = None
        if fixed_rate:
            fixed_s = FIXED_SHARE * seconds
            fixed = client.run(
                _jobs(inputs, shape, shape.rate, fixed_s),
                cancel_after=fixed_s + GRACE_S,
            )
        if search:
            step_s = CAPACITY_SHARE * seconds / MAX_STEPS

            def probe(rate: float) -> arith.Step:
                outcomes = client.run(
                    _jobs(inputs, shape, rate, step_s),
                    cancel_after=step_s + GRACE_S,
                )
                steps.append(outcomes)
                return _judge(outcomes, rate, shape)

            # the closed loop's answer rate is a good first guess
            capacity = arith.search_capacity(
                probe,
                _answer_rate(closed),
                resolution=RESOLUTION,
                max_steps=MAX_STEPS,
            )
    finally:
        client.close()
    measured = Measured(closed, fixed, steps, capacity, client.connections)
    server.cold_grids += sum(o.job.kind == "cold-plan" for o in measured.outcomes)
    if server.cold_grids > MAX_COLD_GRIDS:
        raise RuntimeError(
            f"{server.cold_grids} cold grids would evict the warm grid from "
            f"the evaluation cache; lower the cold rate or --seconds"
        )
    return measured


# ----------------------------------------------------------------------
# the two run modes
# ----------------------------------------------------------------------
def _warm(outcomes) -> list[float]:
    """Latencies of the answered warm plans."""
    return [
        o.latency for o in outcomes if o.job.kind == "warm" and not o.cancelled
    ]


def _note_tail(report, name: str, values: list[float]) -> None:
    tail = arith.highest_supported(len(values))
    if tail is not None:
        report.note(
            f"{name}_p{tail:g}_ms",
            1e3 * arith.percentile(values, tail),
            "ms",
            len(values),
        )


def _plain_client(server: Server, inputs: Inputs, seconds: float) -> list:
    """Closed loop on one plain-socket connection (no ``TCP_QUICKACK``)."""
    client = openloop.Client(server.host, server.port, {"warm": 1}, quickack=False)
    try:
        duration = PLAIN_SHARE * seconds
        return client.run(_closed_warm(inputs, 1, duration), cancel_after=duration)
    finally:
        client.close()


def run_untraced(shape: Shape, seed: int, seconds: float, report) -> None:
    """End-to-end metrics: SETUPS setups, the last server measured."""
    inputs = Inputs(seed)
    setups = []
    server = None
    try:
        for attempt in range(SETUPS):
            server = Server()
            setups.append(server.start(inputs.warm[0]))
            if attempt < SETUPS - 1:
                server.stop()
        plain = _plain_client(server, inputs, seconds)
        measured = measure(server, inputs, shape, seconds)
        rss = peak_rss_mb(server.proc.pid)
    finally:
        if server is not None:
            server.stop()

    outcomes = measured.outcomes
    wrong = Reference().mismatches(outcomes + plain)
    closed = _warm(measured.closed)
    fixed = _warm(measured.fixed)
    capacity = measured.capacity
    report.check(wrong == 0, f"{wrong} answers differ from the in-process API")
    report.check(
        not any(o.cancelled or o.failed for o in measured.fixed),
        "the fixed-rate phase could not be sustained",
    )
    report.check(capacity.rate is not None, "no offered rate was sustained")
    report.count(outcomes + plain)
    report.setups(setups)
    report.metric(
        "latency_ms", 1e3 * _typical_latency(measured.closed), "ms", len(closed)
    )
    report.metric(
        "throughput_per_s", _answer_rate(measured.closed), "1/s", len(closed)
    )
    report.metric("peak_rss_mb", rss, "MB", 1)

    # finer-grained figures, for people reading the log
    report.note("plan_p50_ms", 1e3 * arith.median(closed), "ms", len(closed))
    _note_tail(report, "plan", closed)
    stalled = _warm(plain)
    report.note(
        "plan_p50_plain_client_ms", 1e3 * arith.median(stalled), "ms", len(stalled)
    )
    rate = f"{shape.rate:g}qps"
    report.note(f"plan_at_{rate}_p50_ms", 1e3 * arith.median(fixed), "ms", len(fixed))
    _note_tail(report, f"plan_at_{rate}", fixed)
    report.note(
        "plan_capacity_qps", capacity.rate or 0.0, "req/s", len(capacity.steps)
    )
    report.text(
        "capacity steps: "
        + ", ".join(
            f"{s.rate:.1f}/s {'ok' if s.sustained else 'FAIL' if s.generator_ok else 'LATE'}"
            for s in capacity.steps
        )
        + ("" if capacity.resolved else "  (bracket not closed)")
        + ("  (bounded by the generator)" if capacity.generator_limited else "")
    )
    if shape.cold_rate:
        for kind, name in (
            ("cold-plan", "cold_plan_p50_s"),
            ("cold-fleet", "fleet_eval_p50_s"),
        ):
            cold = [o.latency for o in outcomes if o.job.kind == kind]
            report.note(name, arith.median(cold), "s", len(cold))
    open_loop = [o.late for o in measured.fixed + sum(measured.steps, [])]
    report.note(
        "loadgen.late_p90_ms",
        1e3 * arith.percentile(open_loop, 90),
        "ms",
        len(open_loop),
    )


def run_traced(shape: Shape, seed: int, seconds: float, report) -> None:
    """Per-layer metrics from the wrapped server: a closed-loop phase
    with recording off (the overhead baseline), then recording on for
    the closed-loop and fixed-rate phases.  The capacity search is left
    out: its overloaded steps would bury the layers under client-side
    queueing."""
    inputs = Inputs(seed)
    server = Server(traced=True)
    try:
        server.start(inputs.warm[0])
        baseline = measure(
            server, inputs, shape, seconds, fixed_rate=False, search=False
        )
        server.proc.send_signal(signal.SIGUSR1)
        time.sleep(0.1)
        window = time.monotonic()
        measured = measure(server, inputs, shape, seconds, search=False)
    finally:
        spans = server.stop() or []
    spans = [s for s in spans if s.start >= window]

    outcomes = measured.outcomes
    wrong = Reference().mismatches(outcomes + baseline.outcomes)
    report.check(wrong == 0, f"{wrong} answers differ from the in-process API")
    report.count(outcomes)

    metrics, totals = layers.layer_metrics(spans)
    # per request: latency = client-side wait + rtt, and rtt = transport
    # + dispatch, whose self times the layers split; the client-side wait
    # (for the generator or a free connection) is what "other" holds
    sent = [o for o in outcomes if not o.cancelled]
    dispatch = sum(s.duration for s in spans if s.layer == "service.dispatch")
    transport = sum(o.rtt for o in sent) - dispatch
    wall = sum(o.latency for o in sent)
    totals["http.transport"] = transport
    metrics["http.transport_ms"] = 1e3 * transport / len(sent)
    metrics["http.connections"] = measured.connections
    open_loop = [o.late for o in measured.fixed]
    metrics["loadgen.late_ms"] = 1e3 * arith.percentile(open_loop, 90)
    metrics["trace.overhead_ratio"] = _typical_latency(
        measured.closed
    ) / _typical_latency(baseline.closed)
    report.layers(metrics, totals, wall)
