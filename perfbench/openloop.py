"""Open- and closed-loop HTTP load over persistent keep-alive connections.

A generator thread hands each job to its stream's connection pool at
the job's scheduled time, whether or not earlier jobs have finished
(open loop), or all at once for a pool to send back to back (closed
loop: each connection sends its next job when the last is answered).
Each pool is a fixed set of worker threads, one persistent
``http.client`` connection each.  An open-loop job is timed from its
*scheduled* send, so time spent waiting for a free connection counts
as latency; the generator's own lateness (handoff minus schedule) is
kept apart so a slow generator can be told from a slow server.  A
closed-loop job is timed from its actual send.

The server writes a response's headers and body in two sends, so with
Nagle's algorithm on its side the body waits for the client to
acknowledge the headers, and a client in delayed-ACK mode takes 40 ms to
do so.  By default each connection therefore sets ``TCP_QUICKACK`` once
its request is sent and acknowledges at once: latencies then measure the
service's own work.  ``quickack=False`` gives the plain-socket client.
"""

from __future__ import annotations

import http.client
import queue
import socket
import threading
import time
from dataclasses import dataclass

#: synthetic status for a request that failed below HTTP
TRANSPORT_ERROR = 599
#: seconds a connection waits on a silent server before giving up
TIMEOUT_S = 60.0

_HEADERS = {"Content-Type": "application/json"}


@dataclass(frozen=True)
class Job:
    """One request: sent ``at`` seconds after its phase starts, or, with
    ``at=None`` (closed loop), as soon as a connection is free."""

    at: float | None
    stream: str
    path: str
    body: bytes
    kind: str


@dataclass
class Outcome:
    """What happened to one :class:`Job` (monotonic-clock seconds)."""

    job: Job
    scheduled: float
    handoff: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: bytes = b""
    #: dropped from the client's queue unsent (see :meth:`Client.run`)
    cancelled: bool = False

    @property
    def latency(self) -> float:
        """Completion minus scheduled send (the actual send in a closed
        loop, where a request is due when its caller is free)."""
        return self.done - self.scheduled

    @property
    def late(self) -> float:
        """How late the generator handed the job over."""
        return self.handoff - self.scheduled

    @property
    def rtt(self) -> float:
        """Time on the wire: send to last response byte."""
        return self.done - self.sent

    @property
    def failed(self) -> bool:
        """Refused, shed, errored or lost (422 infeasible is an answer)."""
        return not self.cancelled and self.status not in (200, 422)


class _Worker(threading.Thread):
    """One persistent connection draining its pool's queue."""

    def __init__(self, client: "Client", jobs: queue.Queue) -> None:
        super().__init__(daemon=True)
        self.client = client
        self.jobs = jobs
        self.connection: http.client.HTTPConnection | None = None

    def _connect(self) -> http.client.HTTPConnection:
        connection = http.client.HTTPConnection(
            self.client.host, self.client.port, timeout=TIMEOUT_S
        )
        connection.connect()
        with self.client.lock:
            self.client.connections += 1
        return connection

    def run(self) -> None:
        while True:
            outcome = self.jobs.get()
            if outcome is None:
                break
            job = outcome.job
            if outcome.cancelled:
                self.client.finished(outcome)
                continue
            outcome.sent = time.monotonic()
            if job.at is None:
                outcome.scheduled = outcome.sent
            try:
                if self.connection is None:
                    self.connection = self._connect()
                self.connection.request(
                    "POST", job.path, body=job.body, headers=_HEADERS
                )
                if self.client.quickack:
                    # the flag does not stick: set it for every response
                    self.connection.sock.setsockopt(
                        socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1
                    )
                response = self.connection.getresponse()
                outcome.body = response.read()
                outcome.status = response.status
            except (OSError, http.client.HTTPException):
                outcome.status = TRANSPORT_ERROR
                if self.connection is not None:
                    self.connection.close()
                self.connection = None
            outcome.done = time.monotonic()
            self.client.finished(outcome)
        if self.connection is not None:
            self.connection.close()


class Client:
    """Connection pools per stream, driven by :meth:`run`."""

    def __init__(
        self,
        host: str,
        port: int,
        pools: dict[str, int],
        *,
        quickack: bool = True,
    ) -> None:
        self.host = host
        self.port = port
        self.quickack = quickack
        self.lock = threading.Lock()
        self.connections = 0
        self._queues = {name: queue.Queue() for name in pools}
        self._workers = [
            _Worker(self, self._queues[name])
            for name, size in pools.items()
            for _ in range(size)
        ]
        for worker in self._workers:
            worker.connection = worker._connect()
            worker.start()
        self._pending = 0
        self._idle = threading.Event()

    def finished(self, outcome: Outcome) -> None:
        with self.lock:
            self._pending -= 1
            if self._pending == 0:
                self._idle.set()

    def run(
        self, jobs: list[Job], cancel_after: float | None = None
    ) -> list[Outcome]:
        """Send ``jobs`` on schedule; return once every one finished.

        With ``cancel_after``, jobs still queued unsent that many seconds
        after the phase started are cancelled instead: an overloaded
        target would otherwise take unbounded time to drain its backlog,
        and a closed loop (every job due at 0) stops there.
        """
        jobs = sorted(jobs, key=lambda job: job.at or 0.0)
        if not jobs:
            return []
        with self.lock:
            self._pending = len(jobs)
            self._idle.clear()
        start = time.monotonic() + 0.01
        outcomes = []
        for job in jobs:
            due = start + (job.at or 0.0)
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            outcome = Outcome(job=job, scheduled=due)
            outcome.handoff = time.monotonic()
            outcomes.append(outcome)
            self._queues[job.stream].put(outcome)
        if cancel_after is not None and not self._idle.wait(
            max(0.0, start + cancel_after - time.monotonic())
        ):
            for outcome in outcomes:
                outcome.cancelled = True  # workers skip any not yet sent
        self._idle.wait()
        for outcome in outcomes:
            outcome.cancelled = outcome.cancelled and outcome.sent == 0.0
        return outcomes

    def close(self) -> None:
        for worker in self._workers:
            worker.jobs.put(None)
        for worker in self._workers:
            worker.join(timeout=TIMEOUT_S)


def uniform(rate: float, duration_s: float) -> list[float]:
    """Evenly spaced send times: ``rate`` per second for ``duration_s``."""
    count = max(1, round(rate * duration_s))
    return [i / rate for i in range(count)]
