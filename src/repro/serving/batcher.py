"""Batch-forming policy for the serving simulator.

GPU inference throughput depends on batch width (the paper's Figure 5),
but online requests arrive one at a time — so a server must trade
queueing delay for batch efficiency.  :class:`BatchPolicy` captures the
standard policy: dispatch when either ``max_batch`` requests are waiting
or the oldest has waited ``max_wait_s``.

Two queue implementations share that policy:

* :class:`PendingQueue` — the original deque of ``(id, arrival)``
  tuples, one push/pop per request.  The per-event reference
  loop (:mod:`repro.serving.reference`) and the autoscaler use it.
* :class:`ColumnQueue` — the columnar engine's view: batch formation is
  *array segmentation*.  Request ids are implicit (the index into the
  arrival column), the queued originals are a contiguous ``[head, end)``
  window into that column, and only preemption-requeued requests — a
  rare, tiny set — are materialised as tuples.  Absorbing ``k`` arrivals
  or taking a full batch moves an index instead of touching ``k``
  objects, which is what lets the engine's cost scale with *batches*
  rather than requests.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

__all__ = ["BatchPolicy", "ColumnQueue", "PendingQueue"]


@dataclass(frozen=True)
class BatchPolicy:
    """When to close a batch.

    Attributes
    ----------
    max_batch:
        Never dispatch more than this many requests in one batch
        (bounded by the device's memory-limited batch size).
    max_wait_s:
        Dispatch a partial batch once its oldest request has waited this
        long, even if the batch is not full.  ``0`` means dispatch
        immediately whenever a GPU is free (lowest latency, worst
        efficiency).
    """

    max_batch: int
    max_wait_s: float = 0.0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if not 0 <= self.max_wait_s < math.inf:
            raise ValueError("max_wait_s must be finite and non-negative")


@dataclass
class PendingQueue:
    """FIFO of (request id, arrival time) awaiting dispatch."""

    _queue: deque = field(default_factory=deque)

    def push(self, request_id: int, arrival_s: float) -> None:
        """Enqueue one request in arrival order."""
        self._queue.append((request_id, arrival_s))

    def __len__(self) -> int:
        return len(self._queue)

    def oldest_arrival(self) -> float:
        """Arrival time of the head request (raises when empty)."""
        if not self._queue:
            raise IndexError("empty queue")
        return self._queue[0][1]

    def should_dispatch(self, now: float, policy: BatchPolicy) -> bool:
        """Is a batch ready under ``policy`` at time ``now``?

        A timeout event scheduled at ``arrival + max_wait`` must
        satisfy the test at its own timestamp, otherwise the timer
        re-arms forever.  The wait comparison carries a 1 ns epsilon
        for float rounding (``1.2 - 1.0 < 0.2`` in binary floating
        point), and the timer's own firing time passes outright: once
        arrival times are so large that a float no longer resolves
        1 ns, no epsilon would do.
        """
        if not self._queue:
            return False
        if len(self._queue) >= policy.max_batch:
            return True
        oldest = self.oldest_arrival()
        return (
            now - oldest >= policy.max_wait_s - 1e-9
            or now >= oldest + policy.max_wait_s
        )

    def take(self, n: int) -> list[tuple[int, float]]:
        """Remove and return up to ``n`` oldest requests."""
        out = []
        while self._queue and len(out) < n:
            out.append(self._queue.popleft())
        return out

    def requeue(self, request_id: int, arrival_s: float) -> None:
        """Re-admit a preempted request at its arrival-order position.

        The queue stays sorted by arrival time, so the max-wait timer
        and timeout purges keep seeing the genuinely oldest request at
        the head.  Requeued requests are older than almost everything
        queued, so the scan from the head is short.
        """
        i = 0
        while i < len(self._queue) and self._queue[i][1] <= arrival_s:
            i += 1
        self._queue.insert(i, (request_id, arrival_s))


class ColumnQueue:
    """Arrival-window pending queue: batch formation as segmentation.

    The queue is the merge of two arrival-sorted sequences:

    * the contiguous original-arrival window ``[head, end)`` into the
      shared ``arrivals`` column (request id == column index), and
    * ``requeued`` — ``(id, arrival)`` tuples re-admitted after a
      preemption, kept sorted by arrival with the same
      insert-after-equals rule :meth:`PendingQueue.requeue` uses.

    On an arrival tie the original comes first — exactly where
    :meth:`PendingQueue.requeue`'s head scan would have inserted the
    requeued entry — so iteration order is identical to the deque's,
    tuple for tuple.  The engine mutates ``head``/``end`` directly when
    absorbing arrival runs; the methods here cover the per-batch
    operations.
    """

    __slots__ = ("arrivals", "head", "end", "requeued")

    def __init__(self, arrivals: list[float]) -> None:
        self.arrivals = arrivals
        self.head = 0
        self.end = 0
        self.requeued: list[tuple[int, float]] = []

    def __len__(self) -> int:
        return self.end - self.head + len(self.requeued)

    def oldest_arrival(self) -> float:
        """Arrival time of the merged head (raises when empty)."""
        rq = self.requeued
        if rq and (
            self.head >= self.end
            or rq[0][1] < self.arrivals[self.head]
        ):
            return rq[0][1]
        if self.head >= self.end:
            raise IndexError("empty queue")
        return self.arrivals[self.head]

    def take(self, n: int):
        """Remove up to ``n`` oldest requests.

        Returns ``(lo, hi, ids, arrs)``: when no requeued entries are
        involved the batch is the pure column segment ``[lo, hi)`` and
        ``ids``/``arrs`` are ``None`` (the caller slices the arrival
        column); otherwise ``ids``/``arrs`` list the merged members in
        queue order and ``lo``/``hi`` are ``-1``.
        """
        if not self.requeued:
            lo = self.head
            hi = min(lo + n, self.end)
            self.head = hi
            return lo, hi, None, None
        ids: list[int] = []
        arrs: list[float] = []
        arrivals = self.arrivals
        rq = self.requeued
        while len(ids) < n:
            if self.head < self.end and (
                not rq or arrivals[self.head] <= rq[0][1]
            ):
                ids.append(self.head)
                arrs.append(arrivals[self.head])
                self.head += 1
            elif rq:
                rid, a = rq.pop(0)
                ids.append(rid)
                arrs.append(a)
            else:
                break
        return -1, -1, ids, arrs

    def requeue(self, request_id: int, arrival_s: float) -> None:
        """Re-admit a preempted request at its arrival-order position."""
        rq = self.requeued
        i = 0
        while i < len(rq) and rq[i][1] <= arrival_s:
            i += 1
        rq.insert(i, (request_id, arrival_s))

    def expire(self, now: float, threshold: float) -> list[int]:
        """Pop every head request with ``now - arrival > threshold``.

        Returns the dropped request ids in queue order.  Identical to
        the per-event loop's head-first purge: the merge is arrival-
        sorted, so the expired set is always a queue prefix.
        """
        dropped: list[int] = []
        arrivals = self.arrivals
        rq = self.requeued
        while True:
            if rq and (
                self.head >= self.end
                or rq[0][1] < arrivals[self.head]
            ):
                if now - rq[0][1] > threshold:
                    dropped.append(rq.pop(0)[0])
                else:
                    return dropped
            elif self.head < self.end:
                if now - arrivals[self.head] > threshold:
                    dropped.append(self.head)
                    self.head += 1
                else:
                    return dropped
            else:
                return dropped
