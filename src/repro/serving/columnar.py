"""Columnar serving engine: the event loop at batch granularity.

The per-event loop (:func:`repro.serving.reference.serve`, the
executable specification this module replays) costs O(requests)
Python iterations — one heap push/pop plus one dispatch pass per
arrival — which caps bench scenarios at ~10⁴ requests.  This engine
replays the *identical* simulation in O(batches + structural events):

* Arrivals live in one sorted float column; request ids are indices
  into it.  An arrival "event" is an index increment, and a run of
  arrivals that cannot change any decision is absorbed with a single
  binary search instead of one loop iteration each.
* The pending queue is a :class:`~repro.serving.batcher.ColumnQueue`:
  a contiguous window ``[head, end)`` of that column plus the rare
  preemption-requeued stragglers.  Taking a full batch moves ``head``.
* Only *structural* events — batch completions, max-wait timers,
  preemptions, recoveries — go through a heap, and there are O(batches
  + faults) of them.
* Nothing per-request happens inside the loop at all: batch outcomes
  are buffered as (time, lo, hi) segment records and the request
  columns (latency, status) plus telemetry ingestion are filled in a
  handful of vectorised scatter operations after the loop ends.

Exactness is the contract, not an aspiration: every decision the
per-event loop makes is re-made here with the same floats in the same
order, so reports (and telemetry state) are **bit-identical** — the
property ``tests/test_columnar.py`` sweeps seeds × fault plans × batch
policies to pin down.  The key arguments:

* Between two structural events only arrivals happen.  With no free
  worker nothing can dispatch and no timer can arm, so the whole run
  collapses to ``end = j`` plus a timeout purge; with free workers, a
  run absorbs arrivals up to (exclusive) the first one that fills a
  batch, satisfies the max-wait test, or expires the queue head —
  found by binary search *on the engine's own float predicates*
  (``t - oldest >= max_wait - 1e-9 or t >= oldest + max_wait`` etc.),
  never on rearranged arithmetic, so the boundary lands on exactly the
  event the scalar loop would act on.  Both predicates are monotone in the arrival
  index, so one comparison against the window's last arrival decides
  whether the search needs to run at all.
* The head-first timeout purge is monotone (older requests expire
  first and stay expired), so purging lazily at the next decision
  point drops exactly the requests the per-event loop drops; the
  per-drop *timestamps* the SLO monitor needs are recovered by binary
  searching each dropped request's first qualifying event time.
* Same-timestamp ordering is inherited from the heap's ``(time, seq)``
  total order: arrivals hold sequence numbers ``0..n-1``, structural
  events count up from ``n`` in push order — exactly the numbers the
  per-event :class:`~repro.serving.events.EventQueue` would assign —
  so arrivals still beat a completion that lands on the same float.
* Deferring the latency/status writes is safe because each request is
  finalised at most once (served requests never re-enter the queue,
  dropped requests leave it for good), so the scatter order is
  immaterial; the *telemetry* stream, whose float accumulation order
  does matter, is rebuilt in exact chunk order before ingestion.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right

import numpy as np

from repro.cloud.faults import FaultPlan
from repro.cloud.pricing import hourly_rate_cost
from repro.obs import get_metrics
from repro.serving.batcher import ColumnQueue

__all__ = ["columnar_run"]


# batch-time tables are pure functions of the (frozen, hashable)
# batching model and the worker capacity, so they are shared process-
# wide across runs; entries are tiny (cap + 1 floats)
_BATCH_TABLE_CACHE: dict[tuple, list[float]] = {}


def _batch_tables(workers):
    """Per-worker ``batch_time`` lookup tables (index = batch width).

    ``BatchingModel`` is a frozen value dataclass, so workers sharing a
    device share one table; ``batch_time`` is pure, so precomputing it
    yields the same floats the per-event loop computes per dispatch.
    """
    per_worker: list[list[float]] = []
    caps: list[int] = []
    for batching, cap in workers:
        key = (batching, cap)
        table = _BATCH_TABLE_CACHE.get(key)
        if table is None:
            table = [0.0]
            table += [batching.batch_time(k) for k in range(1, cap + 1)]
            _BATCH_TABLE_CACHE[key] = table
        per_worker.append(table)
        caps.append(cap)
    return per_worker, caps


def columnar_run(sim, arrivals: np.ndarray, plan: FaultPlan, telemetry=None):
    """Run one serving simulation columnar; bit-identical to
    :func:`repro.serving.reference.serve`.

    ``sim`` is the :class:`~repro.serving.simulator.ServingSimulator`
    (the engine reads its worker pool, policy and billing inputs);
    ``arrivals`` is the validated sorted float array.  Returns the
    same :class:`~repro.serving.simulator.ServingReport` the per-event
    engine returns, byte for byte, and leaves ``telemetry`` (when
    given) in the same state.
    """
    from repro.serving.simulator import ServingReport, _DROPPED, _SERVED

    arr = arrivals
    n = arr.size
    arrl: list[float] = arr.tolist()
    policy = sim.policy
    max_batch = policy.max_batch
    max_wait = policy.max_wait_s
    wait_eps = max_wait - 1e-9
    tthresh = None if plan.timeout_s is None else plan.timeout_s + 1e-9
    retry_budget = plan.retry_budget
    has_slow = bool(plan.slowdowns)
    pool = len(sim._workers)
    worker_bt, worker_cap = _batch_tables(sim._workers)

    queue = ColumnQueue(arrl)
    rq = queue.requeued  # the one list object, aliased for the hot path
    free: list[int] = list(range(pool))
    batch_sizes: list[int] = []
    busy = 0.0
    timer_at: float | None = None
    now = 0.0
    down: set[int] = set()
    epoch = [0] * pool
    inflight: dict[int, tuple[tuple, float]] = {}
    retry: dict[int, int] = {}
    retries_total = 0
    preempted_total = 0
    events_count = 0

    # structural heap: (time, seq, kind, payload); sequence numbers
    # continue where the arrivals' 0..n-1 leave off, matching the
    # per-event EventQueue's assignment exactly
    heap: list[tuple] = []
    seq = n
    for preemption in plan.preemptions:
        heap.append((preemption.at_s, seq, "preempt", preemption))
        seq += 1
    heapq.heapify(heap)
    heappush = heapq.heappush
    heappop = heapq.heappop
    # the (single) pending max-wait timer lives outside the heap as a
    # (fire_time, seq) pair — arming and firing it are the two most
    # frequent structural operations, and a scalar slot beats heap
    # traffic.  A second concurrent timer (possible only when a
    # preemption requeues an older head) spills into the heap, so the
    # global (time, seq) firing order is untouched.
    timer_evt: tuple[float, int] | None = None

    tel = telemetry is not None
    caps_buf: list[int] = []
    depth_buf: list[int] = []
    # ordered outcome record, chunked:
    #   ("s", t, lo, hi)        batch [lo, hi) served at t
    #   ("sx", t, ids, arrs)    served batch containing requeued entries
    #   ("d", t, count)         `count` identical drops at t (tel only)
    # drop *ids* always go straight to dropped_ids; drop chunks exist
    # only to place the records in the telemetry stream
    chunks: list[tuple] = []
    dropped_ids: list[int] = []

    # ------------------------------------------------------------------
    def first_wait(lo: int, hi: int, old: float) -> int:
        """First index in [lo, hi) whose arrival passes the max-wait
        test against ``old`` (the predicate is monotone in the index)."""
        due = old + max_wait
        while lo < hi:
            mid = (lo + hi) // 2
            if arrl[mid] - old >= wait_eps or arrl[mid] >= due:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def first_over(lo: int, hi: int, a: float) -> int:
        """First index in [lo, hi) with ``arrl[i] - a > timeout + eps``."""
        while lo < hi:
            mid = (lo + hi) // 2
            if arrl[mid] - a > tthresh:
                hi = mid
            else:
                lo = mid + 1
        return lo

    # ------------------------------------------------------------------
    def requeue_batch(batch: tuple, t: float) -> None:
        nonlocal retries_total
        lo, hi, ids, arrs = batch
        if ids is None:
            ids = range(lo, hi)
            arrs = arrl[lo:hi]
        for rid, arrival_s in zip(ids, arrs):
            count = retry.get(rid, 0) + 1
            retry[rid] = count
            if count > retry_budget:
                dropped_ids.append(rid)
                if tel:
                    chunks.append(("d", t, 1))
            else:
                retries_total += 1
                queue.requeue(rid, arrival_s)

    def arm_timer(due: float, t: float) -> None:
        """Arm the max-wait timer at ``max(due, t)``, seq-accurately.

        The common case fills the scalar slot; when a timer is already
        pending the earlier (time, seq) pair keeps the slot and the
        other goes through the heap, preserving global firing order.
        """
        nonlocal timer_at, timer_evt, seq
        timer_at = due
        evt = (max(due, t), seq)
        seq += 1
        if timer_evt is None:
            timer_evt = evt
        elif evt < timer_evt:
            heappush(heap, (timer_evt[0], timer_evt[1], "timer", None))
            timer_evt = evt
        else:
            heappush(heap, (evt[0], evt[1], "timer", None))

    def dispatch(
        t: float,
        *,
        # the loop-invariant hot-path names, bound as keyword defaults:
        # locals (LOAD_FAST) beat closure cells on the hottest function
        # in the engine, and none of these rebind after setup
        queue=queue,
        arrl=arrl,
        rq=rq,
        free=free,
        worker_cap=worker_cap,
        worker_bt=worker_bt,
        batch_sizes=batch_sizes,
        caps_buf=caps_buf,
        depth_buf=depth_buf,
        dropped_ids=dropped_ids,
        chunks=chunks,
        inflight=inflight,
        epoch=epoch,
        heap=heap,
        heappush=heappush,
        max_batch=max_batch,
        wait_eps=wait_eps,
        tthresh=tthresh,
        max_wait=max_wait,
        tel=tel,
        has_slow=has_slow,
        plan=plan,
        len=len,
    ) -> None:
        nonlocal busy, timer_at, timer_evt, seq
        # head-first timeout purge; one comparison decides whether the
        # (rare) expiry scan needs to run at all
        if tthresh is not None and (
            (queue.head < queue.end and t - arrl[queue.head] > tthresh)
            or (rq and t - rq[0][1] > tthresh)
        ):
            dropped = queue.expire(t, tthresh)
            if dropped:
                dropped_ids.extend(dropped)
                if tel:
                    chunks.append(("d", t, len(dropped)))
        while free:
            head = queue.head
            if rq:
                q = queue.end - head + len(rq)
                if not q:
                    break
                old = queue.oldest_arrival()
            else:
                q = queue.end - head
                if not q:
                    break
                old = arrl[head]
            if q < max_batch and not (
                t - old >= wait_eps or t >= old + max_wait
            ):
                break
            worker_id = free.pop()
            cap = worker_cap[worker_id]
            if rq:
                batch = queue.take(cap)
                lo, hi, ids, _ = batch
                width = hi - lo if ids is None else len(ids)
            else:
                lo = head
                hi = lo + cap
                if hi > queue.end:
                    hi = queue.end
                queue.head = hi
                batch = (lo, hi, None, None)
                width = hi - lo
            service = worker_bt[worker_id][width]
            if has_slow:
                service = service * plan.slowdown_factor(worker_id, t)
            busy += service
            batch_sizes.append(width)
            if tel:
                caps_buf.append(cap)
                depth_buf.append(queue.end - queue.head + len(rq))
            done_t = t + service
            inflight[worker_id] = (batch, done_t)
            heappush(
                heap, (done_t, seq, "done", (worker_id, batch, epoch[worker_id]))
            )
            seq += 1
        if free and (queue.head < queue.end or rq):
            due = (
                queue.oldest_arrival() if rq else arrl[queue.head]
            ) + max_wait
            if timer_at is None or due < timer_at:
                if timer_evt is None:  # inlined arm_timer fast path
                    timer_at = due
                    timer_evt = (due if due > t else t, seq)
                    seq += 1
                else:
                    arm_timer(due, t)

    # ------------------------------------------------------------------
    INF = float("inf")
    qend = 0  # local mirror of queue.end: only this loop mutates it
    while qend < n or heap or timer_evt is not None:
        fire_timer = False
        if heap:
            h0 = heap[0]
            ts = h0[0]
            if timer_evt is not None:
                te_t = timer_evt[0]
                if te_t < ts or (te_t == ts and timer_evt[1] < h0[1]):
                    ts = te_t
                    fire_timer = True
        elif timer_evt is not None:
            ts = timer_evt[0]
            fire_timer = True
        else:
            ts = INF
        ta = arrl[qend] if qend < n else INF
        if ta <= ts:
            i = qend
            if not free:
                # no dispatch, no timer: absorb every arrival <= ts and
                # apply the timeout purge eagerly over the whole run
                j = bisect_right(arrl, ts)
                events_count += j - i
                queue.end = qend = j
                now = arrl[j - 1]
                if tthresh is not None:
                    head = queue.head
                    n_rq = 0
                    while n_rq < len(rq) and now - rq[n_rq][1] > tthresh:
                        n_rq += 1
                    # expired set = queue prefix (monotone in arrival);
                    # one head comparison gates the (rare) search
                    lo = head
                    if head < j and now - arrl[head] > tthresh:
                        hi = j
                        while lo < hi:
                            mid = (lo + hi) // 2
                            if now - arrl[mid] > tthresh:
                                lo = mid + 1
                            else:
                                hi = mid
                    if lo > head or n_rq:
                        if tel:
                            # each drop lands at its first qualifying
                            # event time inside the absorbed run;
                            # identical records sort stably by it
                            drops: list[float] = []
                            for rid, a in rq[:n_rq]:
                                dropped_ids.append(rid)
                                drops.append(arrl[first_over(i, j, a)])
                            del rq[:n_rq]
                            if lo > head:
                                dropped_ids.extend(range(head, lo))
                                drops += [
                                    arrl[first_over(i, j, a)]
                                    for a in arrl[head:lo]
                                ]
                                queue.head = lo
                            drops.sort()
                            for t_d in drops:
                                chunks.append(("d", t_d, 1))
                        else:
                            for rid, _ in rq[:n_rq]:
                                dropped_ids.append(rid)
                            del rq[:n_rq]
                            if lo > head:
                                dropped_ids.extend(range(head, lo))
                                queue.head = lo
            else:
                head = queue.head
                q = qend - head + len(rq) if rq else qend - head
                trigger = q + 1 >= max_batch
                if q and not trigger:
                    old = queue.oldest_arrival() if rq else arrl[head]
                    trigger = (
                        ta - old >= wait_eps
                        or ta >= old + max_wait
                        or (tthresh is not None and ta - old > tthresh)
                    )
                elif not q:
                    # the arrival is its own oldest: the max-wait test
                    # at age 0 (true when max_wait vanishes against ta)
                    trigger = (
                        trigger or 0.0 >= wait_eps or ta >= ta + max_wait
                    )
                if trigger:
                    # this arrival changes state: run the full per-event
                    # step (push + dispatch) for it alone
                    events_count += 1
                    queue.end = qend = i + 1
                    now = ta
                    dispatch(now)
                else:
                    # absorb arrivals up to the first that fills the
                    # batch, satisfies max-wait, or expires the head;
                    # both float predicates are monotone in the index,
                    # so a comparison against the window's last arrival
                    # decides whether each binary search must run
                    j = bisect_right(arrl, ts)
                    if q:
                        fill = i + (max_batch - q - 1)
                        if fill < j:
                            j = fill
                        if j > i + 1:
                            if (
                                arrl[j - 1] - old >= wait_eps
                                or arrl[j - 1] >= old + max_wait
                            ):
                                j = first_wait(i + 1, j, old)
                            if (
                                tthresh is not None
                                and arrl[j - 1] - old > tthresh
                            ):
                                j = first_over(i + 1, j, old)
                    else:
                        j = i + 1
                    events_count += j - i
                    queue.end = qend = j
                    now = arrl[j - 1]
                    # every absorbed arrival re-arms the same timer;
                    # only the first can actually push one
                    due = (old if q else ta) + max_wait
                    if timer_at is None or due < timer_at:
                        if timer_evt is None:  # inlined arm_timer fast path
                            timer_at = due
                            timer_evt = (due if due > ta else ta, seq)
                            seq += 1
                        else:
                            arm_timer(due, ta)
        elif fire_timer:
            events_count += 1
            now = timer_evt[0]
            timer_evt = None
            timer_at = None
            dispatch(now)
        else:
            t, _, kind, payload = heappop(heap)
            events_count += 1
            now = t
            if kind == "done":
                worker_id, batch, batch_epoch = payload
                if batch_epoch != epoch[worker_id]:
                    continue  # batch was cancelled by a preemption
                inflight.pop(worker_id, None)
                free.append(worker_id)
                lo, hi, ids, arrs = batch
                if ids is None:
                    chunks.append(("s", now, lo, hi))
                else:
                    chunks.append(("sx", now, ids, arrs))
                # neutral completion: when the queue state cannot purge,
                # dispatch, or re-arm the timer, the dispatch call the
                # per-event loop makes here is a pure no-op — skip it.
                # The tests are the dispatcher's own predicates on the
                # merged-oldest arrival, evaluated exactly.
                head = queue.head
                if head == qend and not rq:
                    continue  # empty queue: dispatch cannot act
                if rq:
                    a0 = rq[0][1]
                    old_h = (
                        a0
                        if head >= qend or a0 < arrl[head]
                        else arrl[head]
                    )
                else:
                    old_h = arrl[head]
                if (
                    qend - head + len(rq) < max_batch
                    and not (
                        now - old_h >= wait_eps or now >= old_h + max_wait
                    )
                    and (tthresh is None or not (now - old_h > tthresh))
                    and timer_at is not None
                    and not (old_h + max_wait < timer_at)
                ):
                    continue
            elif kind == "timer":
                timer_at = None
            elif kind == "preempt":
                preemption = payload
                worker_id = preemption.target % pool
                if worker_id in down:
                    continue  # already out; nothing more to take
                preempted_total += 1
                down.add(worker_id)
                epoch[worker_id] += 1
                if worker_id in free:
                    free.remove(worker_id)
                if worker_id in inflight:
                    batch, done_at = inflight.pop(worker_id)
                    busy -= done_at - now  # the cancelled tail never ran
                    requeue_batch(batch, now)
                if preemption.recover_after_s is not None:
                    heappush(
                        heap,
                        (now + preemption.recover_after_s, seq, "recover", worker_id),
                    )
                    seq += 1
            elif kind == "recover":
                worker_id = payload
                if worker_id in down:
                    down.remove(worker_id)
                    free.append(worker_id)
            dispatch(now)

    get_metrics().counter("serving.events").inc(events_count)

    if tel and batch_sizes:
        # the batch gauges share no state with the latency/SLO side, so
        # deferring them out of the event loop cannot reorder anything
        telemetry.record_batch_stream(batch_sizes, caps_buf, depth_buf)

    # requests still queued when the event horizon ends are dropped;
    # the records are identical so their order is immaterial
    leftover = queue.end - queue.head + len(rq)
    if leftover:
        for rid, _ in rq:
            dropped_ids.append(rid)
        rq.clear()
        if queue.head < queue.end:
            dropped_ids.extend(range(queue.head, queue.end))
            queue.head = queue.end
        if tel:
            chunks.append(("d", now, leftover))

    # ------------------------------------------------------------------
    # Finalise the request columns (and, when attached, the telemetry
    # stream) from the ordered chunk record: one pass to lay out stream
    # positions, then vectorised gather/scatter fills.
    latencies = np.full(n, np.nan)
    status = np.zeros(n, dtype=np.uint8)

    s_t: list[float] = []
    s_lo: list[int] = []
    s_hi: list[int] = []
    s_pos: list[int] = []
    sx_entries: list[tuple[int, float, list, list]] = []
    d_entries: list[tuple[int, float, int]] = []
    total = 0
    for chunk in chunks:
        kind = chunk[0]
        if kind == "s":
            _, t, lo, hi = chunk
            s_t.append(t)
            s_lo.append(lo)
            s_hi.append(hi)
            s_pos.append(total)
            total += hi - lo
        elif kind == "sx":
            _, t, ids, arrs = chunk
            sx_entries.append((total, t, ids, arrs))
            total += len(ids)
        else:
            d_entries.append((total, chunk[1], chunk[2]))
            total += chunk[2]

    stream = tel and total
    if stream:
        times = np.empty(total)
        lats = np.full(total, np.nan)
        dflags = np.zeros(total, dtype=bool)

    if s_lo:
        his = np.asarray(s_hi)
        lens = his - np.asarray(s_lo)
        cum = np.cumsum(lens)
        span = np.arange(int(cum[-1]))
        src = np.repeat(his - cum, lens) + span
        t_rep = np.repeat(np.asarray(s_t), lens)
        served_lat = t_rep - arr[src]  # same elementwise `now - arrival`
        latencies[src] = served_lat
        status[src] = _SERVED
        if stream:
            dest = np.repeat(np.asarray(s_pos) - (cum - lens), lens) + span
            times[dest] = t_rep
            lats[dest] = served_lat
    for pos, t, ids, arrs in sx_entries:
        seg = np.asarray(arrs, dtype=float)
        lat_seg = t - seg
        latencies[ids] = lat_seg
        status[ids] = _SERVED
        if stream:
            times[pos : pos + seg.size] = t
            lats[pos : pos + seg.size] = lat_seg
    if dropped_ids:
        status[dropped_ids] = _DROPPED
    if stream:
        for pos, t, count in d_entries:
            if count == 1:
                times[pos] = t
                dflags[pos] = True
            else:
                times[pos : pos + count] = t
                dflags[pos : pos + count] = True
        telemetry.ingest_stream(times, lats, dflags)

    duration = now  # last event time
    rate = (
        sim.hourly_rate
        if sim.hourly_rate is not None
        else sim.configuration.total_price_per_hour
    )
    cost = hourly_rate_cost(rate, duration)
    return ServingReport(
        requests=n,
        duration_s=duration,
        latencies_s=latencies[status == _SERVED],
        batch_sizes=np.asarray(batch_sizes),
        busy_s=busy,
        worker_count=pool,
        cost=cost,
        accuracy=sim.accuracy_model.accuracy(sim.spec),
        retries=retries_total,
        dropped=len(dropped_ids),
        preempted=preempted_total,
    )
