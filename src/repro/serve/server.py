"""FheServer: a multi-worker FHE job server with slot-level batching.

The serving loop the ROADMAP's "heavy traffic" north star needs, built on
the PR 2 backend API plus the registry/batcher/executor of this package:

1. ``submit(program, inputs, plains, priority=, deadline_ms=)`` returns a
   :class:`concurrent.futures.Future` immediately; admission is bounded
   (``queue_depth``), so overload applies backpressure instead of growing
   without limit.
2. Requests are bucketed by ``Program.signature()``, and a batch is
   formed only when a worker is free to run it (:func:`pick_ready`).  A
   bucket is ready when it holds the batch capacity (``max_batch``
   clamped to the slot layout's), when its arrivals have paused for half
   of its own smoothed batch time (the longest pause after which a
   batch-mate still repays the wait; at once while fewer than half of
   its arrivals come within that pause of the one before, since a
   partner is then too unlikely to repay it), when its oldest request
   has waited ``max_wait_ms`` (the ceiling), when a ``deadline_ms`` is
   about to lapse, or when ``flush()`` / ``close()`` said so; an idle
   worker sleeps until the earliest such instant, and busy workers cut
   nothing — the buckets fill on their own.  Ready buckets are taken
   earliest-deadline-first, and within a bucket the most urgent (earliest
   deadline, then highest priority) requests claim the batch slots.  A
   request whose deadline has already passed fails fast with
   ``status="expired"`` instead of occupying a batch slot.  Requests at
   different arrival depths (``submit(level=)``) share a bucket: the pack
   mod-switches everything to the deepest arrival's waterline.
3. The worker hands its batch to the server's
   :class:`~repro.serve.executor.Executor`: compile/keygen artifacts come
   from the shared :class:`~repro.serve.registry.ProgramRegistry` (so only
   the first request of a signature pays setup), values are packed by the
   bucket's :class:`~repro.serve.batcher.SlotBatcher`, the program runs
   *once* per batch, and per-request outputs are demultiplexed into each
   request's :class:`RequestResult`.  The default
   :class:`~repro.serve.executor.ThreadExecutor` runs batches in-process,
   one at a time; a
   :class:`~repro.net.remote.ProcessExecutor` shards them across
   worker-process context replicas with no cross-request lock at all.
4. Programs a batcher cannot pack (BGV rotations/ct x ct MUL, CKKS
   negative-step rotations) still serve correctly in batches of one —
   batching is an optimization, never a semantic restriction.  CKKS
   programs with non-negative rotations *do* batch (rotate-then-mask over
   the packed ciphertext, hoisted through ``rotate_many``).

Every result carries latency, queue time, batch size/occupancy, and
whether setup artifacts were cache hits; :meth:`FheServer.stats`
aggregates p50/p99 latency, requests/s, mean occupancy, registry hit
rates, and executor dispatch counters.
"""

from __future__ import annotations

import math
import threading
import time
from collections.abc import Iterable
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from operator import attrgetter

import numpy as np

from repro.backends import (
    F1Backend,
    FunctionalBackend,
    RunResult,
    program_width,
    resolve_backend,
    validate_run_args,
)
from repro.dsl.program import Program
from repro.obs.metrics import (
    MetricsRegistry,
    global_metrics,
    merge_snapshots,
    summarize_state,
)
from repro.obs.profile import kernel_breakdown
from repro.obs.trace import new_trace_id, perf_to_us, tracer
from repro.serve.batcher import (
    BatchUnsupported,
    Request,
    SlotBatcher,
    check_request_level,
    level_alignment_plan,
)
from repro.serve.executor import (
    BatchJob,
    Executor,
    executes_values,
    resolve_executor,
)
from repro.serve.registry import ProgramRegistry
from repro.serve.resilience import (
    ExecutorUnavailable,
    LoadShedder,
    RetriesExhausted,
)

#: :attr:`RequestResult.status` values — the complete vocabulary; every
#: submitted Future resolves with exactly one of these (or an exception
#: for in-process/application errors).
STATUS_OK = "ok"
STATUS_EXPIRED = "expired"
STATUS_FAILED = "failed"
STATUS_SHED = "shed"


@dataclass
class RequestResult:
    """What serving one request produced, with per-request accounting.

    ``status`` is :data:`STATUS_OK` for a served request;
    :data:`STATUS_EXPIRED` for one whose ``deadline_ms`` lapsed before a
    batch could run it; :data:`STATUS_FAILED` for one whose batch
    exhausted its transport-level retries (the typed error chain is in
    ``stats``); :data:`STATUS_SHED` for one refused at submit because the
    queue could not meet its deadline.  All three non-ok statuses resolve
    the Future with this distinct status (``values`` empty) rather than
    an exception — an exception on the Future means an in-process or
    application error, which is deterministic and never retried.
    """

    values: dict[int, np.ndarray]
    latency_ms: float          # submit -> result, as observed by the client
    queue_ms: float            # submit -> batch execution start
    batch_size: int
    batch_occupancy: float     # batch_size / slot capacity of the layout
    cache_hit: bool            # compile/keygen artifacts came from the registry
    backend: str
    backend_time_ms: float | None   # backend time amortized over the batch
    signature: str
    stats: dict = field(default_factory=dict)
    status: str = STATUS_OK


@dataclass
class _Pending:
    request: Request
    future: Future
    enqueued: float
    priority: int = 0
    deadline: float = math.inf    # absolute perf_counter seconds
    #: ``enqueued + max_wait`` (brought forward to "now" by ``flush()`` /
    #: ``close()``): when an idle worker stops waiting for a fuller batch
    flush_by: float = math.inf
    #: EDF order: earliest effective deadline (the request's own, capped
    #: at ``flush_by`` so deadline-free requests age instead of
    #: starving), then highest priority, then FIFO
    urgency: tuple = field(init=False)

    def __post_init__(self):
        self.urgency = (min(self.deadline, self.flush_by), -self.priority,
                        self.enqueued)


# C-speed key reads: every scan below runs under the workers' one lock.
_URGENCY, _FLUSH_BY, _DEADLINE = map(attrgetter,
                                     ("urgency", "flush_by", "deadline"))


class _Group:
    """All state for one program signature: batcher, bucket, registry
    entry, and per-signature telemetry histograms."""

    def __init__(self, program: Program, signature: str, width: int,
                 max_batch: int | None, max_wait_s: float = 0.01,
                 metrics: MetricsRegistry | None = None):
        self.program = program
        self.signature = signature
        self.width = width
        try:
            self.batcher: SlotBatcher | None = SlotBatcher(
                program, width=width, max_batch=max_batch
            )
            self.capacity = self.batcher.capacity
        except BatchUnsupported:
            self.batcher = None
            self.capacity = 1
        self.max_wait_s = max_wait_s
        #: a deadline readies its bucket this long *before* it lapses, so
        #: the batch can still execute inside the budget.  A constant
        #: derived from ``max_wait``, not a knob, and all of it execution
        #: margin: a sleeping worker wakes at the instant itself.
        self.deadline_slack_s = 2 * min(max(max_wait_s / 4, 0.5e-3), 50e-3)
        self.pending: list[_Pending] = []
        #: the quiet rule's three inputs: the smoothed wall time of this
        #: bucket's own executed batches (``None`` until one has run), the
        #: instant of the latest submit into it, and the smoothed share of
        #: arrivals that came within the gap of the one before (1 until
        #: measured, so a new bucket waits the full gap)
        self.batch_s: float | None = None
        self.last_arrival = -math.inf
        self.partner_share = 1.0
        #: shared MUL_PLAIN operands of the *current* bucket; re-established
        #: whenever the bucket empties, so weights may change between
        #: batches but never diverge within one.
        self.shared_plains: dict[int, np.ndarray] | None = None
        #: cross-level admission envelope, computed once per group (the
        #: batcher already has one; unbatchable programs get their own)
        self.level_plan = (self.batcher.level_plan if self.batcher is not None
                          else level_alignment_plan(program))
        # Per-signature telemetry (guarded by the server's telemetry
        # lock): mergeable log-bucket histograms in the server's metrics
        # registry — bounded memory by construction, and the same schema
        # every other layer reports through — plus an exact batch-size
        # histogram.
        metrics = metrics if metrics is not None else MetricsRegistry()
        self.latencies_ms = metrics.histogram(f"sig.{signature}.latency_ms")
        self.queue_ms = metrics.histogram(f"sig.{signature}.queue_ms")
        self.occupancies = metrics.histogram(f"sig.{signature}.occupancy")
        self.batch_sizes: dict[int, int] = {}
        self.completed = 0
        self.batches = 0
        #: executed batches by the rule that readied them
        self.ready = dict.fromkeys(
            ("full", "quiet", "max_wait", "deadline", "flush"), 0)

    def note_arrival(self, now: float) -> None:
        """Record a submit at ``now``: one EWMA step of
        ``partner_share`` (did it come within the quiet gap of the
        previous arrival?  While the bucket is cold the gap is
        ``max_wait``), then ``last_arrival``.  The caller holds the
        scheduler lock."""
        if self.last_arrival > -math.inf:
            gap = (self.max_wait_s if self.batch_s is None
                   else min(self.max_wait_s, self.batch_s / 2))
            self.partner_share = LoadShedder.smooth(
                self.partner_share, float(now - self.last_arrival <= gap))
        self.last_arrival = now

    def _instants(self) -> tuple[float, float, float]:
        """When the ``max_wait`` / ``deadline`` / ``quiet`` rules each
        ready the bucket (``inf``: never, e.g. all three when empty)."""
        quiet = math.inf
        if self.batch_s is not None and self.pending:
            quiet = self.last_arrival
            if self.partner_share >= 0.5:
                quiet += min(self.max_wait_s, self.batch_s / 2)
        return (
            min(map(_FLUSH_BY, self.pending), default=math.inf),
            min(map(_DEADLINE, self.pending), default=math.inf)
            - self.deadline_slack_s,
            quiet,
        )

    def due_time(self, now: float) -> float:
        """The instant from which a free worker may take this bucket
        (ready means ``<= now``): ``now`` once it is full, else the
        earliest of its most urgent request's ``flush_by`` bound,
        ``deadline_slack_s`` *before* its deadline, and the end of a
        quiet gap, ``last_arrival + batch_s / 2`` (``last_arrival``
        itself while ``partner_share < 1/2``).  A lapsed request
        therefore readies its bucket and expires at once.

        The gap is derived, not tuned.  A batch costs ``E`` at any width
        and runs alone; with a partner ``d`` behind, going now sums to
        ``E + (2E - d)`` of latency and waiting to ``2E + d``, so the
        wait pays iff ``d < E / 2``.  Each arrival restarts the gap (a
        burst is cut when it ends) and ``flush_by`` still caps it.
        Whether to wait at all is the same sum in expectation: with
        ``p`` the chance a partner comes within ``E / 2``, one saves
        ``E - 2d`` (``E / 2`` on average) and none costs the gap,
        ``E / 2``, so the wait pays iff ``p > 1/2``.
        """
        if len(self.pending) >= self.capacity:
            return now
        return min(self._instants())

    def ready_reason(self) -> str:
        """Why a ready bucket is: ``full``, else the rule that fell due
        first (``flush`` is a ``flush_by`` that was brought forward)."""
        if len(self.pending) >= self.capacity:
            return "full"
        instants = self._instants()
        rule = ("max_wait", "deadline", "quiet")[instants.index(min(instants))]
        if rule == "max_wait":
            oldest = min(self.pending, key=_FLUSH_BY)
            if oldest.flush_by < oldest.enqueued + self.max_wait_s:
                return "flush"
        return rule

    def urgency(self, now: float) -> tuple:
        """Rank among ready buckets: the most urgent *live* request's
        key.  Lapsed ride-alongs are excluded — a past deadline must not
        put a bucket with no urgent live work ahead of an urgent one."""
        live = [p for p in self.pending if p.deadline > now]
        return min(map(_URGENCY, live or self.pending))

    def take_batch(self, now: float) -> list[_Pending]:
        """Claim up to ``capacity`` live requests, most urgent first.

        Requests whose deadline has already lapsed do *not* count against
        capacity — they ride along at the end of the returned list purely
        so the executing worker resolves them with the expired status and
        releases their admission slots; the batch's capacity slots all go
        to live requests.
        """
        live: list[_Pending] = []
        lapsed: list[_Pending] = []
        for p in self.pending:
            (lapsed if p.deadline <= now else live).append(p)
        live.sort(key=_URGENCY)
        batch, self.pending = live[: self.capacity], live[self.capacity:]
        return batch + lapsed


def pick_ready(groups: Iterable[_Group],
               now: float) -> tuple[_Group | None, float]:
    """The scheduling policy: the bucket a free worker takes at ``now``
    (the most urgent ready one, by the key that orders requests inside a
    bucket), or ``(None, instant)`` with the earliest instant one becomes
    ready (``inf``: all empty).  The caller holds the scheduler lock.
    """
    best, best_key, wake = None, None, math.inf
    for group in groups:
        due = group.due_time(now)     # inf for an empty bucket
        if due > now:
            wake = min(wake, due)
            continue
        key = group.urgency(now)
        if best is None or key < best_key:
            best, best_key = group, key
    return best, wake


class FheServer:
    """Batched, multi-worker serving of DSL programs on any backend.

    ``backend`` is a name or instance as in ``repro.run``; the string
    ``"functional"`` constructs a non-validating backend (validation
    re-executes the program on the plaintext reference — a test-time
    check, not a serving-time one; pass an instance to override).  An
    injected :class:`FunctionalBackend`'s scheme/params/ks settings are
    honored when building cached contexts; ``seed`` (the server's, not
    the backend's) seeds each signature's cached encryption keys.

    ``executor`` decides where batches run: ``"thread"`` (default,
    in-process, one batch at a time), ``"process"``/a
    :class:`~repro.net.remote.ProcessExecutor` instance (a pool of
    worker-process context replicas, no cross-request lock), ``"remote"``/
    a :class:`~repro.net.remote.RemoteExecutor` instance (worker *hosts*
    over the socket transport, sharded by consistent hash — the string
    spawns a local cluster sized to ``workers``), or any
    :class:`~repro.serve.executor.Executor`.  Construct process executors
    *before* heavily threaded work so the fork happens from a quiet
    parent; the server closes an executor it constructed from a name, and
    leaves injected instances to their owner.
    """

    def __init__(self, backend="functional", *,
                 registry: ProgramRegistry | None = None, workers: int = 2,
                 max_batch: int | None = None, max_wait_ms: float = 10.0,
                 queue_depth: int = 128, seed: int = 0,
                 executor: Executor | str = "thread",
                 trace: bool = False, degrade: bool = True):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        #: whether close() turns the process-wide tracer back off; the ring
        #: is kept, so dump_trace() still works on a closed server
        self._enabled_tracing = trace and not tracer().enabled
        if trace:
            # Per-request span tracing: ids minted at submit ride each
            # request over the replica wire; dump_trace() exports the
            # stitched Chrome trace-event timeline.
            tracer().set_label("coordinator")
            tracer().enable()
        if isinstance(backend, str) and backend == "functional":
            self.backend = FunctionalBackend(validate=False)
        else:
            self.backend = resolve_backend(backend)
        # Resolve (and, for "process", fork) the executor before any worker
        # thread starts.  The string "process" sizes the pool to ``workers``
        # so every worker thread can drive its own process replica.
        self._own_executor = isinstance(executor, str)
        if executor == "process":
            from repro.net.remote import ProcessExecutor

            self.executor: Executor = ProcessExecutor(workers)
        elif executor == "remote":
            # Size the local worker-host cluster to ``workers`` so every
            # worker thread can keep its own host busy.
            from repro.net.cluster import remote_executor

            self.executor = remote_executor(workers)
        else:
            self.executor = resolve_executor(executor)
        self.registry = registry if registry is not None else ProgramRegistry()
        self.max_batch = max_batch
        self.max_wait_ms = max_wait_ms
        self.seed = seed
        self._admission = threading.BoundedSemaphore(queue_depth)
        self._groups: dict[str, _Group] = {}
        #: the one scheduler lock: guards ``_groups``, every bucket and
        #: ``_closed``; idle workers wait on it, submit/flush/close notify
        self._cond = threading.Condition()
        #: admission gate; workers exit once it is set and all is drained
        self._closed = False
        self._telemetry_lock = threading.Lock()
        # Serving telemetry lives in a mergeable metrics registry
        # (repro.obs.metrics): counters stay exact, latency/queue/
        # occupancy distributions are fixed-log-bucket histograms whose
        # percentiles stay correct when worker-host blobs merge in.
        self.metrics = MetricsRegistry()
        self._latencies_ms = self.metrics.histogram("serve.latency_ms")
        self._queue_ms = self.metrics.histogram("serve.queue_ms")
        self._occupancies = self.metrics.histogram("serve.occupancy")
        #: wall time of executor.execute per batch — the dispatch cost the
        #: executor tier adds (socket round-trips included)
        self._dispatch_ms = self.metrics.histogram("serve.dispatch_ms")
        self._completed = self.metrics.counter("serve.requests")
        self._batches = self.metrics.counter("serve.batches")
        self._errors = self.metrics.counter("serve.errors")
        self._expired = self.metrics.counter("serve.expired")
        self._failed = self.metrics.counter("serve.failed")
        self._shed = self.metrics.counter("serve.shed")
        self._degradations = self.metrics.counter("serve.degradations")
        # Graceful degradation: when a remote executor reports every host
        # unroutable (ExecutorUnavailable), batches run on an embedded
        # ThreadExecutor fallback until a heartbeat probe revives a host.
        self.degrade = degrade
        self._degraded = False
        self._degrade_lock = threading.Lock()
        self._fallback: Executor | None = None
        # Submit-time load shedding: EWMA of per-request service time x
        # queue depth vs the request's deadline budget.
        self._shedder = LoadShedder(workers=workers)
        self._first_submit: float | None = None
        self._last_done: float | None = None
        self._workers = [
            threading.Thread(target=self._worker_loop, name=f"fhe-worker-{i}",
                             daemon=True)
            for i in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # ------------------------------------------------------------ client API
    def submit(self, program: Program, inputs=None, plains=None, *,
               width: int | None = None, priority: int = 0,
               deadline_ms: float | None = None,
               seed: int | None = None, level: int | None = None) -> Future:
        """Enqueue one request; returns a Future[RequestResult].

        ``width`` fixes the per-request vector length for this program's
        slot layout; it defaults to the longest vector in the first
        request (later requests must fit the established layout).  Blocks
        when ``queue_depth`` requests are already in flight.

        ``priority`` breaks ties among equally urgent requests (higher
        first); ``deadline_ms`` is the client's latency budget — it makes
        the bucket ready early, orders batch admission
        earliest-deadline-first, and a request whose budget lapses before
        execution resolves with ``status="expired"`` instead of occupying
        a batch slot.  ``seed`` pins per-request randomness for requests
        served singly (it rides the request through any executor).

        ``level`` is the request's arrival depth (RNS limbs its inputs
        carry); ``None`` means the program's declared input level.
        Same-signature requests at different levels share one batch: the
        pack mod-switches every request down to the deepest arrival's
        waterline first.  The level must sit inside the program's
        batchable range (validated here, synchronously).

        Admission is strict for batchable programs: vectors must fit the
        group's layout and (on value-executing backends) every INPUT op
        needs a value — rejected here, synchronously, so one malformed
        request can never fail the innocent requests it would have been
        batched with.
        """
        if self._closed:
            raise RuntimeError("server is closed")
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError("deadline_ms must be positive")
        request = Request(inputs=dict(inputs or {}), plains=dict(plains or {}),
                          seed=seed, level=level)
        tr = tracer()
        admit_start = time.perf_counter() if tr.enabled else 0.0
        if tr.enabled:
            request.trace = new_trace_id()
        validate_run_args(program, request.inputs or None,
                          request.plains or None)
        group = self._group_for(program, request, width)
        shared = None
        if group.batcher is not None:
            group.batcher.check_request(
                request, require_inputs=self._executes_values()
            )
            shared = group.batcher.shared_plain_values(request)
        elif level is not None:
            # Unbatchable programs still honor arrival levels — served
            # solo with the same graph lowering a batch would apply.
            check_request_level(group.level_plan, level)
        if (deadline_ms is not None
                and self._shedder.should_shed(deadline_ms / 1e3)):
            # The queue's observed service rate cannot meet this budget:
            # refuse now (cheap, honest) rather than admit work that will
            # expire after consuming a batch slot's worth of queueing.
            return self._shed_request(group, deadline_ms)
        future: Future = Future()
        self._admission.acquire()
        self._shedder.admitted()
        now = time.perf_counter()
        with self._telemetry_lock:
            if self._first_submit is None:
                self._first_submit = now
        try:
            with self._cond:
                if self._closed:
                    # close() set the flag before its final flush; anything
                    # appended now would be stranded, so refuse instead.
                    raise RuntimeError("server is closed")
                if shared:
                    if not group.pending:
                        group.shared_plains = shared
                    else:
                        self._check_shared(group, shared)
                group.pending.append(_Pending(
                    request, future, now, priority=priority,
                    deadline=(now + deadline_ms / 1e3
                              if deadline_ms is not None else math.inf),
                    flush_by=now + group.max_wait_s,
                ))
                group.note_arrival(now)
                # It may have filled the bucket or moved the earliest due
                # instant (forward, or the quiet gap back): an idle
                # worker looks again.
                self._cond.notify()
        except Exception:
            self._admission.release()
            self._shedder.resolved()
            raise
        if tr.enabled:
            # Admission span: validation + layout checks + enqueue.
            end = time.perf_counter()
            tr.record("admit", perf_to_us(admit_start),
                      (end - admit_start) * 1e6, trace=request.trace,
                      signature=group.signature[:16])
        return future

    def request(self, program: Program, inputs=None, plains=None, *,
                width: int | None = None, priority: int = 0,
                deadline_ms: float | None = None,
                seed: int | None = None,
                level: int | None = None) -> RequestResult:
        """Synchronous convenience: submit and wait."""
        return self.submit(program, inputs, plains, width=width,
                           priority=priority, deadline_ms=deadline_ms,
                           seed=seed, level=level).result()

    def flush(self) -> None:
        """Make every pending request due now, regardless of age or bucket
        size: free workers take them at once, busy ones as they finish."""
        now = time.perf_counter()
        with self._cond:
            for group in self._groups.values():
                group.pending = [replace(p, flush_by=min(p.flush_by, now))
                                 for p in group.pending]
            self._cond.notify_all()

    def close(self) -> None:
        """Flush, drain, and stop the worker threads."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
        # _closed is set before this flush, so a racing submit either got
        # its request into a bucket the workers are about to drain or
        # observes the flag under the scheduler lock and raises — no
        # future is stranded.
        self.flush()
        for thread in self._workers:
            thread.join()
        if self._own_executor:
            self.executor.close()
        if self._fallback is not None:
            self._fallback.close()
        if self._enabled_tracing:
            tracer().disable()

    def __enter__(self) -> "FheServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------- internals
    def _executes_values(self) -> bool:
        return executes_values(self.backend)

    @staticmethod
    def _check_shared(group: _Group, shared: dict[int, np.ndarray]) -> None:
        """Reject a request whose shared weights diverge from its bucket."""
        for op_id, values in shared.items():
            want = group.shared_plains.get(op_id)
            if want is None or (values.shape == want.shape
                                and np.array_equal(values, want)):
                continue
            raise BatchUnsupported(
                f"plain input {op_id} feeds a BGV MUL_PLAIN and must match "
                f"the weights of the batch currently forming; resubmit "
                f"after the bucket flushes or align the weights"
            )

    def _group_for(self, program: Program, request: Request,
                   width: int | None) -> _Group:
        signature = program.signature()
        with self._cond:
            group = self._groups.get(signature)
            if group is None:
                if width is None:
                    lengths = [np.asarray(v).shape[0]
                               for v in request.inputs.values()]
                    width = max(lengths, default=program_width(program))
                group = _Group(program, signature, width, self.max_batch,
                               max_wait_s=self.max_wait_ms / 1e3,
                               metrics=self.metrics)
                self._groups[signature] = group
            return group

    def _shed_request(self, group: _Group, deadline_ms: float) -> Future:
        """Resolve a refused submit immediately with ``status="shed"``."""
        with self._telemetry_lock:
            self._shed.inc()
        tracer().event("shed", signature=group.signature[:16],
                       deadline_ms=deadline_ms,
                       estimated_wait_ms=self._shedder.estimated_wait_s() * 1e3)
        future: Future = Future()
        future.set_running_or_notify_cancel()
        future.set_result(RequestResult(
            values={},
            latency_ms=0.0,
            queue_ms=0.0,
            batch_size=0,
            batch_occupancy=0.0,
            cache_hit=False,
            backend=getattr(self.backend, "name", str(self.backend)),
            backend_time_ms=None,
            signature=group.signature,
            status=STATUS_SHED,
            stats={"estimated_wait_ms":
                   self._shedder.estimated_wait_s() * 1e3,
                   "deadline_ms": deadline_ms},
        ))
        return future

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                while True:
                    now = time.perf_counter()
                    group, wake = pick_ready(self._groups.values(), now)
                    if group is not None:
                        reason = group.ready_reason()
                        batch = group.take_batch(now)
                        break
                    if self._closed and wake == math.inf:
                        return
                    self._cond.wait(None if wake == math.inf
                                    else wake - now)
            try:
                self._execute(group, batch, reason)
            except (RetriesExhausted, ExecutorUnavailable) as exc:
                # Transport-level exhaustion: the batch was retried (or no
                # host was routable and degradation is off).  These resolve
                # with the distinct "failed" status — the inputs were fine,
                # the fleet was not — carrying the typed error chain.
                self._fail_batch(group, batch, exc)
            except Exception as exc:  # noqa: BLE001 — delivered to futures
                with self._telemetry_lock:
                    self._errors.inc(len(batch))
                for pending in batch:
                    if not pending.future.done():
                        pending.future.set_exception(exc)
            finally:
                self._shedder.resolved(len(batch))
                for _ in batch:
                    self._admission.release()

    def _run_batch(self, group: _Group,
                   batch: list[_Pending]) -> tuple[list[dict], RunResult, bool]:
        """Build the batch job (registry lookups included) and execute it."""
        program = group.program
        requests = [p.request for p in batch]
        job = BatchJob(
            program=program, signature=group.signature, requests=requests,
            batcher=group.batcher, backend=self.backend,
            # The earliest live deadline rides the job so a remote
            # executor can bound its per-attempt watchdog and its retry
            # backoff by the real budget.
            deadline=min((p.deadline for p in batch
                          if p.deadline < math.inf), default=None),
        )
        hit = False
        if isinstance(self.backend, FunctionalBackend):
            job.context_entry, hit = self.registry.context_for(
                program, scheme=self.backend.scheme,
                prime_bits=self.backend.prime_bits,
                plaintext_modulus=self.backend.plaintext_modulus,
                seed=self.seed, ks_variant=self.backend.ks_variant,
                params=self.backend.params,
            )
            # Cache the cross-level plan on the entry so every later
            # consumer of this (signature, params) pair — including other
            # servers sharing the registry — skips the graph walk.
            self.registry.level_plan_for(program, job.context_entry)
        elif isinstance(self.backend, F1Backend):
            job.compiled_entry, hit = self.registry.compiled_for(
                program, self.backend.config,
                scheduler=self.backend.scheduler,
                ks_choice=self.backend.ks_choice, check=self.backend.check,
            )
        tr = tracer()
        dispatch_start = time.perf_counter()
        executor = self.executor
        was_degraded = self._degraded
        if was_degraded and not getattr(executor, "healthy", lambda: True)():
            # Still degraded and the remote tier reports nothing routable:
            # go straight to the embedded fallback rather than paying a
            # guaranteed-to-fail dispatch per batch.
            executor = self._fallback_executor()
        try:
            outputs, result = executor.execute(job)
        except ExecutorUnavailable:
            if not self.degrade:
                raise
            # Every host dead or breaker-open: degrade to embedded local
            # execution.  Correctness is unchanged (execution is pure and
            # per-request seeds ride the requests); only the isolation/
            # parallelism of the remote tier is lost, which stats()
            # surfaces via ``degraded``.
            executor = self._fallback_executor()
            self._set_degraded(True)
            outputs, result = executor.execute(job)
        else:
            if was_degraded and executor is self.executor:
                # A remote batch succeeded again: recovery.
                self._set_degraded(False)
        dispatch_end = time.perf_counter()
        if tr.enabled:
            tr.record("dispatch", perf_to_us(dispatch_start),
                      (dispatch_end - dispatch_start) * 1e6,
                      traces=[r.trace for r in requests if r.trace],
                      executor=executor.name, k=len(requests))
        with self._telemetry_lock:
            self._dispatch_ms.observe((dispatch_end - dispatch_start) * 1e3)
        wall_s = dispatch_end - dispatch_start
        self._shedder.observe_batch(wall_s, len(requests))
        with self._cond:    # the lock due_time reads batch_s under
            group.batch_s = LoadShedder.smooth(group.batch_s, wall_s)
        return outputs, result, hit

    def _fallback_executor(self) -> Executor:
        """The lazily-built embedded executor degraded batches run on."""
        with self._degrade_lock:
            if self._fallback is None:
                from repro.serve.executor import ThreadExecutor

                self._fallback = ThreadExecutor()
            return self._fallback

    def _set_degraded(self, flag: bool) -> None:
        with self._telemetry_lock:
            if flag == self._degraded:
                return
            self._degraded = flag
            if flag:
                self._degradations.inc()
        tracer().event("degrade" if flag else "recover",
                       executor=self.executor.name)

    def _fail_batch(self, group: _Group, batch: list[_Pending],
                    exc: Exception) -> None:
        """Resolve a transport-exhausted batch with ``status="failed"``.

        Futures already resolved (expired ride-alongs) are skipped; the
        rest carry the typed error chain in ``stats`` — no future is ever
        left pending.
        """
        now = time.perf_counter()
        causes = [f"{type(c).__name__}: {c}"
                  for c in getattr(exc, "causes", [])]
        tracer().event("batch_failed", signature=group.signature[:16],
                       error=f"{type(exc).__name__}: {exc}",
                       attempts=len(causes) or 1)
        delivered = 0
        for pending in batch:
            if pending.future.done():
                continue
            if (not pending.future.running()
                    and not pending.future.set_running_or_notify_cancel()):
                continue
            pending.future.set_result(RequestResult(
                values={},
                latency_ms=(now - pending.enqueued) * 1e3,
                queue_ms=(now - pending.enqueued) * 1e3,
                batch_size=0,
                batch_occupancy=0.0,
                cache_hit=False,
                backend=getattr(self.backend, "name", str(self.backend)),
                backend_time_ms=None,
                signature=group.signature,
                status=STATUS_FAILED,
                stats={"error": f"{type(exc).__name__}: {exc}",
                       "causes": causes},
            ))
            delivered += 1
        with self._telemetry_lock:
            self._failed.inc(delivered)

    def _expire(self, group: _Group, pending: _Pending, now: float) -> None:
        """Resolve one past-deadline request with the distinct status."""
        if pending.future.set_running_or_notify_cancel():
            pending.future.set_result(RequestResult(
                values={},
                latency_ms=(now - pending.enqueued) * 1e3,
                queue_ms=(now - pending.enqueued) * 1e3,
                batch_size=0,
                batch_occupancy=0.0,
                cache_hit=False,
                backend=getattr(self.backend, "name", str(self.backend)),
                backend_time_ms=None,
                signature=group.signature,
                status=STATUS_EXPIRED,
            ))
        with self._telemetry_lock:
            self._expired.inc()

    def _execute(self, group: _Group, batch: list[_Pending],
                 reason: str) -> None:
        # Fail past-deadline requests fast: they resolve with the expired
        # status immediately and never occupy a batch slot.
        now = time.perf_counter()
        live_batch = []
        for pending in batch:
            if now >= pending.deadline:
                self._expire(group, pending, now)
            else:
                live_batch.append(pending)
        if not live_batch:
            return
        # Claim every future up front: one that a client already cancelled
        # is simply skipped, and can no longer flip to cancelled while we
        # deliver results below.
        live = [p.future.set_running_or_notify_cancel() for p in live_batch]
        started = time.perf_counter()
        tr = tracer()
        if tr.enabled:
            # One queue span per request: submit -> batch execution start.
            for pending in live_batch:
                if pending.request.trace:
                    tr.record("queue", perf_to_us(pending.enqueued),
                              (started - pending.enqueued) * 1e6,
                              trace=pending.request.trace, ready=reason)
        outputs, result, hit = self._run_batch(group, live_batch)
        done = time.perf_counter()
        k = len(live_batch)
        batched = group.batcher is not None
        occupancy = group.batcher.occupancy(k) if batched else 1.0
        time_share = (result.time_ms / k
                      if result.time_ms is not None and batched else result.time_ms)
        # Execution attribution survives demux: every RequestResult says
        # which executor kind / worker pid / host / replica served it, so
        # per-request results join against traces and per-host telemetry.
        executed_on = (result.stats.get("executed_on")
                       if isinstance(result.stats, dict) else None)
        for pending, values, alive in zip(live_batch, outputs, live):
            if not alive:
                continue
            pending.future.set_result(RequestResult(
                values=values,
                latency_ms=(done - pending.enqueued) * 1e3,
                queue_ms=(started - pending.enqueued) * 1e3,
                batch_size=k,
                batch_occupancy=occupancy,
                cache_hit=hit,
                backend=result.backend,
                backend_time_ms=time_share,
                signature=group.signature,
                stats={"time_kind": result.stats.get("time_kind"),
                       "executed_on": executed_on,
                       "trace": pending.request.trace},
            ))
        demux_done = time.perf_counter()
        if tr.enabled:
            tr.record("demux", perf_to_us(done),
                      (demux_done - done) * 1e6,
                      traces=[p.request.trace for p in live_batch
                              if p.request.trace], k=k)
        with self._telemetry_lock:
            self._batches.inc()
            self._completed.inc(k)
            self._occupancies.observe(occupancy)
            self._last_done = done
            group.batches += 1
            group.completed += k
            group.occupancies.observe(occupancy)
            group.batch_sizes[k] = group.batch_sizes.get(k, 0) + 1
            group.ready[reason] += 1
            for pending in live_batch:
                latency = (done - pending.enqueued) * 1e3
                queued = (started - pending.enqueued) * 1e3
                self._latencies_ms.observe(latency)
                self._queue_ms.observe(queued)
                group.latencies_ms.observe(latency)
                group.queue_ms.observe(queued)

    # -------------------------------------------------------------- telemetry
    def dump_trace(self, path: str) -> int:
        """Export recorded spans as Chrome trace-event JSON.

        The file loads in Perfetto (https://ui.perfetto.dev) or
        ``chrome://tracing``; spans shipped back from worker processes
        and hosts appear as their own process tracks, joined to the
        coordinator's by the per-request ``trace`` arg.  Returns the
        number of spans written.  Requires ``FheServer(trace=True)``.
        """
        return tracer().dump(path)

    def metrics_snapshot(self) -> dict:
        """The fleet-wide merged metrics blob: this server's registry,
        the process-global registry (kernel timers, in-process executor
        timings), and the latest blob from every worker process/host."""
        blobs = getattr(self.executor, "metrics_blobs", lambda: [])()
        return merge_snapshots(self.metrics.snapshot(),
                               global_metrics().snapshot(), *blobs)

    def stats(self) -> dict:
        """Aggregate serving telemetry since construction.

        Every distribution here is computed from the mergeable metrics
        registry (``repro.obs.metrics``): the server's own histograms
        merged with the latest piggybacked blob from every worker
        process and host, so p50/p99 stay correct under multi-process
        and multi-host serving.  The full merged blob is under
        ``"metrics"``; ``"execute_ms"`` is the fleet-wide executor-tier
        run time (recorded wherever the batch actually ran);
        ``"kernels"`` is the per-signature hot-kernel breakdown when
        kernel profiling (``REPRO_OBS_KERNELS=1``) is on.

        ``per_signature`` breaks the same occupancy/latency/queue numbers
        down by program signature, each with an exact batch-size
        histogram, ``batch_ms`` (the smoothed batch wall time the quiet
        rule halves), ``partner_share`` (the smoothed share of arrivals
        that came within that gap of the one before; below 1/2 the gap
        is skipped) and ``ready``: executed batches by why they were cut
        (``full`` / ``quiet`` / ``max_wait`` / ``deadline`` / ``flush``).

        ``executor`` is the executor tier's own telemetry (see the README
        observability section for the schema): dispatch counters and, for
        the pool executors (process and remote share one schema),
        per-replica breakdowns — ``inflight_per_replica`` and per-host
        ``inflight``/``dispatched``/``reconnects``/``latency_ms`` rows.  ``dispatch_ms`` is the server-side wall time of
        ``executor.execute`` per batch — what the executor tier (socket
        round-trips included) adds on top of the FHE math.
        """
        with self._cond:
            groups = list(self._groups.values())
        merged = self.metrics_snapshot()

        def _summary(name: str) -> dict:
            state = merged.get(name)
            return (summarize_state(state) if state is not None
                    else {"p50": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0,
                          "count": 0})

        with self._telemetry_lock:
            completed = self._completed.value
            batches = self._batches.value
            span = ((self._last_done - self._first_submit)
                    if self._last_done and self._first_submit else 0.0)
            out = {
                "requests": completed,
                "batches": batches,
                "errors": self._errors.value,
                "expired": self._expired.value,
                "failed": self._failed.value,
                "shed": self._shed.value,
                "degraded": self._degraded,
                "degradations": self._degradations.value,
                "requests_per_s": completed / span if span > 0 else 0.0,
                "mean_batch_size": (completed / batches if batches else 0.0),
                "mean_occupancy": self._occupancies.mean,
                "latency_ms": _summary("serve.latency_ms"),
                "queue_ms": _summary("serve.queue_ms"),
                "dispatch_ms": _summary("serve.dispatch_ms"),
                "execute_ms": _summary("serve.execute_ms"),
                "per_signature": {
                    g.signature: {
                        "program": g.program.name,
                        "requests": g.completed,
                        "batches": g.batches,
                        "capacity": g.capacity,
                        "batchable": g.batcher is not None,
                        "mean_occupancy": g.occupancies.mean,
                        "latency_ms": g.latencies_ms.summary(),
                        "queue_ms": g.queue_ms.summary(),
                        "batch_size_histogram": dict(sorted(
                            g.batch_sizes.items()
                        )),
                        "batch_ms": g.batch_s * 1e3,
                        "partner_share": g.partner_share,
                        "ready": dict(g.ready),
                    }
                    for g in groups if g.completed
                },
            }
        out["metrics"] = merged
        out["kernels"] = kernel_breakdown(merged)
        out["registry"] = self.registry.stats()
        out["executor"] = self.executor.stats()
        return out
