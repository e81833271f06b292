"""FheServer: a multi-worker FHE job server with slot-level batching.

The composition of this package's parts.  ``submit`` admits a request
into its signature's bucket (bounded by ``queue_depth``; shed at once if
the observed service rate cannot meet its ``deadline_ms``).  A free
worker takes the most urgent ready bucket (:mod:`repro.serve.policy`),
looks its compile/keygen artifacts up in the shared
:class:`~repro.serve.registry.ProgramRegistry`, and runs the batch *once*
on the server's :class:`~repro.serve.executor.Executor`, or on an
embedded ``ThreadExecutor`` while a remote executor has no routable
host.  Every request ends through
:meth:`~repro.serve.outcome.Outcomes.finish`, which :meth:`FheServer.stats`
reports.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import Future
from dataclasses import replace

import numpy as np

from repro.backends import (FunctionalBackend, RunResult, program_width,
                             resolve_backend, validate_run_args)
from repro.dsl.program import Program
from repro.obs.metrics import global_metrics, merge_snapshots
from repro.obs.profile import kernel_breakdown
from repro.obs.trace import new_trace_id, perf_to_us, tracer
from repro.serve.batcher import Request, check_request_level
from repro.serve.executor import (BatchJob, Executor, ThreadExecutor,
                                  executes_values, resolve_executor)
from repro.serve.outcome import (STATUS_EXPIRED, STATUS_OK, STATUS_SHED,
                                 Outcomes, RequestResult)
from repro.serve.policy import _Group, _Pending, pick_ready
from repro.serve.registry import ProgramRegistry
from repro.serve.resilience import ExecutorUnavailable, LoadShedder


class FheServer:
    """Batched, multi-worker serving of DSL programs on any backend.

    ``backend`` is a name or instance as in ``repro.run``; ``"functional"``
    builds a non-validating backend (validation re-runs the program on the
    plaintext reference: a test-time check; pass an instance to
    override).  An injected :class:`FunctionalBackend`'s settings pick
    the cached contexts; ``seed`` seeds each signature's cached keys.

    ``executor`` is a name or instance as in
    :func:`~repro.serve.executor.resolve_executor`; named pools get one
    replica per worker thread.  Construct process executors *before*
    heavily threaded work, so the fork happens from a quiet parent.  The
    server closes an executor it built from a name, not an injected one.
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
            tracer().set_label("coordinator")
            tracer().enable()
        if isinstance(backend, str) and backend == "functional":
            self.backend = FunctionalBackend(validate=False)
        else:
            self.backend = resolve_backend(backend)
        # Resolve (and, for "process", fork) before any worker starts.
        self._own_executor = isinstance(executor, str)
        self.executor: Executor = resolve_executor(executor, workers)
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
        self.outcomes = Outcomes(getattr(self.backend, "name",
                                         str(self.backend)))
        self.metrics = self.outcomes.metrics
        self.degrade = degrade
        #: set while a remote executor has no routable host: batches then
        #: run on the embedded ``_fallback``
        self._degraded = False
        self._degrade_lock = threading.Lock()
        self._fallback: Executor = ThreadExecutor()
        self._shedder = LoadShedder(workers=workers)
        self._workers = [threading.Thread(target=self._worker_loop,
                                          name=f"fhe-worker-{i}", daemon=True)
                         for i in range(workers)]
        for thread in self._workers:
            thread.start()

    # ------------------------------------------------------------ client API
    def submit(self, program: Program, inputs=None, plains=None, *,
               width: int | None = None, priority: int = 0,
               deadline_ms: float | None = None,
               seed: int | None = None, level: int | None = None) -> Future:
        """Enqueue one request; returns a Future[RequestResult].

        ``width`` fixes the program's per-request slot width (default: the
        longest vector of its first request).  Blocks while
        ``queue_depth`` requests are in flight.  ``priority`` breaks ties
        (higher first); ``deadline_ms`` is the latency budget that readies
        the bucket early, orders slots earliest-deadline-first, and
        resolves the request ``expired`` if it lapses first.  ``seed`` pins
        per-request randomness; ``level`` is the arrival depth (``None``:
        the program's input level).  Validation is synchronous (layout
        fit, INPUT values on value-executing backends, a batchable level),
        so a malformed request never fails its would-be batch-mates.
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
                request, require_inputs=executes_values(self.backend))
            shared = group.batcher.shared_plain_values(request)
        elif level is not None:
            # Unbatchable programs still honor arrival levels — served
            # solo with the same graph lowering a batch would apply.
            check_request_level(group.level_plan, level)
        future: Future = Future()
        if (deadline_ms is not None
                and self._shedder.should_shed(deadline_ms / 1e3)):
            # The observed service rate cannot meet this budget: refuse
            # now rather than queue it to certain expiry.
            wait_ms = self._shedder.estimated_wait_s() * 1e3
            tr.event("shed", signature=group.signature[:16],
                     deadline_ms=deadline_ms, estimated_wait_ms=wait_ms)
            now = time.perf_counter()
            future.set_running_or_notify_cancel()
            self.outcomes.finish(group, [_Pending(request, future, now)],
                                 STATUS_SHED, now, estimated_wait_ms=wait_ms,
                                 deadline_ms=deadline_ms)
            _admit_span(request, group, admit_start)
            return future
        self._admission.acquire()
        self._shedder.admitted()
        now = time.perf_counter()
        self.outcomes.admitted(now)
        try:
            with self._cond:
                if self._closed:
                    # close() set the flag before its final flush; anything
                    # appended now would be stranded, so refuse instead.
                    raise RuntimeError("server is closed")
                if shared:
                    group.share_plains(shared)
                group.pending.append(_Pending(
                    request, future, now, priority=priority,
                    deadline=(now + deadline_ms / 1e3
                              if deadline_ms is not None else math.inf),
                    flush_by=now + group.max_wait_s,
                ))
                group.note_arrival(now)
                # It may have filled the bucket or moved its due instant:
                # an idle worker looks again.
                self._cond.notify()
        except Exception:
            self._admission.release()
            self._shedder.resolved()
            raise
        _admit_span(request, group, admit_start)
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
        self._fallback.close()
        if self._enabled_tracing:
            tracer().disable()

    def __enter__(self) -> "FheServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------- internals
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
                               max_wait_s=self.max_wait_ms / 1e3)
                self._groups[signature] = group
            return group

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
            # The batch has left the queue: claim every future, so one its
            # client already cancelled is never resolved.
            for pending in batch:
                pending.future.set_running_or_notify_cancel()
            now = time.perf_counter()
            lapsed = [p for p in batch if now >= p.deadline]
            live = [p for p in batch if now < p.deadline]
            try:
                if lapsed:   # fail fast, holding no slot
                    self.outcomes.finish(group, lapsed, STATUS_EXPIRED, now)
                if live:
                    self._execute(group, live, reason)
            except Exception as exc:  # noqa: BLE001 — delivered to futures
                # Every future the batch left unresolved gets the error.
                self.outcomes.finish(group, batch, exc, time.perf_counter())
            finally:
                self._shedder.resolved(len(batch))
                for _ in batch:
                    self._admission.release()

    def _execute(self, group: _Group, batch: list[_Pending],
                 reason: str) -> None:
        """Run a batch of live requests once and end them ``ok``."""
        started = time.perf_counter()
        tr = tracer()
        traces = [p.request.trace for p in batch if p.request.trace]
        if tr.enabled:
            # One queue span per request: submit -> batch execution start.
            for p in batch:
                if p.request.trace:
                    tr.record("queue", perf_to_us(p.enqueued),
                              (started - p.enqueued) * 1e6,
                              trace=p.request.trace, ready=reason)
        context_entry, compiled_entry, hit = self.registry.entries_for(
            group.program, self.backend, seed=self.seed)
        job = BatchJob(
            program=group.program, signature=group.signature,
            requests=[p.request for p in batch], batcher=group.batcher,
            backend=self.backend, context_entry=context_entry,
            compiled_entry=compiled_entry,
            # The earliest deadline bounds a remote executor's per-attempt
            # watchdog and its retry backoff.
            deadline=min((p.deadline for p in batch
                          if p.deadline < math.inf), default=None),
        )
        dispatched = time.perf_counter()
        outputs, result, executor = self._dispatch(job)
        wall_s = time.perf_counter() - dispatched
        if tr.enabled:
            tr.record("dispatch", perf_to_us(dispatched), wall_s * 1e6,
                      traces=traces, executor=executor.name, k=len(batch))
        self._shedder.observe_batch(wall_s, len(batch))
        with self._cond:    # the lock due_time reads batch_s under
            group.batch_s = LoadShedder.smooth(group.batch_s, wall_s)
        done = time.perf_counter()
        self.outcomes.finish(group, batch, STATUS_OK, done, run=result,
                             outputs=outputs, started=started,
                             dispatch_ms=wall_s * 1e3, hit=hit, reason=reason)
        if tr.enabled:
            tr.record("demux", perf_to_us(done),
                      (time.perf_counter() - done) * 1e6, traces=traces,
                      k=len(batch))

    def _dispatch(self, job: BatchJob
                  ) -> tuple[list[dict], RunResult, Executor]:
        """Execute ``job``, on the embedded fallback while degraded."""
        executor, was_degraded = self.executor, self._degraded
        if was_degraded and not getattr(executor, "healthy", lambda: True)():
            # Still nothing routable: skip a dispatch certain to fail.
            executor = self._fallback
        try:
            outputs, result = executor.execute(job)
        except ExecutorUnavailable:
            if not self.degrade:
                raise
            # Every host dead or breaker-open: run locally.  Results are
            # unchanged (execution is pure and per-request seeds ride the
            # requests); stats() says ``degraded``.
            executor = self._fallback
            self._set_degraded(True)
            outputs, result = executor.execute(job)
        else:
            if was_degraded and executor is self.executor:
                self._set_degraded(False)    # a remote batch succeeded
        return outputs, result, executor

    def _set_degraded(self, flag: bool) -> None:
        with self._degrade_lock:
            if flag == self._degraded:
                return
            self._degraded = flag
            if flag:
                self.metrics.counter("serve.degradations").inc()
        tracer().event("degrade" if flag else "recover",
                       executor=self.executor.name)

    # -------------------------------------------------------------- telemetry
    def dump_trace(self, path: str) -> int:
        """Export recorded spans as Chrome trace-event JSON (README,
        observability); returns how many.  Needs ``trace=True``."""
        return tracer().dump(path)

    def metrics_snapshot(self) -> dict:
        """The fleet-wide merged metrics blob: this server's registry,
        the process-global registry (kernel timers, in-process executor
        timings), and the latest blob from every worker process/host."""
        blobs = getattr(self.executor, "metrics_blobs", lambda: [])()
        return merge_snapshots(self.outcomes.snapshot(),
                               global_metrics().snapshot(), *blobs)

    def stats(self) -> dict:
        """Aggregate serving telemetry since construction: the outcome
        counts and distributions of
        :meth:`~repro.serve.outcome.Outcomes.stats`, plus ``degraded``,
        the merged ``metrics`` blob, the per-signature hot-``kernels``
        breakdown (``REPRO_OBS_KERNELS=1``), and the ``registry`` and
        ``executor`` tiers' own telemetry (README, observability)."""
        with self._cond:
            groups = list(self._groups.values())
        merged = self.metrics_snapshot()
        out = self.outcomes.stats(merged, groups)
        out["degraded"] = self._degraded
        out["metrics"] = merged
        out["kernels"] = kernel_breakdown(merged)
        out["registry"] = self.registry.stats()
        out["executor"] = self.executor.stats()
        return out


def _admit_span(request: Request, group: _Group, start: float) -> None:
    """Admission span: validation, layout checks, then the enqueue or the
    shed; it carries the trace id every result of the request reports."""
    tr = tracer()
    if tr.enabled:
        tr.record("admit", perf_to_us(start),
                  (time.perf_counter() - start) * 1e6,
                  trace=request.trace, signature=group.signature[:16])
