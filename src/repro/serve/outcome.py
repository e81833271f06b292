"""How a request ends, and the telemetry its ending leaves.

A submitted request ends in exactly one of five ways, and
:meth:`Outcomes.finish` is the one place any of them happens:

- ``ok``: its batch executed and its values were demultiplexed;
- ``expired``: its ``deadline_ms`` lapsed before a batch could run it;
- ``failed``: its batch exhausted the executor tier's transport retries
  (the typed error chain is in ``RequestResult.stats``);
- ``shed``: refused at submit, because the queue could not meet its
  deadline;
- an exception on its Future: an in-process or application error, which
  is deterministic and never retried.

The Future rule: whoever takes a request out of the queue claims its
Future (``set_running_or_notify_cancel``): the worker for a batch, and
``submit`` for a shed request, which never enters it.  ``finish`` resolves every claimed Future
exactly once and records exactly one outcome for it.  A Future that its
client cancelled before the claim is left alone and records nothing;
in an executed batch it still held a slot, so it counts in that batch's
size and occupancy.  All of one batch's telemetry is recorded under one
lock acquisition, before any of its Futures resolves, so a client that
reads ``stats()`` after its result sees its request counted.

Every number lives in one mergeable
:class:`~repro.obs.metrics.MetricsRegistry` (exact counters; latency,
queue and occupancy as fixed-log-bucket histograms whose percentiles
stay correct when worker-host blobs merge in), and :meth:`Outcomes.stats`
assembles ``FheServer.stats()`` from a snapshot of it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.backends import RunResult
from repro.obs.metrics import MetricsRegistry, summarize_state
from repro.obs.trace import tracer
from repro.serve.policy import READY_REASONS
from repro.serve.resilience import ExecutorUnavailable, RetriesExhausted

STATUS_OK = "ok"
STATUS_EXPIRED = "expired"
STATUS_FAILED = "failed"
STATUS_SHED = "shed"
#: :attr:`RequestResult.status` values: the complete vocabulary
STATUSES = (STATUS_OK, STATUS_EXPIRED, STATUS_FAILED, STATUS_SHED)
#: the counter each status bumps (an exception on the Future: ``errors``)
_COUNTERS = {STATUS_OK: "serve.requests", STATUS_EXPIRED: "serve.expired",
             STATUS_FAILED: "serve.failed", STATUS_SHED: "serve.shed"}
_EMPTY = {"p50": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0, "count": 0}


@dataclass
class RequestResult:
    """What serving one request produced, with per-request accounting.

    ``status`` is one of :data:`STATUSES`.  The three non-ok statuses
    resolve the Future with ``values`` empty rather than an exception;
    an exception on the Future means an in-process or application error.
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


class Outcomes:
    """The one way a request ends, and the server's telemetry registry."""

    def __init__(self, backend: str):
        self.backend = backend
        self.metrics = MetricsRegistry()
        for name in (*_COUNTERS.values(), "serve.errors", "serve.batches",
                     "serve.degradations"):
            self.metrics.counter(name)
        for name in ("serve.latency_ms", "serve.queue_ms", "serve.occupancy",
                     "serve.dispatch_ms"):
            self.metrics.histogram(name)
        self._lock = threading.Lock()
        self._first_submit: float | None = None
        self._last_done: float | None = None

    def admitted(self, now: float) -> None:
        """Note a submit: the first one starts the ``requests_per_s`` span."""
        if self._first_submit is None:
            with self._lock:
                if self._first_submit is None:
                    self._first_submit = now

    def finish(self, group, batch: list, outcome, now: float, *,
               run: RunResult | None = None, outputs=None,
               started: float | None = None, dispatch_ms: float = 0.0,
               hit: bool = False, reason: str = "", **stats) -> None:
        """End every request of ``batch`` (``_Pending`` records from
        ``group``'s bucket) whose claimed Future is still unresolved, at
        ``now``, with ``outcome``: a status, or the exception its batch
        raised.  A transport-level one
        (``RetriesExhausted``, ``ExecutorUnavailable``: the inputs were
        fine, the fleet was not) ends them ``failed`` with the typed error
        chain; any other is raised from their Futures.

        An executed batch (``ok``) passes its ``run``, the per-request
        ``outputs`` (cancelled slots included), the instant execution
        ``started``, the executor's ``dispatch_ms``, the cache ``hit``
        and the ``reason`` its bucket was ready.  Any other status passes
        the ``stats`` its results carry.
        """
        signature, k, executed = group.signature, len(batch), run is not None
        if isinstance(outcome, (RetriesExhausted, ExecutorUnavailable)):
            stats = {"error": f"{type(outcome).__name__}: {outcome}",
                     "causes": [f"{type(c).__name__}: {c}"
                                for c in getattr(outcome, "causes", [])]}
            tracer().event("batch_failed", signature=signature[:16],
                           error=stats["error"],
                           attempts=len(stats["causes"]) or 1)
            outcome = STATUS_FAILED
        error = isinstance(outcome, BaseException)
        size, occupancy, backend, time_ms = 0, 0.0, self.backend, None
        if executed:
            stats = {"time_kind": run.stats.get("time_kind"),
                     "executed_on": run.stats.get("executed_on")}
            # A packed batch shares one run: each request reports its
            # share of the batch's slots and of the backend's time.
            size, occupancy, backend, time_ms = k, 1.0, run.backend, run.time_ms
            if group.batcher is not None:
                occupancy = group.batcher.occupancy(k)
                time_ms = None if time_ms is None else time_ms / k
        else:
            outputs = [{} for _ in batch]
        ends = [(p, v) for p, v in zip(batch, outputs, strict=True)
                if not p.future.done()]
        start = now if started is None else started
        results = [] if error else [RequestResult(
            values=v,
            latency_ms=(now - p.enqueued) * 1e3,
            queue_ms=(start - p.enqueued) * 1e3,
            batch_size=size,
            batch_occupancy=occupancy,
            cache_hit=hit,
            backend=backend,
            backend_time_ms=time_ms,
            signature=signature,
            stats={**stats, "trace": p.request.trace},
            status=outcome,
        ) for p, v in ends]
        m = self.metrics
        with self._lock:
            m.counter("serve.errors" if error else _COUNTERS[outcome]).inc(
                len(ends))
            if executed:
                sig = f"sig.{signature}."
                m.counter("serve.batches").inc()
                m.histogram("serve.dispatch_ms").observe(dispatch_ms)
                m.histogram("serve.occupancy").observe(occupancy)
                m.histogram(sig + "occupancy").observe(occupancy)
                m.counter(f"{sig}batch_size.{k}").inc()
                m.counter(f"{sig}ready.{reason}").inc()
                latency, queue, sig_latency, sig_queue = (
                    m.histogram(name) for name in (
                        "serve.latency_ms", "serve.queue_ms",
                        sig + "latency_ms", sig + "queue_ms"))
                for r in results:
                    latency.observe(r.latency_ms)
                    sig_latency.observe(r.latency_ms)
                    queue.observe(r.queue_ms)
                    sig_queue.observe(r.queue_ms)
                self._last_done = now
        for i, (p, _) in enumerate(ends):
            if error:
                p.future.set_exception(outcome)
            else:
                p.future.set_result(results[i])

    def snapshot(self) -> dict:
        """This server's metrics blob, never half of one batch's update."""
        with self._lock:
            return self.metrics.snapshot()

    def stats(self, merged: dict, groups) -> dict:
        """The outcome counts and distributions of ``FheServer.stats()``,
        from the ``merged`` fleet-wide metrics blob.

        Each submitted request that its client did not cancel is counted
        once: ``requests`` (served ok), ``expired``, ``failed``, ``shed``
        or ``errors``.  The distributions are merged across processes and
        hosts, so p50/p99 stay correct however the batches ran:
        ``dispatch_ms`` is the server-side wall time of
        ``executor.execute`` per batch, ``execute_ms`` the run time
        wherever the batch ran.  ``per_signature`` has a row for each of
        ``groups`` (``_Group``) that has run a batch: the same numbers,
        an exact batch-size histogram, ``batch_ms`` (the smoothed batch
        time the quiet rule halves), ``partner_share``, and ``ready``:
        the batches by the rule that cut them.
        """

        def summary(name: str) -> dict:
            state = merged.get(name)
            return summarize_state(state) if state is not None else dict(_EMPTY)

        def count(name: str) -> int:
            return merged.get(name, {}).get("value", 0)

        rows, slots = {}, 0
        for g in groups:
            sig = f"sig.{g.signature}."
            occupancy = summary(sig + "occupancy")
            if not occupancy["count"]:
                continue
            prefix = sig + "batch_size."
            sizes = dict(sorted((int(name[len(prefix):]), state["value"])
                                for name, state in merged.items()
                                if name.startswith(prefix)))
            slots += sum(k * n for k, n in sizes.items())
            latency = summary(sig + "latency_ms")
            rows[g.signature] = {
                "program": g.program.name,
                "requests": latency["count"],
                "batches": occupancy["count"],
                "capacity": g.capacity,
                "batchable": g.batcher is not None,
                "mean_occupancy": occupancy["mean"],
                "latency_ms": latency,
                "queue_ms": summary(sig + "queue_ms"),
                "batch_size_histogram": sizes,
                "batch_ms": g.batch_s * 1e3,
                "partner_share": g.partner_share,
                "ready": {r: count(f"{sig}ready.{r}") for r in READY_REASONS},
            }
        requests, batches = count("serve.requests"), count("serve.batches")
        first, last = self._first_submit, self._last_done
        span = last - first if first and last else 0.0
        return {
            "requests": requests,
            "batches": batches,
            "errors": count("serve.errors"),
            "expired": count("serve.expired"),
            "failed": count("serve.failed"),
            "shed": count("serve.shed"),
            "degradations": count("serve.degradations"),
            "requests_per_s": requests / span if span > 0 else 0.0,
            "mean_batch_size": slots / batches if batches else 0.0,
            "mean_occupancy": summary("serve.occupancy")["mean"],
            "latency_ms": summary("serve.latency_ms"),
            "queue_ms": summary("serve.queue_ms"),
            "dispatch_ms": summary("serve.dispatch_ms"),
            "execute_ms": summary("serve.execute_ms"),
            "per_signature": rows,
        }
