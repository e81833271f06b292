"""Serving runtime: compile-once registry, slot batching, and a job server.

The paper's argument is that FHE pays off when huge ciphertext vectors
amortize cost across many values; this package applies it across *users*:

- :mod:`repro.serve.registry` — :class:`ProgramRegistry` caches
  compiled programs, parameter sets, and keygenned contexts per
  ``(Program.signature(), params)``, so repeat traffic never re-compiles
  or re-keygens;
- :mod:`repro.serve.batcher` — :class:`SlotBatcher` packs k independent
  requests into one ciphertext's unused lanes and demultiplexes the
  outputs, k requests for one request's price;
- :mod:`repro.serve.executor` — the :class:`Executor` seam batches run
  through: :class:`ThreadExecutor` (in-process, one batch at a time) or
  :class:`ProcessExecutor` (:mod:`repro.net.remote`'s replica coordinator
  over forked worker processes, each holding its own context replica
  restored from the parent's serialized keys — true multi-core
  parallelism with no cross-request lock);
- :mod:`repro.serve.policy` — per-signature buckets and the pure batch
  forming policy: a free worker pulls the most urgent ready bucket (full,
  quiet for half its own batch time, ``max_wait_ms`` old, or near a
  deadline);
- :mod:`repro.serve.outcome` — :class:`RequestResult`, the status
  vocabulary, and the one function every request ends through, with the
  telemetry ``stats()`` reports;
- :mod:`repro.serve.server` — :class:`FheServer` composes them: a bounded,
  load-shedding queue, the worker pool, dispatch and degradation.

Ten-line tour::

    import repro

    program = ...            # any batchable DSL Program
    with repro.FheServer(max_batch=8, max_wait_ms=5.0) as server:
        futures = [server.submit(program, inputs={x.op_id: vec})
                   for vec in client_vectors]
        results = [f.result() for f in futures]
    # results[i].values, .latency_ms, .batch_occupancy, .cache_hit
"""

from repro.serve.batcher import (
    BatchUnsupported,
    Request,
    SlotBatcher,
    unbatchable_reason,
)
from repro.serve.executor import (
    BatchJob,
    Executor,
    ThreadExecutor,
    resolve_executor,
)
from repro.serve.registry import CompiledEntry, ContextEntry, ProgramRegistry
from repro.serve.resilience import (
    CircuitBreaker,
    ExecutorUnavailable,
    HostFailure,
    LoadShedder,
    ResilienceError,
    RetriesExhausted,
    RetryPolicy,
)
from repro.serve.outcome import (
    STATUS_EXPIRED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SHED,
    RequestResult,
)
from repro.serve.server import FheServer

# Last: repro.net builds on the serve modules above.
from repro.net.remote import ProcessExecutor  # noqa: E402

__all__ = [
    "BatchJob",
    "BatchUnsupported",
    "CircuitBreaker",
    "CompiledEntry",
    "ContextEntry",
    "Executor",
    "ExecutorUnavailable",
    "FheServer",
    "HostFailure",
    "LoadShedder",
    "ProcessExecutor",
    "ProgramRegistry",
    "Request",
    "RequestResult",
    "ResilienceError",
    "RetriesExhausted",
    "RetryPolicy",
    "STATUS_EXPIRED",
    "STATUS_FAILED",
    "STATUS_OK",
    "STATUS_SHED",
    "SlotBatcher",
    "ThreadExecutor",
    "resolve_executor",
    "unbatchable_reason",
]
