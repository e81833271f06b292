"""Executor layer: where flushed batches actually run.

F1 gets its throughput from many independent compute clusters operating on
decoupled ciphertext state; the software serving analogue is a pool of
*worker replicas*, each holding its own copy of the per-signature FHE
context.  This module names that seam: :class:`FheServer` hands every
flushed batch to an :class:`Executor`.  One implementation lives here:

- :class:`ThreadExecutor` — in-process execution, one batch at a time
  per process behind a single execution gate.

The replica pools live in :mod:`repro.net.remote` and share one
coordinator and one wire protocol (:mod:`repro.net.worker` is the replica
side of both):

- :class:`~repro.net.remote.ProcessExecutor` — N forked worker processes
  on one box, each serving frames on a ``socketpair``; batches shard
  across replicas with **no cross-request lock**, so same-signature
  traffic runs in true parallel on multi-core hosts.
- :class:`~repro.net.remote.RemoteExecutor` — the same pool stretched
  over TCP: worker hosts sharded by consistent hash of
  ``(signature, params)``.

Inside a replica, batches run through this module's
:class:`ThreadExecutor`: one replica is one process running one batch at
a time.  ``Request.seed`` travels inside the job, so
``repro.run(..., seed=)`` determinism holds across process boundaries:
the seed rides with the request, not with whichever process runs it.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.backends import (
    F1Backend,
    FunctionalBackend,
    ReferenceBackend,
    RunResult,
)
from repro.dsl.program import Program
from repro.obs import profile as _obs_profile
from repro.obs.metrics import global_metrics
from repro.obs.trace import tracer
from repro.serve.batcher import Request, SlotBatcher, solo_layout
from repro.serve.registry import CompiledEntry, ContextEntry


@dataclass
class BatchJob:
    """One flushed batch, with every artifact its execution needs.

    The server performs the registry lookups (keygen/compile paid once, in
    the parent) and attaches the entries here; executors decide where and
    how the batch runs.
    """

    program: Program
    signature: str
    requests: list[Request]
    batcher: SlotBatcher | None
    backend: object
    context_entry: ContextEntry | None = None
    compiled_entry: CompiledEntry | None = None
    #: earliest absolute request deadline in the batch (perf_counter
    #: seconds), or None.  Executors with a retry path derive their
    #: per-batch execute watchdog and backoff budget from it.
    deadline: float | None = None


@runtime_checkable
class Executor(Protocol):
    """Where a :class:`BatchJob` runs: in-process threads or a replica pool."""

    name: str

    def execute(self, job: BatchJob) -> tuple[list[dict], RunResult]:
        """Run one batch; returns (per-request outputs, the RunResult)."""
        ...

    def stats(self) -> dict: ...

    def close(self) -> None: ...


def executes_values(backend) -> bool:
    """Whether the backend encrypts/evaluates request values (as opposed to
    the analytic models, which only need the op graph)."""
    return isinstance(backend, (FunctionalBackend, ReferenceBackend))


def pick_least_inflight(candidates, *, tiebreak=None):
    """The shared routing rule for replica/host pools: least in-flight
    work first, ties broken by ``tiebreak`` (fewest total dispatches by
    default, so an idle pool round-robins instead of pinning one member).

    Used by the :mod:`repro.net.remote` coordinator: the default for a
    :class:`~repro.net.remote.ProcessExecutor`'s local replicas, ring
    order along a :class:`~repro.net.remote.RemoteExecutor`'s
    consistent-hash walk (so an idle cluster keeps one signature's
    traffic on its stable primary host).
    """
    if tiebreak is None:
        tiebreak = lambda c: c.dispatched  # noqa: E731 — tiny default
    return min(candidates, key=lambda c: (c.inflight, tiebreak(c)))


def _run_singly(program: Program, requests: list[Request], backend,
                **run_kw) -> tuple[list[dict], RunResult]:
    """Fallback for unbatchable programs: one backend run per request.

    Each request's own ``seed`` is threaded through, so seeded runs stay
    deterministic wherever (and in whichever process) they execute.  A
    request that arrived below the program's input level gets a
    one-request :func:`~repro.serve.batcher.solo_layout`, so its whole
    run executes that many limbs lower — the same lowering a real batch
    would apply.
    """
    outputs = []
    result: RunResult | None = None
    tr = tracer()
    for req in requests:
        kw = run_kw
        if req.level is not None:
            kw = {**run_kw, "batch_layout": solo_layout(program, req.level)}
        trace = getattr(req, "trace", None)
        with tr.span("execute", traces=[trace] if trace else [], solo=True):
            result = backend.run(
                program, inputs=req.inputs or None, plains=req.plains or None,
                seed=req.seed, **kw,
            )
        outputs.append(result.outputs)
    return outputs, result


#: The process-wide execution gate: one batch executes at a time per
#: process, whichever :class:`ThreadExecutor` or context it belongs to.
#: A cached :class:`~repro.fhe.context.FheContext` is not thread-safe (one
#: RNG, one hint cache), and two threads interleaving batches under the
#: GIL are slower than one thread running both (1.7-3.4x at N=512, never
#: faster up to N=16384), so replicas are the parallelism.
_gate = threading.Lock()


def _reset_gate() -> None:
    """A replica forked while another thread held the gate starts with it
    free (the holder does not exist in the child)."""
    global _gate
    _gate = threading.Lock()


os.register_at_fork(after_in_child=_reset_gate)


class ThreadExecutor:
    """Runs batches on the calling worker thread, one at a time per
    process: every executor holds the module's execution gate around a
    batch, so shared contexts are safe and worker threads never convoy on
    the GIL.  Parallelism is :class:`~repro.net.remote.ProcessExecutor`'s
    job.
    """

    name = "thread"

    def __init__(self):
        self._guard = threading.Lock()
        self._dispatched = 0

    def execute(self, job: BatchJob) -> tuple[list[dict], RunResult]:
        with self._guard:
            self._dispatched += 1
        # Attribute kernel timers to this signature and record the
        # executor-tier execute time into the process-global registry —
        # in a pool replica or worker host this is the local registry
        # whose snapshot ships upstream, so fleet-wide execute_ms merges.
        t0 = time.perf_counter()
        with _gate, _obs_profile.attributed(job.signature):
            outputs, result = self._dispatch(job)
        global_metrics().histogram("serve.execute_ms").observe(
            (time.perf_counter() - t0) * 1e3
        )
        if isinstance(result.stats, dict):
            result.stats.setdefault(
                "executed_on", {"executor": self.name, "pid": os.getpid()}
            )
        return outputs, result

    def _dispatch(self, job: BatchJob) -> tuple[list[dict], RunResult]:
        backend = job.backend
        if isinstance(backend, FunctionalBackend) and job.context_entry is not None:
            context = job.context_entry.context
            if job.batcher is not None:
                return job.batcher.run(job.requests, backend, context=context)
            return _run_singly(job.program, job.requests, backend,
                               context=context)
        if isinstance(backend, F1Backend) and job.compiled_entry is not None:
            result = backend.run(job.program, compiled=job.compiled_entry.compiled)
            outputs = (job.batcher.unpack(result.outputs, len(job.requests))
                       if job.batcher is not None
                       else [{} for _ in job.requests])
            return outputs, result
        if not executes_values(backend):
            # Analytic models (cpu, heax): one run models the whole batch;
            # there are no values to pack and no outputs to demux.
            result = backend.run(job.program)
            return [{} for _ in job.requests], result
        # Reference backend: packs and executes values, no cacheable setup.
        if job.batcher is not None:
            return job.batcher.run(job.requests, backend)
        return _run_singly(job.program, job.requests, backend)

    def stats(self) -> dict:
        with self._guard:
            return {"executor": self.name, "dispatched": self._dispatched}

    def metrics_blobs(self) -> list[dict]:
        """Remote metrics snapshots to merge (none: we run in-process,
        so our timings are already in the caller's global registry)."""
        return []

    def close(self) -> None:
        pass


def resolve_executor(executor, pool_size: int = 2) -> Executor:
    """Accept an Executor instance or a name: ``"thread"``, ``"process"``,
    or ``"remote"``.

    ``"process"`` forks ``pool_size`` worker-process replicas.
    ``"remote"`` spawns a local ``pool_size``-host worker cluster
    (:func:`repro.net.cluster.remote_executor`) and fronts it with a
    :class:`~repro.net.remote.RemoteExecutor` that owns it — the sharded
    network tier, working out of the box; pass a RemoteExecutor instance
    to front real remote hosts instead.
    """
    if isinstance(executor, str):
        if executor == "thread":
            return ThreadExecutor()
        # The replica pools build on this module, so they load lazily.
        if executor == "process":
            from repro.net.remote import ProcessExecutor

            return ProcessExecutor(pool_size)
        if executor == "remote":
            from repro.net.cluster import remote_executor

            return remote_executor(pool_size)
        raise ValueError(
            f"unknown executor {executor!r}; choose 'thread', 'process', "
            f"'remote', or pass an Executor instance"
        )
    if isinstance(executor, Executor):
        return executor
    raise TypeError(f"not an executor: {executor!r}")
