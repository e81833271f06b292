"""Executor layer: thread/process batch execution and context replication.

The process-pool invariants:

- a ``ProcessExecutor``-served batch is bit-identical (BGV) /
  tolerance-equal (CKKS) to thread-served and solo runs;
- worker replicas are restored from the parent's serialized keys — same
  secret in every worker process, no silent per-worker keygen;
- same-signature traffic shards across replicas;
- ``repro.run(..., seed=)`` determinism holds across process boundaries
  (the seed rides the request, not the process);
- worker-side failures surface on the submitting future, not in a
  worker process's stderr;
- a killed replica loses no batch — process pools and worker hosts share
  one coordinator, so the failure contract is tested once over both.
"""

import threading
import time
from contextlib import ExitStack, nullcontext

import numpy as np
import pytest

import repro
from repro.backends import FunctionalBackend
from repro.dsl.program import Program
from repro.serve import (
    BatchJob,
    FheServer,
    ProcessExecutor,
    ProgramRegistry,
    Request,
    SlotBatcher,
    ThreadExecutor,
    resolve_executor,
)
from repro.net import LocalCluster
from repro.serve.resilience import ExecutorUnavailable, RetriesExhausted

N = 256
WIDTH = 8


def linear_bgv(n=N, level=3):
    p = Program(n=n, scheme="bgv", name="linear")
    x = p.input(level, name="x")
    w = p.input_plain(level, name="w")
    b = p.input_plain(level, name="b")
    p.output(p.add_plain(p.mul_plain(x, w), b))
    return p


def poly_ckks(n=N, level=4):
    p = Program(n=n, scheme="ckks", name="poly")
    x, y = p.input(level), p.input(level)
    p.output(p.add(p.mul(x, y), x))
    return p


def rotate_bgv(n=N, level=2):
    p = Program(n=n, scheme="bgv", name="rotator")
    x = p.input(level, name="x")
    p.output(p.rotate(x, 1))
    return p


def bgv_requests(program, count, *, width=WIDTH, seed=0, t=256):
    rng = np.random.default_rng(seed)
    x, w, b = (op.op_id for op in program.ops[:3])
    shared_w = rng.integers(0, t, width)
    return [
        Request(inputs={x: rng.integers(0, t, width)},
                plains={w: shared_w, b: rng.integers(0, t, width)})
        for _ in range(count)
    ]


class _OverlapRecordingBackend(FunctionalBackend):
    """Counts concurrent ``run`` calls.  The first caller lingers inside
    ``run`` until a second one overlaps it (or 0.2 s pass), so an
    executor that lets two batches in at once is caught every time."""

    def __init__(self):
        super().__init__(validate=False)
        self._count_lock = threading.Lock()
        self.calls = self.active = self.max_active = 0
        self.inside = threading.Event()
        self._overlapped = threading.Event()

    def run(self, *args, **kwargs):
        with self._count_lock:
            self.calls += 1
            self.active += 1
            self.max_active = max(self.max_active, self.active)
            first = self.calls == 1
            if self.active > 1:
                self._overlapped.set()
        self.inside.set()
        try:
            if first:
                self._overlapped.wait(0.2)
            return super().run(*args, **kwargs)
        finally:
            with self._count_lock:
                self.active -= 1


def assert_solo_identical(program, requests, outputs, t=256):
    """Each request's batch-served outputs equal its own solo run mod t."""
    assert len(outputs) == len(requests)
    for request, served in zip(requests, outputs):
        solo = repro.run(
            program, backend=FunctionalBackend(validate=False),
            inputs=request.inputs, plains=request.plains, seed=1,
        )
        for out_id, want in solo.outputs.items():
            got = served[out_id]
            assert np.array_equal(got % t,
                                  np.asarray(want)[: got.shape[0]] % t)


@pytest.fixture(scope="module")
def pool():
    """One 2-process pool for the whole module (forked before servers)."""
    with ProcessExecutor(2) as executor:
        yield executor


class TestThreadExecutor:
    def test_matches_direct_batcher_run(self):
        program = linear_bgv()
        registry = ProgramRegistry()
        entry, _ = registry.context_for(program, seed=5)
        batcher = SlotBatcher(program, width=WIDTH)
        requests = bgv_requests(program, 3)
        backend = FunctionalBackend(validate=False)
        job = BatchJob(program=program, signature=program.signature(),
                       requests=requests, batcher=batcher, backend=backend,
                       context_entry=entry)
        outputs, result = ThreadExecutor().execute(job)
        assert len(outputs) == 3 and result.backend == "functional"
        # Same entry again: decrypts identically (context reuse is sound).
        outputs2, _ = ThreadExecutor().execute(job)
        for a, b in zip(outputs, outputs2):
            for out_id in a:
                assert np.array_equal(a[out_id], b[out_id])

    def test_batches_on_different_contexts_never_overlap(self):
        """One execution gate per process: two threads driving two
        executors with jobs on *different* contexts still run one batch at
        a time, and each gets the solo result."""
        program = linear_bgv()
        registry = ProgramRegistry()
        backend = _OverlapRecordingBackend()
        jobs = []
        for seed in (5, 6):
            entry, _ = registry.context_for(program, seed=seed)
            jobs.append(BatchJob(
                program=program, signature=program.signature(),
                requests=bgv_requests(program, 2, seed=seed),
                batcher=SlotBatcher(program, width=WIDTH), backend=backend,
                context_entry=entry,
            ))
        assert jobs[0].context_entry.context is not jobs[1].context_entry.context
        results = [None, None]

        def drive(i):
            results[i] = ThreadExecutor().execute(jobs[i])

        threads = [threading.Thread(target=drive, args=(i,)) for i in (0, 1)]
        threads[0].start()
        assert backend.inside.wait(30)   # the second call starts mid-batch
        threads[1].start()
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive()
        assert backend.calls == 2 and backend.max_active == 1
        for job, (outputs, _) in zip(jobs, results):
            assert_solo_identical(program, job.requests, outputs)

    def test_resolve_executor(self):
        assert isinstance(resolve_executor("thread"), ThreadExecutor)
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor("gpu")
        with pytest.raises(TypeError, match="not an executor"):
            resolve_executor(42)


class TestProcessExecutor:
    def test_replicas_share_parent_keys(self, pool):
        """The cross-process convergence rule: one keygen (parent), every
        worker restored from the same serialized secret, distinct pids."""
        import os

        registry = ProgramRegistry()
        entry, _ = registry.context_for(linear_bgv(), seed=5)
        probes = pool.probe(entry)
        assert len(probes) == 2
        assert len({p["secret_sha"] for p in probes}) == 1
        assert len({p["pid"] for p in probes}) == 2
        assert os.getpid() not in {p["pid"] for p in probes}
        assert all(tuple(p["moduli"]) == entry.params.basis.moduli
                   for p in probes)

    def test_replicas_reseeded_apart(self, pool):
        """Replicas share the secret but never the randomness stream:
        identical (a, e) draws across replicas would leak plaintext
        differences, so replication reseeds each worker's RNG."""
        registry = ProgramRegistry()
        entry, _ = registry.context_for(linear_bgv(), seed=5)
        probes = pool.probe(entry)
        fingerprints = [tuple(p["rng_fingerprint"]) for p in probes]
        assert len(set(fingerprints)) == len(fingerprints)
        # Without the reseed, every replica would continue the parent's
        # serialized stream and produce exactly this draw.
        import pickle

        restored = pickle.loads(pickle.dumps(entry.context))
        parent_stream = tuple(restored.rng.integers(0, 2**63, 4).tolist())
        assert all(f != parent_stream for f in fingerprints)

    def test_replica_forked_while_gate_held_executes(self):
        """A replica forked while a parent thread holds the execution gate
        (the fallback ThreadExecutor runs exactly while the monitor
        re-forks) starts with the gate free: its first batch completes
        instead of hanging until the watchdog."""
        from repro.serve import executor as executor_module

        program = linear_bgv()
        entry, _ = ProgramRegistry().context_for(program, seed=5)
        requests = bgv_requests(program, 2)
        held, release = threading.Event(), threading.Event()

        def hold():
            with executor_module._gate:
                held.set()
                release.wait(60)

        holder = threading.Thread(target=hold, daemon=True)
        holder.start()
        assert held.wait(5)
        try:
            with ProcessExecutor(1) as fresh:
                job = BatchJob(
                    program=program, signature=program.signature(),
                    requests=requests,
                    batcher=SlotBatcher(program, width=WIDTH),
                    backend=FunctionalBackend(validate=False),
                    context_entry=entry,
                    deadline=time.perf_counter() + 10.0,
                )
                outputs, result = fresh.execute(job)
        finally:
            release.set()
            holder.join(5)
        assert not holder.is_alive()
        assert result.stats["executed_on"]["executor"] == "process"
        assert_solo_identical(program, requests, outputs)

    def test_ctx_keys_pin_entries_against_id_reuse(self):
        """The replication map holds strong references: a dropped registry
        entry's id can never be recycled into a stale context key."""
        import gc

        with ProcessExecutor(1) as fresh:
            registry = ProgramRegistry()
            entry, _ = registry.context_for(linear_bgv(), seed=5)
            first_key = fresh._key("context", entry)
            entry_id = id(entry)
            del entry, registry
            gc.collect()
            # A new entry allocated now may land at the same address; the
            # executor still resolves the old id to the pinned old entry.
            registry2 = ProgramRegistry()
            entry2, _ = registry2.context_for(poly_ckks(), seed=9)
            key2 = fresh._key("context", entry2)
            assert key2 != first_key
            assert fresh._pinned[("context", entry_id)][0] == first_key

    def test_bgv_server_matches_solo_runs(self, pool):
        program = linear_bgv()
        requests = bgv_requests(program, 10)
        with FheServer(max_batch=4, max_wait_ms=5.0, workers=2,
                       executor=pool) as server:
            futures = [server.submit(program, inputs=r.inputs,
                                     plains=r.plains) for r in requests]
            results = [f.result(timeout=120) for f in futures]
        assert_solo_identical(program, requests, [r.values for r in results])

    def test_ckks_server_within_tolerance(self, pool):
        program = poly_ckks()
        rng = np.random.default_rng(2)
        x, y = program.ops[0].op_id, program.ops[1].op_id
        requests = [Request(inputs={x: rng.uniform(-1, 1, WIDTH),
                                    y: rng.uniform(-1, 1, WIDTH)})
                    for _ in range(8)]
        with FheServer(max_batch=4, max_wait_ms=5.0, workers=2,
                       executor=pool) as server:
            futures = [server.submit(program, inputs=r.inputs)
                       for r in requests]
            results = [f.result(timeout=120) for f in futures]
        for request, result in zip(requests, results):
            want = (np.asarray(request.inputs[x]) * request.inputs[y]
                    + request.inputs[x])
            got = next(iter(result.values.values()))[:WIDTH]
            assert np.max(np.abs(got - want)) < 2e-2

    def test_traffic_shards_across_replicas(self):
        """Same-signature batches spread over both worker processes."""
        program = linear_bgv()
        registry = ProgramRegistry()
        entry, _ = registry.context_for(program, seed=5)
        batcher = SlotBatcher(program, width=WIDTH)
        backend = FunctionalBackend(validate=False)
        job = BatchJob(program=program, signature=program.signature(),
                       requests=bgv_requests(program, 2), batcher=batcher,
                       backend=backend, context_entry=entry)
        with ProcessExecutor(2) as fresh:
            for _ in range(4):
                fresh.execute(job)
            stats = fresh.stats()
        # Least-in-flight with sequential calls round-robins evenly, and
        # the context was replicated once into each worker.
        assert stats["dispatched_per_replica"] == [2, 2]
        assert stats["replicated_contexts"] == [1, 1]

    def test_singly_served_unbatchable_program(self, pool):
        """Rotation programs run request-at-a-time inside the worker."""
        program = rotate_bgv()
        x = program.ops[0].op_id
        data = np.arange(WIDTH) % 256
        with FheServer(max_wait_ms=2.0, workers=1, executor=pool) as server:
            result = server.request(program, inputs={x: data})
        solo = repro.run(program, backend=FunctionalBackend(validate=False),
                         inputs={x: data}, seed=1)
        for out_id, want in solo.outputs.items():
            got = result.values[out_id]
            assert np.array_equal(got, np.asarray(want)[: got.shape[0]])

    def test_seed_travels_with_request_across_processes(self, pool):
        """Seeded generated-input runs are deterministic no matter which
        process executes them (unbatchable program => singly path)."""
        program = rotate_bgv()
        with FheServer(max_wait_ms=2.0, workers=1, executor=pool) as server:
            via_process = server.request(program, seed=42)
        with FheServer(max_wait_ms=2.0, workers=1) as server:
            via_thread = server.request(program, seed=42)
        baseline = repro.run(program,
                             backend=FunctionalBackend(validate=False),
                             seed=42)
        for out_id, want in baseline.outputs.items():
            want = np.asarray(want)
            got_p = via_process.values[out_id]
            got_t = via_thread.values[out_id]
            assert np.array_equal(got_p, want[: got_p.shape[0]])
            assert np.array_equal(got_t, want[: got_t.shape[0]])

    def test_worker_error_reaches_future(self, pool):
        program = poly_ckks()
        backend = FunctionalBackend("ckks", validate=True, tolerance=0.0)
        rng = np.random.default_rng(4)
        x, y = program.ops[0].op_id, program.ops[1].op_id
        inputs = {x: rng.uniform(-1, 1, WIDTH), y: rng.uniform(-1, 1, WIDTH)}
        with FheServer(backend=backend, max_batch=1, max_wait_ms=5.0,
                       executor=pool) as server:
            future = server.submit(program, inputs=inputs)
            with pytest.raises(RuntimeError, match="exceeds tolerance"):
                future.result(timeout=120)

    def test_modeled_backend_falls_back_in_process(self, pool):
        """Analytic backends have no per-process state: inner thread path."""
        program = poly_ckks()
        with FheServer(backend="cpu", max_batch=2, max_wait_ms=5.0,
                       executor=pool) as server:
            result = server.request(program, width=WIDTH)
        assert result.backend == "cpu" and result.values == {}
        assert pool.stats()["fallback"]["dispatched"] >= 1

    def test_release_unpins_and_evicts_replicas(self):
        """release() drops the parent pin and worker-side replicas; later
        traffic for the entry simply replicates again."""
        program = linear_bgv()
        registry = ProgramRegistry()
        entry, _ = registry.context_for(program, seed=5)
        batcher = SlotBatcher(program, width=WIDTH)
        job = BatchJob(program=program, signature=program.signature(),
                       requests=bgv_requests(program, 2), batcher=batcher,
                       backend=FunctionalBackend(validate=False),
                       context_entry=entry)
        with ProcessExecutor(1) as fresh:
            outputs_before, _ = fresh.execute(job)
            assert fresh.stats()["replicated_contexts"] == [1]
            fresh.release(entry)
            assert ("context", id(entry)) not in fresh._pinned
            assert fresh.stats()["replicated_contexts"] == [0]
            fresh.release(entry)   # double release is a no-op
            outputs_after, _ = fresh.execute(job)   # re-replicates
            assert fresh.stats()["replicated_contexts"] == [1]
        for a, b in zip(outputs_before, outputs_after):
            for out_id in a:
                assert np.array_equal(a[out_id], b[out_id])

    def test_server_process_string_sizes_pool_to_workers(self):
        """FheServer(executor=\"process\", workers=N) gets N replicas."""
        program = poly_ckks()
        request = Request(inputs={
            program.ops[0].op_id: np.linspace(-1, 1, WIDTH),
            program.ops[1].op_id: np.linspace(-1, 1, WIDTH),
        })
        with FheServer(executor="process", workers=3,
                       max_wait_ms=2.0) as server:
            assert server.executor.processes == 3
            result = server.request(program, inputs=request.inputs)
            assert result.values

    @pytest.mark.parametrize("kind,n", [("process", 2), ("remote", 2),
                                        ("process", 1)])
    def test_dead_worker_fails_batch_then_pool_heals(self, kind, n):
        """Kill a replica under traffic: with a survivor, the batch that
        hits the dead replica is retried there and returns solo-identical
        outputs; either way the killed replica comes back (re-forked /
        redialed) with an empty replication set and re-replicates on
        first use."""
        program = linear_bgv()
        registry = ProgramRegistry()
        entry, _ = registry.context_for(program, seed=5)
        batcher = SlotBatcher(program, width=WIDTH)
        job = BatchJob(program=program, signature=program.signature(),
                       requests=bgv_requests(program, 2), batcher=batcher,
                       backend=FunctionalBackend(validate=False),
                       context_entry=entry)
        solo, _ = ThreadExecutor().execute(job)

        def same_as_solo(outputs):
            return all(np.array_equal(a[out_id], b[out_id])
                       for a, b in zip(outputs, solo) for out_id in b)

        with ExitStack() as stack:
            if kind == "process":
                pool = stack.enter_context(ProcessExecutor(n))

                def kill(i):
                    pool._procs[i].kill()
                    pool._procs[i].join(timeout=5)
                revive = lambda i: None   # noqa: E731 — the monitor re-forks
            else:
                cluster = stack.enter_context(LocalCluster(n))
                pool = stack.enter_context(cluster.executor(heartbeat_s=0.1))
                kill, revive = cluster.kill, cluster.restart
            old_pids = [p["pid"] for p in pool.probe(entry)]
            outputs, result = pool.execute(job)
            assert same_as_solo(outputs)
            assert pool.stats()["replicated_contexts"] == [1] * n
            # The next batch goes to the stable primary (hosts: ring rank)
            # or to the replica with fewer dispatches (local pool).
            served = result.stats["executed_on"]["replica"]
            victim = served if kind == "remote" else (served + 1) % n
            # Holding a host's heartbeat lock keeps the monitor from
            # noticing the death before the batch does.
            with (pool._hosts[victim].hb_lock if kind == "remote"
                  else nullcontext()):
                kill(victim)
                try:
                    outputs, _ = pool.execute(job)
                    assert same_as_solo(outputs)
                except (RetriesExhausted, ExecutorUnavailable):
                    assert n == 1   # no survivor to retry on
            if n > 1:
                assert pool.stats()["resilience"]["retries"] >= 1
            revive(victim)
            deadline = time.monotonic() + 30
            while not pool.stats()["hosts"][victim]["alive"]:
                assert time.monotonic() < deadline, "replica never came back"
                time.sleep(0.02)
            stats = pool.stats()
            assert stats["hosts"][victim]["reconnects"] >= 1
            if n > 1:   # (a lone replica already served the retried batch)
                assert stats["replicated_contexts"][victim] == 0
            probes = pool.probe(entry)
            assert len(probes) == n
            assert len({p["secret_sha"] for p in probes}) == 1
            assert probes[victim]["pid"] != old_pids[victim]
            assert pool.stats()["replicated_contexts"] == [1] * n
            outputs, _ = pool.execute(job)
            assert same_as_solo(outputs)

    def test_closed_executor_rejects_work(self):
        executor = ProcessExecutor(1)
        executor.close()
        entry_job = BatchJob(program=linear_bgv(), signature="sig",
                             requests=[], batcher=None,
                             backend=FunctionalBackend(validate=False),
                             context_entry=object())
        with pytest.raises(RuntimeError, match="closed"):
            executor.execute(entry_job)
