"""Serving runtime: registry, slot batching, job server, run validation.

The serving-layer invariants:

- ``Program.signature()`` keys structural identity (names don't matter,
  wiring does);
- registry-cached contexts/compiled programs produce values bit-identical
  to fresh compile/keygen runs;
- pack -> run -> unpack equals k sequential runs (bit-identical BGV,
  within tolerance CKKS), and unsound packings are rejected;
- the server survives concurrent mixed-signature traffic and reports
  truthful telemetry;
- malformed ``repro.run`` requests fail fast with clear errors.
"""

import json
import math
import queue
import random
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

import repro
from repro.backends import FunctionalBackend, RunResult, validate_run_args
from repro.dsl.program import Program
from repro.obs.trace import tracer
from repro.serve import (
    STATUS_EXPIRED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SHED,
    BatchUnsupported,
    FheServer,
    ProgramRegistry,
    Request,
    SlotBatcher,
    unbatchable_reason,
)
from repro.serve.batcher import solo_layout
from repro.serve.policy import _Group, _Pending, pick_ready
from repro.serve.resilience import LoadShedder, RetriesExhausted

N = 256
WIDTH = 8
#: "now" for the scheduler-policy tests: the policy is pure in the time
#: it is handed, so they run on synthetic instants, no clock and no sleep
T0 = 1000.0
MS = 1e-3


def linear_bgv(n=N, name="linear", level=3):
    p = Program(n=n, scheme="bgv", name=name)
    x = p.input(level, name="x")
    w = p.input_plain(level, name="w")
    b = p.input_plain(level, name="b")
    p.output(p.add_plain(p.mul_plain(x, w), b))
    return p


def poly_ckks(n=N, name="poly", level=4):
    p = Program(n=n, scheme="ckks", name=name)
    x, y = p.input(level), p.input(level)
    p.output(p.add(p.mul(x, y), x))
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


def ckks_requests(program, count, *, width=WIDTH, seed=0):
    rng = np.random.default_rng(seed)
    x, y = program.ops[0].op_id, program.ops[1].op_id
    return [
        Request(inputs={x: rng.uniform(-1, 1, width),
                        y: rng.uniform(-1, 1, width)})
        for _ in range(count)
    ]


class TestSignature:
    def test_names_do_not_matter(self):
        a, b = linear_bgv(name="a"), linear_bgv(name="b")
        assert a.signature() == b.signature()

    def test_structure_matters(self):
        base = linear_bgv()
        assert base.signature() != poly_ckks().signature()
        assert base.signature() != linear_bgv(n=2 * N).signature()
        assert base.signature() != linear_bgv(level=4).signature()
        extra = linear_bgv()
        extra.output(extra.input(3))
        assert base.signature() != extra.signature()

    def test_rotation_amount_matters(self):
        def rot(steps):
            p = Program(n=N, scheme="bgv")
            p.output(p.rotate(p.input(2), steps))
            return p.signature()

        assert rot(1) != rot(2)

    def test_scheme_matters(self):
        def prog(scheme):
            p = Program(n=N, scheme=scheme)
            p.output(p.add(p.input(2), p.input(2)))
            return p.signature()

        assert prog("bgv") != prog("ckks")

    def test_memoised_until_an_op_is_appended(self, monkeypatch):
        """``submit`` asks for the signature per request: the op list is
        hashed once per length, and appending an op re-keys the program."""
        import hashlib
        import types

        from repro.dsl import program as program_module

        hashes = []

        def counting_sha256():
            hashes.append(1)
            return hashlib.sha256()

        monkeypatch.setattr(program_module, "hashlib",
                            types.SimpleNamespace(sha256=counting_sha256))
        program = linear_bgv()
        first = program.signature()
        assert program.signature() is first and len(hashes) == 1
        assert first == linear_bgv().signature()
        program.output(program.input(3))
        assert program.signature() != first and len(hashes) == 3


class TestRegistry:
    def test_context_cache_hit_bit_identity(self):
        """Registry-cached keys decrypt the same values as fresh keygen."""
        registry = ProgramRegistry()
        program = linear_bgv()
        request = bgv_requests(program, 1)[0]
        entry1, hit1 = registry.context_for(program, seed=5)
        cold = repro.FunctionalBackend(validate=True).run(
            program, inputs=request.inputs, plains=request.plains,
            context=entry1.context,
        )
        # Same structure, different Program object: still one cache entry.
        entry2, hit2 = registry.context_for(linear_bgv(name="rebuilt"), seed=5)
        assert entry2 is entry1 and not hit1 and hit2
        warm = repro.FunctionalBackend(validate=True).run(
            program, inputs=request.inputs, plains=request.plains,
            context=entry2.context,
        )
        fresh = repro.run(program, backend=repro.FunctionalBackend(seed=5),
                          inputs=request.inputs, plains=request.plains)
        for key in fresh.outputs:
            assert np.array_equal(cold.outputs[key], fresh.outputs[key])
            assert np.array_equal(warm.outputs[key], fresh.outputs[key])

    def test_compiled_cache_hit_identity(self):
        registry = ProgramRegistry()
        program = poly_ckks()
        entry1, hit1 = registry.compiled_for(program)
        entry2, hit2 = registry.compiled_for(poly_ckks(name="again"))
        assert entry2 is entry1 and not hit1 and hit2
        fresh = repro.run(program, backend="f1")
        assert entry1.compiled.time_ms == fresh.time_ms
        assert entry1.compiled.makespan == fresh.stats["compiled"].makespan
        reused = repro.F1Backend().run(program, compiled=entry1.compiled)
        assert reused.time_ms == fresh.time_ms
        assert reused.stats["compile_reused"]

    def test_distinct_params_distinct_entries(self):
        registry = ProgramRegistry()
        program = linear_bgv()
        entry1, _ = registry.context_for(program, seed=0)
        entry2, _ = registry.context_for(program, seed=1)
        assert entry1 is not entry2
        assert registry.stats()["contexts"] == 2

    def test_stats_hit_rate(self):
        registry = ProgramRegistry()
        program = linear_bgv()
        registry.context_for(program)
        registry.context_for(program)
        registry.context_for(program)
        stats = registry.stats()
        assert stats["hits"] == 2 and stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(2 / 3)

    def test_compiled_check_upgraded_on_demand(self):
        """A check=False artifact is checked (not re-compiled) when a
        later caller requires check=True."""
        registry = ProgramRegistry()
        program = poly_ckks()
        entry1, _ = registry.compiled_for(program, check=False)
        assert not entry1.checked
        entry2, hit = registry.compiled_for(program, check=True)
        assert hit and entry2 is entry1 and entry1.checked

    def test_explicit_params_override_and_key(self):
        params = repro.FheParams.build(n=N, levels=5, prime_bits=28,
                                       plaintext_modulus=256)
        registry = ProgramRegistry()
        program = linear_bgv()
        derived, _ = registry.context_for(program)
        explicit, hit = registry.context_for(program, params=params)
        assert not hit and explicit is not derived
        assert explicit.params is params
        again, hit = registry.context_for(program, params=params)
        assert hit and again is explicit

    def test_concurrent_cold_start_builds_once(self):
        registry = ProgramRegistry()
        program = poly_ckks()
        entries = []

        def grab():
            entries.append(registry.context_for(program)[0])

        threads = [threading.Thread(target=grab) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(e is entries[0] for e in entries)
        assert registry.stats()["misses"] == 1


class TestSlotBatcher:
    def test_bgv_round_trip_matches_sequential(self):
        program = linear_bgv()
        batcher = SlotBatcher(program, width=WIDTH)
        requests = bgv_requests(program, 5)
        outs, _ = batcher.run(requests, repro.FunctionalBackend("bgv"), seed=3)
        for j, request in enumerate(requests):
            solo = repro.run(
                program, backend=repro.FunctionalBackend("bgv"),
                inputs=request.inputs, plains=request.plains, seed=11,
            )
            for out_id, solo_vec in solo.outputs.items():
                assert np.array_equal(
                    outs[j][out_id] % 256,
                    np.asarray(solo_vec)[: batcher.stride] % 256,
                ), f"request {j} not bit-identical"

    def test_ckks_round_trip_matches_sequential(self):
        program = poly_ckks()
        batcher = SlotBatcher(program, width=WIDTH)
        requests = ckks_requests(program, 6)
        outs, _ = batcher.run(requests, repro.FunctionalBackend("ckks"), seed=3)
        for j, request in enumerate(requests):
            solo = repro.run(
                program, backend=repro.FunctionalBackend("ckks"),
                inputs=request.inputs, plains=request.plains, seed=11,
            )
            for out_id, solo_vec in solo.outputs.items():
                err = np.max(np.abs(
                    outs[j][out_id][:WIDTH] - np.asarray(solo_vec)[:WIDTH]
                ))
                assert err < 2e-2, f"request {j} error {err}"

    def test_bgv_stride_accounts_for_convolution_growth(self):
        program = linear_bgv()
        batcher = SlotBatcher(program, width=WIDTH)
        # one MUL_PLAIN: stride = width + (width - 1)
        assert batcher.stride == 2 * WIDTH - 1
        assert batcher.capacity == N // batcher.stride

    def test_ckks_capacity_uses_half_ring(self):
        batcher = SlotBatcher(poly_ckks(), width=WIDTH)
        assert batcher.stride == WIDTH
        assert batcher.capacity == (N // 2) // WIDTH

    def test_bgv_rotation_is_unbatchable(self):
        p = Program(n=N, scheme="bgv")
        p.output(p.rotate(p.input(2), 1))
        assert "ROTATE" in unbatchable_reason(p)
        with pytest.raises(BatchUnsupported, match="ROTATE"):
            SlotBatcher(p, width=WIDTH)

    def test_ckks_negative_rotation_is_unbatchable(self):
        p = Program(n=N, scheme="ckks")
        p.output(p.rotate(p.input(2), -1))
        assert "negative" in unbatchable_reason(p)
        with pytest.raises(BatchUnsupported, match="negative"):
            SlotBatcher(p, width=WIDTH)

    def test_ckks_nonnegative_rotation_is_batchable(self):
        p = Program(n=N, scheme="ckks")
        x = p.input(2)
        p.output(p.add(p.rotate(x, 1), x))
        assert unbatchable_reason(p) is None
        batcher = SlotBatcher(p, width=WIDTH)
        assert batcher.rotation_steps == (1,)

    def test_ring_wrapping_rotation_rejected_at_layout(self):
        # steps large enough that the last block's rotation wraps to lane 0
        p = Program(n=N, scheme="ckks")
        x = p.input(2)
        p.output(p.add(p.rotate(x, N // 2 - WIDTH // 2), x))
        assert unbatchable_reason(p) is None  # program-level rule passes
        with pytest.raises(BatchUnsupported, match="wraps"):
            SlotBatcher(p, width=WIDTH)

    def test_rotation_batch_matches_solo(self):
        p = Program(n=N, scheme="ckks", name="windows")
        x = p.input(3)
        acc = p.add(x, p.rotate(x, 1))
        acc = p.add(acc, p.rotate(x, 3))
        out = p.output(acc)
        batcher = SlotBatcher(p, width=WIDTH)
        rng = np.random.default_rng(7)
        requests = [Request(inputs={x.op_id: rng.uniform(-1, 1, WIDTH)})
                    for _ in range(4)]
        backend = FunctionalBackend(validate=True)
        outs, _ = batcher.run(requests, backend)
        for j, req in enumerate(requests):
            solo = backend.run(p, inputs=req.inputs)
            err = np.max(np.abs(
                outs[j][out.op_id][:WIDTH] - solo.outputs[out.op_id][:WIDTH]
            ))
            assert err < 2e-2, f"request {j} error {err}"

    def test_cross_level_batch_is_bgv_bit_identical(self):
        program = linear_bgv()
        batcher = SlotBatcher(program, width=WIDTH)
        assert batcher.level_plan["base_level"] == 3
        assert batcher.level_plan["min_level"] == 1
        requests = bgv_requests(program, 4)
        for req, level in zip(requests, (3, 2, 2, 3)):
            req.level = level
        backend = FunctionalBackend(validate=True)
        outs, _ = batcher.run(requests, backend)
        for j, req in enumerate(requests):
            solo = backend.run(program, inputs=req.inputs, plains=req.plains,
                               batch_layout=solo_layout(program, req.level))
            for out_id, got in outs[j].items():
                want = solo.outputs[out_id][:got.shape[0]]
                assert np.array_equal(got % 256, want % 256), (j, out_id)

    def test_out_of_range_request_level_rejected(self):
        program = linear_bgv()
        batcher = SlotBatcher(program, width=WIDTH)
        with pytest.raises(ValueError, match="outside"):
            batcher.check_request(
                Request(inputs={program.ops[0].op_id: np.ones(WIDTH)}, level=5)
            )

    def test_uniform_base_level_batch_has_no_layout(self):
        program = poly_ckks()
        batcher = SlotBatcher(program, width=WIDTH)
        requests = ckks_requests(program, 3)
        assert batcher.layout(requests) is None
        requests[1].level = batcher.level_plan["base_level"] - 1
        layout = batcher.layout(requests)
        assert layout is not None and layout.levels[1] == layout.base_level - 1

    def test_bgv_ct_mul_is_unbatchable(self):
        p = Program(n=N, scheme="bgv")
        x, y = p.input(3), p.input(3)
        p.output(p.mul(x, y))
        assert "convolution" in unbatchable_reason(p)
        with pytest.raises(BatchUnsupported, match="convolution"):
            SlotBatcher(p, width=WIDTH)

    def test_ckks_ct_mul_is_batchable(self):
        assert unbatchable_reason(poly_ckks()) is None

    def test_mixed_plain_consumer_is_unbatchable(self):
        p = Program(n=N, scheme="bgv")
        x = p.input(3)
        shared = p.input_plain(3)
        p.output(p.add_plain(p.mul_plain(x, shared), shared))
        assert "feeds both" in unbatchable_reason(p)

    def test_divergent_shared_plain_rejected(self):
        program = linear_bgv()
        batcher = SlotBatcher(program, width=WIDTH)
        requests = bgv_requests(program, 2)
        w = program.ops[1].op_id
        requests[1].plains[w] = requests[1].plains[w] + 1
        with pytest.raises(BatchUnsupported, match="identical across"):
            batcher.pack(requests)

    def test_over_capacity_rejected(self):
        program = poly_ckks()
        batcher = SlotBatcher(program, width=WIDTH)
        requests = ckks_requests(program, batcher.capacity + 1)
        with pytest.raises(ValueError, match="outside"):
            batcher.pack(requests)

    def test_oversized_request_vector_rejected(self):
        program = poly_ckks()
        batcher = SlotBatcher(program, width=WIDTH)
        request = ckks_requests(program, 1)[0]
        request.inputs[program.ops[0].op_id] = np.ones(WIDTH + 1)
        with pytest.raises(ValueError, match="at most"):
            batcher.pack([request])

    def test_underfilled_batch_occupancy(self):
        batcher = SlotBatcher(poly_ckks(), width=WIDTH, max_batch=8)
        assert batcher.capacity == 8
        assert batcher.occupancy(2) == pytest.approx(0.25)


class ScriptedExecutor:
    """Runs each batch on the test's cue: ``entered`` receives the batch's
    size, then the next ``actions`` item is raised (``None``: serve it)."""

    name = "scripted"

    def __init__(self):
        self.entered, self.actions = queue.Queue(), queue.Queue()

    def execute(self, job):
        self.entered.put(len(job.requests))
        action = self.actions.get(timeout=60)
        if action is not None:
            raise action
        return ([{} for _ in job.requests],
                RunResult(backend="cpu", program=job.program.name))

    def stats(self):
        return {}

    def close(self):
        pass


class TestFheServer:
    def test_serves_and_matches_solo_runs(self):
        program = poly_ckks()
        requests = ckks_requests(program, 12)
        with FheServer(max_batch=4, max_wait_ms=5.0, workers=2) as server:
            futures = [server.submit(program, inputs=r.inputs)
                       for r in requests]
            results = [f.result(timeout=60) for f in futures]
            stats = server.stats()
        for request, result in zip(requests, results):
            x, y = program.ops[0].op_id, program.ops[1].op_id
            want = np.asarray(request.inputs[x]) * request.inputs[y] \
                + request.inputs[x]
            got = next(iter(result.values.values()))[:WIDTH]
            assert np.max(np.abs(got - want)) < 2e-2
            assert result.batch_size >= 1
            assert 0 < result.batch_occupancy <= 1
            assert result.latency_ms >= result.queue_ms >= 0
        assert stats["requests"] == 12
        assert stats["batches"] <= 4  # batched, not one run per request
        assert stats["registry"]["hit_rate"] > 0

    def test_unbatchable_program_still_served(self):
        p = Program(n=N, scheme="bgv", name="multiplier")
        x, y = p.input(3), p.input(3)
        p.output(p.mul(x, y))
        xs = np.arange(1, 9)
        ys = np.arange(2, 10)
        with FheServer(max_wait_ms=2.0) as server:
            result = server.request(p, inputs={x.op_id: xs, y.op_id: ys})
        from repro.sim.reference import evaluate_reference
        want = evaluate_reference(p, {x.op_id: xs, y.op_id: ys})
        out_id = p.ops[-1].op_id
        got = result.values[out_id]
        assert np.array_equal(got % 256, want[out_id][:got.shape[0]] % 256)
        assert result.batch_size == 1 and result.batch_occupancy == 1.0

    def test_batchable_rotation_program_batches_in_server(self):
        p = Program(n=N, scheme="ckks", name="rotator")
        x = p.input(3)
        p.output(p.add(p.rotate(x, 1), x))
        rng = np.random.default_rng(5)
        datas = [rng.uniform(-1, 1, WIDTH) for _ in range(6)]
        slots = N // 2
        with FheServer(max_batch=6, max_wait_ms=10.0) as server:
            futures = [server.submit(p, inputs={x.op_id: d}, width=WIDTH)
                       for d in datas]
            results = [f.result(timeout=60) for f in futures]
        for data, result in zip(datas, results):
            padded = np.zeros(slots)
            padded[:WIDTH] = data
            want = (np.roll(padded, -1) + padded)[:WIDTH]
            got = next(iter(result.values.values()))[:WIDTH]
            assert np.max(np.abs(got - want)) < 2e-2
        assert max(r.batch_size for r in results) > 1

    def test_max_wait_flushes_partial_batch(self):
        program = poly_ckks()
        request = ckks_requests(program, 1)[0]
        with FheServer(max_batch=64, max_wait_ms=20.0) as server:
            result = server.submit(program, inputs=request.inputs).result(timeout=60)
        assert result.batch_size == 1
        assert result.batch_occupancy < 1.0

    def test_f1_backend_amortizes_modeled_time(self):
        program = poly_ckks()
        requests = ckks_requests(program, 8)
        with FheServer(backend="f1", max_batch=8, max_wait_ms=5.0) as server:
            futures = [server.submit(program, inputs=r.inputs, width=WIDTH)
                       for r in requests]
            server.flush()
            results = [f.result(timeout=60) for f in futures]
        solo = repro.run(program, backend="f1")
        full_batch = [r for r in results if r.batch_size == 8]
        assert full_batch, "expected at least one full batch"
        assert full_batch[0].backend_time_ms == pytest.approx(solo.time_ms / 8)

    def test_mixed_signature_concurrent_stress(self):
        """Multi-threaded submitters, several signatures, all bit-checked."""
        bgv = linear_bgv()
        ckks = poly_ckks()
        bgv_reqs = bgv_requests(bgv, 10)
        ckks_reqs = ckks_requests(ckks, 10)
        errors = []
        with FheServer(max_batch=4, max_wait_ms=5.0, workers=3,
                       queue_depth=16) as server:
            def client(program, requests):
                try:
                    futures = [
                        server.submit(program, inputs=r.inputs,
                                      plains=r.plains or None)
                        for r in requests
                    ]
                    for r, f in zip(requests, futures):
                        result = f.result(timeout=120)
                        solo = repro.run(
                            program,
                            backend=repro.FunctionalBackend(validate=False),
                            inputs=r.inputs, plains=r.plains or None, seed=1,
                        )
                        for out_id, want in solo.outputs.items():
                            got = result.values[out_id]
                            want = np.asarray(want)[: got.shape[0]]
                            if program.scheme == "ckks":
                                assert np.max(np.abs(got - want)) < 2e-2
                            else:
                                assert np.array_equal(got % 256, want % 256)
                except Exception as exc:  # noqa: BLE001 — surfaced below
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(bgv, bgv_reqs)),
                threading.Thread(target=client, args=(ckks, ckks_reqs)),
                threading.Thread(target=client, args=(bgv, bgv_reqs)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = server.stats()
        assert not errors, errors[:1]
        assert stats["requests"] == 30
        assert stats["latency_ms"]["count"] == 30
        assert sum(row["requests"]
                   for row in stats["per_signature"].values()) == 30
        assert stats["errors"] == 0
        # One keygen per (signature, params): 2 signatures -> 2 context misses.
        assert stats["registry"]["contexts"] == 2
        assert stats["registry"]["hit_rate"] > 0.5

    def test_submit_racing_close_loses_no_future(self):
        """Seeded submit-vs-close() race: every submit either raises
        "server is closed" or returns a future that resolves — workers
        exit only once the server is closed *and* every bucket is empty."""
        program = poly_ckks()
        submitters, per_thread = 4, 12
        for seed in range(6):
            rng = random.Random(seed)
            server = FheServer(backend="cpu", max_batch=4, max_wait_ms=2.0,
                               workers=2, queue_depth=8)
            assert sum(t.name.startswith("fhe-worker-")
                       for t in threading.enumerate()) == 2
            accepted, refused, errors = [], [], []
            start = threading.Barrier(submitters + 1)

            def submitter(pauses):
                start.wait()
                for pause in pauses:
                    time.sleep(pause)
                    try:
                        accepted.append(server.submit(program, width=WIDTH))
                    except RuntimeError as exc:
                        (refused if "server is closed" in str(exc)
                         else errors).append(exc)

            def closer(pause):
                start.wait()
                time.sleep(pause)
                server.close()

            threads = [
                threading.Thread(target=submitter, args=(
                    [rng.uniform(0, 2 * MS) for _ in range(per_thread)],))
                for _ in range(submitters)
            ] + [threading.Thread(target=closer,
                                  args=(rng.uniform(0, 12 * MS),))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(t.is_alive() for t in threads), seed
            assert not errors, errors[:1]
            assert len(accepted) + len(refused) == submitters * per_thread
            assert all(f.result(timeout=60).status == STATUS_OK
                       for f in accepted), seed
            assert not any(t.name.startswith("fhe-worker-")
                           for t in threading.enumerate())

    def test_busy_worker_lets_the_bucket_fill(self):
        """Batches are cut when a worker is free, not when a timer fires:
        requests that arrive while the only worker is busy form one wide
        batch however long past ``max_wait_ms`` they sit (the parent's
        flusher cut them into small batches queued behind the worker)."""
        entered, release = threading.Event(), threading.Event()
        batch_sizes = []

        class BlockingExecutor:
            name = "blocking"

            def execute(self, job):
                batch_sizes.append(len(job.requests))
                entered.set()
                assert release.wait(timeout=60)
                return ([{} for _ in job.requests],
                        RunResult(backend="cpu", program=job.program.name))

            def stats(self):
                return {}

            def close(self):
                pass

        program = poly_ckks()
        capacity = SlotBatcher(program, width=WIDTH).capacity
        server = FheServer(backend="cpu", workers=1, max_wait_ms=1.0,
                           executor=BlockingExecutor())
        try:
            futures = [server.submit(program, width=WIDTH)]
            assert entered.wait(timeout=60)
            for _ in range(2):   # two waves, each left well past max_wait
                futures += [server.submit(program, width=WIDTH)
                            for _ in range(10)]
                time.sleep(0.05)
        finally:
            release.set()
            server.close()
        assert batch_sizes[:2] == [1, min(20, capacity)]
        assert sum(batch_sizes) == 21
        assert all(f.done() for f in futures)

    def test_every_request_ends_in_exactly_one_count(self):
        """Outcome accounting: each submitted request whose client did not
        cancel it is counted once, as served, expired, failed, shed or
        errored.  One worker blocks inside a scripted executor while the
        next batch forms, so each batch below is exactly the one listed."""
        executor = ScriptedExecutor()
        entered, actions = executor.entered, executor.actions
        program = poly_ckks()
        server = FheServer(backend="cpu", workers=1, max_wait_ms=1.0,
                           executor=executor)
        submit = lambda **kw: server.submit(program, width=WIDTH, **kw)  # noqa: E731
        try:
            first = submit()
            assert entered.get(timeout=60) == 1
            # batch 2: an expired ride-along, an application error and a
            # cancelled request
            lapsed, bad, gone = (submit(deadline_ms=1e-3), submit(),
                                 submit())
            assert gone.cancel()
            actions.put(None)
            assert entered.get(timeout=60) == 2
            # batch 3: served, with a cancelled request in a held slot
            served = [submit() for _ in range(3)]
            assert served[1].cancel()
            actions.put(ValueError("bad batch"))
            assert entered.get(timeout=60) == 3
            # batch 4: retries exhausted, and one more cancelled request
            failed, dropped = submit(), submit()
            assert dropped.cancel()
            actions.put(None)
            assert entered.get(timeout=60) == 2
            for _ in range(8):      # a measured, overloaded queue
                server._shedder.observe_batch(0.2, 1)
            shed = submit(deadline_ms=5.0)
            actions.put(RetriesExhausted("every attempt failed",
                                         [ConnectionError("reset")]))
        finally:
            server.close()
        assert first.result().status == STATUS_OK
        assert lapsed.result().status == STATUS_EXPIRED
        with pytest.raises(ValueError, match="bad batch"):
            bad.result()
        assert [served[i].result().batch_size for i in (0, 2)] == [3, 3]
        assert failed.result().status == STATUS_FAILED
        assert failed.result().stats["causes"] == ["ConnectionError: reset"]
        assert shed.result().status == STATUS_SHED
        assert all(f.cancelled() for f in (gone, served[1], dropped))
        stats = server.stats()
        submitted, cancelled = 10, 3
        assert (stats["requests"], stats["expired"], stats["failed"],
                stats["shed"], stats["errors"]) == (3, 1, 1, 1, 1)
        assert (stats["requests"] + stats["expired"] + stats["failed"]
                + stats["shed"] + stats["errors"]) == submitted - cancelled
        # Latency and queue samples: one per served request.  The
        # cancelled request held its slot: batch sizes 1 and 3.
        assert stats["latency_ms"]["count"] == stats["requests"]
        assert stats["queue_ms"]["count"] == stats["requests"]
        row = stats["per_signature"][program.signature()]
        assert row["requests"] == 3 and row["latency_ms"]["count"] == 3
        assert row["batch_size_histogram"] == {1: 1, 3: 1}
        assert stats["batches"] == 2 and stats["mean_batch_size"] == 2.0
        assert stats["metrics"]["serve.occupancy"]["count"] == 2

    def test_every_result_carries_its_requests_trace_id(self, tmp_path):
        """The join from a result to its exported spans: under
        ``trace=True`` a served, an expired, a shed and a failed result
        each report the trace id of their request's ``admit`` span."""
        executor = ScriptedExecutor()
        program = poly_ckks()
        tracer().clear()
        server = FheServer(backend="cpu", workers=1, max_wait_ms=1.0,
                           executor=executor, trace=True)
        submit = lambda **kw: server.submit(program, width=WIDTH, **kw)  # noqa: E731
        try:
            served = submit()
            assert executor.entered.get(timeout=60) == 1
            lapsed, failed = submit(deadline_ms=1e-3), submit()
            for _ in range(8):      # a measured, overloaded queue
                server._shedder.observe_batch(0.2, 1)
            shed = submit(deadline_ms=5.0)
            executor.actions.put(None)
            assert executor.entered.get(timeout=60) == 1    # lapsed expired
            executor.actions.put(RetriesExhausted(
                "every attempt failed", [ConnectionError("reset")]))
            results = [f.result(timeout=60)
                       for f in (served, lapsed, failed, shed)]
        finally:
            server.close()
            path = tmp_path / "trace.json"
            server.dump_trace(str(path))
            tracer().clear()
        assert [r.status for r in results] == [
            STATUS_OK, STATUS_EXPIRED, STATUS_FAILED, STATUS_SHED]
        events = json.loads(path.read_text())["traceEvents"]
        admitted = [e["args"]["trace"] for e in events
                    if e["ph"] == "X" and e["name"] == "admit"]
        # one thread submits, so the admit spans are in submission order
        assert len(set(admitted)) == 4 and None not in admitted
        assert [r.stats["trace"] for r in results] == admitted

    def test_lone_request_on_a_warm_bucket_is_cut_by_the_quiet_gap(self):
        """Event-driven, nothing sleeps: once a bucket has run a batch,
        an idle worker cuts a lone request after half that batch's time
        instead of sleeping out ``max_wait_ms`` (2 s here)."""
        program = poly_ckks()
        requests = ckks_requests(program, 3)
        with FheServer(max_batch=2, max_wait_ms=2000.0) as server:
            warm = [server.submit(program, inputs=r.inputs, width=WIDTH)
                    for r in requests[:2]]      # fills the bucket: cut now
            assert all(f.result(timeout=60).status == STATUS_OK
                       for f in warm)
            lone = server.request(program, inputs=requests[2].inputs,
                                  width=WIDTH)
            row = server.stats()["per_signature"][program.signature()]
        assert lone.status == STATUS_OK and lone.batch_size == 1
        assert lone.queue_ms < 1000
        assert row["ready"] == {"full": 1, "quiet": 1, "max_wait": 0,
                                "deadline": 0, "flush": 0}
        assert 0 < row["batch_ms"] < 2000

    def test_sequential_requests_stop_waiting_for_a_partner(self):
        """Event-driven, nothing sleeps: a client that sends each request
        after the last came back never lands within the quiet gap of the
        one before (it waited out that gap and a batch time since), so
        four such take the bucket's partner share to 0.8^4 < 1/2 and the
        fourth is cut at once -- every lone one as ``quiet``, none by the
        2 s ``max_wait``."""
        program = poly_ckks()
        requests = ckks_requests(program, 6)
        with FheServer(max_batch=2, max_wait_ms=2000.0) as server:
            warm = [server.submit(program, inputs=r.inputs, width=WIDTH)
                    for r in requests[:2]]      # fills the bucket: cut now
            assert all(f.result(timeout=60).status == STATUS_OK
                       for f in warm)
            lone = [server.request(program, inputs=r.inputs, width=WIDTH)
                    for r in requests[2:]]
            row = server.stats()["per_signature"][program.signature()]
        assert all(r.status == STATUS_OK and r.batch_size == 1 for r in lone)
        assert row["partner_share"] == pytest.approx(0.8 ** 4)
        assert row["ready"] == {"full": 1, "quiet": 4, "max_wait": 0,
                                "deadline": 0, "flush": 0}

    def test_injected_backend_params_honored(self):
        """Server-built contexts use the injected backend's explicit params."""
        params = repro.FheParams.build(n=N, levels=5, prime_bits=28,
                                       plaintext_modulus=256)
        backend = repro.FunctionalBackend("bgv", params=params, validate=False)
        program = linear_bgv()
        request = bgv_requests(program, 1)[0]
        with FheServer(backend=backend, max_batch=1, max_wait_ms=5.0) as server:
            server.request(program, inputs=request.inputs,
                           plains=request.plains)
            entry, hit = server.registry.context_for(
                program, scheme="bgv", params=params,
            )
        assert hit and entry.params is params

    def test_submit_after_close_raises(self):
        program = poly_ckks()
        request = ckks_requests(program, 1)[0]
        server = FheServer()
        server.close()
        with pytest.raises(RuntimeError, match="closed"):
            server.submit(program, inputs=request.inputs)

    def test_malformed_request_rejected_at_submit(self):
        """A bad request fails its own submit, never its batch-mates."""
        program = poly_ckks()
        good = ckks_requests(program, 3)
        bad = {program.ops[0].op_id: np.ones(2 * WIDTH),   # exceeds layout
               program.ops[1].op_id: np.ones(WIDTH)}
        with FheServer(max_batch=4, max_wait_ms=5.0) as server:
            futures = [server.submit(program, inputs=r.inputs, width=WIDTH)
                       for r in good]
            with pytest.raises(ValueError, match="at most"):
                server.submit(program, inputs=bad, width=WIDTH)
            server.flush()
            results = [f.result(timeout=60) for f in futures]
            stats = server.stats()
        assert all(r.values for r in results)
        assert stats["errors"] == 0

    def test_missing_inputs_rejected_at_submit_when_batched(self):
        program = poly_ckks()
        with FheServer(max_batch=4, max_wait_ms=5.0) as server:
            # Establish the layout, then submit with no input values.
            server.submit(program,
                          inputs=ckks_requests(program, 1)[0].inputs,
                          width=WIDTH)
            with pytest.raises(ValueError, match="missing values"):
                server.submit(program)

    def test_divergent_weights_rejected_at_submit(self):
        """Mismatched shared weights fail their own submit, not the bucket —
        and a new bucket may establish fresh weights."""
        program = linear_bgv()
        requests = bgv_requests(program, 2)
        w = program.ops[1].op_id
        requests[1].plains[w] = requests[1].plains[w] + 1  # divergent weights
        with FheServer(max_batch=4, max_wait_ms=10.0) as server:
            future = server.submit(program, inputs=requests[0].inputs,
                                   plains=requests[0].plains)
            with pytest.raises(BatchUnsupported, match="batch currently"):
                server.submit(program, inputs=requests[1].inputs,
                              plains=requests[1].plains)
            server.flush()
            assert future.result(timeout=60).values
            # Bucket flushed: the "divergent" weights are now just the next
            # batch's weights.
            result = server.request(program, inputs=requests[1].inputs,
                                    plains=requests[1].plains)
            stats = server.stats()
        assert result.values and stats["errors"] == 0

    def test_batch_level_error_delivered_to_futures(self):
        """Errors only detectable at execution time still reach the futures."""
        program = poly_ckks()
        backend = repro.FunctionalBackend("ckks", validate=True, tolerance=0.0)
        request = ckks_requests(program, 1)[0]
        with FheServer(backend=backend, max_batch=1, max_wait_ms=5.0) as server:
            future = server.submit(program, inputs=request.inputs)
            with pytest.raises(AssertionError, match="exceeds tolerance"):
                future.result(timeout=60)
            stats = server.stats()
        assert stats["errors"] == 1

    def test_cancelled_future_does_not_poison_batch(self):
        program = poly_ckks()
        requests = ckks_requests(program, 3)
        with FheServer(max_batch=4, max_wait_ms=50.0) as server:
            futures = [server.submit(program, inputs=r.inputs, width=WIDTH)
                       for r in requests]
            cancelled = futures[1].cancel()  # still queued: cancel succeeds
            server.flush()
            assert futures[0].result(timeout=60).values
            assert futures[2].result(timeout=60).values
            stats = server.stats()
        assert cancelled and futures[1].cancelled()
        assert stats["errors"] == 0

    def test_modeled_backend_tolerates_missing_inputs(self):
        """cpu/heax model the op graph; requests need not carry values."""
        program = poly_ckks()
        with FheServer(backend="cpu", max_batch=2, max_wait_ms=5.0) as server:
            futures = [server.submit(program, width=WIDTH) for _ in range(2)]
            server.flush()
            results = [f.result(timeout=60) for f in futures]
        assert all(r.values == {} for r in results)
        assert all(r.backend == "cpu" for r in results)


class TestMultiOutputDemux:
    """Programs with several OUTPUT handles of differing widths demux
    each output bit-identically to solo runs."""

    @staticmethod
    def two_output_bgv(n=N, level=3):
        p = Program(n=n, scheme="bgv", name="two_out")
        x = p.input(level, name="x")
        w = p.input_plain(level, name="w")
        b = p.input_plain(level, name="b")
        p.output(p.mul_plain(x, w), name="scored")   # growth 1: wide output
        p.output(p.add_plain(x, b), name="biased")   # growth 0: narrow output
        return p

    def test_output_widths_differ(self):
        program = self.two_output_bgv()
        batcher = SlotBatcher(program, width=WIDTH)
        wide = [op for op in program.ops if op.name == "scored"][0].op_id
        narrow = [op for op in program.ops if op.name == "biased"][0].op_id
        assert batcher.output_widths[wide] == 2 * WIDTH - 1
        assert batcher.output_widths[narrow] == WIDTH
        # Stride covers the widest value, not one growth per MUL_PLAIN op.
        assert batcher.stride == 2 * WIDTH - 1

    def test_parallel_branches_share_stride(self):
        """Two MUL_PLAINs on parallel branches need one growth, not two."""
        p = Program(n=N, scheme="bgv")
        x, y = p.input(3), p.input(3)
        p.output(p.add(p.mul_plain(x), p.mul_plain(y)))
        assert SlotBatcher(p, width=WIDTH).stride == 2 * WIDTH - 1

    def test_chained_mul_plain_accumulates_growth(self):
        p = Program(n=N, scheme="bgv")
        x = p.input(3)
        p.output(p.mul_plain(p.mul_plain(x)))
        assert SlotBatcher(p, width=WIDTH).stride == 3 * WIDTH - 2

    def test_bgv_batched_outputs_match_solo(self):
        program = self.two_output_bgv()
        batcher = SlotBatcher(program, width=WIDTH)
        requests = bgv_requests(program, 4)
        outs, _ = batcher.run(requests, repro.FunctionalBackend("bgv"), seed=3)
        for j, request in enumerate(requests):
            solo = repro.run(
                program, backend=repro.FunctionalBackend("bgv"),
                inputs=request.inputs, plains=request.plains, seed=11,
            )
            for out_id, solo_vec in solo.outputs.items():
                got = outs[j][out_id]
                assert got.shape[0] == batcher.output_widths[out_id]
                assert np.array_equal(
                    got % 256, np.asarray(solo_vec)[: got.shape[0]] % 256
                ), f"request {j} output {out_id} not bit-identical"

    def test_ckks_multi_output_served(self):
        p = Program(n=N, scheme="ckks", name="two_out_ckks")
        x, y = p.input(4), p.input(4)
        p.output(p.mul(x, y), name="prod")
        p.output(p.add(x, y), name="sum")
        requests = ckks_requests(p, 6)
        with FheServer(max_batch=3, max_wait_ms=5.0) as server:
            futures = [server.submit(p, inputs=r.inputs, width=WIDTH)
                       for r in requests]
            results = [f.result(timeout=60) for f in futures]
        x_id, y_id = p.ops[0].op_id, p.ops[1].op_id
        out_ids = [op.op_id for op in p.ops
                   if op.kind is repro.dsl.program.OpKind.OUTPUT]
        for request, result in zip(requests, results):
            xv, yv = request.inputs[x_id], request.inputs[y_id]
            for out_id, want in zip(out_ids, (xv * yv, xv + yv)):
                got = result.values[out_id][:WIDTH]
                assert np.max(np.abs(got - want)) < 2e-2


class TestPriorityDeadline:
    def test_expired_request_fails_fast_with_status(self):
        # A microsecond-scale budget lapses inside the dispatch pipeline
        # itself (thread wakeups alone take longer), so expiry is certain
        # even though the flusher is woken immediately.
        program = poly_ckks()
        request = ckks_requests(program, 1)[0]
        with FheServer(max_batch=64, max_wait_ms=300.0) as server:
            result = server.submit(program, inputs=request.inputs,
                                   deadline_ms=0.001).result(timeout=60)
            stats = server.stats()
        assert result.status == STATUS_EXPIRED
        assert result.values == {} and result.batch_size == 0
        # Failed fast: nowhere near the 300 ms bucket wait.
        assert result.latency_ms < 250.0
        assert stats["expired"] == 1 and stats["errors"] == 0

    def test_deadline_pulls_flush_forward(self):
        """A request with a budget tighter than max_wait is served early."""
        program = poly_ckks()
        request = ckks_requests(program, 1)[0]
        with FheServer(max_batch=64, max_wait_ms=5000.0) as server:
            start = time.perf_counter()
            result = server.submit(program, inputs=request.inputs,
                                   deadline_ms=500.0).result(timeout=60)
            elapsed = time.perf_counter() - start
        assert result.status == STATUS_OK and result.values
        assert elapsed < 3.0   # nowhere near the 5 s size-or-wait flush

    def test_sub_tick_deadline_served_on_idle_server(self):
        """A budget far shorter than max_wait wakes an idle worker at
        submit: the request is served, not discovered already expired."""
        program = poly_ckks()
        requests = ckks_requests(program, 2)
        with FheServer(max_batch=64, max_wait_ms=300.0) as server:
            # Warm keygen/compile so the deadline run is execution-only.
            server.request(program, inputs=requests[0].inputs, width=WIDTH)
            result = server.submit(program, inputs=requests[1].inputs,
                                   width=WIDTH,
                                   deadline_ms=40.0).result(timeout=60)
        assert result.status == STATUS_OK and result.values

    def test_invalid_deadline_rejected(self):
        program = poly_ckks()
        request = ckks_requests(program, 1)[0]
        with FheServer() as server:
            with pytest.raises(ValueError, match="deadline_ms"):
                server.submit(program, inputs=request.inputs, deadline_ms=0)

    def test_urgent_requests_claim_batch_slots(self):
        """EDF ordering: with more pending than capacity, the earliest
        deadline and highest priority win the batch (white-box)."""
        program = poly_ckks()
        group = _Group(program, program.signature(), WIDTH, max_batch=2)
        now = T0
        lax = _Pending(Request(), Future(), now, priority=0)
        soon = _Pending(Request(), Future(), now + 1e-6, priority=0,
                        deadline=now + 0.010)
        late = _Pending(Request(), Future(), now + 2e-6, priority=0,
                        deadline=now + 0.500)
        vip = _Pending(Request(), Future(), now + 3e-6, priority=9,
                       deadline=now + 0.500)
        group.pending = [lax, soon, late, vip]
        batch = group.take_batch(now)
        assert batch == [soon, vip]          # EDF first, then priority
        assert group.pending == [late, lax]  # leftovers keep EDF order

    def test_expired_requests_do_not_claim_batch_slots(self):
        """A lapsed request rides along for fast expiry but its capacity
        slot goes to a live request (white-box)."""
        program = poly_ckks()
        group = _Group(program, program.signature(), WIDTH, max_batch=2)
        now = T0
        live_a = _Pending(Request(), Future(), now)
        lapsed = _Pending(Request(), Future(), now + 1e-6,
                          deadline=now - 1e-3)
        live_b = _Pending(Request(), Future(), now + 2e-6)
        group.pending = [live_a, lapsed, live_b]
        batch = group.take_batch(now)
        assert batch == [live_a, live_b, lapsed]
        assert group.pending == []

    def test_mixed_deadline_traffic_all_accounted(self):
        """Expired and served requests both resolve; nothing strands."""
        program = poly_ckks()
        requests = ckks_requests(program, 6)
        with FheServer(max_batch=64, max_wait_ms=400.0, workers=2) as server:
            doomed = [server.submit(program, inputs=r.inputs, width=WIDTH,
                                    deadline_ms=0.001)   # lapses in-pipeline
                      for r in requests[:3]]
            served = [server.submit(program, inputs=r.inputs, width=WIDTH)
                      for r in requests[3:]]
            server.flush()
            doomed_results = [f.result(timeout=60) for f in doomed]
            served_results = [f.result(timeout=60) for f in served]
            stats = server.stats()
        assert all(r.status == STATUS_EXPIRED for r in doomed_results)
        assert all(r.status == STATUS_OK and r.values
                   for r in served_results)
        assert stats["expired"] == 3
        assert stats["requests"] == 3   # only live requests count as served


class TestSchedulerPolicy:
    """``pick_ready`` on hand-built buckets at synthetic instants: which
    bucket a free worker takes, or when an idle one wakes."""

    MAX_WAIT = 10 * MS      # deadline slack is then 2 x 2.5 ms

    def bucket(self, *pending, max_batch=4, batch_s=None):
        """``batch_s``: the bucket has run batches that took this long
        (``None``: cold); the last arrival is the latest ``enqueued``."""
        program = poly_ckks()
        group = _Group(program, program.signature(), WIDTH,
                       max_batch=max_batch, max_wait_s=self.MAX_WAIT)
        group.pending = list(pending)
        group.batch_s = batch_s
        group.last_arrival = max((p.enqueued for p in pending),
                                 default=-math.inf)
        return group

    def pending(self, enqueued, *, priority=0, deadline=math.inf):
        return _Pending(Request(), Future(), enqueued, priority=priority,
                        deadline=deadline,
                        flush_by=enqueued + self.MAX_WAIT)

    def test_earliest_deadline_first_across_buckets(self):
        lax = self.bucket(self.pending(T0, deadline=T0 + 9 * MS))
        tight = self.bucket(self.pending(T0 + 1 * MS, deadline=T0 + 6 * MS))
        assert pick_ready([lax, tight], T0 + 5 * MS) == (tight, math.inf)

    def test_priority_breaks_ties(self):
        plain = self.bucket(self.pending(T0))
        vip = self.bucket(self.pending(T0, priority=9))
        assert pick_ready([plain, vip], T0 + 10 * MS)[0] is vip

    def test_deadline_free_requests_age_via_the_max_wait_cap(self):
        """A deadline-free request's effective deadline is enqueued +
        max_wait, so it overtakes deadline traffic instead of starving."""
        budgeted = self.bucket(self.pending(T0 + 5 * MS,
                                            deadline=T0 + 12 * MS))
        old = self.bucket(self.pending(T0))              # cap: T0 + 10 ms
        young = self.bucket(self.pending(T0 + 4 * MS))   # cap: T0 + 14 ms
        assert pick_ready([budgeted, old], T0 + 11 * MS)[0] is old
        assert pick_ready([budgeted, young], T0 + 14 * MS)[0] is budgeted

    def test_lapsed_ride_alongs_do_not_lend_urgency(self):
        """A lapsed request makes its bucket ready (it must expire fast)
        but its past deadline does not rank the bucket."""
        stale = self.bucket(self.pending(T0, deadline=T0 + 1 * MS),
                            self.pending(T0 + 9 * MS))
        urgent = self.bucket(self.pending(T0 + 5 * MS,
                                          deadline=T0 + 13 * MS))
        now = T0 + 9.5 * MS
        assert stale.due_time(now) <= now
        assert pick_ready([stale, urgent], now)[0] is urgent
        # ... and still goes out, lapsed request riding along, once the
        # urgent bucket has been taken.
        urgent.take_batch(now)
        assert pick_ready([stale, urgent], now)[0] is stale

    def test_full_bucket_is_ready_before_it_is_due(self):
        now = T0 + 1 * MS
        one = self.bucket(self.pending(T0), max_batch=2)
        assert pick_ready([one], now) == (None, T0 + self.MAX_WAIT)
        full = self.bucket(self.pending(T0), self.pending(T0), max_batch=2)
        assert pick_ready([one, full], now)[0] is full

    def test_nothing_ready_returns_the_wake_up_instant(self):
        waiting = self.bucket(self.pending(T0))
        budgeted = self.bucket(self.pending(T0, deadline=T0 + 8 * MS))
        empty = self.bucket()
        # The deadline's slack (5 ms) comes before either max_wait bound.
        assert pick_ready([waiting, budgeted, empty], T0 + 1 * MS) \
            == (None, pytest.approx(T0 + 3 * MS))
        assert pick_ready([empty], T0) == (None, math.inf)

    def test_lone_request_on_a_warm_bucket_waits_half_a_batch_time(self):
        """The quiet gap: a partner arriving later than ``batch_s / 2``
        costs more summed latency than it saves, so that is when an idle
        worker stops waiting for one."""
        lone = self.bucket(self.pending(T0), batch_s=4 * MS)
        assert pick_ready([lone], T0 + 1 * MS) \
            == (None, pytest.approx(T0 + 2 * MS))
        assert pick_ready([lone], T0 + 2 * MS)[0] is lone
        assert lone.ready_reason() == "quiet"
        # A bucket that ran and is empty now has nothing to be quiet about.
        idle = self.bucket(batch_s=4 * MS)
        idle.last_arrival = T0
        assert pick_ready([idle], T0 + 5 * MS) == (None, math.inf)

    def test_each_arrival_restarts_the_gap_up_to_the_oldest_flush_by(self):
        pair = self.bucket(self.pending(T0), self.pending(T0 + 1.5 * MS),
                           batch_s=4 * MS)
        assert pick_ready([pair], T0 + 2 * MS) \
            == (None, pytest.approx(T0 + 3.5 * MS))
        # A trickle cannot hold a bucket past max_wait: the ceiling stays.
        trickle = self.bucket(self.pending(T0), self.pending(T0 + 9 * MS),
                              batch_s=4 * MS)
        assert pick_ready([trickle], T0 + 9 * MS) \
            == (None, T0 + self.MAX_WAIT)
        assert trickle.ready_reason() == "max_wait"

    @pytest.mark.parametrize("batch_s", [None, 30 * MS])
    def test_cold_or_slow_bucket_keeps_the_max_wait_window(self, batch_s):
        """No batch has run yet, or half a batch outlasts ``max_wait``:
        the wake instant is ``enqueued + max_wait``, as before the rule."""
        bucket = self.bucket(self.pending(T0), self.pending(T0 + 3 * MS),
                             batch_s=batch_s)
        assert pick_ready([bucket], T0 + 4 * MS) \
            == (None, T0 + self.MAX_WAIT)
        assert bucket.ready_reason() == "max_wait"

    def test_full_deadline_and_flush_outrank_the_quiet_gap(self):
        now = T0 + 0.5 * MS
        full = self.bucket(self.pending(T0), self.pending(T0), max_batch=2,
                           batch_s=4 * MS)
        assert pick_ready([full], now)[0] is full
        assert full.ready_reason() == "full"
        # Slack (5 ms) before a 6 ms deadline comes before the 2 ms gap.
        budgeted = self.bucket(self.pending(T0, deadline=T0 + 6 * MS),
                               batch_s=4 * MS)
        assert pick_ready([budgeted], now) \
            == (None, pytest.approx(T0 + 1 * MS))
        assert budgeted.ready_reason() == "deadline"
        flushed = self.bucket(self.pending(T0), batch_s=4 * MS)
        flushed.pending[0].flush_by = now       # what flush() / close() do
        assert pick_ready([flushed], now)[0] is flushed
        assert flushed.ready_reason() == "flush"

    def arrive(self, group, *instants, serve=True):
        """What ``submit`` does at each instant; ``serve``: an idle worker
        then takes the bucket as soon as it is due, as with sparse
        traffic, so the next arrival finds it empty."""
        for t in instants:
            group.pending.append(self.pending(t))
            group.note_arrival(t)
            if serve:
                group.take_batch(max(t, group.due_time(t)))

    def test_sparse_arrivals_stop_the_wait_for_a_partner(self):
        """Arrivals 20 ms apart never come within the 2 ms gap of one
        another: after four such, the share is 0.8^4 < 1/2 and a lone
        request is due at its own arrival, still cut as ``quiet``."""
        sparse = self.bucket(batch_s=4 * MS)
        self.arrive(sparse, *(T0 + 20 * MS * i for i in range(4)))
        last = T0 + 80 * MS
        self.arrive(sparse, last, serve=False)
        assert sparse.partner_share == pytest.approx(0.8 ** 4)
        assert pick_ready([sparse], last)[0] is sparse
        assert sparse.due_time(last) == last
        assert sparse.ready_reason() == "quiet"

    def test_a_burst_keeps_the_full_gap(self):
        burst = self.bucket(batch_s=4 * MS)
        self.arrive(burst, *(T0 + 0.5 * MS * i for i in range(3)),
                    serve=False)
        assert burst.partner_share == 1.0
        assert pick_ready([burst], T0 + 1 * MS) \
            == (None, pytest.approx(T0 + 3 * MS))

    def test_partner_share_crosses_one_half_both_ways(self):
        """One EWMA step per arrival (weight ``LoadShedder.ALPHA`` = 0.2):
        the gap is kept at 0.512, dropped at 0.4096, and one partnered
        arrival brings it back at 0.52768."""
        group = self.bucket(batch_s=4 * MS)
        self.arrive(group, T0)
        assert group.partner_share == 1.0        # no previous arrival
        for t, share, due in ((T0 + 10 * MS, 0.8, T0 + 12 * MS),
                              (T0 + 20 * MS, 0.64, T0 + 22 * MS),
                              (T0 + 30 * MS, 0.512, T0 + 32 * MS),
                              (T0 + 40 * MS, 0.4096, T0 + 40 * MS),
                              (T0 + 41.5 * MS, 0.52768, T0 + 43.5 * MS)):
            group.pending.append(self.pending(t))
            group.note_arrival(t)
            assert group.partner_share == pytest.approx(share)
            assert group.due_time(t) == pytest.approx(due)
            group.take_batch(due)

    def test_cold_bucket_keeps_the_max_wait_window_at_any_share(self):
        """Before a batch has run there is no ``batch_s``: arrivals are
        measured against ``max_wait`` and no quiet term exists, so a low
        share changes nothing."""
        cold = self.bucket()
        self.arrive(cold, *(T0 + 20 * MS * i for i in range(4)))
        last = T0 + 80 * MS
        self.arrive(cold, last, serve=False)
        assert cold.partner_share < 0.5
        assert pick_ready([cold], last + 1 * MS) \
            == (None, last + self.MAX_WAIT)
        assert cold.ready_reason() == "max_wait"

    @pytest.mark.parametrize("seed", range(6))
    def test_random_traces_keep_the_policy_invariants(self, seed):
        """Sparse Poisson arrivals mixed with bursts over three buckets,
        one free worker that runs a batch in no time: nothing is due
        after its oldest ``flush_by``, a full bucket is due now, and
        every request is taken exactly once, by its ``flush_by``."""
        rng = random.Random(seed)
        groups = [self.bucket(max_batch=4,
                              batch_s=rng.choice([None, 4 * MS, 30 * MS]))
                  for _ in range(3)]
        arrivals, t = [], T0
        while len(arrivals) < 300:
            t += rng.expovariate(1 / (15 * MS))
            size = 1 if rng.random() < 0.7 else rng.randint(2, 9)
            for i in range(size):
                arrivals.append((t + 0.2 * MS * i, rng.randrange(3)))
        arrivals.sort()
        submitted, taken, now, i = [], [], T0, 0
        while i < len(arrivals) or any(g.pending for g in groups):
            for g in groups:
                if not g.pending:
                    continue
                due = g.due_time(now)
                assert due <= min(p.flush_by for p in g.pending)
                if len(g.pending) >= g.capacity:
                    assert due == now
            group, wake = pick_ready(groups, now)
            if group is not None:
                batch = group.take_batch(now)
                assert 0 < len(batch) and all(now <= p.flush_by
                                              for p in batch)
                taken += batch
                group.batch_s = LoadShedder.smooth(
                    group.batch_s, rng.uniform(1, 8) * MS)
                continue
            if i < len(arrivals) and arrivals[i][0] <= wake:
                now, g = arrivals[i][0], groups[arrivals[i][1]]
                deadline = (now + rng.uniform(2, 20) * MS
                            if rng.random() < 0.2 else math.inf)
                submitted.append(self.pending(now, deadline=deadline))
                g.pending.append(submitted[-1])
                g.note_arrival(now)
                i += 1
            else:
                now = wake
        assert len(taken) == len(submitted)
        assert {id(p) for p in taken} == {id(p) for p in submitted}


class TestRunValidation:
    def test_empty_program(self):
        with pytest.raises(ValueError, match="empty"):
            repro.run(Program(n=64, name="void"), backend="reference")

    def test_unknown_input_op(self):
        p = Program(n=64)
        x = p.input(2)
        p.output(x)
        with pytest.raises(ValueError, match="not INPUT ops"):
            repro.run(p, backend="reference", inputs={99: np.ones(4)})

    def test_plain_key_in_inputs(self):
        p = Program(n=64)
        x = p.input(2)
        w = p.input_plain(2)
        p.output(p.mul_plain(x, w))
        with pytest.raises(ValueError, match="not INPUT ops"):
            repro.run(p, backend="reference",
                      inputs={x.op_id: np.ones(4), w.op_id: np.ones(4)})

    def test_missing_input_value(self):
        p = Program(n=64)
        x, y = p.input(2), p.input(2)
        p.output(p.add(x, y))
        with pytest.raises(ValueError, match="missing values"):
            repro.run(p, backend="reference", inputs={x.op_id: np.ones(4)})

    def test_missing_plain_is_allowed(self):
        p = Program(n=64)
        x = p.input(2)
        p.output(p.mul_plain(x))
        result = repro.run(p, backend="functional", plains={})
        assert result.stats["validated"]

    def test_overlong_vector(self):
        p = Program(n=64)
        x = p.input(2)
        p.output(x)
        with pytest.raises(ValueError, match="at most 64"):
            repro.run(p, backend="reference", inputs={x.op_id: np.ones(65)})

    def test_ckks_width_is_half_ring(self):
        p = Program(n=64, scheme="ckks")
        x = p.input(2)
        p.output(x)
        with pytest.raises(ValueError, match="at most 32"):
            validate_run_args(p, {x.op_id: np.ones(33)}, None)

    def test_non_vector_rejected(self):
        p = Program(n=64)
        x = p.input(2)
        p.output(x)
        with pytest.raises(ValueError, match="1-D"):
            repro.run(p, backend="reference",
                      inputs={x.op_id: np.ones((2, 2))})

    def test_modeled_backends_validate_too(self):
        p = Program(n=64)
        x = p.input(2)
        p.output(x)
        for backend in ("f1", "cpu", "heax"):
            with pytest.raises(ValueError, match="not INPUT ops"):
                repro.run(p, backend=backend, inputs={42: np.ones(4)})


class TestSeedThreading:
    def test_same_seed_same_generated_outputs(self):
        program = poly_ckks()
        a = repro.run(program, backend="functional", seed=42)
        b = repro.run(program, backend="functional", seed=42)
        for key in a.outputs:
            assert np.array_equal(a.outputs[key], b.outputs[key])

    def test_different_seed_different_inputs(self):
        program = linear_bgv()
        a = repro.run(program, backend="reference", seed=1)
        b = repro.run(program, backend="reference", seed=2)
        assert any(not np.array_equal(a.outputs[k], b.outputs[k])
                   for k in a.outputs)

    def test_seed_shared_by_functional_and_reference(self):
        """Same seed => same generated inputs on both value backends."""
        program = linear_bgv()
        functional = repro.run(program, backend="functional", seed=9)
        reference = repro.run(program, backend="reference", seed=9)
        for key in reference.outputs:
            assert np.array_equal(
                functional.outputs[key] % 256, reference.outputs[key] % 256
            )

    def test_concurrent_seeded_runs_deterministic(self):
        """Workers with explicit seeds share no hidden RNG state."""
        program = poly_ckks()
        baseline = repro.run(program, backend="functional", seed=5).outputs
        results = [None] * 4

        def worker(idx):
            results[idx] = repro.run(
                program, backend="functional", seed=5
            ).outputs

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for outputs in results:
            for key in baseline:
                assert np.array_equal(outputs[key], baseline[key])
