#!/usr/bin/env python
"""Perf-regression harness for the batched-engine hot paths.

Usage (from the repo root):

    PYTHONPATH=src python benchmarks/check_perf.py            # check vs baseline
    PYTHONPATH=src python benchmarks/check_perf.py --write    # (re)write baseline
    PYTHONPATH=src python benchmarks/check_perf.py --compare  # old-vs-new ratios
    PYTHONPATH=src python benchmarks/check_perf.py --tolerance 3.0

Times a fixed set of hot kernels (all-limb NTT, CRT conversions, base
extension through the public call and the batched conversion table, the
object-free scale-down, the lazy word-matmul CRT reconstruction on a tall
16-limb basis, the
block driver on the (18, 18, 1024) digit stack of an 18-limb key switch,
on the paper's ring (16, 16384) and on single (1, 512) / (3, 512) calls
(the small ring's fixed cost), Listing-1 and raised-modulus key switch,
the Listing-1 key switch at ``engine_solo``'s BGV shape (N=1024, L=18),
hoisted rotations, the chained modulus switch,
one 18-limb BGV modulus switch, the CKKS mod-down, one CKKS multiply and
its rescale as one fused step at the ``serve_deep`` shape (N=1024, L=6),
plus the serving hot paths: slot pack/unpack, registry lookup,
the context serde round-trip paid when replicating state into a worker
process, the executor's batch-dispatch overhead, the server's
ready-bucket pick, the level/rotation
batching paths: a mixed-level BGV batch and a masked CKKS rotation batch,
one 21-wide N=512 stencil batch of the mixed serving workloads,
the CKKS encoder at N=1024 / 4096, the same two batches on two contexts
from one thread and from two (gated as a ratio, ``CONVOY_LIMIT``),
and the network tier: the frame codec round-trip and a full remote batch
dispatch against a live local worker-host subprocess, plus the
observability guards: the disabled-tracing span check and a metrics-blob
histogram merge, and the resilience guards: the per-routing-decision
circuit-breaker check and the retry wrapper's no-fault dispatch overhead,
and the paper-side compiler: translation, data-movement scheduling, cycle
scheduling and the schedule checker on one Table-3 program, plus
data-movement scheduling on one that fills the scratchpad)
and compares each against the recorded baseline in ``BENCH_engine.json``
next to this script.  A kernel regresses if it is more than ``--tolerance``
times slower than baseline (generous by default: baselines travel between
machines).  Exits non-zero on regression so CI can gate on it.

``--compare`` prints the per-kernel old-vs-new speedup table (baseline time
divided by measured time) without gating — the tool for quantifying a perf
PR before rewriting the baseline with ``--write``.  It also derives the
hoisting payoff (``rotate_sequential / rotate_many_hoisted``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_engine.json"
DEFAULT_TOLERANCE = 2.5
#: serve_two_contexts_threaded may read at most this multiple of
#: serve_two_contexts_serial: two worker threads must not convoy on the GIL.
CONVOY_LIMIT = 1.25


def span_overhead_probe(n: int = 4096) -> int:
    """The disabled-path cost of the tracing guard.

    Models the per-request hot-path check the serving layer pays when
    tracing is off: one ``active`` read per would-be span site.
    """
    from repro.obs.trace import tracer

    t = tracer()
    hits = 0
    for _ in range(n):
        if t.active:
            hits += 1
        if t.active:
            hits += 1
        if t.active:
            hits += 1
    return hits


def breaker_check_probe(n: int = 1024) -> int:
    """Hot-path cost of consulting a breaker per routing decision."""
    from repro.serve.resilience import CircuitBreaker

    breaker = CircuitBreaker()
    for _ in range(n):
        breaker.allow()
        breaker.record_success()
    return n


def retry_overhead_probe(n: int = 1024) -> int:
    """Per-batch bookkeeping the retry wrapper adds on the no-fault hot
    path: deadline math, a breaker peek, and one backoff computation."""
    import random

    from repro.serve.resilience import CircuitBreaker, RetryPolicy

    policy = RetryPolicy()
    breaker = CircuitBreaker()
    rng = random.Random(0)
    clock = time.perf_counter
    sink = 0.0
    for _ in range(n):
        deadline = clock() + 1.0
        remaining = deadline - clock()
        if breaker.would_allow():
            delay = policy.backoff_s(1, rng=rng, remaining_s=remaining)
            sink += delay if delay is not None else 0.0
    return n


def _kernels():
    from repro.fhe.bgv import BgvContext
    from repro.fhe.ckks import CkksContext
    from repro.fhe.keyswitch import (
        base_extend,
        key_switch_v1,
        key_switch_v2,
        scale_down,
    )
    from repro.fhe.params import FheParams
    from repro.fhe.sampling import uniform_poly
    from repro.poly.ntt import get_rns_context
    from repro.poly.polynomial import Domain, RnsPolynomial
    from repro.rns import convert
    from repro.rns.crt import RnsBasis
    from repro.rns.primes import ntt_friendly_primes

    n, level = 1024, 8
    rng = np.random.default_rng(17)
    basis = RnsBasis(ntt_friendly_primes(n, 28, level))
    ctx = get_rns_context(n, basis.moduli)
    limbs = np.stack(
        [rng.integers(0, q, n, dtype=np.uint64) for q in basis.moduli]
    )
    evals = ctx.forward(limbs)
    ints = basis.from_rns(limbs)
    special = RnsBasis(
        [p for p in ntt_friendly_primes(n, 27, level + 4) if p not in basis.moduli][
            :level
        ]
    )
    extended = RnsBasis(basis.moduli + special.moduli)
    x_coeff = RnsPolynomial(basis, limbs, Domain.COEFF)

    # Conversion kernels: the batched conversion-table path, the object-free
    # scale-down, and the lazy word-matmul CRT reconstruction on a tall
    # 16-limb basis (where a big-int sum would be most expensive).
    base_conv = convert.get_base_conversion(basis.moduli, extended.moduli)
    base_conv.convert(limbs)  # build cached tables outside the timed region
    ext_limbs = np.stack(
        [rng.integers(0, q, n, dtype=np.uint64) for q in extended.moduli]
    )
    x_ext = RnsPolynomial(extended, ext_limbs, Domain.COEFF)
    tall = RnsBasis(ntt_friendly_primes(n, 28, 16))
    tall_limbs = np.stack(
        [rng.integers(0, q, n, dtype=np.uint64) for q in tall.moduli]
    )
    # The transform shapes the engine is bound by: the digit stack of an
    # 18-limb Listing-1 key switch (18 blocks of whole matrices) and one
    # polynomial at the paper's ring (16 single-limb blocks).
    def _transform_input(shape):
        moduli = ntt_friendly_primes(shape[-1], 28, shape[-2])
        stack = np.stack([
            rng.integers(0, q, shape[:-2] + shape[-1:], dtype=np.uint64)
            for q in moduli], axis=-2)
        return get_rns_context(shape[-1], tuple(moduli)), stack

    digit_ctx, digit_stack = _transform_input((18, 18, 1024))
    paper_ctx, paper_limbs = _transform_input((16, 16384))

    # Basis surgery in the NTT domain: one BGV modulus switch and one
    # Listing-1 key switch at 18 limbs (engine_solo's BGV shape), the
    # raised-modulus key switch at 6, the CKKS mod-down (a slice), and a
    # CKKS multiply with its rescale, fused (the serve_deep shape).
    deep = BgvContext(FheParams.build(n=1024, levels=18, plaintext_modulus=257),
                      seed=3)
    deep_ct = deep.encrypt(np.arange(1024) % 257)
    deep_hint = deep.hint_v1("relin", deep_ct.basis)  # built untimed
    ckks6 = CkksContext(FheParams.build(n=1024, levels=6), seed=3)
    ckks6_ct = ckks6.encrypt_values(np.linspace(-1.0, 1.0, 512))
    v2_hint = ckks6.hint_v2("relin", ckks6_ct.basis)

    params = FheParams.build(n=256, levels=4, prime_bits=28, plaintext_modulus=256)
    bgv = BgvContext(params, seed=3)
    ks_basis = params.basis
    hint = bgv.hint_v1("relin", ks_basis)
    ks_x = uniform_poly(ks_basis, params.n, rng, Domain.NTT)

    # Hoisted rotations: one ciphertext rotated 8 ways (the dot-product /
    # convolution access pattern) vs. 8 independent rotates; plus the
    # chained modulus switch (level 4 -> 1, the three drops folded into one).
    rot_ct = bgv.encrypt(np.arange(params.n) % 256)
    rot_steps = list(range(1, 9))
    for s in rot_steps:  # build galois hints outside the timed region
        bgv.hint_v1(f"galois_{bgv._rotation_exponent(s, params.n)}", ks_basis)

    # Serving hot paths: per-request slot pack/unpack and the registry's
    # signature-hash + cache-hit lookup (paid on every submitted request).
    from repro.serve.traffic import poly_ckks_program, synthetic_requests
    from repro.serve import ProgramRegistry, SlotBatcher

    serve_program = poly_ckks_program(1024)
    batcher = SlotBatcher(serve_program, width=16)
    serve_requests = synthetic_requests(
        serve_program, batcher.capacity, width=16, seed=5
    )
    packed_inputs, _ = batcher.pack(serve_requests)
    out_id = serve_program.ops[-1].op_id
    packed_outputs = {out_id: next(iter(packed_inputs.values()))}
    registry = ProgramRegistry()
    registry.compiled_for(serve_program, check=False)  # warm: time the hit path

    # Serde + executor dispatch paths: a full context pickle round-trip
    # (what replicating one registry entry into a worker process costs) and
    # the executor's batch-dispatch overhead on a modeled backend (the
    # serving layer's per-batch bookkeeping, minus the FHE math itself).
    import pickle

    from repro.backends import CpuBackend
    from repro.serve.executor import BatchJob, ThreadExecutor

    dispatch_executor = ThreadExecutor()
    dispatch_job = BatchJob(
        program=serve_program, signature=serve_program.signature(),
        requests=serve_requests, batcher=batcher, backend=CpuBackend(),
    )

    # The scheduling decision every free worker makes under the server's
    # one lock: pick_ready over 8 buckets x 64 pending, a quarter carrying
    # deadlines, all past their wait bound (the worst case: every bucket
    # is scanned for its due instant *and* ranked).  Tens of µs, or the
    # workers serialize on it.
    from concurrent.futures import Future

    from repro.serve import Request
    from repro.serve.policy import _Group, _Pending, pick_ready

    pick_groups = []
    for _ in range(8):
        group = _Group(serve_program, serve_program.signature(), 4, None)
        group.pending = [
            _Pending(Request(), Future(), i * 1e-4, priority=i % 3,
                     deadline=1.0 + i * 1e-3 if i % 4 == 0 else math.inf,
                     flush_by=i * 1e-4 + 0.01)
            for i in range(64)
        ]
        # warmed, so the quiet-gap term is inside the timed pick
        group.batch_s, group.last_arrival = 0.2, 63e-4
        pick_groups.append(group)

    # Level- and rotation-aware batching hot paths: a mixed-level BGV
    # batch (per-cohort encrypt + mod-switch + merge at the INPUTs) and a
    # CKKS rotation batch (rotate-then-mask lowering), both end-to-end
    # batcher.run calls on prebuilt contexts so keygen stays untimed.
    from repro.backends import FunctionalBackend
    from repro.serve.traffic import (
        linear_bgv_program,
        mixed_level_requests,
        rotation_ckks_program,
    )

    cross_program = linear_bgv_program(256)
    cross_batcher = SlotBatcher(cross_program, width=8)
    cross_requests = mixed_level_requests(
        cross_program, 4, width=8, levels=(3, 2), seed=5
    )
    cross_entry, _ = registry.context_for(cross_program, seed=3)
    rot_program = rotation_ckks_program(256)
    rot_batcher = SlotBatcher(rot_program, width=8)
    rot_requests = mixed_level_requests(
        rot_program, 4, width=8, levels=(3, 3), seed=5
    )
    rot_entry, _ = registry.context_for(rot_program, seed=3)
    serve_backend = FunctionalBackend(validate=False)
    # One 21-wide batch of the mixed workloads' stencil at N=512: two
    # cohort encryptions, a hoisted two-rotation set, masks and decrypt.
    stencil_program = rotation_ckks_program(512)
    stencil_batcher = SlotBatcher(stencil_program, width=8)
    stencil_requests = mixed_level_requests(
        stencil_program, 21, width=8, levels=(3, 2), seed=5
    )
    stencil_entry, _ = registry.context_for(stencil_program, seed=3)

    # The CKKS encoder, both directions (one length-N FFT each), and the
    # GIL-convoy pair: the same two N=512 batches on two different
    # contexts, eight times each, through ThreadExecutor.execute from one
    # thread, then from two (a convoy needs a sustained run to form).  The
    # executor's process-wide gate is what keeps the second from reading
    # ~2x the first (see CONVOY_LIMIT).
    from concurrent.futures import ThreadPoolExecutor

    from repro.fhe.encoding import CkksEncoder

    enc_slots = {n: rng.normal(size=n // 2) + 1j * rng.normal(size=n // 2)
                 for n in (1024, 4096)}
    encoders = {n: CkksEncoder(n, 2.0**30) for n in enc_slots}
    enc_coeffs = {n: encoders[n].encode(z) for n, z in enc_slots.items()}

    two_program = poly_ckks_program(512)
    two_batcher = SlotBatcher(two_program, width=16)
    two_jobs = [
        BatchJob(
            program=two_program, signature=two_program.signature(),
            requests=synthetic_requests(
                two_program, two_batcher.capacity, width=16, seed=seed),
            batcher=two_batcher, backend=serve_backend,
            context_entry=registry.context_for(two_program, seed=seed)[0],
        )
        for seed in (3, 4)
    ]
    two_threads = ThreadPoolExecutor(2)

    def _eight_batches(job):
        for _ in range(8):
            dispatch_executor.execute(job)

    # Network tier: the wire codec on a representative EXECUTE payload
    # (header build + validation + both checksums, both directions), and a
    # full dispatch round-trip — coordinator-side pickling, framed socket
    # send, worker-host execution of a small BGV batch, framed reply —
    # against a live worker subprocess (replication happens in the warmup
    # call, so the timed region is the steady-state per-batch cost).
    from repro.net.cluster import LocalCluster
    from repro.net.framing import MsgType, decode_frame, encode_frame

    frame_payload = pickle.dumps(
        [(r.inputs, r.plains, r.seed, r.level, r.trace)
         for r in serve_requests]
    )
    net_program = linear_bgv_program(128)
    net_batcher = SlotBatcher(net_program, width=4)
    net_requests = mixed_level_requests(
        net_program, 4, width=4, levels=(3,), seed=5
    )
    net_entry, _ = registry.context_for(net_program, seed=3)
    net_cluster = LocalCluster(1)          # atexit-reaped with the process
    net_executor = net_cluster.executor()
    net_job = BatchJob(
        program=net_program, signature=net_program.signature(),
        requests=net_requests, batcher=net_batcher, backend=serve_backend,
        context_entry=net_entry,
    )

    # Observability hot paths: the disabled-tracing guard the serving
    # layer pays on every request (must stay a bare attribute read), and
    # a cross-process histogram merge of two realistic metrics blobs
    # (what every HEARTBEAT/RESULT reply costs the coordinator).
    from repro.obs.metrics import MetricsRegistry, merge_snapshots

    def _metrics_blob(seed: int) -> dict:
        blob_rng = np.random.default_rng(seed)
        reg = MetricsRegistry()
        for name in ("serve.latency_ms", "serve.queue_ms",
                     "serve.execute_ms", "kernel.ntt_forward.ms"):
            h = reg.histogram(name)
            for v in blob_rng.lognormal(1.0, 1.5, 512):
                h.observe(float(v))
        reg.counter("serve.requests").inc(512)
        return reg.snapshot()

    blob_a, blob_b = _metrics_blob(1), _metrics_blob(2)

    # Resilience hot paths (the probes above): the per-routing-decision
    # circuit-breaker check and the per-batch retry-wrapper bookkeeping —
    # the no-fault overhead the resilience tier adds to every dispatch.

    # The F1 compiler, phase by phase, and the schedule checker, each on the
    # artifacts of the phase before it: Table 3's logistic regression at
    # scale 0.05 (40 370 instructions, 48 124 movement events).  It never
    # fills the scratchpad, so its phase 2 is the closed-form prefix alone;
    # bgv_bootstrapping fills it at instruction 10 922 of 22 838 and times
    # the per-instruction eviction loop too.
    from repro.bench.workloads import benchmark_suite
    from repro.compiler import (
        compile_program,
        compile_to_instructions,
        schedule_cycles,
        schedule_data_movement,
    )
    from repro.sim.simulator import check_schedule

    f1_program = benchmark_suite(scale=0.05)["logistic_regression"]
    f1 = compile_program(f1_program)
    f1_graph = f1.translation.graph
    pressured = compile_program(
        benchmark_suite(scale=0.05)["bgv_bootstrapping"]).translation

    # The small ring the mixed serving workloads run at, where a call is
    # one block and its fixed cost (~100 numpy calls) is most of it.
    small_rings = [_transform_input((rows, 512)) for rows in (1, 3)]

    return {
        "ntt_forward_all_limb": lambda: ctx.forward(limbs),
        "ntt_inverse_all_limb": lambda: ctx.inverse(evals),
        "crt_to_rns_wide": lambda: basis.to_rns(ints),
        "crt_from_rns": lambda: basis.from_rns(limbs),
        "crt_from_rns_lazy": lambda: tall.from_rns(tall_limbs),
        "base_extend": lambda: base_extend(x_coeff, extended),
        "base_extend_batched": lambda: base_conv.convert(limbs),
        "scale_down_batched": lambda: scale_down(x_ext, special, 256),
        "ntt_forward_digit_stack": lambda: digit_ctx.forward(digit_stack),
        "ntt_forward_paper_ring": lambda: paper_ctx.forward(paper_limbs),
        "ntt_forward_small_ring": lambda: [
            small_ctx.forward(x) for small_ctx, x in small_rings
        ],
        "key_switch_v1": lambda: key_switch_v1(ks_x, hint),
        "key_switch_v1_deep": lambda: key_switch_v1(deep_ct.a, deep_hint),
        "key_switch_v2": lambda: key_switch_v2(ckks6_ct.a, v2_hint, 1),
        "bgv_mod_switch": lambda: deep.mod_switch(deep_ct),
        "ckks_mod_down": lambda: ckks6.mod_switch_to(ckks6_ct, 3),
        "ckks_mul_rescale": lambda: ckks6.mul_rescale(ckks6_ct, ckks6_ct),
        "rotate_many_hoisted": lambda: bgv.rotate_many(rot_ct, rot_steps),
        "rotate_sequential": lambda: [bgv.rotate(rot_ct, s) for s in rot_steps],
        "mod_switch_chain": lambda: bgv.mod_switch_to(rot_ct, 1),
        "serve_slot_pack": lambda: batcher.pack(serve_requests),
        "serve_slot_unpack": lambda: batcher.unpack(
            packed_outputs, batcher.capacity
        ),
        "serve_registry_lookup": lambda: registry.compiled_for(
            serve_program, check=False
        ),
        "serde_context_roundtrip": lambda: pickle.loads(pickle.dumps(bgv)),
        "serve_dispatch": lambda: dispatch_executor.execute(dispatch_job),
        "serve_schedule_pick": lambda: pick_ready(pick_groups, 0.05),
        "serve_cross_level_pack": lambda: cross_batcher.run(
            cross_requests, backend=serve_backend,
            context=cross_entry.context, seed=3,
        ),
        "serve_rotation_batch": lambda: rot_batcher.run(
            rot_requests, backend=serve_backend,
            context=rot_entry.context, seed=3,
        ),
        "serve_mixed_batch_512": lambda: stencil_batcher.run(
            stencil_requests, backend=serve_backend,
            context=stencil_entry.context, seed=3,
        ),
        "ckks_encode_1024": lambda: encoders[1024].encode(enc_slots[1024]),
        "ckks_decode_1024": lambda: encoders[1024].decode(enc_coeffs[1024]),
        "ckks_encode_4096": lambda: encoders[4096].encode(enc_slots[4096]),
        "ckks_decode_4096": lambda: encoders[4096].decode(enc_coeffs[4096]),
        "serve_two_contexts_serial": lambda: [
            _eight_batches(job) for job in two_jobs
        ],
        "serve_two_contexts_threaded": lambda: list(
            two_threads.map(_eight_batches, two_jobs)
        ),
        "net_frame_roundtrip": lambda: decode_frame(
            encode_frame(MsgType.EXECUTE, frame_payload)
        ),
        "net_dispatch": lambda: net_executor.execute(net_job),
        "obs_span_overhead": lambda: span_overhead_probe(),
        "metrics_histogram_merge": lambda: merge_snapshots(blob_a, blob_b),
        "resilience_breaker_check": lambda: breaker_check_probe(),
        "retry_dispatch_overhead": lambda: retry_overhead_probe(),
        "f1_translate": lambda: compile_to_instructions(
            f1_program, capacity_rvecs=f1.movement.capacity_rvecs
        ),
        "f1_data_schedule": lambda: schedule_data_movement(
            f1_graph, f1.translation.outputs, f1.config
        ),
        "f1_data_schedule_pressured": lambda: schedule_data_movement(
            pressured.graph, pressured.outputs, f1.config
        ),
        "f1_cycle_schedule": lambda: schedule_cycles(
            f1_graph, f1.movement, f1.config
        ),
        "f1_check_schedule": lambda: check_schedule(
            f1_graph, f1.movement, f1.schedule
        ),
    }


def _time(fn, *, reps: int = 7) -> float:
    fn()  # warm caches (twiddle tables, lru caches)
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write", action="store_true",
                        help="write the measured times as the new baseline")
    parser.add_argument("--compare", action="store_true",
                        help="print old-vs-new speedup ratios (no gating)")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="regression threshold (x slower than baseline)")
    args = parser.parse_args(argv)

    measured = {name: _time(fn) for name, fn in _kernels().items()}
    convoy = (measured["serve_two_contexts_threaded"]
              / measured["serve_two_contexts_serial"])
    convoy_line = (f"two contexts, threaded/serial = {convoy:.2f}x "
                   f"(limit {CONVOY_LIMIT}x)")

    if args.compare:
        baseline = (
            json.loads(BASELINE_PATH.read_text()) if BASELINE_PATH.exists() else {}
        )
        print(f"{'kernel':28s} {'baseline':>10s} {'now':>10s} {'speedup':>8s}")
        for name, t in measured.items():
            ref = baseline.get(name)
            if ref is None:
                print(f"{name:28s} {'(new)':>10s} {t * 1e3:9.3f}ms        -")
            else:
                print(f"{name:28s} {ref * 1e3:9.3f}ms {t * 1e3:9.3f}ms "
                      f"{ref / t:7.2f}x")
        hoisted = measured.get("rotate_many_hoisted")
        seq = measured.get("rotate_sequential")
        if hoisted and seq:
            print(f"\nhoisting payoff (k=8): sequential/hoisted = "
                  f"{seq / hoisted:.2f}x")
        print(convoy_line)
        return 0

    if args.write:
        BASELINE_PATH.write_text(
            json.dumps({k: round(v, 6) for k, v in measured.items()}, indent=2)
            + "\n"
        )
        print(f"baseline written to {BASELINE_PATH}")
        for name, t in measured.items():
            print(f"  {name:28s} {t * 1e3:8.3f} ms")
        return 0

    if not BASELINE_PATH.exists():
        print(f"no baseline at {BASELINE_PATH}; run with --write first", file=sys.stderr)
        return 2

    baseline = json.loads(BASELINE_PATH.read_text())
    failed = []
    print(f"{'kernel':28s} {'baseline':>10s} {'now':>10s} {'ratio':>7s}")
    for name, t in measured.items():
        ref = baseline.get(name)
        if ref is None:
            print(f"{name:28s} {'(new)':>10s} {t * 1e3:9.3f}ms      -")
            continue
        ratio = t / ref
        flag = "  REGRESSION" if ratio > args.tolerance else ""
        print(f"{name:28s} {ref * 1e3:9.3f}ms {t * 1e3:9.3f}ms {ratio:6.2f}x{flag}")
        if ratio > args.tolerance:
            failed.append(name)
    print(f"\n{convoy_line}")
    if convoy > CONVOY_LIMIT:
        failed.append("serve_two_contexts_threaded/serial")
    if failed:
        print(f"\nperf regression in: {', '.join(failed)} "
              f"(> {args.tolerance}x baseline, or the convoy limit)",
              file=sys.stderr)
        return 1
    print("\nall kernels within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
