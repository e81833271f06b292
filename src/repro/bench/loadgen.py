"""Synthetic-traffic load generator for the serving runtime.

Measures what the serve layer buys over the pre-serving status quo, where
every request is one isolated ``repro.run`` call that compiles, keygens,
and executes alone:

- **measured** requests/s on :class:`~repro.backends.FunctionalBackend` —
  real encryption, wall-clock timed — for batched serving
  (:class:`~repro.serve.FheServer`) vs the sequential baseline, with the
  registry's compile/keygen cache hit rate and batch occupancy reported;
- **modeled** requests/s on :class:`~repro.backends.F1Backend` — the slot
  layout's capacity divided by the accelerator's modeled batch time;
- a correctness cross-check: a sample of served outputs must match solo
  runs (bit-identical for BGV, within tolerance for CKKS);
- a **mixed-depth + rotation** scenario: traffic arriving at several
  levels (cross-level packing) and a CKKS rotation stencil
  (rotate-then-mask batching) measured against the old solo-fallback
  eligibility, with per-signature occupancy from ``FheServer.stats()``.

With ``--processes N`` it instead measures the *executor* axis: the same
traffic through the threaded executor (GIL-bound, per-context lock) versus
the :class:`~repro.net.remote.ProcessExecutor` (N worker-process
context replicas, no cross-request lock), on a CPU-bound program mix.
Process outputs are cross-checked bit-identical (BGV) / tolerance-equal
(CKKS) against solo threaded runs.  Real multi-core speedup obviously
requires multiple cores; on a single-core host the report still validates
correctness and prints the core count next to the measured ratio.

With ``--hosts N`` it measures the *network* tier: the same CPU-bound mix
served through a :class:`~repro.net.remote.RemoteExecutor` over N local
worker-host subprocesses (consistent-hash sharding, framed socket
transport) versus the identical stack over a single host.  Each
measurement spawns its own fresh cluster, so both sides start cold —
the ratio isolates what sharding across hosts buys, and remote outputs
are cross-checked against solo runs exactly like the process mode.

With ``--chaos SEED`` it runs the *resilience* soak instead: the same
traffic through a fault-injected local cluster
(:mod:`repro.net.chaos` — seeded drops, corrupt frames, delays, plus a
worker kill and restart mid-run), asserting the resilience contract:
zero lost futures, every status in ``{ok, expired, failed, shed}``, and
every ok result identical to a solo run despite retries and failover.

Run it::

    PYTHONPATH=src python -m repro.bench.loadgen
    PYTHONPATH=src python -m repro.bench.loadgen --requests 256 --n 1024
    PYTHONPATH=src python -m repro.bench.loadgen --processes 4
    PYTHONPATH=src python -m repro.bench.loadgen --hosts 2
    PYTHONPATH=src python -m repro.bench.loadgen --chaos 7
"""

from __future__ import annotations

import argparse
import os
import time

import numpy as np

import repro
from repro.backends import FunctionalBackend, default_plaintext_modulus
from repro.dsl.program import OpKind, Program
from repro.serve import FheServer, ProcessExecutor, ProgramRegistry, Request, SlotBatcher
from repro.serve.batcher import solo_layout


# ------------------------------------------------------------------ workloads
def linear_bgv_program(n: int = 512, *, level: int = 3) -> Program:
    """A batchable BGV scoring circuit: x*w + bias (shared model weights)."""
    p = Program(n=n, scheme="bgv", name="serve_linear_bgv")
    x = p.input(level, name="x")
    w = p.input_plain(level, name="weights")
    bias = p.input_plain(level, name="bias")
    p.output(p.add_plain(p.mul_plain(x, w), bias), name="score")
    return p


def poly_ckks_program(n: int = 512, *, level: int = 4) -> Program:
    """A batchable CKKS polynomial: x*y + x (slot-wise ct x ct multiply)."""
    p = Program(n=n, scheme="ckks", name="serve_poly_ckks")
    x = p.input(level, name="x")
    y = p.input(level, name="y")
    p.output(p.add(p.mul(x, y), x), name="x*y + x")
    return p


def rotation_ckks_program(n: int = 512, *, level: int = 3) -> Program:
    """A batchable CKKS stencil: x + rot(x,1) + rot(x,2).

    All rotations share one source handle, so the functional path hoists
    them into one ``rotate_many`` call; under slot batching each global
    rotation is lowered to rotate-then-mask.  Before rotation-tolerant
    batching this traffic class was served strictly solo.
    """
    p = Program(n=n, scheme="ckks", name="serve_rotation_ckks")
    x = p.input(level, name="x")
    acc = p.add(x, p.rotate(x, 1))
    p.output(p.add(acc, p.rotate(x, 2)), name="stencil")
    return p


def deep_ckks_program(n: int = 1024, *, level: int = 6) -> Program:
    """A CPU-bound batchable CKKS chain: three ct x ct multiplies.

    Each multiply pays a tensor product plus a key switch, so one batch is
    dominated by numpy-heavy kernel work — the mix where a process pool
    pays off over GIL-bound threads.
    """
    p = Program(n=n, scheme="ckks", name="serve_deep_ckks")
    x = p.input(level, name="x")
    y = p.input(level, name="y")
    acc = p.mul(x, y)
    acc = p.mul(acc, x)
    acc = p.mul(acc, y)
    p.output(acc, name="x^2*y^2*x... chain")
    return p


def synthetic_requests(program: Program, count: int, *, width: int,
                       seed: int = 0) -> list[Request]:
    """Deterministic per-client request vectors for every input/plain op.

    BGV plains are shared across requests (model weights — also what the
    slot batcher requires for MUL_PLAIN operands); CKKS plains and all
    encrypted inputs are drawn per request.
    """
    rng = np.random.default_rng(seed)
    t = default_plaintext_modulus(program)
    is_ckks = program.scheme == "ckks"

    def draw():
        return (rng.uniform(-1.0, 1.0, width) if is_ckks
                else rng.integers(0, t, width))

    input_ids = [op.op_id for op in program.ops if op.kind is OpKind.INPUT]
    plain_ids = [op.op_id for op in program.ops
                 if op.kind is OpKind.INPUT_PLAIN]
    shared_plains = {op_id: draw() for op_id in plain_ids} if not is_ckks else {}
    requests = []
    for _ in range(count):
        requests.append(Request(
            inputs={op_id: draw() for op_id in input_ids},
            plains=(dict(shared_plains) if not is_ckks
                    else {op_id: draw() for op_id in plain_ids}),
        ))
    return requests


def mixed_level_requests(program: Program, count: int, *, width: int,
                         levels: tuple[int, ...], seed: int = 0,
                         ) -> list[Request]:
    """Synthetic traffic whose arrival levels cycle through ``levels``.

    Models a fleet of clients at different depths of a larger pipeline
    (some mid-computation, some fresh) hitting the same scoring circuit.
    """
    requests = synthetic_requests(program, count, width=width, seed=seed)
    for i, request in enumerate(requests):
        request.level = levels[i % len(levels)]
    return requests


# ----------------------------------------------------------------- harnesses
def sequential_throughput(program: Program, requests: list[Request],
                          *, seed: int = 0) -> dict:
    """The status quo: one isolated ``repro.run`` per request.

    Each call constructs a fresh functional backend, so every request
    pays parameter generation, keygen, and hint generation again —
    exactly what a naive per-request service would do.
    """
    start = time.perf_counter()
    outputs = []
    for request in requests:
        result = repro.run(
            program, backend=FunctionalBackend(validate=False),
            inputs=request.inputs, plains=request.plains or None, seed=seed,
        )
        outputs.append(result.outputs)
    elapsed = time.perf_counter() - start
    return {
        "requests": len(requests),
        "elapsed_s": elapsed,
        "requests_per_s": len(requests) / elapsed,
        "outputs": outputs,
    }


def serving_throughput(program: Program, requests: list[Request], *,
                       width: int, max_batch: int | None = None,
                       workers: int = 2, max_wait_ms: float = 5.0,
                       seed: int = 0, executor="thread") -> dict:
    """Batched serving through :class:`FheServer`, wall-clock timed."""
    registry = ProgramRegistry()
    start = time.perf_counter()
    with FheServer(max_batch=max_batch, max_wait_ms=max_wait_ms,
                   workers=workers, registry=registry, seed=seed,
                   executor=executor) as server:
        futures = [
            server.submit(program, inputs=request.inputs,
                          plains=request.plains, width=width)
            for request in requests
        ]
        server.flush()
        results = [future.result() for future in futures]
        elapsed = time.perf_counter() - start
        stats = server.stats()
    return {
        "requests": len(requests),
        "elapsed_s": elapsed,
        "requests_per_s": len(requests) / elapsed,
        "mean_occupancy": stats["mean_occupancy"],
        "mean_batch_size": stats["mean_batch_size"],
        "cache_hit_rate": stats["registry"]["hit_rate"],
        "latency_ms": stats["latency_ms"],
        "results": results,
    }


def solo_fallback_throughput(program: Program, requests: list[Request],
                             *, seed: int = 0) -> dict:
    """The pre-rotation/cross-level *eligibility* baseline.

    Before this traffic class became batchable (rotations lowered to
    rotate-then-mask, off-base arrival levels mod-switched to a common
    waterline), the server's ``unbatchable_reason`` gate sent every such
    request down the solo path: registry-cached context — setup is still
    amortized — but one full program execution per request, leveled
    requests honored via :func:`~repro.serve.batcher.solo_layout`.
    """
    registry = ProgramRegistry()
    entry, _ = registry.context_for(program, seed=seed)
    backend = FunctionalBackend(validate=False)
    base = max((op.level for op in program.ops
                if op.kind is OpKind.INPUT), default=1)
    start = time.perf_counter()
    outputs = []
    for request in requests:
        kw = {}
        if request.level is not None and request.level != base:
            kw["batch_layout"] = solo_layout(program, request.level)
        result = backend.run(
            program, inputs=request.inputs, plains=request.plains or None,
            seed=seed, context=entry.context, **kw,
        )
        outputs.append(result.outputs)
    elapsed = time.perf_counter() - start
    return {
        "requests": len(requests),
        "elapsed_s": elapsed,
        "requests_per_s": len(requests) / elapsed,
        "outputs": outputs,
    }


def mixed_serving_throughput(program: Program, requests: list[Request], *,
                             width: int, max_batch: int | None = None,
                             workers: int = 2, max_wait_ms: float = 5.0,
                             seed: int = 0) -> dict:
    """Batched serving of leveled traffic through :class:`FheServer`."""
    registry = ProgramRegistry()
    start = time.perf_counter()
    with FheServer(max_batch=max_batch, max_wait_ms=max_wait_ms,
                   workers=workers, registry=registry, seed=seed) as server:
        futures = [
            server.submit(program, inputs=request.inputs,
                          plains=request.plains, width=width,
                          level=request.level)
            for request in requests
        ]
        server.flush()
        results = [future.result() for future in futures]
        elapsed = time.perf_counter() - start
        stats = server.stats()
    sig_rows = list(stats["per_signature"].values())
    occupancy = sig_rows[0]["mean_occupancy"] if sig_rows else 0.0
    return {
        "requests": len(requests),
        "elapsed_s": elapsed,
        "requests_per_s": len(requests) / elapsed,
        "mean_occupancy": occupancy,
        "batch_size_histogram": (sig_rows[0]["batch_size_histogram"]
                                 if sig_rows else {}),
        "results": results,
    }


def run_mixed_loadgen(*, n: int = 512, width: int = 8, requests: int = 64,
                      workers: int = 2, max_wait_ms: float = 5.0,
                      seed: int = 0, verbose: bool = True) -> dict:
    """Mixed-depth + rotation traffic: batched serving vs solo fallback.

    Two scenarios that the old eligibility rules forced down the solo
    path: a BGV scoring circuit with requests arriving at alternating
    depths, and a CKKS rotation stencil with arrivals at two depths.
    Both are cross-checked request-by-request against solo executions.
    """
    scenarios = [
        (linear_bgv_program(n), (3, 2)),
        (rotation_ckks_program(n), (3, 2)),
    ]
    report: dict = {}
    for program, levels in scenarios:
        reqs = mixed_level_requests(program, requests, width=width,
                                    levels=levels, seed=seed)
        solo = solo_fallback_throughput(program, reqs, seed=seed)
        srv = mixed_serving_throughput(program, reqs, width=width,
                                       workers=workers,
                                       max_wait_ms=max_wait_ms, seed=seed)
        err = crosscheck(program, srv["results"], solo["outputs"],
                         width=width)
        speedup = srv["requests_per_s"] / solo["requests_per_s"]
        report[program.name] = {
            "scheme": program.scheme,
            "levels": levels,
            "solo_fallback_rps": solo["requests_per_s"],
            "serving_rps": srv["requests_per_s"],
            "speedup": speedup,
            "mean_occupancy": srv["mean_occupancy"],
            "max_ckks_error": err,
        }
        if verbose:
            row = report[program.name]
            print(f"{program.name} ({program.scheme}, N={n}, width={width}, "
                  f"{requests} requests at levels {levels})")
            print(f"  solo fallback        : {row['solo_fallback_rps']:8.1f} req/s")
            print(f"  batched FheServer    : {row['serving_rps']:8.1f} req/s "
                  f"({speedup:.1f}x), occupancy {row['mean_occupancy']:.2f}")
    return report


def modeled_f1_throughput(program: Program, *, width: int,
                          config=None) -> dict:
    """Modeled accelerator serving rate: capacity requests per batch time."""
    batcher = SlotBatcher(program, width=width)
    registry = ProgramRegistry()
    entry, _ = registry.compiled_for(program, config)
    time_ms = entry.compiled.time_ms
    return {
        "capacity": batcher.capacity,
        "batch_time_ms": time_ms,
        "requests_per_s_batched": batcher.capacity / time_ms * 1e3,
        "requests_per_s_solo": 1.0 / time_ms * 1e3,
        "speedup": float(batcher.capacity),
    }


def _compare_one(program: Program, served_values: dict, solo_outputs: dict,
                 t: int, idx: int) -> float:
    """One served result vs its solo-run outputs; returns the CKKS error."""
    max_err = 0.0
    for out_id, solo in solo_outputs.items():
        got = served_values[out_id]
        want = np.asarray(solo)[: got.shape[0]]
        if program.scheme == "ckks":
            max_err = max(max_err, float(np.max(np.abs(got - want))))
        elif not np.array_equal(got % t, want % t):
            raise AssertionError(
                f"served output {out_id} of request {idx} is not "
                f"bit-identical to the solo run"
            )
    return max_err


def _check_ckks_drift(program: Program, max_err: float) -> float:
    if program.scheme == "ckks" and max_err > 1e-2:
        raise AssertionError(
            f"served CKKS outputs drift {max_err:.2e} from solo runs"
        )
    return max_err


def crosscheck(program: Program, served: list, sequential_outputs: list,
               *, width: int, sample: int = 4) -> float:
    """Served outputs must match solo runs; returns the max CKKS error."""
    t = default_plaintext_modulus(program)
    max_err = 0.0
    step = max(1, len(served) // sample)
    for idx in range(0, len(served), step):
        max_err = max(max_err, _compare_one(
            program, served[idx].values, sequential_outputs[idx], t, idx
        ))
    return _check_ckks_drift(program, max_err)


def process_crosscheck(program: Program, served: list,
                       requests: list[Request], *, sample: int = 4) -> float:
    """A sample of process-served outputs must match solo threaded runs.

    Each sampled request is re-run alone, in this process, on a fresh
    functional backend — the comparison itself (bit-identical BGV,
    tolerance CKKS) is shared with :func:`crosscheck`.
    """
    t = default_plaintext_modulus(program)
    max_err = 0.0
    step = max(1, len(served) // sample)
    for idx in range(0, len(served), step):
        solo = repro.run(
            program, backend=FunctionalBackend(validate=False),
            inputs=requests[idx].inputs, plains=requests[idx].plains or None,
            seed=1,
        )
        max_err = max(max_err, _compare_one(
            program, served[idx].values, solo.outputs, t, idx
        ))
    return _check_ckks_drift(program, max_err)


def run_process_loadgen(*, processes: int = 4, n: int = 1024, width: int = 16,
                        requests: int = 48, max_wait_ms: float = 5.0,
                        seed: int = 0, workers: int | None = None,
                        verbose: bool = True) -> dict:
    """Thread-executor vs process-executor serving on a CPU-bound mix.

    Both sides run the identical :class:`FheServer` configuration
    (``workers`` threads, default ``processes``) — only the executor
    changes, so the measured ratio isolates what worker-process context
    replicas buy over the GIL-bound per-context-lock path.
    """
    workers = workers or processes
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    programs = [linear_bgv_program(n, level=3), deep_ckks_program(n)]
    report: dict = {"processes": processes, "cores": cores}
    # Fork the pool before any server thread exists, and reuse it across
    # the whole mix — contexts replicate once per signature per worker.
    pool = ProcessExecutor(processes)
    try:
        for program in programs:
            reqs = synthetic_requests(program, requests, width=width,
                                      seed=seed)
            threaded = serving_throughput(
                program, reqs, width=width, workers=workers,
                max_wait_ms=max_wait_ms, seed=seed, executor="thread",
            )
            processed = serving_throughput(
                program, reqs, width=width, workers=workers,
                max_wait_ms=max_wait_ms, seed=seed, executor=pool,
            )
            err = process_crosscheck(program, processed["results"], reqs)
            speedup = (processed["requests_per_s"]
                       / threaded["requests_per_s"])
            report[program.name] = {
                "scheme": program.scheme,
                "thread_rps": threaded["requests_per_s"],
                "process_rps": processed["requests_per_s"],
                "speedup": speedup,
                "max_ckks_error": err,
            }
            if verbose:
                row = report[program.name]
                print(f"{program.name} ({program.scheme}, N={n}, "
                      f"width={width}, {requests} requests, "
                      f"{processes} workers, {cores} core(s))")
                print(f"  ThreadExecutor       : {row['thread_rps']:8.1f} req/s")
                print(f"  ProcessExecutor      : {row['process_rps']:8.1f} req/s "
                      f"({speedup:.2f}x)")
    finally:
        pool.close()
    return report


def run_cluster_loadgen(*, hosts: int = 2, n: int = 1024, width: int = 16,
                        requests: int = 48, max_batch: int = 8,
                        max_wait_ms: float = 5.0, seed: int = 0,
                        workers: int | None = None,
                        verbose: bool = True) -> dict:
    """Single-host vs N-host remote serving on the CPU-bound mix.

    Every measurement spawns a *fresh* local cluster (cold twiddle/hint
    caches on every host) and tears it down afterwards, so the single-
    and multi-host numbers are directly comparable; ``max_batch`` keeps
    several batches in flight per program, which is what gives the
    consistent-hash router spillover traffic to shard.
    """
    from repro.net.cluster import LocalCluster

    workers = workers or hosts
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    programs = [linear_bgv_program(n, level=3), deep_ckks_program(n)]
    report: dict = {"hosts": hosts, "cores": cores}

    def measure(program, reqs, host_count):
        with LocalCluster(host_count) as cluster:
            with cluster.executor() as pool:
                return serving_throughput(
                    program, reqs, width=width, max_batch=max_batch,
                    workers=workers, max_wait_ms=max_wait_ms, seed=seed,
                    executor=pool,
                )

    for program in programs:
        reqs = synthetic_requests(program, requests, width=width, seed=seed)
        single = measure(program, reqs, 1)
        sharded = measure(program, reqs, hosts)
        err = process_crosscheck(program, sharded["results"], reqs)
        speedup = sharded["requests_per_s"] / single["requests_per_s"]
        report[program.name] = {
            "scheme": program.scheme,
            "single_host_rps": single["requests_per_s"],
            "sharded_rps": sharded["requests_per_s"],
            "speedup": speedup,
            "max_ckks_error": err,
        }
        if verbose:
            row = report[program.name]
            print(f"{program.name} ({program.scheme}, N={n}, width={width}, "
                  f"{requests} requests, max_batch={max_batch}, "
                  f"{hosts} hosts, {cores} core(s))")
            print(f"  1 worker host        : {row['single_host_rps']:8.1f} req/s")
            print(f"  {hosts} worker hosts       : {row['sharded_rps']:8.1f} req/s "
                  f"({speedup:.2f}x)")
    return report


def run_loadgen(*, n: int = 512, width: int = 8, requests: int = 64,
                workers: int = 2, max_wait_ms: float = 5.0,
                seed: int = 0, verbose: bool = True) -> dict:
    """Full report: measured BGV + CKKS serving speedups and modeled F1."""
    report: dict = {}
    for program in (linear_bgv_program(n), poly_ckks_program(n)):
        reqs = synthetic_requests(program, requests, width=width, seed=seed)
        seq = sequential_throughput(program, reqs, seed=seed)
        srv = serving_throughput(program, reqs, width=width,
                                 workers=workers, max_wait_ms=max_wait_ms,
                                 seed=seed)
        err = crosscheck(program, srv["results"], seq["outputs"], width=width)
        speedup = srv["requests_per_s"] / seq["requests_per_s"]
        report[program.name] = {
            "scheme": program.scheme,
            "sequential_rps": seq["requests_per_s"],
            "serving_rps": srv["requests_per_s"],
            "speedup": speedup,
            "mean_occupancy": srv["mean_occupancy"],
            "cache_hit_rate": srv["cache_hit_rate"],
            "p50_latency_ms": srv["latency_ms"]["p50"],
            "p99_latency_ms": srv["latency_ms"]["p99"],
            "max_ckks_error": err,
        }
        if verbose:
            row = report[program.name]
            print(f"{program.name} ({program.scheme}, N={n}, width={width}, "
                  f"{requests} requests)")
            print(f"  sequential repro.run : {row['sequential_rps']:8.1f} req/s")
            print(f"  batched FheServer    : {row['serving_rps']:8.1f} req/s "
                  f"({speedup:.1f}x)")
            print(f"  occupancy {row['mean_occupancy']:.2f}, cache hit rate "
                  f"{row['cache_hit_rate']:.2f}, p50 {row['p50_latency_ms']:.1f} ms, "
                  f"p99 {row['p99_latency_ms']:.1f} ms")
    f1_program = poly_ckks_program(16384, level=8)
    f1 = modeled_f1_throughput(f1_program, width=width)
    report["f1_modeled"] = f1
    if verbose:
        print(f"{f1_program.name} on F1 (modeled, N=16384, width={width})")
        print(f"  one request per run  : {f1['requests_per_s_solo']:8.1f} req/s")
        print(f"  {f1['capacity']} requests per batch: "
              f"{f1['requests_per_s_batched']:8.1f} req/s ({f1['speedup']:.0f}x)")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # n/width/requests default to None so each mode can pick its own
    # defaults (classic: 512/8/64; --processes: 1024/16/48) without
    # clobbering explicitly passed values.
    parser.add_argument("--n", type=int, default=None, help="ring degree")
    parser.add_argument("--width", type=int, default=None,
                        help="values per request")
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--workers", type=int, default=None,
                        help="server worker threads (classic mode: 2; "
                             "--processes mode: the process count)")
    parser.add_argument("--max-wait-ms", type=float, default=5.0)
    parser.add_argument("--processes", type=int, default=0,
                        help="compare thread vs process executors with this "
                             "many workers (0 = classic batching report)")
    parser.add_argument("--hosts", type=int, default=0,
                        help="compare 1-host vs N-host remote serving over "
                             "local worker-host subprocesses (0 = off)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="record per-request spans and write a Chrome "
                             "trace-event JSON timeline here (open in "
                             "ui.perfetto.dev); works in every mode, "
                             "including --hosts")
    parser.add_argument("--chaos", metavar="SEED", type=int, default=None,
                        help="run the seeded chaos soak instead: loadgen "
                             "traffic through a fault-injected local "
                             "cluster (drops, corrupt frames, delays, one "
                             "worker kill + restart); exits non-zero if "
                             "any future is lost or any ok result "
                             "diverges from a solo run")
    args = parser.parse_args(argv)
    if not args.trace:
        return _run(args)
    # Enable the process-wide tracer up front: FheServer.submit mints a
    # trace id per request whenever the tracer is live, and worker-side
    # spans ship back over the wire into the coordinator ring dumped below.
    from repro.obs.trace import tracer

    tracer().set_label("coordinator")
    tracer().enable()
    try:
        return _run(args)
    finally:
        n_spans = tracer().dump(args.trace)
        print(f"trace: {n_spans} spans -> {args.trace}")


def _run(args) -> int:
    if args.chaos is not None:
        from repro.net.chaos import chaos_soak

        return chaos_soak(
            seed=args.chaos,
            hosts=args.hosts or 2,
            requests=args.requests or 32,
            n=args.n or 256,
            width=args.width or 8,
        )
    if args.hosts:
        report = run_cluster_loadgen(
            hosts=args.hosts,
            n=args.n or 1024,
            width=args.width or 16,
            requests=args.requests or 48,
            max_wait_ms=args.max_wait_ms,
            workers=args.workers,
        )
        speedups = [row["speedup"] for row in report.values()
                    if isinstance(row, dict)]
        floor = min(speedups)
        cores = report["cores"]
        print(f"\nmin sharded-vs-single-host speedup: {floor:.2f}x on "
              f"{cores} core(s) ({'>=' if floor >= 1.5 else '<'} 1.5x "
              f"target; outputs cross-checked against solo runs)")
        if cores < 2:
            print("single-core host: the 1.5x multi-core target cannot "
                  "materialize here; correctness cross-check is the gate")
            return 0
        return 0 if floor >= 1.5 else 1
    if args.processes:
        report = run_process_loadgen(
            processes=args.processes,
            n=args.n or 1024,
            width=args.width or 16,
            requests=args.requests or 48,
            max_wait_ms=args.max_wait_ms,
            workers=args.workers,
        )
        speedups = [row["speedup"] for key, row in report.items()
                    if isinstance(row, dict)]
        floor = min(speedups)
        cores = report["cores"]
        print(f"\nmin process-vs-thread speedup: {floor:.2f}x on "
              f"{cores} core(s) ({'>=' if floor >= 2 else '<'} 2x target; "
              f"outputs cross-checked against solo runs)")
        if cores < 2:
            print("single-core host: the 2x multi-core target cannot "
                  "materialize here; correctness cross-check is the gate")
            return 0
        return 0 if floor >= 2.0 else 1
    report = run_loadgen(n=args.n or 512, width=args.width or 8,
                         requests=args.requests or 64,
                         workers=args.workers or 2,
                         max_wait_ms=args.max_wait_ms)
    measured = [row["speedup"] for key, row in report.items()
                if key != "f1_modeled"]
    floor = min(measured)
    print(f"\nmin measured serving speedup: {floor:.1f}x "
          f"({'>=' if floor >= 5 else '<'} 5x target)")
    print()
    mixed = run_mixed_loadgen(n=args.n or 512, width=args.width or 8,
                              requests=args.requests or 64,
                              workers=args.workers or 2,
                              max_wait_ms=args.max_wait_ms)
    mixed_floor = min(row["speedup"] for row in mixed.values())
    print(f"\nmin mixed-depth/rotation speedup over solo fallback: "
          f"{mixed_floor:.1f}x ({'>=' if mixed_floor >= 2 else '<'} 2x "
          f"target; outputs cross-checked against solo runs)")
    return 0 if floor >= 5.0 and mixed_floor >= 2.0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
