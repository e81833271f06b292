"""The serving workloads: set-up, open/closed load loops, output checks.

The load is generated by one thread of this process.  A closed loop keeps
``outstanding`` requests in flight with a semaphore released from the
futures' done-callbacks (not with client threads); the open loop submits on
a fixed arrival schedule and times every request from when it was *due*.
Everything is read from outside the system: ``FheServer.submit`` futures,
the public ``RequestResult`` fields, ``stats()``.
"""

from __future__ import annotations

import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass, field

import numpy as np

from repro.backends import FunctionalBackend, default_plaintext_modulus
from repro.net import LocalCluster
from repro.serve import (
    STATUS_OK, BatchJob, FheServer, ProcessExecutor, ProgramRegistry,
    SlotBatcher, ThreadExecutor,
)
from repro.serve.batcher import solo_layout

from metrics import pct, window_medians, window_stat
from workloads import (
    LATENCY_LIMIT_MS, Workload, arrival_schedule, request_stream,
)

#: CKKS served == solo tolerance (the repo's batched == solo contract)
CKKS_TOLERANCE = 2e-2
#: equal windows a measured phase is cut into
WINDOWS = 10
#: the server's flush window, on every serving workload
MAX_WAIT_MS = 10.0


@dataclass
class Record:
    """What the client saw for one request.  Only the scalars are kept, and
    the output values of the requests sampled for checking, so the memory
    the harness holds does not grow with the throughput it measures."""

    index: int            # position in the stream
    start: float          # submit call (closed/burst) or due time (open loop)
    submitted: float      # when submit() was actually called
    done: float = 0.0     # when the future resolved (callback time)
    status: str = ""      # RequestResult.status, or "raised"
    queue_ms: float = 0.0
    batch_size: int = 0
    occupancy: float = 0.0
    values: dict | None = None


@dataclass
class ServeStack:
    """A set-up serving stack plus the timings of its set-up steps."""

    spec: Workload
    registry: ProgramRegistry
    backend: FunctionalBackend
    executor: object
    server: FheServer
    entries: list                      # ContextEntry per program
    batchers: list                     # SlotBatcher per program
    setup: dict = field(default_factory=dict)
    worker_pids: list = field(default_factory=list)


class Client:
    """The one load-generating thread's view of the server: submits stream
    items and records each completion from the future's done-callback."""

    def __init__(self, server: FheServer, spec: Workload, stream, seed: int):
        self.server, self.spec, self.stream = server, spec, stream
        self.records: list[Record] = []
        #: released once per completed request
        self.completed = threading.Semaphore(0)
        #: every check_every-th request (seeded offset) keeps its outputs
        self._keep = int(np.random.default_rng([seed, 0xC4EC])
                         .integers(spec.check_every))

    def submit(self, start: float | None = None) -> None:
        now = time.perf_counter()
        record = Record(len(self.records), now if start is None else start,
                        now)
        self.records.append(record)
        item = self.stream[record.index % len(self.stream)]
        sp = self.spec.programs[item.program]
        future = self.server.submit(
            sp.program, inputs=item.request.inputs,
            plains=item.request.plains, width=sp.width,
            level=item.request.level)
        future.add_done_callback(lambda f: self._done(record, f))

    def _done(self, record: Record, future) -> None:
        record.done = time.perf_counter()
        try:
            result = future.result()
        except Exception:  # noqa: BLE001 — a raised future is a failed request
            record.status = "raised"
        else:
            record.status = result.status
            record.queue_ms = result.queue_ms
            record.batch_size = result.batch_size
            record.occupancy = result.batch_occupancy
            if record.index % self.spec.check_every == self._keep:
                record.values = result.values
        self.completed.release()

    def wait(self, count: int) -> None:
        for _ in range(count):
            self.completed.acquire()

    # -------------------------------------------------------------- the loops
    def closed_loop(self, outstanding: int, *, seconds=None, count=None):
        """Keep ``outstanding`` requests in flight for ``seconds`` (or until
        ``count`` were submitted), then drain."""
        begin = time.perf_counter()
        inflight = 0
        while ((count is None or len(self.records) < count)
               and (seconds is None
                    or time.perf_counter() - begin < seconds)):
            if inflight == outstanding:
                self.wait(1)
                inflight -= 1
            self.submit()
            inflight += 1
        self.wait(inflight)

    def burst_loop(self, burst: int, seconds: float):
        """Submit ``burst`` requests back to back, wait for all of them,
        repeat.  Arrivals never depend on how the previous batches were cut,
        so batch size and arrival rate cannot feed each other."""
        begin = time.perf_counter()
        while time.perf_counter() - begin < seconds:
            for _ in range(burst):
                self.submit()
            self.wait(burst)

    def open_loop(self, schedule):
        """Submit request i at ``schedule[i]`` seconds from now, late or
        not; its clock starts when it was due."""
        begin = time.perf_counter()
        for offset in schedule:
            due = begin + float(offset)
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            self.submit(start=due)
        self.wait(len(schedule))


# --------------------------------------------------------------------- set-up
def setup(spec: Workload, seed: int, stack: ExitStack) -> ServeStack:
    """Build the whole serving stack cold and warm it.

    Steps are timed separately (they become per-layer metrics) and sum to
    ``setup_s``: contexts (keygen), executor (pool fork / cluster spawn),
    the first execute on every cold replica (replication + hint build),
    then warm-up traffic through the server itself.
    """
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    registry = ProgramRegistry()
    backend = FunctionalBackend(validate=False)
    entries = [registry.context_for(sp.program, seed=seed)[0]
               for sp in spec.programs]
    batchers = [SlotBatcher(sp.program, width=sp.width,
                            max_batch=spec.max_batch)
                for sp in spec.programs]
    t1 = time.perf_counter()
    timings["cold_build_s"] = t1 - t0

    # Pools fork before any server thread exists.
    if spec.executor == "process":
        executor = stack.enter_context(ProcessExecutor(2))
    elif spec.executor == "remote":
        cluster = stack.enter_context(LocalCluster(2))
        executor = stack.enter_context(cluster.executor())
    else:
        executor = ThreadExecutor()
    t2 = time.perf_counter()
    timings["spawn_s"] = t2 - t1

    warm = request_stream(spec, max(spec.warmup_requests, 8), seed, "warmup")
    pids = set()
    for idx, (sp, entry, batcher) in enumerate(
            zip(spec.programs, entries, batchers)):
        first = next(item for item in warm if item.program == idx)
        job = BatchJob(program=sp.program, signature=sp.program.signature(),
                       requests=[first.request], batcher=batcher,
                       backend=backend, context_entry=entry)
        executor.execute(job)
        if spec.executor != "thread":
            # probe() replicates the entry everywhere and names the pids.
            pids.update(p["pid"] for p in executor.probe(entry))
    t3 = time.perf_counter()
    timings["replicate_s"] = t3 - t2

    server = stack.enter_context(FheServer(
        backend, registry=registry, workers=2, max_batch=spec.max_batch,
        max_wait_ms=MAX_WAIT_MS, seed=seed, executor=executor,
    ))
    warm_client = Client(server, spec, warm, seed)
    warm_client.closed_loop(spec.outstanding or 64,
                            count=spec.warmup_requests)
    if any(r.status != STATUS_OK for r in warm_client.records):
        raise RuntimeError("a warm-up request was not served")
    t4 = time.perf_counter()
    timings["warmup_s"] = t4 - t3
    timings["setup_s"] = t4 - t0
    return ServeStack(spec, registry, backend, executor, server, entries,
                      batchers, timings, sorted(pids))


# ---------------------------------------------------------------- measurement
def measure(serve: ServeStack, seed: int, seconds: float,
            corrupt: bool = False) -> dict:
    """One measured phase plus its output check.  Returns the end-to-end
    numbers, the loadgen/serve.server diagnostics and the batch mix seen."""
    spec = serve.spec
    schedule = (arrival_schedule(spec.rate_rps, seconds, seed)
                if spec.loop == "open" else None)
    stream = request_stream(
        spec, len(schedule) if schedule is not None
        else 4096 if len(spec.programs) > 1 else 1024, seed)
    client = Client(serve.server, spec, stream, seed)
    begin = time.perf_counter()
    if spec.loop == "open":
        client.open_loop(schedule)
    elif spec.loop == "burst":
        client.burst_loop(spec.outstanding, seconds)
    else:
        client.closed_loop(spec.outstanding, seconds=seconds)
    records = client.records
    end = max(r.done for r in records)

    served = [r for r in records if r.status == STATUS_OK]
    wrong = check_outputs(serve, stream, served, corrupt)
    attempted = len(records)
    failed = attempted - len(served) + wrong

    starts = [r.start for r in served]
    latency = [(r.done - r.start) * 1e3 for r in served]
    p50 = window_medians(starts, latency, begin, seconds, WINDOWS)
    # Throughput per window from completion times: the served completions
    # are cut into equal-count groups and each group's count is divided by
    # the time it took, so the value is continuous (a count over a fixed
    # window length would be quantised).
    done = sorted(r.done for r in served)
    edges = [round(w * len(done) / WINDOWS) for w in range(WINDOWS + 1)]
    rates = [(hi - lo) / (done[hi - 1] - (done[lo - 1] if lo else begin))
             for lo, hi in zip(edges, edges[1:]) if hi > lo]
    throughput = window_stat(rates, len(done), "higher")
    if spec.loop == "open":
        # Arrivals per window are the generator's sampling, not the
        # system's speed: report completions over the measured span.
        throughput["value"] = (len(done) - wrong) / (end - begin)

    stats = serve.server.stats()
    batches: dict[tuple[int, int], float] = {}
    for r in served:    # each request of a k-batch is 1/k of a batch
        key = (stream[r.index % len(stream)].program, r.batch_size)
        batches[key] = batches.get(key, 0.0) + 1.0 / r.batch_size
    n_batches = sum(batches.values())
    return {
        "attempted": attempted, "failed": failed,
        "end_to_end": {
            "throughput_rps": throughput,
            "latency_p50_ms": window_stat(p50, len(served), "lower"),
            # over the whole phase: a window holds too few samples for ten
            # of them to lie beyond its 95th percentile
            "latency_p95_ms": {"value": pct(latency, 95),
                               "samples": len(served)},
            "failed_frac": {"value": failed / attempted, "samples": attempted},
        },
        "diagnostics": {
            "loadgen.offered_rps": attempted / seconds,
            "loadgen.lateness_p99_ms": pct(
                [(r.submitted - r.start) * 1e3 for r in records], 99),
            "loadgen.slo_miss_frac": (
                attempted - sum(l <= LATENCY_LIMIT_MS for l in latency)
            ) / attempted,
            "loadgen.window_spread": max(rates) / min(rates) if rates else 0.0,
            "serve.server.queue_ms_p50": pct([r.queue_ms for r in served], 50),
            "serve.server.queue_ms_p95": pct([r.queue_ms for r in served], 95),
            "serve.server.batch_size_mean":
                len(served) / n_batches if n_batches else 0.0,
            "serve.server.occupancy_mean":
                float(np.mean([r.occupancy for r in served])) if served else 0.0,
            "serve.server.batches": n_batches,
            # what the client waits beyond queueing and executor.execute:
            # admission, registry lookup, demux, future resolution
            "serve.server.overhead_ms_p50": pct(
                [l - r.queue_ms - stats["dispatch_ms"]["p50"]
                 for l, r in zip(latency, served)], 50),
            "serve.server.shed": stats["shed"],
            "serve.server.expired": stats["expired"],
            "serve.server.failed": stats["failed"] + stats["errors"],
            "serve.registry.hit_rate": stats["registry"]["hit_rate"],
        },
        "batch_mix": {f"{prog}:{size}": weight
                      for (prog, size), weight in sorted(batches.items())},
        "stream": stream, "schedule": schedule,
    }


def check_outputs(serve: ServeStack, stream, served: list[Record],
                  corrupt: bool) -> int:
    """Re-run every sampled served request solo on the same cached context;
    returns how many differ (BGV bit-identical, CKKS within tolerance)."""
    wrong = 0
    sampled = [r for r in served if r.values is not None]
    for n, record in enumerate(sampled):
        item = stream[record.index % len(stream)]
        sp = serve.spec.programs[item.program]
        base = serve.batchers[item.program].level_plan["base_level"]
        kw = {}
        if item.request.level is not None and item.request.level != base:
            kw["batch_layout"] = solo_layout(sp.program, item.request.level)
        solo = serve.backend.run(
            sp.program, inputs=item.request.inputs,
            plains=item.request.plains or None,
            context=serve.entries[item.program].context, **kw,
        ).outputs
        got = record.values
        if corrupt and n == 0:
            got = {k: np.asarray(v) + 1 for k, v in got.items()}
        wrong += not same_outputs(sp.program, got, solo)
    return wrong


def same_outputs(program, got: dict, want: dict, t: int | None = None) -> bool:
    if got.keys() != want.keys():
        return False
    for out_id, reference in want.items():
        mine = np.asarray(got[out_id])
        reference = np.asarray(reference)[: mine.shape[0]]
        if program.scheme == "ckks":
            if np.max(np.abs(mine - reference)) > CKKS_TOLERANCE:
                return False
        else:
            t = t or default_plaintext_modulus(program)
            if not np.array_equal(mine % t, reference % t):
                return False
    return True
