"""Per-layer numbers from a staged replay on the harness's own thread.

End-to-end numbers are never taken here.  After the untraced phase the
harness draws a fixed number of batches from the batch mix that phase
observed and drives each through the public stage functions itself —
``ProgramRegistry.context_for`` -> ``SlotBatcher.pack`` / ``layout`` ->
``FunctionalBackend.run`` -> ``SlotBatcher.unpack`` — and separately through
the whole ``executor.execute(BatchJob)``, recording one harness-side span per
call.  The same replay runs once more under ``cProfile``; self time is
bucketed by ``repro/<pkg>/<module>.py`` with numpy built-ins charged to the
module that called them (pstats caller edges).  Spans are kept in memory and
written as Chrome trace-event JSON when the run ends.
"""

from __future__ import annotations

import cProfile
import pickle
import pstats
import re
import statistics
import time
from contextlib import contextmanager

import numpy as np

from repro.backends import F1Backend
from repro.compiler import (
    compile_to_instructions, schedule_cycles, schedule_data_movement,
)
from repro.core.config import F1Config
from repro.dsl.program import OpKind
from repro.net import MsgType, decode_frame, encode_frame
from repro.serve import BatchJob
from repro.sim.simulator import check_schedule

from metrics import PER_LAYER, pct

#: batches replayed per serving workload / passes per engine replay: fixed,
#: so ``*.self_s`` and ``*.calls`` compare across commits
REPLAY_BATCHES = 32
REPLAY_PASSES = 4


class Spans:
    """In-memory span recorder: name, start, end, parent, batch id."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.rows: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, batch: int | None = None):
        if not self.enabled:
            yield
            return
        row = {"name": name, "start": time.perf_counter(), "end": 0.0,
               "parent": self._open[-1] if self._open else None,
               "batch": batch}
        self.rows.append(row)
        self._open.append(len(self.rows) - 1)
        try:
            yield
        finally:
            row["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [r["end"] - r["start"] for r in self.rows if r["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def chrome_trace(self) -> dict:
        origin = min((r["start"] for r in self.rows), default=0.0)
        return {"displayTimeUnit": "ms", "traceEvents": [
            {"name": r["name"], "ph": "X", "pid": 1, "tid": 1,
             "ts": (r["start"] - origin) * 1e6,
             "dur": (r["end"] - r["start"]) * 1e6,
             "args": {"batch": r["batch"], "parent": r["parent"]}}
            for r in self.rows
        ]}


def empty_layers() -> dict[str, float]:
    """Every per-layer metric at 0: a layer a workload never enters reads 0."""
    return {m.name: 0.0 for m in PER_LAYER}


# ------------------------------------------------------------------ profiling
_MODULE = re.compile(r"repro/((?:\w+/)*\w+)\.py$")


def _bucket(path: str) -> str | None:
    """``.../repro/poly/ntt.py`` -> ``poly.ntt``; None outside the package."""
    match = _MODULE.search(path.replace("\\", "/"))
    return match.group(1).replace("/", ".") if match else None


def profile_buckets(fn) -> tuple[dict[str, float], dict[str, int], float]:
    """Run ``fn`` under cProfile; returns (self seconds per repro module,
    calls per repro module, share of self time owned by no repro module).

    A function outside the package (numpy built-ins above all) is charged
    to the modules that called it, in proportion to the time spent on each
    caller edge, following edges upwards until a repro module is reached.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler).stats
    owners: dict[tuple, dict[str | None, float]] = {}

    def owner_shares(func, visiting=()) -> dict:
        if func in owners:
            return owners[func]
        bucket = _bucket(func[0])
        if bucket is not None:
            shares = {bucket: 1.0}
        else:
            callers = stats.get(func, (0, 0, 0, 0, {}))[4]
            edges = {c: (e[2] or e[3] or 1e-12) for c, e in callers.items()
                     if c not in visiting and c != func}
            total = sum(edges.values())
            shares = {}
            for caller, weight in edges.items():
                for b, s in owner_shares(caller, visiting + (func,)).items():
                    shares[b] = shares.get(b, 0.0) + s * weight / total
            if not shares:
                shares = {None: 1.0}
        owners[func] = shares
        return shares

    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    unowned = total_tt = 0.0
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        total_tt += tt
        bucket = _bucket(func[0])
        if bucket is not None:
            calls[bucket] = calls.get(bucket, 0) + nc
        for b, share in owner_shares(func).items():
            if b is None:
                unowned += tt * share
            else:
                self_s[b] = self_s.get(b, 0.0) + tt * share
    return self_s, calls, (unowned / total_tt if total_tt else 0.0)


def _profile_metrics(self_s: dict, calls: dict) -> dict[str, float]:
    named = {"fhe.keyswitch", "fhe.encoding", "fhe.sampling"}
    out = {f"{b}.self_s": self_s.get(b, 0.0) for b in (
        "sim.functional", "fhe.keyswitch", "fhe.encoding", "fhe.sampling",
        "poly.ntt", "poly.kernels", "poly.automorphism", "poly.parallel",
        "poly.polynomial", "rns.convert", "rns.crt")}
    out["fhe.scheme.self_s"] = sum(
        s for b, s in self_s.items() if b.startswith("fhe.") and b not in named)
    for b in ("sim.functional", "poly.ntt", "rns.convert"):
        out[f"{b}.calls"] = calls.get(b, 0)
    return out


# ------------------------------------------------------------ serving replay
def _primary(spec) -> int:
    """The program direct FHE-op timings use: the first with a ct x ct MUL."""
    for idx, sp in enumerate(spec.programs):
        if any(op.kind is OpKind.MUL for op in sp.program.ops):
            return idx
    return 0


def draw_batches(measured: dict, stream, seed: int,
                 count: int) -> list[tuple[int, list]]:
    """``count`` (program, requests) batches drawn from the batch mix the
    untraced phase observed, filled from its own request stream."""
    keys = list(measured["batch_mix"])
    weights = np.array([measured["batch_mix"][k] for k in keys], dtype=float)
    rng = np.random.default_rng([seed, 0x5EED])
    by_program: dict[int, list] = {}
    for item in stream:
        by_program.setdefault(item.program, []).append(item.request)
    cursor = {idx: 0 for idx in by_program}
    batches = []
    for pick in rng.choice(len(keys), count, p=weights / weights.sum()):
        idx, size = (int(part) for part in keys[pick].split(":"))
        pool = by_program[idx]
        requests = [pool[(cursor[idx] + j) % len(pool)] for j in range(size)]
        cursor[idx] += size
        batches.append((idx, requests))
    return batches


def _staged_batch(serve, seed, batch_id, idx, requests, spans: Spans):
    """One batch through the public stage functions, one span per call."""
    sp = serve.spec.programs[idx]
    batcher = serve.batchers[idx]
    with spans.span("batch", batch_id):
        with spans.span("serve.registry.lookup", batch_id):
            entry, _ = serve.registry.context_for(sp.program, seed=seed)
            serve.registry.level_plan_for(sp.program, entry)
        with spans.span("serve.batcher.pack", batch_id):
            inputs, plains = batcher.pack(requests)
        with spans.span("serve.batcher.layout", batch_id):
            layout = batcher.layout(requests)
        with spans.span("backends.functional.run", batch_id):
            result = serve.backend.run(
                sp.program, inputs=inputs, plains=plains,
                context=entry.context, batch_layout=layout)
        with spans.span("serve.batcher.unpack", batch_id):
            batcher.unpack(result.outputs, len(requests))


def serve_layers(serve, measured: dict, stream, seed: int, spans: Spans,
                 replay_batches: int = REPLAY_BATCHES) -> dict:
    spec = serve.spec
    out = empty_layers()
    out.update(measured["diagnostics"])
    out["serve.registry.cold_build_s"] = serve.setup["cold_build_s"]
    out["serve.executor.replicate_s"] = serve.setup["replicate_s"]
    if spec.executor == "remote":
        out["net.cluster.spawn_s"] = serve.setup["spawn_s"]
    batches = draw_batches(measured, stream, seed, replay_batches)
    off = Spans(enabled=False)
    stage_names = ("serve.registry.lookup", "serve.batcher.pack",
                   "serve.batcher.layout", "backends.functional.run",
                   "serve.batcher.unpack")

    # Per batch, back to back: the staged calls with and without span
    # recording (alternating order, so cache warmth favours neither), then
    # the same batch through the executor the workload serves with.  Ratios
    # are medians of per-batch ratios: a slow phase of the box that hits
    # some batches moves all three legs of those batches alike.
    trace_ratio, stage_ratio, execute_ms, overhead_ms = [], [], [], []
    for b, (idx, requests) in enumerate(batches):
        walls = {}
        for recorder in ((spans, off) if b % 2 else (off, spans)):
            t0 = time.perf_counter()
            _staged_batch(serve, seed, b, idx, requests, recorder)
            walls[recorder is spans] = time.perf_counter() - t0
        trace_ratio.append(walls[True] / walls[False])
        sp = spec.programs[idx]
        job = BatchJob(program=sp.program, signature=sp.program.signature(),
                       requests=requests, batcher=serve.batchers[idx],
                       backend=serve.backend,
                       context_entry=serve.entries[idx])
        with spans.span("serve.executor.execute", b):
            t0 = time.perf_counter()
            _outputs, result = serve.executor.execute(job)
            wall = time.perf_counter() - t0
        stages = {r["name"]: r["end"] - r["start"] for r in spans.rows
                  if r["batch"] == b and r["name"] in stage_names}
        stage_ratio.append(sum(stages.values()) / wall)
        execute_ms.append(wall * 1e3)
        overhead_ms.append(
            (wall - stages["serve.batcher.pack"]
             - stages["serve.batcher.unpack"]) * 1e3 - result.time_ms)

    pack = spans.durations("serve.batcher.pack")
    stage_sum = sum(spans.total(name) for name in stage_names)
    requests_total = sum(len(requests) for _, requests in batches)
    out.update({
        "serve.batcher.pack_ms": statistics.median(pack) * 1e3,
        "serve.batcher.unpack_ms": statistics.median(
            spans.durations("serve.batcher.unpack")) * 1e3,
        "serve.batcher.layout_ms": statistics.median(
            spans.durations("serve.batcher.layout")) * 1e3,
        "serve.batcher.pack_us_per_request":
            sum(pack) * 1e6 / requests_total,
        "serve.executor.execute_ms_p50": pct(execute_ms, 50),
        "serve.executor.execute_ms_p95": pct(execute_ms, 95),
        "serve.executor.dispatch_overhead_ms_p50": pct(overhead_ms, 50),
        "backends.functional.run_ms": statistics.median(
            spans.durations("backends.functional.run")) * 1e3,
        "obs.trace_overhead_frac": statistics.median(trace_ratio) - 1.0,
        "trace.stage_sum_frac": statistics.median(stage_ratio),
    })
    if spec.executor == "remote":
        out["net.remote.dispatch_overhead_ms_p50"] = pct(overhead_ms, 50)

    self_s, calls, unowned = profile_buckets(lambda: [
        _staged_batch(serve, seed, b, idx, requests, off)
        for b, (idx, requests) in enumerate(batches)])
    out.update(_profile_metrics(self_s, calls))
    out["trace.unattributed_frac"] = max(
        1.0 - stage_sum / spans.total("batch"), unowned)

    ex_stats = serve.executor.stats()
    per_replica = (ex_stats.get("dispatched_per_replica")
                   or [h["dispatched"] for h in ex_stats.get("hosts", [])])
    if per_replica and sum(per_replica):
        out["serve.executor.replica_balance"] = (
            max(per_replica) / (sum(per_replica) / len(per_replica)))
    else:
        out["serve.executor.replica_balance"] = 1.0
    if spec.executor == "remote":
        resilience = ex_stats["resilience"]
        out["net.remote.retries"] = resilience["retries"]
        out["net.remote.breaker_opens"] = resilience["breaker_opens"]
        out["net.remote.reconnects"] = ex_stats["reconnects"]

    primary = _primary(spec)
    sp = spec.programs[primary]
    lookups = []
    for _ in range(200):
        t0 = time.perf_counter()
        serve.registry.context_for(sp.program, seed=seed)
        lookups.append((time.perf_counter() - t0) * 1e6)
    out["serve.registry.lookup_us"] = statistics.median(lookups)
    out.update(fhe_op_times(serve.entries[primary].context, sp, seed))
    out.update(framing_roundtrip(sp, max(
        (requests for idx, requests in batches if idx == primary),
        key=len, default=batches[0][1])))
    out["backends.f1.run_ms"] = _median_ms(
        lambda: F1Backend().run(sp.program), 3)
    return out


# ------------------------------------------------------------- direct probes
def _median_ms(fn, reps: int = 5) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def fhe_op_times(ctx, sp, seed: int) -> dict[str, float]:
    """Direct calls on the workload's own context at its N and top level."""
    rng = np.random.default_rng([seed, 0xF4E])
    if sp.program.scheme == "ckks":
        a, b = rng.uniform(-1, 1, sp.width), rng.uniform(-1, 1, sp.width)
    else:
        a, b = rng.integers(0, 16, sp.width), rng.integers(0, 16, sp.width)
    ct_a, ct_b = ctx.encrypt_values(a), ctx.encrypt_values(b)
    return {
        "fhe.encrypt_ms": _median_ms(lambda: ctx.encrypt_values(a)),
        "fhe.decrypt_ms": _median_ms(lambda: ctx.decrypt_values(ct_a)),
        "fhe.mul_ms": _median_ms(lambda: ctx.mul(ct_a, ct_b)),
        "fhe.rotate_ms": _median_ms(lambda: ctx.rotate(ct_a, 1)),
        "fhe.rotate_many_ms": _median_ms(
            lambda: ctx.rotate_many(ct_a, [1, 2, 3, 4])),
        "fhe.mod_switch_ms": _median_ms(lambda: ctx.mod_switch(ct_a)),
    }


def framing_roundtrip(sp, requests) -> dict[str, float]:
    """Encode + decode one EXECUTE-shaped message for this batch."""
    message = {
        "ctx": 0, "program": sp.program.signature(), "backend": 0,
        "batched": True,
        "requests": [(r.inputs, r.plains, r.seed, r.level, None)
                     for r in requests],
    }
    frame = encode_frame(MsgType.EXECUTE, pickle.dumps(message))

    def roundtrip():
        wire = encode_frame(MsgType.EXECUTE, pickle.dumps(message))
        pickle.loads(decode_frame(wire)[1])

    return {"net.framing.roundtrip_us": _median_ms(roundtrip, 25) * 1e3,
            "net.framing.payload_bytes": len(frame)}


# -------------------------------------------------------------- engine replay
def engine_layers(eng, measured: dict, seed: int, spans: Spans) -> dict:
    from offline import engine_pass

    out = empty_layers()
    out["serve.registry.cold_build_s"] = eng.setup["cold_build_s"]
    off = Spans(enabled=False)

    def one_pass(recorder: Spans, pass_id: int):
        with recorder.span("pass", pass_id):
            def run(backend, program, **kw):
                with recorder.span("backends.functional.run", pass_id):
                    return backend.run(program, **kw)
            engine_pass(eng, run)

    # Passes alternate between recording spans and not; ratios are taken
    # between medians of per-pass times, which a noisy pass does not move.
    traced, untraced = [], []
    for p in range(2 * REPLAY_PASSES):
        recorder = spans if p % 2 else off
        t0 = time.perf_counter()
        one_pass(recorder, p)
        (traced if recorder is spans else untraced).append(
            time.perf_counter() - t0)
    runs = spans.durations("backends.functional.run")
    per_pass = len(eng.spec.programs)
    run_total = statistics.median(
        sum(runs[i:i + per_pass]) for i in range(0, len(runs), per_pass))
    out["obs.trace_overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0)
    out["trace.stage_sum_frac"] = run_total / statistics.median(untraced)
    out["backends.functional.run_ms"] = statistics.median(runs) * 1e3
    self_s, calls, unowned = profile_buckets(
        lambda: [one_pass(off, p) for p in range(REPLAY_PASSES)])
    out.update(_profile_metrics(self_s, calls))
    out["trace.unattributed_frac"] = max(
        1.0 - sum(runs) / spans.total("pass"), unowned)
    primary = _primary(eng.spec)
    sp = eng.spec.programs[primary]
    out.update(fhe_op_times(eng.entries[primary].context, sp, seed))
    out["backends.f1.run_ms"] = _median_ms(
        lambda: F1Backend().run(sp.program), 3)
    return out


# ------------------------------------------------------------- compile replay
def compile_layers(comp, measured: dict, spans: Spans) -> dict:
    """One staged pass: each compiler phase and the checker as its own span."""
    out = empty_layers()
    config = F1Config()
    instructions = checked = transfers = 0
    fu, hbm = [], []
    for b, (name, program) in enumerate(comp.suite.items()):
        with spans.span("program", b):
            with spans.span("compiler.translate", b):
                translation = compile_to_instructions(
                    program,
                    capacity_rvecs=config.scratchpad_capacity_rvecs(program.n))
            with spans.span("compiler.data_schedule", b):
                movement = schedule_data_movement(
                    translation.graph, translation.outputs, config)
            with spans.span("compiler.cycle_schedule", b):
                schedule = schedule_cycles(translation.graph, movement, config)
            with spans.span("sim.simulator.check", b):
                report = check_schedule(translation.graph, movement, schedule)
                report.raise_if_failed()
        instructions += len(translation.graph.instructions)
        checked += report.instructions_checked
        transfers += report.transfers_checked
        fu.append(statistics.mean(schedule.fu_utilization().values()))
        hbm.append(schedule.hbm_utilization())
    stages = ("compiler.translate", "compiler.data_schedule",
              "compiler.cycle_schedule", "sim.simulator.check")
    stage_sum = sum(spans.total(name) for name in stages)
    # Per program: the staged pass against the untraced passes' median for
    # the same program; the median over programs survives a slow phase of
    # the box that hits part of the one staged pass.
    untraced = measured["per_program_median_s"]
    staged = dict(zip(comp.suite, spans.durations("program")))
    stage_of = [sum(r["end"] - r["start"] for r in spans.rows
                    if r["batch"] == b and r["name"] in stages)
                for b in range(len(comp.suite))]
    untraced_pass = measured["end_to_end"]["compile_pass_s"]["value"]
    out.update({
        "compiler.translate_s": spans.total("compiler.translate"),
        "compiler.data_schedule_s": spans.total("compiler.data_schedule"),
        "compiler.cycle_schedule_s": spans.total("compiler.cycle_schedule"),
        "compiler.instructions": instructions,
        "sim.simulator.check_s": spans.total("sim.simulator.check"),
        "sim.simulator.instructions_checked": checked,
        "sim.simulator.transfers_checked": transfers,
        "sim.fu_utilization_mean": statistics.mean(fu),
        "sim.hbm_utilization_mean": statistics.mean(hbm),
        "obs.trace_overhead_frac": statistics.median(
            staged[name] / untraced[name] for name in comp.suite) - 1.0,
        "trace.stage_sum_frac": statistics.median(
            stage / untraced[name]
            for stage, name in zip(stage_of, comp.suite)),
        "trace.unattributed_frac": 1.0 - stage_sum / spans.total("program"),
        "backends.f1.run_ms": untraced_pass * 1e3 / len(comp.suite),
    })
    return out
