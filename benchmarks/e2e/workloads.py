"""Benchmark-owned programs, request streams and the seven workload specs.

Nothing here is imported from ``repro.bench.loadgen``: the benchmark owns its
inputs, so refactoring that file cannot move the numbers.  Program *shapes*
are fixed, so timings compare across seeds; the seed decides which program
each request uses, its input values, the shared BGV weights, its arrival
level and its arrival time.  The system under test only ever receives the
generated inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.backends import default_plaintext_modulus
from repro.dsl.program import OpKind, Program
from repro.serve import Request


# ------------------------------------------------------------------ programs
def linear_bgv(n: int) -> Program:
    """Batchable BGV scoring circuit ``x*w + b`` (w shared by the batch)."""
    p = Program(n=n, scheme="bgv", name="e2e_linear_bgv")
    x = p.input(3, name="x")
    w = p.input_plain(3, name="w")
    b = p.input_plain(3, name="b")
    p.output(p.add_plain(p.mul_plain(x, w), b), name="score")
    return p


def poly_ckks(n: int) -> Program:
    """Batchable CKKS ``x*y + x``: one ct x ct multiply and its key switch."""
    p = Program(n=n, scheme="ckks", name="e2e_poly_ckks")
    x = p.input(4, name="x")
    y = p.input(4, name="y")
    p.output(p.add(p.mul(x, y), x), name="x*y+x")
    return p


def stencil_ckks(n: int, *, taps: int = 2, level: int = 3) -> Program:
    """CKKS stencil ``x + sum_s rot(x, s)``; all rotations share one source,
    so the functional path hoists them into one ``rotate_many``."""
    p = Program(n=n, scheme="ckks", name=f"e2e_stencil{taps}_ckks")
    x = p.input(level, name="x")
    acc = x
    for step in range(1, taps + 1):
        acc = p.add(acc, p.rotate(x, step))
    p.output(acc, name="stencil")
    return p


def deep_ckks(n: int) -> Program:
    """Three chained ct x ct multiplies at 6 limbs: kernel-bound."""
    p = Program(n=n, scheme="ckks", name="e2e_deep_ckks")
    x = p.input(6, name="x")
    y = p.input(6, name="y")
    acc = p.mul(p.mul(p.mul(x, y), x), y)
    p.output(acc, name="chain")
    return p


def dense_ckks(n: int) -> Program:
    """CKKS dense layer: plain weights, rotate-add reduction, square."""
    p = Program(n=n, scheme="ckks", name="e2e_dense_ckks")
    x = p.input(6, name="x")
    acc = p.mul_plain(x, p.input_plain(6, name="w"))
    for i in range(4):
        acc = p.add(acc, p.rotate(acc, 1 << i))
    p.output(p.square(acc), name="activation")
    return p


#: BGV plaintext modulus of the power chain (a Fermat prime, so t-1 = 2^8)
POWER_T = 257


def power_bgv(n: int) -> Program:
    """BGV Fermat chain ``1 - diff^(t-1)``: 8 squarings, each followed by two
    limb drops (t is not a power of two, so every drop rescales the
    plaintext too — the mod-switch path the serving mix never takes)."""
    squarings = (POWER_T - 1).bit_length() - 1
    p = Program(n=n, scheme="bgv", name="e2e_power_bgv")
    level = 2 * squarings + 2
    d = p.sub(p.input(level, name="a"), p.input(level, name="b"))
    for _ in range(squarings):
        d = p.mod_switch(p.mod_switch(p.mul(d, d, rescale=False)))
    minus_one = p.input_plain(d.level, name="minus_one")
    one = p.input_plain(d.level, name="one")
    p.output(p.add_plain(p.mul_plain(d, minus_one), one), name="is_equal")
    return p


# ----------------------------------------------------------------- workloads
@dataclass(frozen=True)
class ServedProgram:
    """One program of a workload with its request geometry."""

    program: Program
    width: int                       # values per request vector
    levels: tuple[int, ...] = ()     # arrival levels drawn per request
    plaintext_modulus: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                        # "serve" | "engine" | "compile"
    why: str
    programs: tuple[ServedProgram, ...] = ()
    loop: str = ""                   # "open" | "closed" | "burst"
    rate_rps: float = 0.0            # open loop: offered arrival rate
    outstanding: int = 0             # closed: kept in flight; burst: per burst
    executor: str = "thread"         # "thread" | "process" | "remote"
    max_batch: int | None = None
    warmup_requests: int = 0
    setup_reps: int = 5              # cold set-ups per untraced run
    check_every: int = 16            # every n-th served request is re-run solo
    suite_scale: float = 0.0         # compile: benchmark_suite(scale=)
    suite_n: int = 16384
    suite_only: tuple[str, ...] = ()  # compile: subset of the suite (quick)
    gated: bool = True               # listed in BENCHMARK.json


#: latency limit of the open loop, for ``loadgen.slo_miss_frac`` only; it is
#: never passed as ``deadline_ms``, so no request can expire or be shed.
LATENCY_LIMIT_MS = 100.0

WORKLOAD_NAMES = (
    "serve_mixed_open", "serve_mixed_saturated", "serve_mixed_burst",
    "serve_deep_thread", "serve_deep_process", "serve_deep_remote",
    "engine_solo", "f1_compile_suite",
)

_WHY = {
    "serve_mixed_open":
        "open loop far below saturation: admission, flush policy and "
        "per-batch fixed costs are most of the latency, kernels are little",
    "serve_mixed_saturated":
        "same programs and streams, 64 kept outstanding: the flush policy "
        "cuts batches ~2.4 wide under backlog; recorded, too unsteady to gate",
    "serve_mixed_burst":
        "same programs, 64 requests at once, next burst when all are back: "
        "full batches form, so pack/unpack/demux and batch forming set capacity",
    "serve_deep_thread":
        "execute is ~99% of latency (NTT, key switch, base conversion): "
        "kernel changes move it, serving-layer changes should not",
    "serve_deep_process":
        "identical traffic through ProcessExecutor(2): pipe protocol and "
        "per-replica contexts; with deep_thread the thread-vs-process ratio",
    "serve_deep_remote":
        "identical traffic through a 2-host LocalCluster: framing, pickle on "
        "the wire, heartbeats, routing; sizes the one-protocol/array-wire work",
    "engine_solo":
        "no server: rotations, hoisting, mod-switch chains and BGV on "
        "FunctionalBackend; bypasses every serving optimisation",
    "f1_compile_suite":
        "paper side: compiler + schedule checker only; host time separated "
        "from simulated results, which must stay bit-identical",
}


def workload(name: str, *, quick: bool = False) -> Workload:
    """The named workload; ``quick`` shrinks ring sizes for the smoke test."""
    if name not in _WHY:
        raise ValueError(f"unknown workload {name!r}; choose from "
                         f"{', '.join(WORKLOAD_NAMES)}")
    why = _WHY[name]
    if name.startswith("serve_mixed"):
        n = 256 if quick else 512
        programs = (
            ServedProgram(linear_bgv(n), 8, levels=(3, 2)),
            ServedProgram(poly_ckks(n), 8),
            ServedProgram(stencil_ckks(n), 8, levels=(3, 2)),
        )
        warm = 24 if quick else 96
        if name == "serve_mixed_open":
            return Workload(name, "serve", why, programs, loop="open",
                            rate_rps=60.0, warmup_requests=warm)
        if name == "serve_mixed_burst":
            return Workload(name, "serve", why, programs, loop="burst",
                            outstanding=64, warmup_requests=warm,
                            check_every=128)   # ~17 000 requests per phase
        # Throughput and batch size feed each other here (a wider batch
        # completes more requests, whose resubmission fills the next batch
        # faster), so machine noise is amplified into 30-50% swings between
        # runs: measured and recorded, but not listed in BENCHMARK.json.
        return Workload(name, "serve", why, programs, loop="closed",
                        outstanding=64, warmup_requests=warm, gated=False,
                        check_every=32)        # ~3 000 requests per phase
    if name.startswith("serve_deep"):
        n = 256 if quick else 1024
        return Workload(
            name, "serve", why, (ServedProgram(deep_ckks(n), 16),),
            loop="closed", outstanding=4, max_batch=2,
            executor=name.rsplit("_", 1)[1],
            warmup_requests=8 if quick else 16,
            # a cluster set-up costs ~2.5 s: three of them fit the run budget
            setup_reps=3 if name == "serve_deep_remote" else 5,
        )
    if name == "engine_solo":
        n = 256 if quick else 1024
        return Workload(name, "engine", why, (
            ServedProgram(dense_ckks(n), n // 2),
            ServedProgram(deep_ckks(n), n // 2),
            ServedProgram(stencil_ckks(n, taps=8), n // 2),
            ServedProgram(power_bgv(n), n, plaintext_modulus=POWER_T),
        ))
    if quick:
        return Workload(name, "compile", why, suite_scale=0.05, suite_n=4096,
                        suite_only=("lola_mnist_uw", "lola_mnist_ew"))
    return Workload(name, "compile", why, suite_scale=0.05)


# ------------------------------------------------------------ request streams
@dataclass(frozen=True)
class StreamItem:
    program: int          # index into Workload.programs
    request: Request


def _draw(rng, served: ServedProgram, count: int) -> np.ndarray:
    if served.program.scheme == "ckks":
        return rng.uniform(-1.0, 1.0, count)
    t = served.plaintext_modulus or default_plaintext_modulus(served.program)
    return rng.integers(0, t, count)


def _op_ids(program: Program, kind: OpKind) -> list[int]:
    return [op.op_id for op in program.ops if op.kind is kind]


def request_stream(spec: Workload, count: int, seed: int,
                   tag: str = "stream") -> list[StreamItem]:
    """``count`` seeded requests over the workload's programs.

    BGV plains are drawn once per program (shared model weights — what slot
    batching requires of MUL_PLAIN operands); CKKS plains and all encrypted
    inputs are drawn per request.  ``tag`` separates the warm-up stream from
    the measured one so the measured inputs are never seen before timing.
    """
    rng = np.random.default_rng(
        [seed, int.from_bytes(hashlib.sha256(tag.encode()).digest()[:4], "big")]
    )
    shared = [
        {op_id: _draw(rng, sp, sp.width)
         for op_id in _op_ids(sp.program, OpKind.INPUT_PLAIN)}
        if sp.program.scheme != "ckks" else None
        for sp in spec.programs
    ]
    items = []
    for _ in range(count):
        idx = int(rng.integers(len(spec.programs)))
        sp = spec.programs[idx]
        inputs = {op_id: _draw(rng, sp, sp.width)
                  for op_id in _op_ids(sp.program, OpKind.INPUT)}
        plains = (dict(shared[idx]) if shared[idx] is not None else
                  {op_id: _draw(rng, sp, sp.width)
                   for op_id in _op_ids(sp.program, OpKind.INPUT_PLAIN)})
        level = int(rng.choice(sp.levels)) if sp.levels else None
        items.append(StreamItem(idx, Request(inputs=inputs, plains=plains,
                                             level=level)))
    return items


def arrival_schedule(rate_rps: float, seconds: float, seed: int) -> np.ndarray:
    """Due times (s from phase start) of a Poisson process at ``rate_rps``,
    conditioned on its expected count so every seed offers the same load."""
    rng = np.random.default_rng([seed, 0xA221])
    count = max(1, round(rate_rps * seconds))
    return np.sort(rng.uniform(0.0, seconds, count))


def engine_inputs(spec: Workload, seed: int) -> list[tuple[dict, dict]]:
    """One seeded ``(inputs, plains)`` pair per engine_solo program."""
    rng = np.random.default_rng([seed, 0xE61])
    pairs = []
    for sp in spec.programs:
        inputs = {op_id: _draw(rng, sp, sp.width)
                  for op_id in _op_ids(sp.program, OpKind.INPUT)}
        plains = {op_id: _draw(rng, sp, sp.width)
                  for op_id in _op_ids(sp.program, OpKind.INPUT_PLAIN)}
        if sp.program.name == "e2e_power_bgv":
            minus_one, one = _op_ids(sp.program, OpKind.INPUT_PLAIN)
            plains = {minus_one: np.array([POWER_T - 1]),
                      one: np.ones(sp.width, dtype=np.int64)}
        pairs.append((inputs, plains))
    return pairs


# --------------------------------------------------------------- fingerprint
def _hash_values(h, mapping: dict) -> None:
    for op_id in sorted(mapping):
        h.update(str(op_id).encode())
        h.update(np.ascontiguousarray(mapping[op_id]).tobytes())


def fingerprint(programs, streams=(), schedule=None, value_pairs=()) -> str:
    """Hash of every input the run feeds the system: program signatures,
    request streams (program choice, values, levels), the arrival schedule
    and engine value pairs.  Input drift between commits shows here."""
    h = hashlib.sha256()
    for program in programs:
        h.update(program.signature().encode())
    for stream in streams:
        for item in stream:
            h.update(f"|{item.program}:{item.request.level}".encode())
            _hash_values(h, item.request.inputs)
            _hash_values(h, item.request.plains)
    if schedule is not None:
        h.update(np.ascontiguousarray(schedule).tobytes())
    for inputs, plains in value_pairs:
        _hash_values(h, inputs)
        _hash_values(h, plains)
    return h.hexdigest()[:16]
