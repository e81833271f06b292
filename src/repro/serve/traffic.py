"""Sample serving programs and synthetic traffic for them.

The four small circuits the serving tests, the perf gate, the chaos soak
and ``examples/serving.py`` share, deterministic request generators for
them, the modeled F1 serving rate, and :func:`compare_to_solo` — the one
statement of "batched == solo" (bit-identical BGV, tolerance CKKS).
Throughput and latency are measured by ``benchmarks/e2e``, not here.
"""

from __future__ import annotations

import numpy as np

from repro.backends import default_plaintext_modulus
from repro.dsl.program import OpKind, Program
from repro.serve.batcher import Request, SlotBatcher
from repro.serve.registry import ProgramRegistry


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
    rotation is lowered to rotate-then-mask.
    """
    p = Program(n=n, scheme="ckks", name="serve_rotation_ckks")
    x = p.input(level, name="x")
    acc = p.add(x, p.rotate(x, 1))
    p.output(p.add(acc, p.rotate(x, 2)), name="stencil")
    return p


def deep_ckks_program(n: int = 1024, *, level: int = 6) -> Program:
    """A CPU-bound batchable CKKS chain: three ct x ct multiplies.

    Each multiply pays a tensor product plus a key switch, so one batch is
    dominated by numpy-heavy kernel work.
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


def modeled_f1_throughput(program: Program, *, width: int,
                          config=None) -> dict:
    """Modeled accelerator serving rate: capacity requests per batch time."""
    batcher = SlotBatcher(program, width=width)
    entry, _ = ProgramRegistry().compiled_for(program, config)
    time_ms = entry.compiled.time_ms
    return {
        "capacity": batcher.capacity,
        "batch_time_ms": time_ms,
        "requests_per_s_batched": batcher.capacity / time_ms * 1e3,
        "requests_per_s_solo": 1.0 / time_ms * 1e3,
        "speedup": float(batcher.capacity),
    }


def compare_to_solo(program: Program, served_values: dict,
                    solo_outputs: dict) -> float:
    """One served result against a solo run of the same request.

    Raises ``AssertionError`` unless every output is bit-identical modulo
    the plaintext modulus (BGV) or within 1e-2 of the solo value (CKKS);
    returns the largest CKKS error seen (0.0 for BGV).
    """
    t = default_plaintext_modulus(program)
    max_err = 0.0
    for out_id, solo in solo_outputs.items():
        got = served_values[out_id]
        want = np.asarray(solo)[: got.shape[0]]
        if program.scheme == "ckks":
            max_err = max(max_err, float(np.max(np.abs(got - want))))
        elif not np.array_equal(got % t, want % t):
            raise AssertionError(
                f"served output {out_id} is not bit-identical to the solo run"
            )
    if max_err > 1e-2:
        raise AssertionError(
            f"served CKKS outputs drift {max_err:.2e} from solo runs"
        )
    return max_err
