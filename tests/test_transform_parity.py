"""The functional engine runs the transform schedule the F1 compiler emits.

Basis surgery stays in the NTT domain: for a one-op program, the rows the
engine inverse- and forward-transforms while executing the op equal the
``INTT`` + ``NTT`` instructions ``compile_to_instructions`` lowers the same
op to under the same key-switch choice — L + L(L-1) for a Listing-1 key
switch, 6L for the raised-modulus one, 2L for a rescale-type ``MOD_SWITCH``
— and a CKKS mod-down transforms nothing.  Rows are read from the kernel
profiler's ``kernel.ntt_*.rows`` counters, switched on around the op alone
so that encrypting the inputs and decrypting the output stay out of it.

One pair is the exception: a raised-modulus multiply and the rescale that
consumes it run as one ``mul_rescale`` step of 6L rows in 4 calls, where
the compiler still lowers the two ops separately (8L rows).
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.compiler.hecompiler import KsChoice, compile_to_instructions
from repro.core.isa import InstrKind
from repro.dsl.program import OpKind, Program
from repro.fhe.bgv import BgvContext
from repro.fhe.ckks import CkksContext
from repro.fhe.params import FheParams
from repro.obs import profile
from repro.obs.metrics import global_metrics
from repro.poly import kernels
from repro.sim.functional import FunctionalSimulator

N = 64
LEVELS = (2, 4, 6)


@pytest.fixture(autouse=True)
def engine_calls_only(monkeypatch):
    """``REPRO_KERNEL_DEBUG=1``'s oracles transform too; count the engine."""
    monkeypatch.setattr(kernels, "DEBUG_VALIDATE", False)


def _rows() -> int:
    reg = global_metrics()
    return (reg.counter("kernel.ntt_forward.rows").value
            + reg.counter("kernel.ntt_inverse.rows").value)


def _one_op(kind: OpKind, level: int, scheme: str = "bgv") -> Program:
    p = Program(n=N, scheme=scheme, name=f"parity_{kind.value}")
    x = p.input(level, name="x")
    if kind is OpKind.MUL:
        out = p.mul(x, p.input(level, name="y"), rescale=False)
    elif kind is OpKind.ROTATE:
        out = p.rotate(x, 1)
    else:
        out = p.mod_switch(x)
    p.output(out)
    return p


def _compiler_transforms(program: Program, variant: int) -> int:
    graph = compile_to_instructions(
        program, ks_choice=KsChoice(force=variant)).graph
    return sum(i.kind in (InstrKind.NTT, InstrKind.INTT)
               for i in graph.instructions)


def _engine_rows(program: Program, variant: int, monkeypatch) -> int:
    """Rows transformed inside the program's one homomorphic op (on its
    second run: the first one generates the key-switch hint inside it)."""
    params = FheParams.build(n=N, levels=max(op.level for op in program.ops))
    sim = FunctionalSimulator(program, params, seed=3, ks_variant=variant)
    rng = np.random.default_rng(5)
    inputs = {op.op_id: rng.integers(0, 2, 8) for op in program.ops
              if op.kind is OpKind.INPUT}
    sim.run(inputs)

    def counted(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with profile.profiled():
                return fn(*args, **kwargs)
        return wrapper

    for name in ("mul", "rotate", "rescale", "mod_switch"):
        monkeypatch.setattr(sim.ctx, name, counted(getattr(sim.ctx, name)))
    before = _rows()
    sim.run(inputs)
    return _rows() - before


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("variant", (1, 2))
@pytest.mark.parametrize("kind", (OpKind.MUL, OpKind.ROTATE))
def test_key_switch_rows_equal_compiler_transforms(kind, variant, level,
                                                   monkeypatch):
    program = _one_op(kind, level)
    expected = level + level * (level - 1) if variant == 1 else 6 * level
    assert _compiler_transforms(program, variant) == expected
    assert _engine_rows(program, variant, monkeypatch) == expected


@pytest.mark.parametrize("level", LEVELS)
def test_mod_switch_rows_equal_compiler_transforms(level, monkeypatch):
    program = _one_op(OpKind.MOD_SWITCH, level)
    assert _compiler_transforms(program, 1) == 2 * level
    assert _engine_rows(program, 1, monkeypatch) == 2 * level


@pytest.mark.parametrize("level", LEVELS)
def test_ckks_rescale_is_2l_rows_and_mod_down_is_none(level, monkeypatch):
    # A fresh CKKS ciphertext's MOD_SWITCH lowers to the value-preserving
    # mod-down: limbs are independent in the NTT domain, nothing to transform.
    program = _one_op(OpKind.MOD_SWITCH, level, scheme="ckks")
    assert _engine_rows(program, 2, monkeypatch) == 0
    ctx = CkksContext(FheParams.build(n=N, levels=level), seed=3)
    ct = ctx.encrypt_values(np.linspace(-1.0, 1.0, N // 2))
    with profile.profiled():
        before = _rows()
        ctx.mod_switch_to(ct, 1)
        assert _rows() == before
        ctx.rescale(ct)
        assert _rows() - before == 2 * level


def test_row_counters_reach_the_kernel_breakdown():
    ctx = CkksContext(FheParams.build(n=N, levels=2), seed=3)
    ct = ctx.encrypt_values(np.zeros(4))
    before = _rows()
    ctx.rescale(ct)
    assert _rows() == before          # recorded only while profiling is on
    with profile.profiled():
        ctx.rescale(ct)
    table = profile.kernel_breakdown(global_metrics().snapshot())["all"]
    assert table["ntt_forward"]["rows"] >= 2
    assert table["ntt_inverse"]["rows"] >= 2
    assert table["ntt_forward"]["count"] >= 1   # beside the .ms histogram


def _calls() -> int:
    reg = global_metrics()
    return (reg.histogram("kernel.ntt_forward.ms").count
            + reg.histogram("kernel.ntt_inverse.ms").count)


@pytest.mark.parametrize("level", (2, 3, 6))
@pytest.mark.parametrize("scheme", (BgvContext, CkksContext))
def test_mul_rescale_is_6l_rows_in_4_calls(scheme, level):
    ctx = scheme(FheParams.build(n=N, levels=level), seed=3, ks_variant=2)
    x, y = (ctx.encrypt_values(np.arange(N // 2) % 7) for _ in range(2))
    ctx.mul(x, y)                                  # the hint, made outside

    def counted(fn) -> tuple[int, int]:
        with profile.profiled():
            rows, calls = _rows(), _calls()
            fn()
            return _rows() - rows, _calls() - calls

    assert counted(lambda: ctx.mul_rescale(x, y)) == (6 * level, 4)
    assert counted(lambda: ctx.rescale(ctx.mul(x, y))) == (8 * level, 6)
