"""What Listing-1 key-switch state costs in memory, pinned deterministically.

A variant-1 hint is two ``(L, L, N)`` uint32 stacks, written once at
keygen; its ``hint0[i]`` / ``hint1[i]`` rows are views of them.  The key
switch's digit stack is uint32 as well.  The sizes below are byte counts and
``tracemalloc`` peaks (the bytes numpy asks for, not what the allocator
keeps), so they do not depend on the allocator or the box.  The traced
figures are at the shape of ``engine_solo``'s BGV program: N = 1024,
L = 18, t = 257.
"""

import tracemalloc

import numpy as np
import pytest

from repro.fhe.bgv import BgvContext
from repro.fhe.keys import generate_ks_hint
from repro.fhe.keyswitch import key_switch_v1
from repro.fhe.params import FheParams
from repro.poly import kernels

N, L = 1024, 18
MB = 1e6

#: Traced peak of building one hint, the two stacks it keeps included:
#: 3.84 MB measured.  The stacks are 2.65 MB; as uint64 they alone would
#: be 5.31 MB.
HINT_BUILD_PEAK_MB = 4.4
#: Traced transient of one ``key_switch_v1`` above the two limbs it
#: returns: 2.50 MB measured (the uint32 digit stack, the lifted digits it
#: is scattered from, the uint32 inverse).  With uint64 digit stacks it was
#: 7.66 MB.
KEY_SWITCH_PEAK_MB = 3.0


@pytest.fixture(scope="module")
def deep():
    """The context, its relin hint, and an input, with every cache and the
    NTT workspace warmed by one key switch."""
    ctx = BgvContext(FheParams.build(n=N, levels=L, plaintext_modulus=257),
                     seed=3)
    hint = ctx.hint_v1("relin", ctx.params.basis)
    x = ctx.encrypt(np.arange(N) % 257).a
    key_switch_v1(x, hint)
    return ctx, hint, x


@pytest.fixture()
def engine_only(monkeypatch):
    """Trace the engine alone: under ``REPRO_KERNEL_DEBUG=1`` the oracle
    hooks and the reduced-input asserts would allocate their own."""
    monkeypatch.setattr(kernels, "DEBUG_VALIDATE", False)


def _traced_peak(fn):
    """``fn()`` and its traced peak in bytes above what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_hint_stacks_are_uint32_and_the_only_storage(deep):
    _, hint, _ = deep
    for stack in (hint.stack0, hint.stack1):
        assert stack.dtype == np.uint32
        assert stack.nbytes == L * L * N * 4
    for rows, stack in ((hint.hint0, hint.stack0), (hint.hint1, hint.stack1)):
        assert len(rows) == L
        for i, row in enumerate(rows):
            assert np.shares_memory(row.limbs, stack)
            assert np.shares_memory(row.limbs, stack[i])


def test_hint_build_peak(deep, engine_only):
    ctx, hint, _ = deep
    basis = ctx.params.basis
    old_key = ctx.secret.square_poly(basis)
    built, peak = _traced_peak(lambda: generate_ks_hint(
        ctx.secret, "relin", old_key, ctx.t, ctx.params.error_width,
        np.random.default_rng(0)))
    assert built.stack0.nbytes + built.stack1.nbytes < peak
    assert peak < HINT_BUILD_PEAK_MB * MB, \
        f"hint build peaked at {peak / MB:.2f} MB"


def test_key_switch_v1_transient(deep, engine_only):
    _, hint, x = deep
    (u0, u1), peak = _traced_peak(lambda: key_switch_v1(x, hint))
    assert u0.limbs.dtype == u1.limbs.dtype == np.uint64
    transient = peak - u0.limbs.nbytes - u1.limbs.nbytes
    assert transient < KEY_SWITCH_PEAK_MB * MB, \
        f"key_switch_v1 peaked at {transient / MB:.2f} MB above its result"
