"""The transform block driver: any cut is the per-limb transform.

``RnsNttContext`` runs every call as blocks of about ``BLOCK_ELEMS`` elements
— runs of whole leading matrices, or limb ranges of one wide matrix — through
a per-thread workspace.  Pinned here: blocked == the strict transform of
each row (``kernel_oracles.ntt_reference``) for every way a shape can meet
the block size, at 1, 2 and 3 concurrent callers; inputs are never written and
results never alias the workspace; the workspace is per thread and bounded
(``tracemalloc``, not wall clock); negative residues are refused.
"""

from __future__ import annotations

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from kernel_oracles import ntt_reference
from repro.poly import ntt
from repro.poly.ntt import BLOCK_ELEMS, NttContext, get_rns_context
from repro.rns.primes import ntt_friendly_primes

N = 256
ROWS_PER_BLOCK = 96                    # what the shapes below are cut against

#: (shape, why): how each input meets the block size.
SHAPES = [
    ((3, N), "smaller than one block"),
    ((40, 5, N), "one leading axis, ragged last block (19 + 19 + 2)"),
    ((4, 10, 5, N), "two leading axes"),
    ((2, 3, 7, 5, N), "three leading axes, ragged last block"),
    ((ROWS_PER_BLOCK + 4, N), "2-D, wider than a block: limb-range split"),
    ((2, ROWS_PER_BLOCK + 4, N), "stack of matrices wider than a block"),
]


@pytest.fixture(autouse=True)
def pinned_block_size(monkeypatch):
    """The shapes meet a 96-row block; ``BLOCK_ELEMS`` itself is a tuned
    constant (the workspace test below reads the shipped one)."""
    monkeypatch.setattr(ntt, "BLOCK_ELEMS", ROWS_PER_BLOCK * N)


@pytest.fixture(scope="module")
def moduli():
    return tuple(ntt_friendly_primes(N, 28, ROWS_PER_BLOCK + 4))


def _input(shape, moduli, seed=0):
    rng = np.random.default_rng(seed)
    return np.stack([rng.integers(0, q, shape[:-2] + (N,), dtype=np.uint64)
                     for q in moduli[:shape[-2]]], axis=-2)


def _row_by_row(x, moduli, inverse):
    return ntt_reference(x, moduli[:x.shape[-2]], inverse)


@pytest.fixture(scope="module")
def cases(moduli):
    """shape -> (input, forward reference, inverse reference)."""
    out = {}
    for shape, _why in SHAPES:
        x = _input(shape, moduli)
        out[shape] = (x, _row_by_row(x, moduli, False),
                      _row_by_row(x, moduli, True))
    return out


@pytest.mark.parametrize("callers", [1, 2, 3])
@pytest.mark.parametrize("shape", [s for s, _ in SHAPES],
                         ids=[why for _, why in SHAPES])
def test_blocked_equals_row_by_row(shape, callers, moduli, cases):
    """``callers`` threads transform the same input at once; each has its
    own workspace, so each gets the row-by-row answer."""
    x, want_fwd, want_inv = cases[shape]
    ctx = get_rns_context(N, moduli[:shape[-2]])
    before = x.copy()
    results = [None] * callers

    def call(i):
        results[i] = (ctx.forward(x), ctx.inverse(x))

    threads = [threading.Thread(target=call, args=(i,))
               for i in range(callers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    for fwd, inv in results:
        assert np.array_equal(fwd, want_fwd)
        assert np.array_equal(inv, want_inv)
    assert np.array_equal(x, before)          # inputs are never written


def test_a_run_of_limbs_uses_its_own_rows_of_the_tables(moduli):
    ctx = get_rns_context(N, moduli[:8])
    x = _input((30, 3, N), moduli[5:8], seed=2)
    want = _row_by_row(x, moduli[5:8], False)
    assert np.array_equal(ctx.forward(x, start=5), want)
    assert np.array_equal(ctx.inverse(want, start=5), x)
    for bad in (6, -1):                       # runs off the basis
        with pytest.raises(ValueError):
            ctx.forward(x, start=bad)
    with pytest.raises(ValueError):           # a partial matrix needs start=
        ctx.forward(x)


def test_results_do_not_alias_the_workspace(moduli):
    ctx = get_rns_context(N, moduli[:5])
    x, y = _input((5, N), moduli, 3), _input((5, N), moduli, 4)
    first = ctx.forward(x)
    kept = first.copy()
    second = ctx.forward(y)
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(first, ntt._scratch.buf)
    assert np.array_equal(first, kept)        # the next call did not touch it
    assert np.array_equal(ctx.inverse(second), y)
    assert np.array_equal(first, kept)


def test_concurrent_callers_each_get_the_serial_answer(moduli):
    """More threads than cores, each on its own stack, a short switch
    interval: a shared workspace would cross their butterflies."""
    ctx = get_rns_context(N, moduli[:5])
    stacks = [_input((7, 5, N), moduli, seed) for seed in range(3)]
    want = [ctx.forward(s) for s in stacks]
    wrong, done = [], []

    def worker(i):
        for _ in range(25):
            if not np.array_equal(ctx.forward(stacks[i]), want[i]):
                wrong.append(i)
            if not np.array_equal(ctx.inverse(want[i]), stacks[i]):
                wrong.append(i)
        done.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(done) == [0, 1, 2] and not wrong


def test_workspace_is_bounded_and_the_bound_is_reached(monkeypatch):
    """3.5 blocks of uint32 and half a block of uint64 per thread, 18 bytes
    an element, however large the input: the digit stack of an 18-limb key
    switch, a full block of a 6-limb stack and the paper's ring leave that
    one allocation behind and nothing else."""
    monkeypatch.setattr(ntt, "BLOCK_ELEMS", BLOCK_ELEMS)
    cap = 18 * BLOCK_ELEMS                    # (3.5 * 4 + 0.5 * 8) bytes
    full = BLOCK_ELEMS // (6 * 1024)
    inputs = []
    for shape in ((18, 18, 1024), (full, 6, 1024), (16, 16384)):
        n = shape[-1]
        moduli = tuple(ntt_friendly_primes(n, 28, shape[-2]))
        rng = np.random.default_rng(n)
        inputs.append((get_rns_context(n, moduli), np.stack(
            [rng.integers(0, q, shape[:-2] + (n,), dtype=np.uint64)
             for q in moduli], axis=-2)))
    vars(ntt._scratch).clear()                # this thread starts without one
    tracemalloc.start()
    try:
        for ctx, x in inputs:
            base, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            out = ctx.inverse(ctx.forward(x))
            _, peak = tracemalloc.get_traced_memory()
            assert np.array_equal(out, x)
            # Live at the peak: two results, the workspace and the ufunc
            # machinery's cast buffers (8192 elements an operand) — no
            # per-stage temporaries of the input's size.
            assert peak - base <= 2 * x.nbytes + cap + (192 << 10)
            del out
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ntt._scratch.buf.nbytes == cap     # (full, 6, 1024) is one block
    assert cap <= retained <= cap + (64 << 10)


def test_negative_residues_are_refused(moduli):
    """A signed -1 used to wrap to 2^64 - 1 and come back as garbage."""
    ctx = get_rns_context(N, moduli[:2])
    signed = np.zeros((2, N), dtype=np.int64)
    assert np.array_equal(ctx.forward(signed),
                          ctx.forward(signed.astype(np.uint64)))
    signed[1, 3] = -1
    for call in (ctx.forward, ctx.inverse,
                 lambda x: NttContext(N, moduli[0]).forward(x[1])):
        with pytest.raises(ValueError, match="non-negative"):
            call(signed)
