"""One NTT plan per prime chain: every prefix runs on the longest one's.

Row l of every transform table depends on ``q_l`` alone, so
:func:`repro.poly.ntt.get_rns_context` runs a moduli tuple on the tables of
the longest cached tuple it prefixes, and moves the prefixes cached before
a longer chain onto that chain's tables.  Pinned here on a private cache:

- prefixes built before and after their chain end up on one plan object;
- a prefix on the chain's plan transforms bit for bit like a plan built for
  the prefix alone and the strict ``%`` transform
  (``kernel_oracles.ntt_reference``): whole bases, ``start=`` runs, blocked
  stacks, uint32 ``out=``;
- concurrent first requests build one context and one plan, and a
  transform running while its context moves onto a longer chain is exact;
- building a chain keeps its plan's arrays and little else: no per-prime
  tables beside them.

``tests/test_block_driver.py`` pins that a prefix's views are cut when its
context is made, not inside a transform (its workspace bound is traced).
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from kernel_oracles import ntt_reference
from repro.poly import ntt
from repro.poly.ntt import RnsNttContext, get_rns_context
from repro.rns.primes import ntt_friendly_primes

N = 256
CHAIN = tuple(ntt_friendly_primes(N, 28, 12))


@pytest.fixture(autouse=True)
def private_cache(monkeypatch):
    """An empty context cache, so other tests' tuples are not in it."""
    monkeypatch.setattr(ntt, "_rns_contexts", {})


def _plan(ctx):
    return ctx._tables[0]


def _limbs(moduli, lead=(), seed=0):
    rng = np.random.default_rng(seed)
    return np.stack([rng.integers(0, q, lead + (N,), dtype=np.uint64)
                     for q in moduli], axis=-2)


def test_prefixes_before_and_after_the_chain_share_its_plan():
    before = [get_rns_context(N, CHAIN[:k]) for k in (3, 1, 7)]
    assert len({id(_plan(c)) for c in before}) == 1   # (1,), (3,) ride (7,)
    chain = get_rns_context(N, CHAIN)
    after = [get_rns_context(N, CHAIN[:k]) for k in (2, 3, 11)]
    assert after[1] is before[0]                       # the cached context
    for ctx in before + after:
        assert _plan(ctx) is _plan(chain)
        assert ctx._chain is chain
    assert _plan(chain).q_col.shape == (len(CHAIN), 1)
    # the per-limb context of the chain's first prime rides it too
    assert _plan(get_rns_context(N, CHAIN[:1])) is _plan(chain)
    # another chain at this N gets its own plan; another N, its own
    other = get_rns_context(N, CHAIN[1:4])
    assert _plan(other) is not _plan(chain)
    assert _plan(get_rns_context(2 * N, tuple(
        ntt_friendly_primes(2 * N, 28, 3)))) is not _plan(chain)


@pytest.mark.parametrize("level", [1, 4, 9])
def test_a_prefix_on_the_chain_transforms_like_its_own_plan(level):
    get_rns_context(N, CHAIN)
    shared = get_rns_context(N, CHAIN[:level])
    own = RnsNttContext(N, CHAIN[:level])
    assert _plan(shared) is not _plan(own)
    moduli = CHAIN[:level]
    cases = [(_limbs(moduli), None),                  # the whole basis
             (_limbs(moduli, (40,), 1), None),        # blocked stack
             (_limbs(moduli[level // 2:], (3,), 2), level // 2)]  # a run
    for x, start in cases:
        for call in ("forward", "inverse"):
            want = getattr(own, call)(x, start=start)
            assert np.array_equal(want, ntt_reference(
                x, moduli[start or 0:], inverse=call == "inverse"))
            got = getattr(shared, call)(x, start=start)
            assert np.array_equal(got, want)
            out = np.empty(x.shape, np.uint32)
            assert getattr(shared, call)(x, start=start, out=out) is out
            assert np.array_equal(out, want)


def test_a_prefix_runs_on_views_cut_once():
    get_rns_context(N, CHAIN)
    ctx = get_rns_context(N, CHAIN[:5])
    plan, whole = ctx._tables
    fwd_cut = whole[0]
    assert fwd_cut[0].shape == (5, 1)                 # q column of the prefix
    assert np.shares_memory(fwd_cut[0], plan.q_col)
    ctx.forward(_limbs(CHAIN[:5]))
    assert ctx._tables[1][0] is fwd_cut               # reused, not re-cut


def test_a_context_rides_only_a_chain_it_prefixes():
    chain = RnsNttContext(N, CHAIN[:6])
    prefix = RnsNttContext(N, CHAIN[:3], chain=chain)
    assert _plan(prefix) is _plan(chain)
    with pytest.raises(ValueError, match="chain="):
        RnsNttContext(N, CHAIN[1:3], chain=chain)


@pytest.fixture()
def short_switches():
    """A short switch interval, so threads interleave inside the calls."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def _join(threads):
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)


@pytest.mark.parametrize("requests", [
    [CHAIN] * 4,
    [CHAIN[:2], CHAIN[:5], CHAIN, CHAIN[:3]],
], ids=["one tuple", "a chain and its prefixes"])
def test_concurrent_first_requests_get_one_plan(requests, short_switches):
    barrier = threading.Barrier(len(requests))
    got = [None] * len(requests)

    def request(i):
        barrier.wait()
        got[i] = get_rns_context(N, requests[i])

    threads = [threading.Thread(target=request, args=(i,))
               for i in range(len(requests))]
    for t in threads:
        t.start()
    _join(threads)
    assert len({id(_plan(c)) for c in got}) == 1
    assert len(ntt._rns_contexts) == len(set(requests))
    for moduli, ctx in zip(requests, got):
        assert ctx is get_rns_context(N, moduli)


def test_a_transform_running_while_its_context_moves_is_exact(short_switches):
    """Threads transform on a prefix while the main thread builds longer
    chains, each of which moves the prefix onto its plan mid-stream."""
    ctx = get_rns_context(N, CHAIN[:3])
    x = _limbs(CHAIN[:3], (5,), 4)
    want = RnsNttContext(N, CHAIN[:3]).forward(x)
    wrong, stop = [], threading.Event()

    def transform():
        while not stop.is_set():
            if not np.array_equal(ctx.forward(x), want):
                wrong.append(1)

    threads = [threading.Thread(target=transform) for _ in range(3)]
    for t in threads:
        t.start()
    try:
        for level in range(4, len(CHAIN) + 1):
            get_rns_context(N, CHAIN[:level])
    finally:
        stop.set()
        _join(threads)
    assert _plan(ctx) is _plan(get_rns_context(N, CHAIN)) and not wrong


_RESIDENCY_PROBE = """
import tracemalloc
import numpy as np
from repro.poly.ntt import get_rns_context
from repro.rns.primes import ntt_friendly_primes

moduli = tuple(ntt_friendly_primes(1024, 28, 18))
tracemalloc.start()
before = tracemalloc.get_traced_memory()[0]
plan = get_rns_context(1024, moduli)._tables[0]
grown = tracemalloc.get_traced_memory()[0] - before
owners, todo = {}, list(vars(plan).values())
while todo:                       # every array the plan reaches, by owner
    x = todo.pop()
    if isinstance(x, np.ndarray):
        while x.base is not None:
            x = x.base
        owners[id(x)] = x.nbytes
    elif isinstance(x, (list, tuple)):
        todo.extend(x)
print(grown, sum(owners.values()))
"""

#: what a chain may keep beside its plan's arrays: the cached bit-reversal
#: (8 KiB at N = 1024), the context, its cut views and the cache entry
RESIDENCY_SLACK = 64 * 1024


def test_a_new_chain_keeps_only_its_plan():
    """18 fresh 28-bit primes at N = 1024 in a fresh interpreter: the memory
    the build keeps (``tracemalloc``) is the plan's own arrays plus a small
    slack.  Per-prime tables kept beside the plan (psi powers, inverse
    powers, stage twiddles) would add ~0.7 MB."""
    src = Path(__file__).resolve().parents[1] / "src"
    probe = subprocess.run(
        [sys.executable, "-c", _RESIDENCY_PROBE], capture_output=True,
        text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
    assert probe.returncode == 0, probe.stderr
    grown, plan_bytes = map(int, probe.stdout.split())
    # per direction a uint32 twiddle and its uint64 partner for each of the
    # 18 x 1024 slots, two int64 permutations: no view pins a wider array
    assert 400_000 < plan_bytes <= 2 * 12 * 18 * 1024 + 2 * 8 * 1024 + 1024
    assert grown <= plan_bytes + RESIDENCY_SLACK, (grown, plan_bytes)
