"""One Listing-1 hint per target, sliced for every level of the chain.

Row i of a variant-1 hint puts the old key in limb i alone (the CRT
indicator ``D_i``), and a lower level only drops top limbs, so the hint at
a prefix basis of ``l`` limbs is the leading ``l x l`` block of the top
hint.  ``BgvContext.hint_v1`` generates each target's hint once, at the top
basis, and returns views of it.  Pinned here, for BGV at t = 257 and 256
and for CKKS under key-switch variant 1:

- a lower level's hint shares the top hint's memory, and a basis that is
  not a prefix of the chain is refused;
- ``mul``, ``rotate`` and ``rotate_many`` after 1 .. L-2 limb drops decrypt
  like the plaintext reference: bit for bit for BGV, within the CKKS
  tests' tolerances (1e-2 for a product, 1e-3 for a rotation);
- key-switching at every level of an 8-level chain keeps about one top
  hint's bytes (``tracemalloc``), not the sum over the levels.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.fhe.bgv import BgvContext
from repro.fhe.ckks import CkksContext
from repro.fhe.params import FheParams
from repro.poly import kernels
from repro.poly.automorphism import automorphism_coeff
from repro.poly.ntt import naive_negacyclic_multiply
from repro.rns.crt import RnsBasis

N, L = 64, 6
STEPS = [1, 2, 3]


@pytest.fixture(scope="module", params=["bgv_t257", "bgv_t256", "ckks"])
def ctx(request):
    if request.param == "ckks":
        return CkksContext(FheParams.build(n=N, levels=L), seed=5, ks_variant=1)
    t = int(request.param[-3:])
    return BgvContext(FheParams.build(n=N, levels=L, plaintext_modulus=t),
                      seed=5, ks_variant=1)


def _values(ctx, seed):
    rng = np.random.default_rng(seed)
    if ctx.scheme == "ckks":
        return rng.uniform(-1.0, 1.0, N // 2)
    return rng.integers(0, ctx.t, N)


def _dropped(ctx, values, drops):
    ct = ctx.encrypt_values(values)
    for _ in range(drops):
        ct = ctx.mod_switch(ct)
    return ct


def test_a_lower_level_hint_is_a_view_of_the_top_one(ctx):
    for target in ("relin", f"galois_{ctx._rotation_exponent(1, N)}"):
        top = ctx.hint_v1(target, ctx.params.basis)
        for level in range(1, L):
            low = ctx.hint_v1(target, ctx.params.basis_at(level))
            assert low.basis == ctx.params.basis_at(level)
            assert low.stack0.shape == (level, level, N)
            for mine, whole in ((low.stack0, top.stack0),
                                (low.stack1, top.stack1)):
                assert np.shares_memory(mine, whole)
                assert np.array_equal(mine, whole[:level, :level])
    # one hint per target, at the top basis
    assert all(h.basis == ctx.params.basis for h in ctx._hints_v1.values())


def test_a_basis_off_the_chain_is_refused(ctx):
    moduli = ctx.params.basis.moduli
    with pytest.raises(ValueError, match="not a prefix"):
        ctx.hint_v1("relin", RnsBasis(moduli[1:3]))


@pytest.mark.parametrize("drops", range(1, L - 1))
def test_key_switches_below_the_top_decrypt_like_the_reference(ctx, drops):
    m0, m1 = _values(ctx, drops), _values(ctx, 100 + drops)
    x, y = _dropped(ctx, m0, drops), _dropped(ctx, m1, drops)
    assert x.level == L - drops
    product = ctx.mul(x, y)
    if ctx.scheme == "bgv":
        t = ctx.t
        assert np.array_equal(ctx.decrypt(product),
                              naive_negacyclic_multiply(m0, m1, t))
        want = [automorphism_coeff(m0, ctx._rotation_exponent(s, N), t)
                for s in STEPS]
        assert np.array_equal(ctx.decrypt(ctx.rotate(x, STEPS[0])), want[0])
        for ct, w in zip(ctx.rotate_many(x, STEPS), want):
            assert np.array_equal(ctx.decrypt(ct), w)
        return
    slots = N // 2

    def err(ct, want):
        return np.abs(ctx.decrypt_values(ct, slots) - want).max()

    assert err(product, m0 * m1) < 1e-2
    # A variant-1 rotation adds noise of about q: it is read at the
    # product's scale (Delta^2), where that is far below the tolerance.
    want = [np.roll(m0 * m1, -s) for s in STEPS]
    assert err(ctx.rotate(product, STEPS[0]), want[0]) < 1e-3
    for ct, w in zip(ctx.rotate_many(product, STEPS), want):
        assert err(ct, w) < 1e-3


def test_key_switching_at_every_level_keeps_one_top_hint(monkeypatch):
    """N = 1024, L = 8: the top relin hint is 2 * 8^2 * 1024 * 4 bytes =
    512 KiB; one hint per level would keep 2 * (1^2 + ... + 8^2) * 1024 * 4
    = 1.6 MiB (3.19x).  Everything else a key switch caches (the key's
    per-level NTT forms, the transform contexts) is warmed before tracing,
    and the engine is traced alone (no debug oracles)."""
    monkeypatch.setattr(kernels, "DEBUG_VALIDATE", False)
    n, levels = 1024, 8
    params = FheParams.build(n=n, levels=levels, plaintext_modulus=257)
    twin, ctx = BgvContext(params, seed=2), BgvContext(params, seed=3)
    cts = [ctx.encrypt(np.arange(n) % 257, level=level)
           for level in range(levels, 0, -1)]
    for ct in cts:      # the twin warms the transform contexts and workspace
        twin.mul(ct, ct)
        ctx.secret.poly(ct.basis)
    ctx.secret.square_poly(params.basis)
    top_bytes = 2 * levels * levels * n * 4
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for ct in cts:
            ctx.mul(ct, ct)
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert top_bytes <= kept <= 1.1 * top_bytes
