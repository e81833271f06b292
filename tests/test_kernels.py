"""Tests for the modular-kernel layer and the lazy (Harvey/Shoup) hot paths.

Three families:

- unit oracles for :mod:`repro.poly.kernels` against plain ``%`` arithmetic,
  including the documented overflow edges and the count-dependent
  reduce-first branch.  The engine admits moduli below 2^30; the kernels
  take bare arrays and hold for any word-sized q, so some cases here also
  run 31- and 32-bit moduli;
- bit-identity of the uint32 lazy NTT plan against the strict ``%``
  transform (``kernel_oracles.ntt_reference``), including the largest
  admissible modulus with adversarial all-(q-1) inputs;
- behavioral equivalence of the fused/hoisted composites: fused
  ``key_switch_v1`` vs. the unfused reference loop, ``rotate_many`` vs.
  sequential rotations on both schemes and both key-switch variants, and the
  chained ``mod_switch_to`` / ``rescale_to`` vs. step-by-step chains.
"""

import numpy as np
import pytest

import kernel_oracles
from repro.fhe.bgv import BgvContext
from repro.fhe.ckks import CkksContext
from repro.fhe.keyswitch import HoistedDecomposition, key_switch_v1
from repro.fhe.params import FheParams
from repro.fhe.sampling import uniform_poly
from repro.poly import kernels
from repro.poly.ntt import NttContext, RnsNttContext, get_rns_context
from repro.poly.polynomial import Domain, RnsPolynomial
from repro.rns.crt import MAX_MODULUS, RnsBasis
from repro.rns.primes import ntt_friendly_primes

RNG = np.random.default_rng(20260727)


def _random_limbs(moduli, n, rng=RNG):
    return np.stack([rng.integers(0, q, n, dtype=np.uint64) for q in moduli])


# --------------------------------------------------------------- kernel units
@pytest.mark.parametrize("bits", [28, 30, 31, 32])
def test_elementwise_kernels_match_modular_arithmetic(bits):
    n = 64
    moduli = ntt_friendly_primes(n, bits, 3)
    q = np.array(moduli, dtype=np.uint64).reshape(-1, 1)
    x = _random_limbs(moduli, n)
    y = _random_limbs(moduli, n)
    assert np.array_equal(kernels.add_mod(x, y, q), (x + y) % q)
    assert np.array_equal(kernels.sub_mod(x, y, q), (x + q - y) % q)
    assert np.array_equal(kernels.neg_mod(x, q), (q - x) % q)
    assert np.array_equal(kernels.mul_mod(x, y, q), (x * y) % q)


@pytest.mark.parametrize("bits", [28, 31, 32])
def test_elementwise_kernels_at_extremes(bits):
    """x, y at 0 and q-1 — the cond-sub boundary cases."""
    n = 32
    moduli = ntt_friendly_primes(n, bits, 2)
    q = np.array(moduli, dtype=np.uint64).reshape(-1, 1)
    zeros = np.zeros((2, n), dtype=np.uint64)
    tops = np.broadcast_to(q - 1, (2, n)).copy()
    for x in (zeros, tops):
        for y in (zeros, tops):
            assert np.array_equal(kernels.add_mod(x, y, q), (x + y) % q)
            assert np.array_equal(kernels.sub_mod(x, y, q), (x + q - y) % q)
        assert np.array_equal(kernels.neg_mod(x, q), (q - x) % q)


def test_cond_sub_and_reduce_once():
    q = np.uint64(97)
    x = np.arange(2 * 97, dtype=np.uint64)  # the full [0, 2q) range
    assert np.array_equal(kernels.cond_sub(x, q), x % q)
    assert np.array_equal(kernels.reduce_once(x, q), x % q)


@pytest.mark.parametrize("bits", [28, 30, 31])
def test_fused_mul_add_and_mul_accumulate(bits):
    n, level, k = 64, 3, 6
    moduli = ntt_friendly_primes(n, bits, level)
    q = np.array(moduli, dtype=np.uint64).reshape(-1, 1)
    a, b, c, d = (_random_limbs(moduli, n) for _ in range(4))
    assert np.array_equal(
        kernels.fused_mul_add(a, b, c, d, q),
        ((a * b) % q + (c * d) % q) % q,
    )
    stack_a = np.stack([_random_limbs(moduli, n) for _ in range(k)])
    stack_b = np.stack([_random_limbs(moduli, n) for _ in range(k)])
    want = np.zeros((level, n), dtype=np.uint64)
    for i in range(k):
        want = (want + stack_a[i] * stack_b[i] % q) % q
    assert np.array_equal(
        kernels.mul_accumulate(stack_a, stack_b, q, max(moduli)), want)


def test_mul_accumulate_reduced_path_for_wide_moduli():
    """17 terms of 30-bit products pass the raw-sum guard's 2^64: the
    reduce-first branch runs, and it is exact (the overflow-edge test below
    shows the branch is taken)."""
    n, k = 32, 17
    moduli = ntt_friendly_primes(n, 30, 2)
    q = np.array(moduli, dtype=np.uint64).reshape(-1, 1)
    qmax = max(moduli)
    assert (k - 1) * (qmax - 1) ** 2 < 1 << 64 <= k * (qmax - 1) ** 2
    stack_a = np.stack([_random_limbs(moduli, n) for _ in range(k)])
    stack_b = np.stack([_random_limbs(moduli, n) for _ in range(k)])
    want = np.zeros((2, n), dtype=np.uint64)
    for i in range(k):
        want = (want + stack_a[i] * stack_b[i] % q) % q
    assert np.array_equal(
        kernels.mul_accumulate(stack_a, stack_b, q, qmax), want)


@pytest.mark.parametrize("bits", [28, 30, 32])
def test_mul_accumulate_uint32_stacks_at_the_overflow_edge(bits):
    """All-(q-1) uint32 stacks, the largest products: at 28 bits with the
    most terms the raw-sum guard admits, at 30 and 32 bits with one term
    more (reduce-first branch; the raw sum would wrap to another residue,
    so the exact result shows the branch ran).  Products widen inside the
    kernel, so the result is the uint64 stacks' and the exact
    ``K * (q-1)^2 mod q = K mod q``."""
    n = 16
    moduli = ntt_friendly_primes(n, bits, 2)
    qmax = max(moduli)
    edge = ((1 << 64) - 1) // (qmax - 1) ** 2  # the guard's largest K
    k = edge if bits == 28 else edge + 1
    assert (k * (qmax - 1) ** 2 < 1 << 64) == (bits == 28)
    assert (k + 1) * (qmax - 1) ** 2 >= 1 << 64
    if bits != 28:
        assert k * (qmax - 1) ** 2 % (1 << 64) % qmax != k % qmax
    q = np.array(moduli, dtype=np.uint64).reshape(-1, 1)
    wide = np.broadcast_to(q - np.uint64(1), (k, 2, n)).copy()
    narrow = wide.astype(np.uint32)
    got = kernels.mul_accumulate(narrow, narrow, q, qmax)
    assert got.dtype == np.uint64
    assert np.array_equal(got, kernels.mul_accumulate(wide, wide, q, qmax))
    assert np.array_equal(got, np.broadcast_to(np.uint64(k) % q, (2, n)))


@pytest.mark.parametrize("q", [ntt_friendly_primes(64, b, 1)[0] for b in (28, 30, 31)])
def test_shoup_mul_congruent_and_lazy_bounded(q):
    """``[0, 2q)`` over the whole lazy input range ``x < 2q``.  The fixed
    32-bit shift keeps ``x * w' < 2q * 2^32 <= 2^64`` up to ``q < 2^31``,
    one bit past the engine's bound, so the 31-bit case holds too."""
    rng = np.random.default_rng(q)
    qq = np.uint64(q)
    w = rng.integers(0, q, 256, dtype=np.uint64)
    ws = ((w.astype(object) << kernels.SHOUP_SHIFT) // q).astype(np.uint64)
    x = rng.integers(0, 2 * q, 256, dtype=np.uint64)  # full lazy input range
    x[:2] = 0, 2 * q - 1
    t = kernels.shoup_mul(x, w, ws, qq)
    assert int(t.max()) < 2 * q
    assert np.array_equal(t % qq, (x * w) % qq)


def test_debug_validate_catches_unreduced_operands(monkeypatch):
    monkeypatch.setattr(kernels, "DEBUG_VALIDATE", True)
    q = np.uint64(97)
    good = np.arange(10, dtype=np.uint64)
    bad = good + q  # not reduced
    kernels.sub_mod(good, good, q)  # fine
    with pytest.raises(AssertionError):
        kernels.sub_mod(good, bad, q)
    with pytest.raises(AssertionError):
        kernels.neg_mod(bad, q)


@pytest.mark.parametrize("bits", [28, 30])
def test_shoup_mul32_lands_in_the_lazy_range(bits):
    """``[0, 2q)`` for ``x`` over the whole ``[0, 4q)`` a butterfly can hold:
    both ends, every multiple of q and its neighbours, and a random fill."""
    q = ntt_friendly_primes(1024, bits, 1)[0]
    rng = np.random.default_rng(q)
    edges = [k * q + d for k in range(5) for d in (-1, 0, 1)][1:-1]
    x = np.concatenate([edges, rng.integers(0, 4 * q, 4096)]).astype(np.uint32)
    w = np.concatenate([[0, 1, q - 1], rng.integers(0, q, 61)])[:, None]
    ws = ((w.astype(object) << 32) // q).astype(np.uint64)
    wide = np.empty((w.size, x.size), dtype=np.uint64)
    tmp, out = np.empty_like(wide, np.uint32), np.empty_like(wide, np.uint32)
    t = kernels.shoup_mul32(x, w.astype(np.uint32), ws, np.uint32(q),
                            wide, tmp, out)
    assert int(t.max()) < 2 * q
    assert np.array_equal(t % q, x.astype(np.uint64) * w.astype(np.uint64) % q)


# ------------------------------------------------------- lazy vs strict NTT
@pytest.mark.parametrize("bits", [28, 30])
@pytest.mark.parametrize("n", [16, 256, 1024])
def test_lazy_ntt_bit_identical_to_strict(bits, n):
    """The uint32 plan == the strict ``%`` transform, batched and per limb."""
    moduli = tuple(ntt_friendly_primes(n, bits, 3))
    ctx = RnsNttContext(n, moduli)
    for _ in range(3):
        limbs = _random_limbs(moduli, n)
        want_fwd = kernel_oracles.ntt_reference(limbs, moduli)
        want_inv = kernel_oracles.ntt_reference(limbs, moduli, inverse=True)
        assert np.array_equal(ctx.forward(limbs), want_fwd)
        assert np.array_equal(ctx.inverse(limbs), want_inv)
        for row, q in enumerate(moduli):
            one = NttContext(n, q)
            assert np.array_equal(one.forward(limbs[row]), want_fwd[row])
            assert np.array_equal(one.inverse(limbs[row]), want_inv[row])
        assert np.array_equal(ctx.inverse(ctx.forward(limbs)), limbs)


def test_lazy_ntt_mixed_width_basis_and_batched_stacks():
    for n in (128, 4096):
        moduli = tuple(ntt_friendly_primes(n, 28, 3)
                       + ntt_friendly_primes(n, 30, 2))
        ctx = RnsNttContext(n, moduli)
        limbs = _random_limbs(moduli, n)
        fwd = kernel_oracles.ntt_reference(limbs, moduli)
        assert np.array_equal(ctx.forward(limbs), fwd)
        stack = np.stack([limbs, fwd, limbs])
        assert np.array_equal(ctx.forward(stack),
                              kernel_oracles.ntt_reference(stack, moduli))
        assert np.array_equal(ctx.inverse(stack), kernel_oracles.ntt_reference(
            stack, moduli, inverse=True))


def test_overflow_edge_at_largest_admissible_lazy_modulus():
    """The largest NTT-friendly prime below 2^30, driven with all-(q-1) rows
    and a random ``[0, q)`` block: every stage holds values up to ``4q - 1``,
    which must stay below 2^32 for the uint32 workspace not to wrap."""
    n = 256
    q = ntt_friendly_primes(n, 30, 1)[0]  # scans downward from 2^30 - 1
    assert q < MAX_MODULUS and 4 * q - 1 > 0.999 * (1 << 32)
    one = NttContext(n, q)
    tops = np.full(n, q - 1, dtype=np.uint64)
    assert np.array_equal(one.forward(tops),
                          kernel_oracles.ntt_reference(tops[None], (q,))[0])
    assert np.array_equal(one.inverse(tops), kernel_oracles.ntt_reference(
        tops[None], (q,), inverse=True)[0])
    assert np.array_equal(one.inverse(one.forward(tops)), tops)
    rng = np.random.default_rng(0)
    block = rng.integers(0, q, (64, 1, n), dtype=np.uint64)
    block[:, :, ::3] = q - 1
    ctx = RnsNttContext(n, (q,))
    assert np.array_equal(ctx.forward(block),
                          kernel_oracles.ntt_reference(block, (q,)))
    assert np.array_equal(ctx.inverse(block), kernel_oracles.ntt_reference(
        block, (q,), inverse=True))


@pytest.mark.parametrize("bits", [28, 30])
def test_transforms_take_uint32_input_and_out(bits):
    """uint32 input and ``out=`` (uint32, uint64, or the input itself) give
    the uint64 path's values, in one block and across several."""
    n = 1024
    moduli = tuple(ntt_friendly_primes(n, bits, 4))
    ctx = RnsNttContext(n, moduli)
    for lead in (1, 10):  # 4 rows: one block; 40 rows: over the 36 a block
        wide = np.stack([_random_limbs(moduli, n) for _ in range(lead)])
        narrow = wide.astype(np.uint32)
        for call in (ctx.forward, ctx.inverse):
            want = call(wide)
            got = call(narrow)
            assert got.dtype == np.uint64 and np.array_equal(got, want)
            for src in (wide, narrow):
                for dtype in (np.uint32, np.uint64):
                    out = np.empty(wide.shape, dtype)
                    assert call(src, out=out) is out
                    assert np.array_equal(out, want)
                alias = src.copy()
                assert call(alias, out=alias) is alias
                assert np.array_equal(alias, want)
    with pytest.raises(ValueError, match="out="):
        ctx.forward(wide, out=np.empty(wide.shape, np.int64))
    with pytest.raises(ValueError, match="out="):
        ctx.forward(wide, out=np.empty(wide.shape, np.uint32)[..., ::-1])


def test_debug_validate_catches_an_unreduced_transform_input(monkeypatch):
    """The plan's narrowing cast would turn a residue >= 2^32 into a
    plausible wrong answer; under the debug flag it is refused at entry."""
    n = 64
    moduli = tuple(ntt_friendly_primes(n, 28, 2))
    ctx = RnsNttContext(n, moduli)
    limbs = _random_limbs(moduli, n)
    bad = limbs.copy()
    bad[1, 5] += (1 << 32)  # same low word, not a residue
    monkeypatch.setattr(kernels, "DEBUG_VALIDATE", False)
    assert np.array_equal(ctx.forward(bad), ctx.forward(limbs))  # hidden
    monkeypatch.setattr(kernels, "DEBUG_VALIDATE", True)
    ctx.forward(limbs), ctx.inverse(limbs)  # reduced input passes
    for call in (ctx.forward, ctx.inverse):
        with pytest.raises(AssertionError, match="not reduced"):
            call(bad)


# ------------------------------------------------- fused/hoisted composites
def test_key_switch_lifts_digits_by_remainder_on_an_unbalanced_basis(
        monkeypatch):
    """On a 28/30-bit basis ``max q >= 2 min q``, so a 30-bit digit lifted
    to a 28-bit limb can sit at or above ``2q``: one conditional subtract
    would leave it unreduced.  The ``%`` lift hands the forward NTT reduced
    residues (its entry assert, under the debug flag) and gives the
    per-digit loop's answer."""
    monkeypatch.setattr(kernels, "DEBUG_VALIDATE", True)
    n = 128
    moduli = tuple(ntt_friendly_primes(n, 28, 2)
                   + ntt_friendly_primes(n, 30, 2))
    params = FheParams(n=n, basis=RnsBasis(moduli), plaintext_modulus=256)
    bgv = BgvContext(params, seed=5)
    hint = bgv.hint_v1("relin", params.basis)
    x = uniform_poly(params.basis, n, np.random.default_rng(9), Domain.NTT)
    assert params.basis.max_modulus >= 2 * min(moduli)
    digits = get_rns_context(n, moduli).inverse(x.limbs)
    assert (digits[2:] >= 2 * min(moduli)).any()
    u0, u1 = key_switch_v1(x, hint)
    ref0, ref1 = kernel_oracles.key_switch_v1_reference(x, hint)
    assert np.array_equal(u0.limbs, ref0)
    assert np.array_equal(u1.limbs, ref1)


def test_fused_key_switch_matches_reference_loop():
    params = FheParams.build(n=128, levels=4, prime_bits=28, plaintext_modulus=256)
    bgv = BgvContext(params, seed=5)
    hint = bgv.hint_v1("relin", params.basis)
    rng = np.random.default_rng(9)
    x = uniform_poly(params.basis, params.n, rng, Domain.NTT)
    u0, u1 = key_switch_v1(x, hint)
    ref0, ref1 = kernel_oracles.key_switch_v1_reference(x, hint)
    assert np.array_equal(u0.limbs, ref0)
    assert np.array_equal(u1.limbs, ref1)


def test_hoisted_decomposition_reuse_matches_unhoisted():
    params = FheParams.build(n=128, levels=3, prime_bits=28, plaintext_modulus=256)
    bgv = BgvContext(params, seed=5)
    hint = bgv.hint_v1("relin", params.basis)
    rng = np.random.default_rng(10)
    x = uniform_poly(params.basis, params.n, rng, Domain.NTT)
    dec = HoistedDecomposition(x)
    u0, u1 = dec.key_switch(hint)
    v0, v1 = key_switch_v1(x, hint)
    assert np.array_equal(u0.limbs, v0.limbs)
    assert np.array_equal(u1.limbs, v1.limbs)


@pytest.mark.parametrize("ks_variant", [1, 2])
def test_bgv_rotate_many_decrypts_like_sequential(ks_variant):
    params = FheParams.build(n=256, levels=5, prime_bits=28, plaintext_modulus=256)
    bgv = BgvContext(params, seed=7, ks_variant=ks_variant)
    msg = np.arange(256) % 256
    ct = bgv.encrypt(msg)
    steps = [1, 2, 5, -1]
    hoisted = bgv.rotate_many(ct, steps)
    for h, s in zip(hoisted, steps):
        seq = bgv.rotate(ct, s)
        assert np.array_equal(bgv.decrypt(h), bgv.decrypt(seq))
        assert h.noise_bits == seq.noise_bits


def test_ckks_rotate_many_decrypts_like_sequential():
    params = FheParams.build(n=256, levels=5, prime_bits=28, plaintext_modulus=1)
    ck = CkksContext(params, seed=7)
    vals = np.linspace(-1.0, 1.0, 128)
    ct = ck.encrypt_values(vals)
    steps = [1, 3, 7]
    hoisted = ck.rotate_many(ct, steps)
    for h, s in zip(hoisted, steps):
        seq = ck.rotate(ct, s)
        assert np.allclose(
            ck.decrypt_values(h, 128), ck.decrypt_values(seq, 128), atol=1e-2
        )


def test_rotate_many_single_step_falls_back():
    params = FheParams.build(n=128, levels=3, prime_bits=28, plaintext_modulus=256)
    bgv = BgvContext(params, seed=3)
    ct = bgv.encrypt(np.arange(128) % 256)
    [only] = bgv.rotate_many(ct, [4])
    assert np.array_equal(bgv.decrypt(only), bgv.decrypt(bgv.rotate(ct, 4)))


# --------------------------------------------------------- chained rescales
def test_bgv_mod_switch_chain_bit_identical_to_sequential():
    params = FheParams.build(n=128, levels=6, prime_bits=28, plaintext_modulus=256)
    bgv = BgvContext(params, seed=13)
    ct = bgv.encrypt(np.arange(128) % 256)
    chained = bgv.mod_switch_to(ct, 2)
    seq = ct
    while seq.level > 2:
        seq = bgv.mod_switch(seq)
    assert np.array_equal(chained.a.limbs, seq.a.limbs)
    assert np.array_equal(chained.b.limbs, seq.b.limbs)
    assert chained.plaintext_scale == seq.plaintext_scale
    assert chained.noise_bits == pytest.approx(seq.noise_bits)
    assert np.array_equal(bgv.decrypt(chained), bgv.decrypt(seq))
    # rescale_to is the same chain under the unified-surface name.
    alias = bgv.rescale_to(ct, 2)
    assert np.array_equal(alias.a.limbs, chained.a.limbs)
    # No-op and error edges match the sequential semantics.
    assert bgv.mod_switch_to(ct, ct.level) is ct
    with pytest.raises(ValueError):
        bgv.mod_switch_to(ct, 0)


def test_ckks_rescale_chain_bit_identical_to_sequential():
    params = FheParams.build(n=128, levels=6, prime_bits=28, plaintext_modulus=1)
    ck = CkksContext(params, seed=13)
    ct = ck.encrypt_values(np.linspace(0.0, 1.0, 64))
    chained = ck.rescale_to(ct, 3)
    seq = ct
    while seq.level > 3:
        seq = ck.rescale(seq)
    assert np.array_equal(chained.a.limbs, seq.a.limbs)
    assert np.array_equal(chained.b.limbs, seq.b.limbs)
    assert chained.scale == pytest.approx(seq.scale)
    assert chained.noise_bits == pytest.approx(seq.noise_bits)


def test_ckks_mod_switch_chain_bit_identical_to_sequential():
    params = FheParams.build(n=128, levels=6, prime_bits=28, plaintext_modulus=1)
    ck = CkksContext(params, seed=13)
    ct = ck.encrypt_values(np.linspace(0.0, 1.0, 64))
    chained = ck.mod_switch_to(ct, 2)
    seq = ct
    while seq.level > 2:
        seq = ck.mod_switch(seq)
    assert np.array_equal(chained.a.limbs, seq.a.limbs)
    assert np.array_equal(chained.b.limbs, seq.b.limbs)
    assert np.allclose(
        ck.decrypt_values(chained, 64), ck.decrypt_values(ct, 64), atol=1e-2
    )


# ----------------------------------------------- interpreter-level hoisting
def test_functional_interpreter_hoists_shared_rotations():
    """A program rotating one handle repeatedly (the dot-product pattern)
    still validates exactly against the plaintext reference."""
    from repro.backends import FunctionalBackend
    from repro.dsl.program import Program

    p = Program(n=128, scheme="bgv", name="hoist_dot")
    x = p.input(3, name="x")
    acc = p.add(x, p.rotate(x, 1))
    acc = p.add(acc, p.rotate(x, 2))
    acc = p.add(acc, p.rotate(x, 4))
    p.output(acc, name="windows")
    result = FunctionalBackend().run(p, seed=1)
    assert result.stats.get("validated") is True