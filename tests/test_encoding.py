"""Plaintext encoders (repro.fhe.encoding)."""

import tracemalloc

import numpy as np
import pytest

import repro
from repro.backends import FunctionalBackend
from repro.fhe.bgv import BgvContext
from repro.fhe.ckks import CkksContext
from repro.fhe.context import context_from_state
from repro.fhe.encoding import BatchEncoder, CkksEncoder, _embedding_tables
from repro.fhe.params import FheParams
from repro.serve.traffic import deep_ckks_program

N = 256
T_BATCH = 12289  # prime, 12289 ≡ 1 (mod 512)


@pytest.fixture(scope="module")
def batch():
    return BatchEncoder(N, T_BATCH)


class TestBatchEncoder:
    def test_roundtrip(self, batch):
        rng = np.random.default_rng(3)
        vals = rng.integers(0, T_BATCH, N)
        assert np.array_equal(batch.decode(batch.encode(vals)), vals)

    def test_short_input_padded(self, batch):
        out = batch.decode(batch.encode([5, 6]))
        assert out[0] == 5 and out[1] == 6

    def test_slotwise_addition(self, batch):
        """Adding encodings adds slots — the SIMD property."""
        rng = np.random.default_rng(4)
        a, b = rng.integers(0, T_BATCH, N), rng.integers(0, T_BATCH, N)
        summed = (batch.encode(a) + batch.encode(b)) % T_BATCH
        assert np.array_equal(batch.decode(summed), (a + b) % T_BATCH)

    def test_requires_splitting_prime(self):
        with pytest.raises(ValueError):
            BatchEncoder(N, 257)  # 257 not ≡ 1 mod 512

    def test_homomorphic_slot_rotation(self):
        """decrypt(sigma_3(ct)) decodes to the rotated hypercolumns."""
        params = FheParams.build(n=N, levels=3, prime_bits=28,
                                 plaintext_modulus=T_BATCH)
        ctx = BgvContext(params, seed=13)
        be = BatchEncoder(N, T_BATCH)
        rng = np.random.default_rng(5)
        vals = rng.integers(0, T_BATCH, N)
        ct = ctx.encrypt(be.encode(vals))
        rotated = be.decode(ctx.decrypt(ctx.rotate(ct, 1)))
        assert np.array_equal(rotated, be.rotated(vals, 1))

    def test_rotated_reference_semantics(self, batch):
        vals = np.arange(N)
        rot = batch.rotated(vals, 2)
        half = N // 2
        assert np.array_equal(rot[:half], np.roll(vals[:half], -2))
        assert np.array_equal(rot[half:], np.roll(vals[half:], -2))


class TestCkksEncoder:
    def test_roundtrip_precision(self):
        enc = CkksEncoder(N, scale=2.0**30)
        rng = np.random.default_rng(6)
        z = rng.normal(size=N // 2) + 1j * rng.normal(size=N // 2)
        back = enc.decode(enc.encode(z))
        assert np.max(np.abs(back - z)) < 1e-6

    def test_encoding_is_real_integers(self):
        enc = CkksEncoder(N, scale=2.0**20)
        coeffs = enc.encode(np.ones(N // 2))
        assert coeffs.dtype == np.int64

    def test_scale_tradeoff(self):
        """Higher scale, finer precision."""
        z = np.array([np.pi] * (N // 2))
        coarse = CkksEncoder(N, scale=2.0**10)
        fine = CkksEncoder(N, scale=2.0**30)
        err_coarse = np.max(np.abs(coarse.decode(coarse.encode(z)) - z))
        err_fine = np.max(np.abs(fine.decode(fine.encode(z)) - z))
        assert err_fine < err_coarse

    def test_too_many_slots_rejected(self):
        enc = CkksEncoder(N, scale=2.0**20)
        with pytest.raises(ValueError):
            enc.encode(np.ones(N))

    def test_additivity(self):
        enc = CkksEncoder(N, scale=2.0**25)
        rng = np.random.default_rng(7)
        a = rng.normal(size=N // 2)
        b = rng.normal(size=N // 2)
        summed = enc.decode(enc.encode(a) + enc.encode(b))
        assert np.max(np.abs(summed - (a + b))) < 1e-5


def dense_embedding(n):
    """The oracle: the canonical embedding as explicit Vandermonde
    matrices (O(N^2), the encoder ``src/`` used to ship).  Returns the
    (N/2, N) evaluation rows ``zeta^(5^i k)`` and the (N, N) inverse
    ``conj(V).T / N`` over the exponents ``5^i`` then ``-5^i``."""
    m = 2 * n
    zeta = np.exp(2j * np.pi / m)
    exps = [pow(5, i, m) for i in range(n // 2)]
    k = np.arange(n)
    rows = np.stack([zeta ** ((e * k) % m) for e in exps])
    conj_rows = np.stack([zeta ** (((m - e) * k) % m) for e in exps])
    return rows, np.vstack([rows, conj_rows]).conj().T / n


def dense_encode(n, values, scale):
    z = np.zeros(n // 2, dtype=np.complex128)
    z[: len(values)] = values
    _, inverse = dense_embedding(n)
    coeffs = inverse @ np.concatenate([z, np.conj(z)])
    return np.round(coeffs.real * scale).astype(np.int64)


def dense_decode(n, coeffs, scale):
    rows, _ = dense_embedding(n)
    return (rows @ np.asarray(coeffs, dtype=np.float64)) / scale


class TestCkksEncoderAgainstDenseOracle:
    """The FFT encoder computes the dense embedding's integers."""

    SCALE = 2.0**30

    @pytest.mark.parametrize("n", [8, 16, 64, 256])
    @pytest.mark.parametrize("short", [False, True], ids=["full", "short"])
    def test_encode_integer_identical_decode_close(self, n, short):
        enc = CkksEncoder(n, self.SCALE)
        rng = np.random.default_rng(n + short)
        count = max(1, n // 4 - 1) if short else n // 2
        z = rng.normal(size=count) + 1j * rng.normal(size=count)
        coeffs = enc.encode(z)
        assert coeffs.dtype == np.int64 and coeffs.shape == (n,)
        assert np.array_equal(coeffs, dense_encode(n, z, self.SCALE))
        want = dense_decode(n, coeffs, self.SCALE)
        assert np.max(np.abs(enc.decode(coeffs) - want)) < 1e-9

    def test_scale_argument_overrides_default(self):
        enc = CkksEncoder(64, self.SCALE)
        z = np.random.default_rng(8).normal(size=32)
        coeffs = enc.encode(z, 2.0**12)
        assert np.array_equal(coeffs, dense_encode(64, z, 2.0**12))
        assert np.allclose(enc.decode(coeffs, 2.0**12), z, atol=1e-2)


class TestCkksEncoderAtScale:
    """Rings the dense tables could not reach (403 MB at N=4096)."""

    def test_automorphisms_act_on_slots_n4096(self):
        """sigma_{5^r} rotates the slots by r, sigma_{-1} conjugates them."""
        n = 4096
        params = FheParams.build(n=n, levels=2, prime_bits=28,
                                 plaintext_modulus=1)
        ctx = CkksContext(params, seed=11)
        rng = np.random.default_rng(12)
        z = rng.normal(size=n // 2) + 1j * rng.normal(size=n // 2)
        ct = ctx.encrypt_values(z)
        for r in (1, 37):
            rotated = ctx.decrypt_values(ctx.automorphism(ct, pow(5, r, 2 * n)))
            assert np.max(np.abs(rotated - np.roll(z, -r))) < 1e-2
        conjugated = ctx.decrypt_values(ctx.automorphism(ct, -1))
        assert np.max(np.abs(conjugated - np.conj(z))) < 1e-2

    def test_tables_are_linear_in_n(self):
        """Three 1-D arrays: under 1 MB held at the paper's N=16384."""
        _embedding_tables.cache_clear()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            enc = CkksEncoder(16384, 2.0**30)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert all(t.ndim == 1 for t in _embedding_tables(16384))
        assert held < 1 << 20
        assert enc.slots == 8192

    def test_restored_context_stays_small(self):
        """A replica's set-up — context_from_state plus one encrypt and
        decrypt at N=2048, 6 limbs — peaks under 16 MB (the dense tables
        alone were 101 MB at this N)."""
        params = FheParams.build(n=2048, levels=6, prime_bits=28,
                                 plaintext_modulus=1)
        state = CkksContext(params, seed=3).to_state()
        z = np.random.default_rng(4).normal(size=1024)
        _embedding_tables.cache_clear()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            replica = context_from_state(state)
            out = replica.decrypt_values(replica.encrypt_values(z))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert np.max(np.abs(out - z)) < 1e-4
        assert peak < 16 << 20

    def test_validated_chain_at_paper_ring_size(self):
        """Three ct x ct multiplies at N=16384, checked against the
        plaintext reference evaluator (sim/reference.py)."""
        result = repro.run(deep_ckks_program(16384),
                           backend=FunctionalBackend(validate=True), seed=3)
        assert result.stats["validated"] is True
        assert result.stats["max_error"] < 1e-2
