"""Serialization layer: compact state round-trips for the FHE stack.

The invariants the process-pool serving path depends on:

- ``to_state()/from_state()`` round-trips (and the ``__getstate__`` /
  ``__setstate__`` pickles riding them) are lossless where it matters:
  params, moduli, secret-key coefficients, RNG state, ciphertext limbs;
- restored state decrypts bit-identically (BGV) / tolerance-equal (CKKS);
- derived artifacts — NTT twiddles, Shoup quotients, key-switch hint
  caches, per-basis secret-key forms, hint stacks — are *rebuilt on
  load, never shipped*, which keeps blobs compact (the pickle-size
  bounds below would blow up by orders of magnitude otherwise).
"""

import pickle

import numpy as np
import pytest

from repro.fhe.bgv import BgvContext
from repro.fhe.ciphertext import Ciphertext
from repro.fhe.ckks import CkksContext
from repro.fhe.context import context_from_state
from repro.fhe.keys import SecretKey
from repro.fhe.params import FheParams
from repro.poly.polynomial import Domain, RnsPolynomial
from repro.rns.crt import RnsBasis
from repro.rns.primes import ntt_friendly_primes

N = 256


@pytest.fixture(scope="module")
def params():
    return FheParams.build(n=N, levels=4, prime_bits=28,
                           plaintext_modulus=256)


class TestBasicRoundTrips:
    def test_rns_basis_reduce_rebuilds_columns(self, params):
        basis = params.basis
        restored = pickle.loads(pickle.dumps(basis))
        assert restored == basis and restored.modulus == basis.modulus
        # Derived broadcast columns were rebuilt, not shipped.
        assert np.array_equal(restored.moduli_column(), basis.moduli_column())

    def test_params_state_round_trip(self, params):
        restored = FheParams.from_state(params.to_state())
        assert restored == params
        assert pickle.loads(pickle.dumps(params)) == params

    def test_secret_key_round_trip_drops_caches(self, params):
        rng = np.random.default_rng(3)
        secret = SecretKey.generate(N, rng)
        secret.poly(params.basis)           # populate a derived cache
        secret.square_poly(params.basis)
        restored = pickle.loads(pickle.dumps(secret))
        assert np.array_equal(restored.coeffs, secret.coeffs)
        assert restored._cache == {} and restored._square_cache == {}
        # The rebuilt NTT form is bit-identical to the original's.
        assert np.array_equal(restored.poly(params.basis).limbs,
                              secret.poly(params.basis).limbs)

    def test_rns_polynomial_round_trip_both_domains(self, params):
        rng = np.random.default_rng(5)
        poly = RnsPolynomial.random_uniform(params.basis, N, rng)
        for form in (poly, poly.to_ntt()):
            restored = pickle.loads(pickle.dumps(form))
            assert restored.domain is form.domain
            assert restored.basis == form.basis
            assert np.array_equal(restored.limbs, form.limbs)
            state_restored = RnsPolynomial.from_state(form.to_state())
            assert np.array_equal(state_restored.limbs, form.limbs)

    @pytest.mark.parametrize("excess", [20, 1 << 20])
    def test_unreduced_limbs_refused_on_restore(self, excess):
        """Limbs ``x + k*q`` give a different NTT than ``x`` (k = 20) or an
        unreduced one (k = 2^20), and ``+`` returns limbs >= q: every kernel
        assumes reduced limbs, so restore refuses them."""
        basis = RnsBasis(ntt_friendly_primes(64, 28, 1))
        q = basis.moduli[0]
        reduced = RnsPolynomial(basis, np.arange(64)[None, :], Domain.COEFF)
        state = reduced.to_state()
        RnsPolynomial.from_state(state)  # reduced limbs restore
        bad = {**state, "limbs": reduced.limbs + np.uint64(excess * q)}
        with pytest.raises(ValueError, match="not reduced"):
            RnsPolynomial.from_state(bad)
        with pytest.raises(ValueError, match="not reduced"):
            pickle.loads(pickle.dumps(
                RnsPolynomial(basis, bad["limbs"], Domain.COEFF)))


class TestContextRoundTrips:
    def test_bgv_context_decrypts_bit_identically(self, params):
        ctx = BgvContext(params, seed=7)
        msg = np.arange(N) % 256
        ct = ctx.encrypt(msg)
        ctx2 = pickle.loads(pickle.dumps(ctx))
        ct2 = Ciphertext.from_state(
            pickle.loads(pickle.dumps(ct.to_state()))
        )
        assert np.array_equal(ctx2.decrypt(ct2), ctx.decrypt(ct))
        assert np.array_equal(ctx2.secret.coeffs, ctx.secret.coeffs)
        assert context_from_state(ctx.to_state()).decrypt(ct).tolist() \
            == ctx.decrypt(ct).tolist()

    def test_bgv_rng_state_travels(self, params):
        """Restored contexts continue the parent's RNG stream exactly."""
        ctx = BgvContext(params, seed=7)
        ctx.encrypt(np.zeros(N))            # advance the stream first
        ctx2 = pickle.loads(pickle.dumps(ctx))
        msg = np.arange(N) % 256
        ct1, ct2 = ctx.encrypt(msg), ctx2.encrypt(msg)
        assert np.array_equal(ct1.a.limbs, ct2.a.limbs)
        assert np.array_equal(ct1.b.limbs, ct2.b.limbs)

    def test_restored_context_regenerates_hints_correctly(self, params):
        """Hints are never shipped; regenerated ones (fresh randomness)
        still decrypt mul/rotate results bit-identically."""
        ctx = BgvContext(params, seed=7)
        msg = np.arange(N) % 256
        ct = ctx.encrypt(msg)
        ctx2 = pickle.loads(pickle.dumps(ctx))
        assert ctx2._hints_v1 == {} and ctx2._hints_v2 == {}
        ct_b = pickle.loads(pickle.dumps(ct))
        assert np.array_equal(ctx2.decrypt(ctx2.mul(ct_b, ct_b)),
                              ctx.decrypt(ctx.mul(ct, ct)))
        assert np.array_equal(ctx2.decrypt(ctx2.rotate(ct_b, 3)),
                              ctx.decrypt(ctx.rotate(ct, 3)))

    def test_ckks_context_tolerance_equal(self, params):
        ctx = CkksContext(params, seed=3)
        values = np.linspace(-1, 1, N // 4)
        ct = ctx.encrypt_values(values)
        ctx2 = pickle.loads(pickle.dumps(ctx))
        assert ctx2.default_scale == ctx.default_scale
        got = ctx2.decrypt_values(pickle.loads(pickle.dumps(ct)),
                                  count=values.shape[0])
        assert np.max(np.abs(got.real - values)) < 1e-2
        # Dispatch restores the right concrete class.
        assert isinstance(context_from_state(ctx.to_state()), CkksContext)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="cannot restore"):
            context_from_state({"scheme": "tfhe"})


class TestPickleSizeBounds:
    def test_context_blob_is_compact(self, params):
        """A context blob is keys + params + RNG state, nothing derived."""
        ctx = BgvContext(params, seed=7)
        blob = pickle.dumps(ctx)
        # Secret coefficients are N int64s (2 KiB at N=256); everything
        # else is parameters and RNG state.  Far below the megabytes a
        # shipped hint/twiddle cache would cost.
        assert len(blob) < 16 * 1024

    def test_hint_caches_never_shipped(self, params):
        ctx = BgvContext(params, seed=7)
        before = len(pickle.dumps(ctx))
        ct = ctx.encrypt(np.arange(N) % 256)
        ctx.mul(ct, ct)                     # relin hint: 2*L rows of (L, N)
        for steps in (1, 2, 3):
            ctx.rotate(ct, steps)           # three galois hints
        after = len(pickle.dumps(ctx))
        # Four v1 hints hold 2 * L * L * N uint32 words each (~128 KiB
        # total here); the blob must not grow by anything close.
        assert after - before < 4 * 1024

    def test_hint_stacks_not_doubled(self, params):
        """Pickling a hint ships hint rows once: the uint32 (L, L, N) stacks
        are the storage, and the hint0/hint1 rows are views of them that
        are derived on access, never state."""
        ctx = BgvContext(params, seed=7)
        hint = ctx.hint_v1("relin", params.basis)
        cold = len(pickle.dumps(hint))
        _ = hint.hint0, hint.hint1          # touch the row views
        warm = pickle.dumps(hint)
        assert len(warm) < cold * 1.25
        assert len(warm) < (hint.stack0.nbytes + hint.stack1.nbytes) * 1.25
        restored = pickle.loads(warm)
        assert "hint0" not in restored.__dict__
        assert np.array_equal(restored.stack0, hint.stack0)
