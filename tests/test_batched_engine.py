"""Batched residue-matrix engine (repro.poly.ntt.RnsNttContext and the
vectorized CRT / base-conversion paths): bit-identity with the per-limb
reference path and exact big-int oracles, across several (N, L) shapes."""

import numpy as np
import pytest

from repro.fhe.keyswitch import base_extend, scale_down
from repro.poly.ntt import NttContext, get_rns_context
from repro.poly.polynomial import Domain, RnsPolynomial
from repro.rns.crt import RnsBasis
from repro.rns.primes import ntt_friendly_primes

SHAPES = [(16, 1), (64, 3), (128, 2), (256, 5)]


def _basis(n: int, level: int, bits: int = 28) -> RnsBasis:
    return RnsBasis(ntt_friendly_primes(n, bits, level))


@pytest.fixture()
def rng():
    return np.random.default_rng(321)


class TestBatchedNtt:
    @pytest.mark.parametrize("n,level", SHAPES)
    def test_forward_matches_per_limb(self, n, level, rng):
        basis = _basis(n, level)
        ctx = get_rns_context(n, basis.moduli)
        limbs = np.stack(
            [rng.integers(0, q, size=n, dtype=np.uint64) for q in basis.moduli]
        )
        batched = ctx.forward(limbs)
        for i, q in enumerate(basis.moduli):
            assert np.array_equal(batched[i], NttContext(n, q).forward(limbs[i]))

    @pytest.mark.parametrize("n,level", SHAPES)
    def test_inverse_matches_per_limb(self, n, level, rng):
        basis = _basis(n, level)
        ctx = get_rns_context(n, basis.moduli)
        limbs = np.stack(
            [rng.integers(0, q, size=n, dtype=np.uint64) for q in basis.moduli]
        )
        batched = ctx.inverse(limbs)
        for i, q in enumerate(basis.moduli):
            assert np.array_equal(batched[i], NttContext(n, q).inverse(limbs[i]))

    @pytest.mark.parametrize("n,level", SHAPES)
    def test_roundtrip_identity(self, n, level, rng):
        basis = _basis(n, level)
        poly = RnsPolynomial.random_uniform(basis, n, rng)
        back = poly.to_ntt().to_coeff()
        assert np.array_equal(back.limbs, poly.limbs)
        assert back.domain is Domain.COEFF

    def test_shape_mismatch_rejected(self):
        basis = _basis(64, 2)
        ctx = get_rns_context(64, basis.moduli)
        with pytest.raises(ValueError):
            ctx.forward(np.zeros((2, 32), dtype=np.uint64))
        with pytest.raises(ValueError):
            ctx.inverse(np.zeros((3, 64), dtype=np.uint64))

    def test_context_cache_identity(self):
        basis = _basis(64, 2)
        assert get_rns_context(64, basis.moduli) is get_rns_context(64, basis.moduli)


class TestVectorizedCrt:
    @pytest.mark.parametrize("n,level", SHAPES)
    def test_to_rns_matches_bigint_oracle(self, n, level, rng):
        basis = _basis(n, level)
        big_q = basis.modulus
        wide = [int(rng.integers(0, 1 << 62)) * 7 - big_q // 3 for _ in range(n)]
        limbs = basis.to_rns(wide)
        for i, q in enumerate(basis.moduli):
            assert [int(x) for x in limbs[i]] == [v % q for v in wide]

    @pytest.mark.parametrize("n,level", SHAPES)
    def test_from_rns_matches_bigint_oracle(self, n, level, rng):
        basis = _basis(n, level)
        big_q = basis.modulus
        values = [int(rng.integers(0, 1 << 62)) % big_q for _ in range(n)]
        values[0] = 0
        values[1] = big_q - 1
        limbs = basis.to_rns(values)
        assert basis.from_rns(limbs) == values
        centered = basis.from_rns(limbs, centered=True)
        for got, v in zip(centered, values):
            assert got == (v - big_q if v > big_q // 2 else v)

    def test_machine_and_object_paths_agree(self, rng):
        basis = _basis(64, 3)
        small = rng.integers(-(1 << 40), 1 << 40, size=64, dtype=np.int64)
        fast = basis.to_rns(small)
        slow = basis.to_rns([int(v) for v in small] + [])  # still int64 array
        obj = basis.to_rns([int(v) + basis.modulus * 3 for v in small])  # wide
        assert np.array_equal(fast, slow)
        assert np.array_equal(fast, obj)


class TestBaseConversionOracles:
    @pytest.mark.parametrize("n,level", [(64, 3), (128, 2), (256, 4)])
    def test_base_extend_exact_crt_oracle(self, n, level, rng):
        basis = _basis(n, level)
        extra = [
            p
            for p in ntt_friendly_primes(n, 27, level + 4)
            if p not in basis.moduli
        ][:level]
        extended = RnsBasis(basis.moduli + tuple(extra))
        x = RnsPolynomial.random_uniform(basis, n, rng)
        lifted = base_extend(x, extended)
        big_q = basis.modulus
        x_ints = basis.from_rns(x.limbs)
        lifted_ints = extended.from_rns(lifted.limbs)
        for lv, xv in zip(lifted_ints, x_ints):
            diff = (lv - xv) % extended.modulus
            assert diff % big_q == 0          # lifted value is x + u*Q exactly
            assert diff // big_q < basis.level  # with 0 <= u < L

    @pytest.mark.parametrize("n,level", [(64, 3), (128, 2)])
    def test_scale_down_exact_multiples(self, n, level, rng):
        t = 256
        basis = _basis(n, level)
        special = RnsBasis(
            [
                p
                for p in ntt_friendly_primes(n, 27, level + 4)
                if p not in basis.moduli
            ][:level]
        )
        extended = RnsBasis(basis.moduli + special.moduli)
        p_product = special.modulus
        # x = P * v for known small v: scale-down must return exactly v.
        v_ints = [int(rng.integers(-50, 50)) * t for _ in range(n)]
        x = RnsPolynomial.from_int_coeffs(
            extended, [c * p_product for c in v_ints]
        )
        out = scale_down(x, special, t)
        assert out.basis == basis
        assert out.to_int_coeffs(centered=True) == v_ints

    @pytest.mark.parametrize("n,level", [(64, 3)])
    def test_scale_down_rounding_bigint_oracle(self, n, level, rng):
        t = 256
        basis = _basis(n, level)
        special = RnsBasis(
            [
                p
                for p in ntt_friendly_primes(n, 27, level + 4)
                if p not in basis.moduli
            ][:level]
        )
        extended = RnsBasis(basis.moduli + special.moduli)
        p_product = special.modulus
        x = RnsPolynomial.random_uniform(extended, n, rng)
        out = scale_down(x, special, t)
        big_q = basis.modulus
        for xi, oi in zip(
            x.to_int_coeffs(centered=True), out.to_int_coeffs(centered=True)
        ):
            # Oracle: out*P ≡ x - delta (mod Q) with |delta| <= P*(t+2)/2.
            err = (oi * p_product - xi) % big_q
            err = min(err, big_q - err)
            assert err <= p_product * (t + 2) // 2


class TestRandomUniformRegression:
    def test_samples_span_full_modulus_width(self, rng):
        """logQ ≈ 224 basis: the old 128-bit draw confined every coefficient
        to [0, 2^128); correct sampling reaches the top bits of Q."""
        basis = _basis(256, 8)  # 8 x 28-bit primes: logQ ≈ 224
        log_q = basis.modulus.bit_length()
        assert log_q > 128 + 60
        poly = RnsPolynomial.random_uniform(basis, 256, rng)
        coeffs = poly.to_int_coeffs(centered=False)
        top = max(coeffs)
        # P(a single coefficient < 2^128) ~ 2^-96; over 256 draws this fails
        # with probability ~2^-88 — i.e. only if sampling is still truncated.
        assert top.bit_length() > 128
        # And the max of 256 uniform draws sits within 16 bits of Q w.h.p.
        assert top.bit_length() >= log_q - 16

    def test_every_limb_uniformly_occupied(self, rng):
        basis = _basis(128, 8)
        poly = RnsPolynomial.random_uniform(basis, 128, rng)
        q_col = np.array(basis.moduli, dtype=np.float64).reshape(-1, 1)
        ratios = poly.limbs.astype(np.float64) / q_col
        # Every limb row should have draws in its upper half.
        assert (ratios.max(axis=1) > 0.5).all()
