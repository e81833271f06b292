"""RNS basis / CRT reconstruction (repro.rns.crt)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.rns.crt import RnsBasis
from repro.rns.primes import is_prime, ntt_friendly_primes

PRIMES = ntt_friendly_primes(64, 28, 4)


class TestRnsBasis:
    def test_modulus_is_product(self):
        basis = RnsBasis(PRIMES)
        prod = 1
        for q in PRIMES:
            prod *= q
        assert basis.modulus == prod

    def test_roundtrip(self):
        basis = RnsBasis(PRIMES)
        values = [0, 1, basis.modulus - 1, basis.modulus // 2, 123456789]
        limbs = basis.to_rns(values)
        assert basis.from_rns(limbs) == values

    def test_centered_reconstruction(self):
        basis = RnsBasis(PRIMES[:2])
        small_negatives = [-1, -17, -(10**6)]
        limbs = basis.to_rns(small_negatives)
        assert basis.from_rns(limbs, centered=True) == small_negatives

    def test_drop_chains(self):
        basis = RnsBasis(PRIMES)
        dropped = basis.drop()
        assert dropped.moduli == tuple(PRIMES[:-1])
        assert basis.drop(3).level == 1

    def test_cannot_drop_everything(self):
        with pytest.raises(ValueError):
            RnsBasis(PRIMES[:1]).drop()

    def test_duplicate_moduli_rejected(self):
        with pytest.raises(ValueError):
            RnsBasis([17, 17])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RnsBasis([])

    def test_modulus_at_or_above_2_pow_32_rejected(self):
        """Word-sized and wider moduli are refused, naming the bound."""
        for q in (1 << 32, 8589932801):  # 2^32, a 33-bit NTT-friendly prime
            with pytest.raises(ValueError, match="2\\^30"):
                RnsBasis(PRIMES + [q])

    def test_modulus_at_or_above_2_pow_30_rejected(self):
        """The engine's one modulus bound is checked when a basis is built:
        the largest NTT-friendly prime below 2^30 is admitted, the smallest
        one above it is not."""
        below = ntt_friendly_primes(64, 30, 1)[0]
        above = next(q for q in range((1 << 30) + 1, 1 << 31, 128)
                     if is_prime(q))
        assert below < 1 << 30 < above
        RnsBasis(PRIMES + [below])
        with pytest.raises(ValueError, match="2\\^30"):
            RnsBasis(PRIMES + [above])

    def test_equality_and_hash(self):
        assert RnsBasis(PRIMES) == RnsBasis(PRIMES)
        assert hash(RnsBasis(PRIMES)) == hash(RnsBasis(PRIMES))
        assert RnsBasis(PRIMES) != RnsBasis(PRIMES[:2])

    def test_wrong_limb_count_rejected(self):
        basis = RnsBasis(PRIMES)
        with pytest.raises(ValueError):
            basis.from_rns(np.zeros((2, 4), dtype=np.uint64))

    def test_crt_weights_identity(self):
        basis = RnsBasis(PRIMES)
        for (q_over, q_over_inv), q in zip(basis.crt_weights(), basis.moduli):
            assert basis.modulus // q == q_over
            assert q_over * q_over_inv % q == 1


@given(st.integers(min_value=0, max_value=10**20))
@settings(max_examples=50, deadline=None)
def test_crt_roundtrip_property(x):
    basis = RnsBasis(PRIMES)
    value = x % basis.modulus
    assert basis.from_rns(basis.to_rns([value]))[0] == value


@given(st.integers(min_value=-(10**15), max_value=10**15))
@settings(max_examples=50, deadline=None)
def test_crt_centered_property(x):
    basis = RnsBasis(PRIMES)
    assert basis.from_rns(basis.to_rns([x]), centered=True)[0] == x
