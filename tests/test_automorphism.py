"""Automorphisms (repro.poly.automorphism, Sec. 2.2.1 & 5.1)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.poly.automorphism import (
    automorphism_coeff,
    automorphism_ntt,
    automorphism_ntt_permutation,
    valid_automorphism_exponents,
)
from repro.poly.ntt import NttContext
from repro.rns.primes import ntt_friendly_primes

N = 64
Q = ntt_friendly_primes(N, 26, 1)[0]


@pytest.fixture(scope="module")
def poly():
    return np.random.default_rng(7).integers(0, Q, N, dtype=np.uint64)


class TestCoefficientDomain:
    def test_identity(self, poly):
        assert np.array_equal(automorphism_coeff(poly, 1, Q), poly)

    def test_paper_example_sigma5(self):
        """Sec. 2.2.1: with sigma_5, a_1 goes to position 5."""
        a = np.zeros(N, dtype=np.uint64)
        a[1] = 7
        out = automorphism_coeff(a, 5, Q)
        assert out[5] == 7

    def test_sign_flip_on_wraparound(self):
        """a_i lands negated when i*k mod 2N >= N."""
        a = np.zeros(N, dtype=np.uint64)
        i = N - 1
        a[i] = 3
        out = automorphism_coeff(a, 3, Q)  # i*k = 189; 189 mod 128 = 61 >= 64? 189%128=61 <64
        dest = (i * 3) % N
        sign_flip = ((i * 3) % (2 * N)) >= N
        expected = Q - 3 if sign_flip else 3
        assert out[dest] == expected

    def test_group_law(self, poly):
        """sigma_j(sigma_k(a)) = sigma_{jk mod 2N}(a)."""
        for j, k in ((3, 5), (7, 9), (63, 3)):
            lhs = automorphism_coeff(automorphism_coeff(poly, k, Q), j, Q)
            rhs = automorphism_coeff(poly, (j * k) % (2 * N), Q)
            assert np.array_equal(lhs, rhs), (j, k)

    def test_inverse_element(self, poly):
        """sigma_k composed with sigma_{k^-1 mod 2N} is the identity."""
        k = 5
        k_inv = pow(k, -1, 2 * N)
        roundtrip = automorphism_coeff(automorphism_coeff(poly, k, Q), k_inv, Q)
        assert np.array_equal(roundtrip, poly)

    def test_even_exponent_rejected(self, poly):
        with pytest.raises(ValueError):
            automorphism_coeff(poly, 4, Q)

    def test_count_of_automorphisms(self):
        """There are N automorphisms: odd k in [1, 2N)."""
        assert len(valid_automorphism_exponents(N)) == N


class TestNttDomain:
    @pytest.mark.parametrize("k", [3, 5, 7, 25, 127])
    def test_ntt_domain_is_pure_permutation(self, poly, k):
        """NTT(sigma_k(a)) == permute(NTT(a)) — the hardware's view."""
        ctx = NttContext(N, Q)
        direct = ctx.forward(automorphism_coeff(poly, k, Q))
        permuted = automorphism_ntt(ctx.forward(poly), k)
        assert np.array_equal(direct, permuted)

    def test_permutation_is_bijective(self):
        for k in (3, 9, 127):
            perm = automorphism_ntt_permutation(N, k)
            assert sorted(perm) == list(range(N))


@given(st.sampled_from([k for k in range(1, 2 * N, 2)]))
@settings(max_examples=40, deadline=None)
def test_ntt_permutation_consistency_property(k):
    """Every automorphism is a slot permutation in the NTT domain."""
    rng = np.random.default_rng(k)
    poly = rng.integers(0, Q, N, dtype=np.uint64)
    ctx = NttContext(N, Q)
    direct = ctx.forward(automorphism_coeff(poly, k, Q))
    assert np.array_equal(direct, automorphism_ntt(ctx.forward(poly), k))
