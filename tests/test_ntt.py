"""Negacyclic NTT (repro.poly.ntt)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.poly.ntt import NttContext, _power_rows, naive_negacyclic_multiply
from repro.rns.primes import (
    is_prime,
    ntt_friendly_primes,
    primitive_root_of_unity,
)

N = 128
Q = ntt_friendly_primes(N, 28, 1)[0]


@pytest.fixture(scope="module")
def ctx():
    return NttContext(N, Q)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(5)


class TestRoundTrip:
    def test_forward_inverse_identity(self, ctx, rng):
        a = rng.integers(0, Q, N, dtype=np.uint64)
        assert np.array_equal(ctx.inverse(ctx.forward(a)), a)

    def test_inverse_forward_identity(self, ctx, rng):
        a = rng.integers(0, Q, N, dtype=np.uint64)
        assert np.array_equal(ctx.forward(ctx.inverse(a)), a)

    def test_zero_fixed_point(self, ctx):
        zero = np.zeros(N, dtype=np.uint64)
        assert np.array_equal(ctx.forward(zero), zero)

    def test_constant_polynomial(self, ctx):
        """NTT of the constant c is the all-c vector (evaluations of c)."""
        c = np.zeros(N, dtype=np.uint64)
        c[0] = 42
        assert np.array_equal(ctx.forward(c), np.full(N, 42, dtype=np.uint64))

    @pytest.mark.parametrize("n", [2, 4, 16, 64, 512, 1024])
    def test_many_sizes(self, n, rng):
        q = ntt_friendly_primes(n, 26, 1)[0]
        local = NttContext(n, q)
        a = rng.integers(0, q, n, dtype=np.uint64)
        assert np.array_equal(local.inverse(local.forward(a)), a)


class TestAlgebra:
    def test_linearity(self, ctx, rng):
        a = rng.integers(0, Q, N, dtype=np.uint64)
        b = rng.integers(0, Q, N, dtype=np.uint64)
        lhs = ctx.forward((a + b) % np.uint64(Q))
        rhs = (ctx.forward(a) + ctx.forward(b)) % np.uint64(Q)
        assert np.array_equal(lhs, rhs)

    def test_convolution_theorem(self, ctx, rng):
        """NTT(a*b) = NTT(a) ⊙ NTT(b) — the Sec. 2.3 identity, checked
        against the O(N^2) schoolbook negacyclic convolution."""
        a = rng.integers(0, Q, N, dtype=np.uint64)
        b = rng.integers(0, Q, N, dtype=np.uint64)
        assert np.array_equal(
            ctx.negacyclic_multiply(a, b), naive_negacyclic_multiply(a, b, Q)
        )

    def test_negacyclic_wraparound_sign(self, ctx):
        """x^(N-1) * x = x^N = -1 in R_q."""
        a = np.zeros(N, dtype=np.uint64)
        b = np.zeros(N, dtype=np.uint64)
        a[N - 1] = 1
        b[1] = 1
        prod = ctx.negacyclic_multiply(a, b)
        expected = np.zeros(N, dtype=np.uint64)
        expected[0] = Q - 1
        assert np.array_equal(prod, expected)

    def test_multiply_by_one(self, ctx, rng):
        one = np.zeros(N, dtype=np.uint64)
        one[0] = 1
        a = rng.integers(0, Q, N, dtype=np.uint64)
        assert np.array_equal(ctx.negacyclic_multiply(a, one), a)


class TestValidation:
    def test_non_ntt_friendly_modulus_rejected(self):
        with pytest.raises(ValueError):
            NttContext(N, 97)  # 97-1 not divisible by 256

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            NttContext(100, Q)

    def test_33_bit_modulus_rejected(self):
        """A >=2^32 prime would silently wrap hi*tw in uint64; must be refused."""
        q33 = ntt_friendly_primes(N, 33, 1)[0]
        assert q33 >= 2**32 and (q33 - 1) % (2 * N) == 0  # NTT-friendly, too wide
        with pytest.raises(ValueError, match="2\\^30"):
            NttContext(N, q33)

    def test_modulus_bound_is_2_pow_30(self, rng):
        """The largest NTT-friendly prime below 2^30 transforms; the
        smallest one above it is refused."""
        below = ntt_friendly_primes(N, 30, 1)[0]
        above = next(q for q in range((1 << 30) + 1, 1 << 31, 2 * N)
                     if is_prime(q))
        ctx = NttContext(N, below)
        x = rng.integers(0, below, N, dtype=np.uint64)
        assert np.array_equal(ctx.inverse(ctx.forward(x)), x)
        with pytest.raises(ValueError, match="2\\^30"):
            NttContext(N, above)

    def test_wrong_shape_rejected(self, ctx):
        with pytest.raises(ValueError):
            ctx.forward(np.zeros(N + 1, dtype=np.uint64))


@pytest.mark.parametrize("bits", [28, 30, 32])
def test_power_rows_match_python_int_powers(bits):
    """The plan's psi-power rows, built by doubling in uint64, against the
    Python-int loop, up to the engine's 30-bit moduli and, since the
    doubling needs only ``q < 2^32``, past them."""
    moduli = ntt_friendly_primes(N, bits, 3)
    roots = [primitive_root_of_unity(2 * N, q) for q in moduli]
    want = [[pow(r, i, q) for i in range(N)] for r, q in zip(roots, moduli)]
    assert _power_rows(roots, N, moduli).tolist() == want

@given(st.lists(st.integers(min_value=0, max_value=Q - 1), min_size=N, max_size=N))
@settings(max_examples=25, deadline=None)
def test_roundtrip_property(coeffs):
    ctx = NttContext(N, Q)
    a = np.array(coeffs, dtype=np.uint64)
    assert np.array_equal(ctx.inverse(ctx.forward(a)), a)


@given(
    st.lists(st.integers(min_value=0, max_value=Q - 1), min_size=16, max_size=16),
    st.lists(st.integers(min_value=0, max_value=Q - 1), min_size=16, max_size=16),
)
@settings(max_examples=25, deadline=None)
def test_convolution_property_small(a, b):
    q16 = ntt_friendly_primes(16, 24, 1)[0]
    ctx = NttContext(16, q16)
    av = np.array(a, dtype=np.uint64) % np.uint64(q16)
    bv = np.array(b, dtype=np.uint64) % np.uint64(q16)
    assert np.array_equal(
        ctx.negacyclic_multiply(av, bv), naive_negacyclic_multiply(av, bv, q16)
    )
