"""Seeded fuzz pinning the batched RNS conversions to their oracles.

Kernel contract: every fast path in :mod:`repro.rns.convert` and its
consumers (``base_extend``, ``scale_down``, ``from_rns``, the ``to_rns``
tile fast path) computes the *same integers* as the big-int formulation in
``kernel_oracles.py``, so outputs must be bit-identical — across 27-, 28-
and 30-bit prime sets (the 30-bit ones hold the largest moduli below the
engine's 2^30 bound), mixed-width bases, and worst-case all-max inputs that
sit right at the overflow-headroom bounds.  The fallbacks that depend on
the number of limbs are each reached at 30 bits, and the tests assert so:
the per-row base-extension lift, the CRT accumulator's narrower words and
the mixed-radix form's per-row residues.
"""

from __future__ import annotations

import numpy as np
import pytest

from kernel_oracles import (
    base_extend_reference,
    from_rns_exact,
    scale_down_reference,
)
from repro.fhe.keyswitch import base_extend, scale_down
from repro.poly.polynomial import Domain, RnsPolynomial
from repro.rns import convert
from repro.rns.crt import MAX_MODULUS, RnsBasis
from repro.rns.primes import ntt_friendly_primes

N = 128


def _random_limbs(rng, basis: RnsBasis, n: int = N) -> np.ndarray:
    return np.stack(
        [rng.integers(0, q, n, dtype=np.uint64) for q in basis.moduli]
    )


def _max_limbs(basis: RnsBasis, n: int = N) -> np.ndarray:
    """Worst-case input: every residue at q-1 (stresses headroom bounds)."""
    return np.stack(
        [np.full(n, q - 1, dtype=np.uint64) for q in basis.moduli]
    )


def _primes(bits: int, count: int, *, exclude=()) -> list[int]:
    return [p for p in ntt_friendly_primes(N, bits, count + len(exclude) + 4)
            if p not in exclude][:count]


def _pair(src_bits: int, dst_bits: int, l_src: int = 4, l_dst: int = 3):
    src = _primes(src_bits, l_src)
    dst = _primes(dst_bits, l_dst, exclude=src)
    return RnsBasis(src), RnsBasis(src + dst)


#: 17 limbs of 30-bit products pass the raw lift's 2^64 headroom
PER_ROW_LIMBS = 17

BASE_CASES = [
    pytest.param(28, 27, 4, id="28bit-to-27bit-default"),
    pytest.param(28, 28, 4, id="28bit-uniform"),
    pytest.param(30, 30, 4, id="30bit-uniform"),
    pytest.param(30, 28, 4, id="30bit-down-to-28bit"),
    pytest.param(30, 30, PER_ROW_LIMBS, id="30bit-per-row-lift"),
    # The id dates from when the widest lazy primes were 31-bit; the case
    # now runs the largest primes below 2^30 on the widest source basis
    # that still takes the raw lift, the edge of both lazy paths.
    pytest.param(30, 30, PER_ROW_LIMBS - 1, id="31bit-largest-lazy"),
]


class TestBaseExtend:
    @pytest.mark.parametrize("src_bits,dst_bits,l_src", BASE_CASES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batched_matches_reference(self, src_bits, dst_bits, l_src, seed):
        basis, extended = _pair(src_bits, dst_bits, l_src=l_src)
        rng = np.random.default_rng(seed)
        x = RnsPolynomial(basis, _random_limbs(rng, basis), Domain.COEFF)
        got = base_extend(x, extended)
        ref = base_extend_reference(x, extended)
        assert got.basis == ref.basis
        assert np.array_equal(got.limbs, ref.limbs)

    @pytest.mark.parametrize("src_bits,dst_bits,l_src", BASE_CASES)
    def test_all_max_residues(self, src_bits, dst_bits, l_src):
        basis, extended = _pair(src_bits, dst_bits, l_src=l_src)
        x = RnsPolynomial(basis, _max_limbs(basis), Domain.COEFF)
        assert np.array_equal(
            base_extend(x, extended).limbs,
            base_extend_reference(x, extended).limbs,
        )

    def test_largest_lazy_modulus_is_exercised(self):
        # The 30-bit prime set tops out just below the engine's bound, so
        # the Shoup digit path runs at its widest admissible modulus, where
        # x * w' comes closest to 2^64.
        moduli = tuple(_primes(30, 4))
        assert max(moduli) < MAX_MODULUS < 1.001 * max(moduli)
        dec = convert.get_digit_decomposer(moduli)
        maxed = _max_limbs(RnsBasis(moduli))
        assert np.array_equal(dec.digits(maxed),
                              (maxed * dec.inv_col) % dec.q_col)

    def test_per_row_lift_is_exercised(self):
        # 17 limbs of 30-bit primes pass the raw-matmul headroom bound, so
        # the per-row reduced lift carries the conversion (the
        # "30bit-per-row-lift" cases above pin its values).
        src = tuple(_primes(30, PER_ROW_LIMBS))
        dst = tuple(_primes(30, 3, exclude=src))
        assert not convert.get_base_conversion(src, src + dst).raw_ok
        short = src[:PER_ROW_LIMBS - 1]
        assert convert.get_base_conversion(short, short + dst).raw_ok

    def test_mixed_width_source_basis(self):
        src = _primes(28, 2) + _primes(30, 2)
        dst = _primes(27, 3, exclude=src)
        basis, extended = RnsBasis(src), RnsBasis(src + dst)
        rng = np.random.default_rng(9)
        x = RnsPolynomial(basis, _random_limbs(rng, basis), Domain.COEFF)
        assert np.array_equal(
            base_extend(x, extended).limbs,
            base_extend_reference(x, extended).limbs,
        )

    def test_shared_moduli_rows_are_copies(self):
        basis, extended = _pair(28, 27)
        rng = np.random.default_rng(3)
        x = RnsPolynomial(basis, _random_limbs(rng, basis), Domain.COEFF)
        out = base_extend(x, extended)
        assert np.array_equal(out.limbs[: basis.level], x.limbs)


class TestDigitDecomposer:
    @pytest.mark.parametrize("bits", [28, 30])
    def test_shoup_digits_match_strict_formula(self, bits):
        moduli = tuple(_primes(bits, 5))
        dec = convert.get_digit_decomposer(moduli)
        rng = np.random.default_rng(bits)
        limbs = _random_limbs(rng, RnsBasis(moduli))
        strict = (limbs * dec.inv_col) % dec.q_col
        assert np.array_equal(dec.digits(limbs), strict)
        maxed = _max_limbs(RnsBasis(moduli))
        assert np.array_equal(
            dec.digits(maxed), (maxed * dec.inv_col) % dec.q_col
        )


class TestScaleDown:
    @pytest.mark.parametrize("t", [1, 2, 256, 65537])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_fast_matches_oracle(self, t, seed):
        basis, extended = _pair(28, 27, l_src=4, l_dst=2)
        special = RnsBasis(extended.moduli[-2:])
        rng = np.random.default_rng(seed)
        x = RnsPolynomial(extended, _random_limbs(rng, extended), Domain.COEFF)
        got = scale_down(x, special, t)
        ref = scale_down_reference(x, special, t)
        assert got.basis == ref.basis
        assert np.array_equal(got.limbs, ref.limbs)

    @pytest.mark.parametrize("t", [1, 2, 256, 65537])
    def test_all_max_residues(self, t):
        basis, extended = _pair(28, 27, l_src=4, l_dst=2)
        special = RnsBasis(extended.moduli[-2:])
        x = RnsPolynomial(extended, _max_limbs(extended), Domain.COEFF)
        assert np.array_equal(
            scale_down(x, special, t).limbs,
            scale_down_reference(x, special, t).limbs,
        )

    def test_wide_lazy_moduli(self):
        basis, extended = _pair(30, 30, l_src=3, l_dst=2)
        special = RnsBasis(extended.moduli[-2:])
        rng = np.random.default_rng(11)
        x = RnsPolynomial(extended, _random_limbs(rng, extended), Domain.COEFF)
        assert np.array_equal(
            scale_down(x, special, 256).limbs,
            scale_down_reference(x, special, 256).limbs,
        )

    def test_plaintext_modulus_above_q(self):
        # t > min(q) forces the explicit w mod q reduction branch.
        basis, extended = _pair(28, 27, l_src=4, l_dst=2)
        special = RnsBasis(extended.moduli[-2:])
        rng = np.random.default_rng(13)
        x = RnsPolynomial(extended, _random_limbs(rng, extended), Domain.COEFF)
        t = 1 << 29
        assert t > min(basis.moduli)
        assert np.array_equal(
            scale_down(x, special, t).limbs,
            scale_down_reference(x, special, t).limbs,
        )


class TestMixedRadix:
    @pytest.mark.parametrize("bits", [27, 30])
    def test_digits_residues_and_compare_are_exact(self, bits):
        moduli = tuple(_primes(bits, 3))
        special = RnsBasis(moduli)
        mr = convert.get_mixed_radix(moduli)
        rng = np.random.default_rng(bits)
        limbs = _random_limbs(rng, special, n=64)
        values = special.from_rns(limbs)
        a = mr.digits(limbs)
        # Digits recompose to the CRT value exactly.
        recomposed = [
            sum(int(a[i, j]) * mr.prefixes[i] for i in range(mr.k))
            for j in range(64)
        ]
        assert recomposed == values
        targets = tuple(_primes(28, 2, exclude=moduli)) + (65537,)
        res = mr.residues(a, targets)
        for r, m in enumerate(targets):
            assert [int(v) for v in res[r]] == [v % m for v in values]
        half = special.modulus // 2
        assert list(mr.greater_than(a, half)) == [v > half for v in values]
        # Equality must compare as not-greater.
        exact = mr.threshold_digits(values[0])
        col = mr.digits(limbs[:, :1])
        assert np.array_equal(col[:, 0], exact)
        assert not mr.greater_than(col, values[0])[0]

    def test_residues_per_row_past_the_raw_bound(self):
        # 17 digits of 30-bit moduli against 30-bit targets pass the raw
        # matmul's 2^64 headroom: residues() reduces row by row.
        moduli = tuple(_primes(30, PER_ROW_LIMBS))
        targets = tuple(_primes(30, 2, exclude=moduli))
        assert not convert._radix_residue_table(moduli, targets)[1]
        assert convert._radix_residue_table(moduli[:-1], targets)[1]
        special = RnsBasis(moduli)
        mr = convert.get_mixed_radix(moduli)
        limbs = _random_limbs(np.random.default_rng(4), special, n=32)
        limbs[:, :2] = _max_limbs(special, n=2)
        values = special.from_rns(limbs)
        res = mr.residues(mr.digits(limbs), targets)
        for r, m in enumerate(targets):
            assert [int(v) for v in res[r]] == [v % m for v in values]


class TestFromRns:
    @pytest.mark.parametrize("bits,level",
                             [(28, 4), (28, 16), (30, 6), (30, 16), (30, 64)])
    @pytest.mark.parametrize("centered", [False, True])
    def test_lazy_matches_exact(self, bits, level, centered):
        basis = RnsBasis(_primes(bits, level))
        rng = np.random.default_rng(level)
        limbs = _random_limbs(rng, basis)
        assert basis.from_rns(limbs, centered=centered) == \
            from_rns_exact(basis, limbs, centered=centered)
        maxed = _max_limbs(basis)
        assert basis.from_rns(maxed, centered=centered) == \
            from_rns_exact(basis, maxed, centered=centered)

    def test_default_primes_take_the_full_word_path(self):
        # 28-bit default sets leave enough headroom for full 32-bit words —
        # the no-big-int carry-propagation recomposition.
        acc = convert.get_word_accumulator(tuple(_primes(28, 8)))
        assert acc.wbits == 32

    @pytest.mark.parametrize("level,wbits", [(6, 31), (16, 30), (64, 28)])
    def test_wide_bases_take_narrower_words(self, level, wbits):
        # 30-bit limbs leave less headroom per word: the Horner recomposition
        # over narrower words runs (the cases above pin its values).
        acc = convert.get_word_accumulator(tuple(_primes(30, level)))
        assert acc.wbits == wbits

    def test_word_accumulator_refuses_past_its_headroom(self):
        class Tall:  # 2^25 moduli just below 2^32, without storing them
            def __len__(self):
                return 1 << 25

            def __iter__(self):
                yield (1 << 32) - 5

        with pytest.raises(ValueError, match="headroom"):
            convert.WordAccumulator(Tall())

    def test_word_accumulator_sum_is_exact(self):
        moduli = tuple(_primes(28, 8))
        acc = convert.get_word_accumulator(moduli)
        weights = convert.crt_weights(moduli)
        rng = np.random.default_rng(5)
        digits = _random_limbs(rng, RnsBasis(moduli), n=32)
        got = acc.reconstruct(digits)
        want = [
            sum(int(digits[i, j]) * weights[i][0] for i in range(len(moduli)))
            for j in range(32)
        ]
        assert got == want


class TestToRnsFastPath:
    def test_already_reduced_input_tiles(self):
        basis = RnsBasis(_primes(28, 4))
        lo = min(basis.moduli)
        arr = np.array([0, 1, lo - 1], dtype=np.uint64)
        out = basis.to_rns(arr)
        assert np.array_equal(out, np.tile(arr, (basis.level, 1)))

    def test_boundary_value_still_reduces(self):
        basis = RnsBasis(_primes(28, 4))
        lo = min(basis.moduli)
        arr = np.array([lo, lo - 1], dtype=np.uint64)
        out = basis.to_rns(arr)
        for i, q in enumerate(basis.moduli):
            assert [int(v) for v in out[i]] == [lo % q, (lo - 1) % q]

    def test_signed_nonnegative_input_tiles(self):
        basis = RnsBasis(_primes(28, 4))
        arr = np.array([0, 7, 41], dtype=np.int64)
        assert np.array_equal(
            basis.to_rns(arr), np.tile(arr.astype(np.uint64), (basis.level, 1))
        )

    def test_signed_negative_input_reduces(self):
        basis = RnsBasis(_primes(28, 4))
        arr = np.array([-1, 5], dtype=np.int64)
        out = basis.to_rns(arr)
        for i, q in enumerate(basis.moduli):
            assert [int(v) for v in out[i]] == [q - 1, 5]
