"""Decrypt in machine words: the centered int64 CRT equals ``from_rns``.

``MixedRadix.centered_int64`` rebuilds each centered coefficient as a
Horner sum over the Garner digits, wrapping mod 2^64, and decides with
``greater_than`` both the sign and, exactly, whether the value fits an
int64; when one does not, decrypt takes the big-int ``from_rns`` path.
Pinned here against that path: the coefficients themselves at the int64
edges on a basis with Q > 2^63, and BGV / CKKS decrypt at L in {1, 3, 6}
for ordinary ciphertexts and for phases too wide for int64.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fhe.bgv import BgvContext
from repro.fhe.ciphertext import Ciphertext
from repro.fhe.ckks import CkksContext
from repro.fhe.params import FheParams
from repro.poly.polynomial import Domain, RnsPolynomial
from repro.rns.convert import get_mixed_radix
from repro.rns.crt import RnsBasis
from repro.rns.primes import ntt_friendly_primes

N = 64
EDGE = 2**63 - 1


def _wide_basis(level: int = 3) -> RnsBasis:
    basis = RnsBasis(ntt_friendly_primes(N, 28, level))
    assert basis.modulus > 1 << 63
    return basis


def _reference(poly: RnsPolynomial) -> list[int]:
    return poly.basis.from_rns(poly.to_coeff().limbs, centered=True)


def test_int64_edges_on_a_basis_wider_than_int64():
    basis = _wide_basis()
    coeffs = [EDGE, -EDGE, -EDGE - 1, 0, 1, -1, EDGE - 12345, -(2**62)]
    coeffs += [0] * (N - len(coeffs))
    poly = RnsPolynomial.from_int_coeffs(basis, coeffs)
    got = poly.to_centered_ints()
    assert got.dtype == np.int64
    assert got.tolist() == coeffs == _reference(poly)


@pytest.mark.parametrize("outside", [EDGE + 1, -EDGE - 2, 2**80, -(2**70)])
def test_one_coefficient_outside_int64_takes_the_big_int_path(outside):
    basis = _wide_basis()
    coeffs = [EDGE, -EDGE - 1, outside] + [5] * (N - 3)
    poly = RnsPolynomial.from_int_coeffs(basis, coeffs)
    mr = get_mixed_radix(basis.moduli)
    assert mr.centered_int64(poly.limbs) is None
    got = poly.to_centered_ints()
    assert got.dtype == object
    assert got.tolist() == coeffs == _reference(poly)


@pytest.mark.parametrize("level", (1, 3, 6))
def test_random_residues_match_from_rns(level):
    """Uniform residues are mostly wider than int64 once Q > 2^63; small
    centered values always fit.  Either way the answer is from_rns's."""
    basis = RnsBasis(ntt_friendly_primes(N, 28, level))
    rng = np.random.default_rng(level)
    for scale in (None, 2**20, 2**62):
        if scale is None:
            limbs = np.stack([rng.integers(0, q, N, dtype=np.uint64)
                              for q in basis.moduli])
            poly = RnsPolynomial(basis, limbs, Domain.COEFF)
        else:
            values = [int(v) for v in rng.integers(-scale, scale, N)]
            poly = RnsPolynomial.from_int_coeffs(basis, values)
        got = poly.to_centered_ints()
        assert got.tolist() == _reference(poly)
        assert (got.dtype == np.int64) == all(
            -(2**63) <= c < 2**63 for c in _reference(poly))


def _bgv_reference(ctx: BgvContext, ct: Ciphertext) -> np.ndarray:
    phase = ct.b - ct.a * ctx.secret.poly(ct.basis)
    correction = pow(ct.plaintext_scale, -1, ctx.t)
    wide = np.array(_reference(phase), dtype=object)
    return ((wide * correction) % ctx.t).astype(np.int64)


def _ckks_reference(ctx: CkksContext, ct: Ciphertext) -> np.ndarray:
    phase = ct.b - ct.a * ctx.secret.poly(ct.basis)
    return ctx.encoder.decode(np.array(_reference(phase), dtype=np.float64),
                              ct.scale)


def _wide_phase(ctx, level: int, scale: float | None = None) -> Ciphertext:
    """A ciphertext whose phase is a chosen polynomial (a = 0), with one
    coefficient of 2^64 + 3 when Q leaves room for it."""
    basis = ctx.params.basis_at(level)
    big = 2**64 + 3 if basis.modulus > 2**66 else 7
    b = RnsPolynomial.from_int_coeffs(basis, [big, -5, 2**40] + [1] * (N - 3))
    tags = {"scale": scale} if scale else {}
    return Ciphertext(a=RnsPolynomial.zeros(basis, N, Domain.NTT),
                      b=b.to_ntt(), **tags)


@pytest.mark.parametrize("level", (1, 3, 6))
def test_bgv_decrypt_equals_the_from_rns_path(level):
    ctx = BgvContext(FheParams.build(n=N, levels=6, plaintext_modulus=257),
                     seed=level)
    values = np.arange(N) * 7 % 257
    cts = [ctx.encrypt(values, level=level), _wide_phase(ctx, level)]
    if level > 1:
        cts.append(ctx.mod_switch(cts[0]))          # plaintext_scale != 1
    for ct in cts:
        assert np.array_equal(ctx.decrypt(ct), _bgv_reference(ctx, ct))
    assert np.array_equal(ctx.decrypt(cts[0]), values)


@pytest.mark.parametrize("level", (1, 3, 6))
def test_ckks_decrypt_equals_the_from_rns_path(level):
    ctx = CkksContext(FheParams.build(n=N, levels=6), seed=level)
    values = np.linspace(-1.0, 1.0, N // 2)
    ct = ctx.encrypt_values(values, level=level)
    cts = [ct, _wide_phase(ctx, level, ct.scale)]
    if level > 1:
        cts.append(ctx.mul(ct, ct))                 # scale Delta^2
    for ct in cts:
        assert np.array_equal(ctx.decrypt_values(ct), _ckks_reference(ctx, ct))
