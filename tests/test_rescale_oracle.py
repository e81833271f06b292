"""Basis surgery in the NTT domain equals the coefficient-domain original.

The engine rescales (BGV ``mod_switch(_to)``, CKKS ``rescale(_to)``) and
scales down (the raised key switch) without taking a whole polynomial out of
the NTT domain.  The all-coefficient-domain rescale the engine used to run —
``to_coeff()``, one exact-division drop per limb, ``to_ntt()`` — lives on
here as the oracle of a seeded property test: random levels, every ``count``
up to L-1, t in {1, 2, 257}; limbs must be equal, not close.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fhe.bgv import _rescale_bgv
from repro.fhe.keyswitch import scale_down
from repro.poly.polynomial import Domain, RnsPolynomial
from repro.rns.crt import RnsBasis
from repro.rns.primes import ntt_friendly_primes

N = 64
PLAINTEXT_MODULI = (1, 2, 257)


def rescale_coeff_oracle(coeff: RnsPolynomial, t: int) -> RnsPolynomial:
    """Drop the last limb in coefficient domain (the engine's former
    ``_rescale_bgv_coeff``): exact division with delta ≡ 0 (mod t)."""
    basis = coeff.basis
    q_last = basis.moduli[-1]
    new_basis = basis.drop()
    # Centered last-limb residues u, then delta = u + q_last * w with
    # w = [-u * q_last^{-1}]_t centered, so delta ≡ u (mod q_last), ≡ 0 (mod t).
    u = coeff.limbs[-1].astype(np.int64)
    u = np.where(u > q_last // 2, u - q_last, u)
    if t > 1:
        q_inv_t = pow(q_last % t, -1, t)
        w = np.mod(-u * q_inv_t, t)
        w = np.where(w > t // 2, w - t, w)
    else:
        w = np.zeros_like(u)
    delta = u + q_last * w
    q_col = new_basis.moduli_column()
    delta_mod = np.remainder(
        delta[None, :], q_col.astype(np.int64)).astype(np.uint64)
    inv_col = np.array(
        [pow(q_last % q, -1, q) for q in new_basis.moduli], dtype=np.uint64
    ).reshape(-1, 1)
    out = ((coeff.limbs[:-1] + q_col - delta_mod) % q_col * inv_col) % q_col
    return RnsPolynomial(new_basis, out, Domain.COEFF)


def rescale_chain_oracle(poly: RnsPolynomial, t: int, count: int) -> RnsPolynomial:
    coeff = poly.to_coeff()
    for _ in range(count):
        coeff = rescale_coeff_oracle(coeff, t)
    return coeff.to_ntt()


def _random_poly(rng, basis: RnsBasis, domain: Domain) -> RnsPolynomial:
    limbs = np.stack([rng.integers(0, q, N, dtype=np.uint64)
                      for q in basis.moduli])
    return RnsPolynomial(basis, limbs, domain)


@pytest.mark.parametrize("t", PLAINTEXT_MODULI)
@pytest.mark.parametrize("seed", range(6))
def test_ntt_domain_rescale_equals_coefficient_domain_chain(seed, t):
    rng = np.random.default_rng([seed, t])
    level = int(rng.integers(2, 8))
    basis = RnsBasis(ntt_friendly_primes(N, 28, level))
    a, b = (_random_poly(rng, basis, Domain.NTT) for _ in range(2))
    for count in range(1, level):
        got = _rescale_bgv(a, b, t, count)
        for g, x in zip(got, (a, b)):
            want = rescale_chain_oracle(x, t, count)
            assert g.basis == want.basis and g.domain is Domain.NTT
            assert np.array_equal(g.limbs, want.limbs), (level, count)


def test_rescale_of_extreme_residues():
    """All-max and all-zero limbs sit on the centering boundaries."""
    basis = RnsBasis(ntt_friendly_primes(N, 28, 4))
    top = RnsPolynomial(
        basis, np.stack([np.full(N, q - 1, dtype=np.uint64)
                         for q in basis.moduli]), Domain.NTT)
    zero = RnsPolynomial.zeros(basis, N, Domain.NTT)
    for t in PLAINTEXT_MODULI:
        for count in (1, 3):
            for g, x in zip(_rescale_bgv(top, zero, t, count), (top, zero)):
                assert np.array_equal(
                    g.limbs, rescale_chain_oracle(x, t, count).limbs)


@pytest.mark.parametrize("t", PLAINTEXT_MODULI)
@pytest.mark.parametrize("seed", range(6))
def test_scale_down_commutes_with_the_transform(seed, t):
    """``scale_down`` answers in the domain it was asked in, and the two
    answers are the same polynomial."""
    rng = np.random.default_rng([seed, t, 7])
    level = int(rng.integers(1, 6))
    n_special = int(rng.integers(1, 5))
    primes = ntt_friendly_primes(N, 28, level + n_special)
    extended = RnsBasis(primes)
    special = RnsBasis(primes[level:])
    x = _random_poly(rng, extended, Domain.COEFF)
    in_coeff = scale_down(x, special, t)
    in_ntt = scale_down(x.to_ntt(), special, t)
    assert in_coeff.domain is Domain.COEFF and in_ntt.domain is Domain.NTT
    assert np.array_equal(in_ntt.to_coeff().limbs, in_coeff.limbs)
