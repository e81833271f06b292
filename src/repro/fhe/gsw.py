"""GSW scheme (Sec. 2.5): matrix ciphertexts with asymmetric noise growth.

An RGSW ciphertext of a small polynomial ``m`` is 2L RLWE pairs built around
the RNS-CRT gadget (the same D_i basis the key switch uses):

    C0[i] = (a_i,  a_i*s + t*e_i  + m * D_i)        -- "b-digit" rows
    C1[i] = (a'_i, a'_i*s + t*e'_i + m * D_i * s)   -- "a-digit" rows

The *external product* RGSW(m) ⊡ RLWE(mu) decomposes the RLWE pair into RNS
digits and takes inner products with the rows, yielding RLWE(m * mu) with
noise growing only with ``|m|`` and the digit magnitudes — GSW's hallmark
asymmetric growth.  F1 supports GSW with the same primitive mix (Sec. 2.5),
and so does this engine: the digits are Listing 1's digit stack and the
inner products the key switch's fused multiply-accumulate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fhe.bgv import BgvContext
from repro.fhe.ciphertext import Ciphertext
from repro.fhe.keyswitch import _digit_ntt_stack
from repro.fhe.sampling import sample_error, small_poly, uniform_poly
from repro.poly import kernels
from repro.poly.polynomial import Domain, RnsPolynomial


@dataclass
class GswCiphertext:
    """2L RLWE rows: c0/c1 lists of (a, b) NTT-domain polynomial pairs."""

    c0: list[tuple[RnsPolynomial, RnsPolynomial]]
    c1: list[tuple[RnsPolynomial, RnsPolynomial]]

    @property
    def level(self) -> int:
        return len(self.c0)


class GswContext:
    """GSW encryption and external products on top of a BGV context's keys."""

    def __init__(self, bgv: BgvContext):
        self.bgv = bgv

    def encrypt(self, m_coeffs) -> GswCiphertext:
        """Encrypt a small integer polynomial (e.g. a bit or monomial)."""
        bgv = self.bgv
        params = bgv.params
        basis = params.basis
        n = params.n
        t = params.plaintext_modulus
        s = bgv.secret.poly(basis)
        m = small_poly(basis, np.asarray(m_coeffs, dtype=np.int64), Domain.NTT)
        m_s = m * s
        c0, c1 = [], []
        for i in range(basis.level):
            rows = []
            for target in (m, m_s):
                a = uniform_poly(basis, n, bgv.rng, Domain.NTT)
                e = small_poly(basis, sample_error(n, params.error_width, bgv.rng), Domain.NTT)
                masked = RnsPolynomial.zeros(basis, n, Domain.NTT)
                masked.limbs[i] = target.limbs[i]  # m * D_i via indicator
                b = a * s + e.scalar_mul(t) + masked
                rows.append((a, b))
            c0.append(rows[0])
            c1.append(rows[1])
        return GswCiphertext(c0=c0, c1=c1)

    def external_product(self, gsw: GswCiphertext, ct: Ciphertext) -> Ciphertext:
        """RGSW(m) ⊡ RLWE(mu) -> RLWE(m * mu)."""
        basis = ct.basis
        if gsw.level != basis.level:
            raise ValueError("GSW ciphertext level does not match RLWE input")
        q_col = basis.moduli_column()

        def inner(digits, rows):  # sum_i digits[i] * rows[i] mod q, per poly
            return np.stack([kernels.mul_accumulate(
                digits, np.stack([row[k].limbs for row in rows]), q_col,
                basis.max_modulus) for k in (0, 1)])
        # result = b_digits . C0 - a_digits . C1, both output polys at once
        out_a, out_b = kernels.sub_mod(inner(_digit_ntt_stack(ct.b), gsw.c0),
                                       inner(_digit_ntt_stack(ct.a), gsw.c1),
                                       q_col)
        return ct.with_polys(RnsPolynomial(basis, out_a, Domain.NTT),
                             RnsPolynomial(basis, out_b, Domain.NTT),
                             noise_bits=ct.noise_bits + 12.0)

    def decrypt(self, ct: Ciphertext) -> np.ndarray:
        return self.bgv.decrypt(ct)

