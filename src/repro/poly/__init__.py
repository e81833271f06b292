"""Polynomial-ring substrate: RNS polynomials over R_Q = Z_Q[x]/(x^N + 1).

Implements the math the F1 functional units compute (Sec. 5):

- negacyclic NTT / inverse NTT (:mod:`repro.poly.ntt`), batched over the
  limbs of an RNS basis on one plan per prime chain, laid out as the
  four-step ``G x C`` split the hardware NTT unit uses;
- automorphisms :math:`\\sigma_k` as coefficient-domain signed permutations
  and NTT-domain index permutations (:mod:`repro.poly.automorphism`);
- the :class:`~repro.poly.polynomial.RnsPolynomial` value type used by the
  FHE schemes.
"""

from repro.poly.ntt import NttContext, RnsNttContext, get_rns_context
from repro.poly.automorphism import (
    automorphism_coeff,
    automorphism_ntt_permutation,
    valid_automorphism_exponents,
)
from repro.poly.polynomial import RnsPolynomial

__all__ = [
    "NttContext",
    "RnsNttContext",
    "get_rns_context",
    "automorphism_coeff",
    "automorphism_ntt_permutation",
    "valid_automorphism_exponents",
    "RnsPolynomial",
]
