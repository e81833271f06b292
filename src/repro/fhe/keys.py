"""Secret keys and key-switch hints.

A :class:`SecretKey` stores small integer coefficients and lazily caches its
RNS/NTT form at every basis in the modulus chain (modulus switching shortens
the basis; key-switch hints dominate off-chip traffic in Fig. 9a).

Key-switch hints (Sec. 2.4, Listing 1) let a ciphertext component encrypted
under a key ``s_old`` (e.g. ``s^2`` after a multiplication, or ``sigma_k(s)``
after an automorphism) be re-encrypted under ``s``.  The RNS-decomposition
hint for limb i is the pair

    hint1[i] = a_i                      (uniform)
    hint0[i] = a_i * s + t * e_i + D_i * s_old

where ``D_i = (Q/q_i) * [(Q/q_i)^{-1}]_{q_i}`` is the CRT interpolation basis
element — whose RNS representation is simply the indicator of limb i, so the
``D_i * s_old`` term is ``s_old`` masked to limb i.  That indicator does not
depend on the limbs above i, so a lower level's hint (a prefix basis) is the
top hint's leading rows and limbs: one hint per target serves every level.

Every modulus is below 2^30 and F1 holds a residue as a 32-bit word (Sec.
5.3), so variant-1 hints are uint32 stacks, half the bytes of uint64.
Ciphertexts and variant-2 hints stay uint64 (see :mod:`repro.fhe.keyswitch`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fhe.sampling import sample_error, sample_ternary, small_poly, uniform_poly
from repro.poly.polynomial import Domain, RnsPolynomial
from repro.rns.crt import RnsBasis


class SecretKey:
    """Ternary secret with per-basis cached NTT forms."""

    def __init__(self, coeffs: np.ndarray):
        self.coeffs = np.asarray(coeffs, dtype=np.int64)
        self.n = self.coeffs.shape[0]
        self._cache: dict[RnsBasis, RnsPolynomial] = {}
        self._square_cache: dict[RnsBasis, RnsPolynomial] = {}

    @classmethod
    def generate(cls, n: int, rng: np.random.Generator) -> "SecretKey":
        return cls(sample_ternary(n, rng))

    def to_state(self) -> dict:
        """Just the ternary coefficients; per-basis NTT forms are derived
        caches and are recomputed on demand after a restore."""
        return {"coeffs": self.coeffs}

    @classmethod
    def from_state(cls, state: dict) -> "SecretKey":
        return cls(state["coeffs"])

    def __getstate__(self):
        return self.to_state()

    def __setstate__(self, state):
        self.__init__(state["coeffs"])

    def poly(self, basis: RnsBasis) -> RnsPolynomial:
        """NTT-domain RNS form of s at the given basis."""
        cached = self._cache.get(basis)
        if cached is None:
            cached = small_poly(basis, self.coeffs, Domain.NTT)
            self._cache[basis] = cached
        return cached

    def square_poly(self, basis: RnsBasis) -> RnsPolynomial:
        """NTT-domain form of s^2 (the relinearization target key)."""
        cached = self._square_cache.get(basis)
        if cached is None:
            s = self.poly(basis)
            cached = s * s
            self._square_cache[basis] = cached
        return cached

    def automorphism_coeffs(self, k: int) -> np.ndarray:
        """Integer coefficients of sigma_k(s) (signed): coefficient i moves
        to ``i*k mod N``, negated where ``i*k mod 2N >= N``."""
        ik = np.arange(self.n) * (k % (2 * self.n))
        out = np.zeros(self.n, dtype=np.int64)
        out[ik % self.n] = np.where(ik % (2 * self.n) >= self.n, -self.coeffs,
                                    self.coeffs)
        return out


@dataclass
class KeySwitchHint:
    """RNS-decomposition key-switch hint (variant 1, Listing 1).

    The storage is ``stack0``/``stack1``: ``(L, L, N)`` uint32 arrays, row
    i the NTT-domain residue matrix of ``hint0[i]``/``hint1[i]`` at
    ``basis``, laid out for the fused multiply-accumulate over the digit
    axis; written once at keygen, pickled once.  The hint totals ``2 * L``
    rows but its scheduling footprint is the ``2 * L^2`` RVecs the paper
    counts: every row is consumed at all L limb moduli.  A hint at a prefix
    basis of ``l`` limbs is the ``[:l, :l]`` view of both stacks: row i < l
    keeps ``a_i``, ``e_i`` and limb i's indicator on the limbs that remain.
    """

    target: str
    basis: RnsBasis
    stack0: np.ndarray
    stack1: np.ndarray

    def prefix(self, basis: RnsBasis) -> "KeySwitchHint":
        """The hint at ``basis``, a prefix of this one's, as views."""
        level = basis.level
        if basis.moduli != self.basis.moduli[:level]:
            raise ValueError(
                f"{basis.moduli} is not a prefix of {self.basis.moduli}")
        return KeySwitchHint(self.target, basis, self.stack0[:level, :level],
                             self.stack1[:level, :level])

    @property
    def hint0(self) -> list[RnsPolynomial]:
        """Row i of ``stack0`` as a polynomial whose limbs view it (uint32:
        widen before computing on them).  :attr:`hint1` views ``stack1``."""
        return _row_views(self.basis, self.stack0)

    @property
    def hint1(self) -> list[RnsPolynomial]:
        return _row_views(self.basis, self.stack1)


def _row_views(basis: RnsBasis, stack: np.ndarray) -> list[RnsPolynomial]:
    polys = [RnsPolynomial(basis, row, Domain.NTT) for row in stack]
    for row, p in zip(stack, polys):
        p.limbs = row  # the constructor widened a copy; view the row instead
    return polys


@dataclass
class RaisedKeySwitchHint:
    """Raised-modulus hint (variant 2, GHS-style; hints grow as O(L)).

    The hint is a single pair of polynomials over the extended basis Q*P
    where P (the product of the special primes) is comparable to Q.
    """

    target: str
    basis: RnsBasis            # ciphertext basis Q
    extended: RnsBasis         # Q * P
    special: RnsBasis          # P
    hint0: RnsPolynomial       # over extended basis
    hint1: RnsPolynomial


def generate_ks_hint(
    secret: SecretKey,
    target: str,
    old_key: RnsPolynomial,
    plaintext_modulus: int,
    error_width: int,
    rng: np.random.Generator,
) -> KeySwitchHint:
    """Generate a variant-1 hint re-encrypting ``old_key``-terms under
    ``secret``, written row by row into its two uint32 stacks.  Row i puts
    ``old_key`` in limb i alone, so :meth:`KeySwitchHint.prefix` slices it."""
    basis = old_key.basis
    n = old_key.n
    s = secret.poly(basis)
    t = plaintext_modulus
    stack0, stack1 = (np.empty((basis.level, basis.level, n), np.uint32)
                      for _ in range(2))
    for i in range(basis.level):
        a_i = uniform_poly(basis, n, rng, Domain.NTT)
        e_i = small_poly(basis, sample_error(n, error_width, rng), Domain.NTT)
        # D_i * s_old: s_old masked to limb i (indicator property of D_i).
        masked = RnsPolynomial.zeros(basis, n, Domain.NTT)
        masked.limbs[i] = old_key.limbs[i]
        stack0[i] = (a_i * s + e_i.scalar_mul(t) + masked).limbs
        stack1[i] = a_i.limbs
    return KeySwitchHint(target, basis, stack0, stack1)


def generate_raised_ks_hint(
    secret: SecretKey,
    target: str,
    old_key_coeff_ints: list[int],
    basis: RnsBasis,
    special: RnsBasis,
    plaintext_modulus: int,
    error_width: int,
    rng: np.random.Generator,
) -> RaisedKeySwitchHint:
    """Generate a variant-2 hint over the extended basis Q*P.

    ``old_key_coeff_ints`` are the wide integer coefficients of the old key
    (needed because the hint embeds ``P * s_old`` over Q*P).
    """
    extended = RnsBasis(basis.moduli + special.moduli)
    n = secret.n
    t = plaintext_modulus
    p_product = special.modulus
    s_ext = secret.poly(extended)
    a = uniform_poly(extended, n, rng, Domain.NTT)
    e = small_poly(extended, sample_error(n, error_width, rng), Domain.NTT)
    p_s_old = RnsPolynomial.from_int_coeffs(
        extended, [c * p_product for c in old_key_coeff_ints]
    ).to_ntt()
    hint0 = a * s_ext + e.scalar_mul(t) + p_s_old
    return RaisedKeySwitchHint(
        target=target,
        basis=basis,
        extended=extended,
        special=special,
        hint0=hint0,
        hint1=a,
    )
