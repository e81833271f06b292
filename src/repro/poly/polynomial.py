"""RnsPolynomial: the value type FHE schemes compute on.

A polynomial in R_Q, stored as an (L, N) uint64 array of residue polynomials
("RVecs" in the paper, one per RNS limb), tagged with its domain: COEFF or
NTT.  All homomorphic-operation math in :mod:`repro.fhe` is built from the
element-wise and NTT/automorphism operations here — precisely the primitive
set F1's functional units implement.

Everything operates on the full (L, N) residue matrix at once: domain
conversions go through the batched :class:`~repro.poly.ntt.RnsNttContext`
and element-wise arithmetic broadcasts the basis' (L, 1) modulus column, so
no hot path iterates limb-by-limb in Python.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.poly import kernels
from repro.poly.automorphism import automorphism_coeff_rows, automorphism_ntt_permutation
from repro.poly.ntt import get_rns_context
from repro.rns.convert import get_mixed_radix
from repro.rns.crt import RnsBasis


class Domain(enum.Enum):
    COEFF = "coeff"
    NTT = "ntt"


class RnsPolynomial:
    """An element of R_Q in RNS form.

    Arithmetic requires matching bases and domains; use :meth:`to_ntt` /
    :meth:`to_coeff` to convert.  Instances are mutated only through the
    returned copies — operations are functional.
    """

    __slots__ = ("basis", "n", "limbs", "domain")

    def __init__(self, basis: RnsBasis, limbs: np.ndarray, domain: Domain):
        limbs = np.asarray(limbs, dtype=np.uint64)
        if limbs.ndim != 2 or limbs.shape[0] != basis.level:
            raise ValueError(
                f"limbs shape {limbs.shape} does not match basis level {basis.level}"
            )
        self.basis = basis
        self.n = limbs.shape[1]
        self.limbs = limbs
        self.domain = domain

    # ---------------------------------------------------------------- factory
    @classmethod
    def zeros(cls, basis: RnsBasis, n: int, domain: Domain = Domain.COEFF) -> "RnsPolynomial":
        return cls(basis, np.zeros((basis.level, n), dtype=np.uint64), domain)

    @classmethod
    def from_int_coeffs(cls, basis: RnsBasis, coeffs) -> "RnsPolynomial":
        """Build from (possibly signed, possibly wide) integer coefficients."""
        return cls(basis, basis.to_rns(coeffs), Domain.COEFF)

    @classmethod
    def random_uniform(cls, basis: RnsBasis, n: int, rng: np.random.Generator) -> "RnsPolynomial":
        """Uniform element of R_Q.

        Each limb is drawn independently and uniformly from ``[0, q_i)``; by
        the CRT bijection the joint draw is *exactly* uniform over ``[0, Q)``
        — and fully vectorized.  (A previous implementation reduced a fixed
        128-bit draw mod Q, which confines samples to ``[0, 2^128)`` and is
        badly biased for any basis with log2(Q) > 128.)
        """
        limbs = np.stack(
            [rng.integers(0, q, size=n, dtype=np.uint64) for q in basis.moduli]
        )
        return cls(basis, limbs, Domain.COEFF)

    # -------------------------------------------------------------- serde
    def to_state(self) -> dict:
        """Compact serializable form: the residue matrix plus the moduli.

        NTT twiddles and Shoup quotients are process-global caches keyed by
        ``(n, moduli)`` (see :func:`repro.poly.ntt.get_rns_context`) and are
        rebuilt on demand after a restore — never shipped.
        """
        return {
            "moduli": self.basis.moduli,
            "limbs": self.limbs,
            "domain": self.domain.value,
        }

    @classmethod
    def from_state(cls, state: dict) -> "RnsPolynomial":
        """Restore :meth:`to_state` output.  Every kernel assumes reduced
        limbs, so a restored limb at or above its modulus is refused."""
        basis = RnsBasis(state["moduli"])
        poly = cls(basis, state["limbs"], Domain(state["domain"]))
        if not (poly.limbs < basis.moduli_column()).all():
            raise ValueError("limbs are not reduced below their moduli")
        return poly

    def __getstate__(self):
        return self.to_state()

    def __setstate__(self, state):
        # Delegate to from_state so pickle restores go through the same
        # constructor validation as every other deserialization path.
        restored = RnsPolynomial.from_state(state)
        self.basis = restored.basis
        self.n = restored.n
        self.limbs = restored.limbs
        self.domain = restored.domain

    # ------------------------------------------------------------ conversions
    def to_ntt(self) -> "RnsPolynomial":
        if self.domain is Domain.NTT:
            return self
        ctx = get_rns_context(self.n, self.basis.moduli)
        return RnsPolynomial(self.basis, ctx.forward(self.limbs), Domain.NTT)

    def to_coeff(self) -> "RnsPolynomial":
        if self.domain is Domain.COEFF:
            return self
        ctx = get_rns_context(self.n, self.basis.moduli)
        return RnsPolynomial(self.basis, ctx.inverse(self.limbs), Domain.COEFF)

    def to_int_coeffs(self, *, centered: bool = True) -> list[int]:
        """CRT-reconstruct the wide integer coefficients (coefficient domain)."""
        return self.basis.from_rns(self.to_coeff().limbs, centered=centered)

    def to_centered_ints(self) -> np.ndarray:
        """:meth:`to_int_coeffs` as an array: int64 when every coefficient
        fits one (:meth:`~repro.rns.convert.MixedRadix.centered_int64`),
        else Python ints."""
        limbs = self.to_coeff().limbs
        small = get_mixed_radix(self.basis.moduli).centered_int64(limbs)
        if small is not None:
            return small
        return np.array(self.basis.from_rns(limbs, centered=True), dtype=object)

    # ------------------------------------------------------------- arithmetic
    def _check_compatible(self, other: "RnsPolynomial", op: str) -> None:
        if self.basis != other.basis:
            raise ValueError(f"{op}: RNS bases differ")
        if self.domain is not other.domain:
            raise ValueError(f"{op}: domains differ ({self.domain} vs {other.domain})")

    def __add__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        self._check_compatible(other, "add")
        q = self.basis.moduli_column()
        return RnsPolynomial(
            self.basis, kernels.add_mod(self.limbs, other.limbs, q), self.domain
        )

    def __sub__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        # Limbs are invariantly reduced (every constructor and kernel emits
        # [0, q)); sub_mod relies on that instead of re-reducing defensively,
        # and asserts it under REPRO_KERNEL_DEBUG=1.
        self._check_compatible(other, "sub")
        q = self.basis.moduli_column()
        return RnsPolynomial(
            self.basis, kernels.sub_mod(self.limbs, other.limbs, q), self.domain
        )

    def __neg__(self) -> "RnsPolynomial":
        q = self.basis.moduli_column()
        return RnsPolynomial(self.basis, kernels.neg_mod(self.limbs, q), self.domain)

    def __mul__(self, other) -> "RnsPolynomial":
        if isinstance(other, int):
            return self.scalar_mul(other)
        self._check_compatible(other, "mul")
        if self.domain is not Domain.NTT:
            raise ValueError("polynomial multiply requires NTT domain; call to_ntt()")
        q = self.basis.moduli_column()
        return RnsPolynomial(
            self.basis, kernels.mul_mod(self.limbs, other.limbs, q), Domain.NTT
        )

    __rmul__ = __mul__

    def scalar_mul(self, scalar: int) -> "RnsPolynomial":
        scalar_col = np.array(
            [scalar % q for q in self.basis.moduli], dtype=np.uint64
        ).reshape(-1, 1)
        q = self.basis.moduli_column()
        return RnsPolynomial(self.basis, (self.limbs * scalar_col) % q, self.domain)

    def automorphism(self, k: int) -> "RnsPolynomial":
        """Apply sigma_k in the current domain (permutation either way)."""
        if self.domain is Domain.COEFF:
            out = automorphism_coeff_rows(self.limbs, k, self.basis.moduli_column())
        else:
            perm = automorphism_ntt_permutation(self.n, k)
            out = self.limbs[:, perm]
        return RnsPolynomial(self.basis, out, self.domain)

    # ---------------------------------------------------------- basis surgery
    def drop_limb(self, count: int = 1) -> "RnsPolynomial":
        """Discard the last ``count`` RNS limbs (raw truncation in either
        domain, *not* modulus switching — the schemes implement proper
        rounding on top of this)."""
        basis = self.basis.drop(count)
        return RnsPolynomial(basis, self.limbs[:basis.level].copy(), self.domain)

    def copy(self) -> "RnsPolynomial":
        return RnsPolynomial(self.basis, self.limbs.copy(), self.domain)

    def __repr__(self) -> str:
        return (
            f"RnsPolynomial(N={self.n}, L={self.basis.level}, domain={self.domain.value})"
        )
