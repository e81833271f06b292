"""Chinese-Remainder-Theorem utilities for RNS bases.

An :class:`RnsBasis` captures an ordered tuple of distinct primes
``(q_1, ..., q_L)`` whose product is the ciphertext modulus ``Q``.  Modulus
switching drops the last prime, so bases form a chain; :meth:`RnsBasis.drop`
returns the next basis in the chain.

Modulus bound: every modulus is below :data:`MAX_MODULUS` ``= 2^30``, so the
NTT's lazy range ``[0, 4q)`` fits F1's 32-bit residue word (Sec. 5.3) and a
product of two residues fits a uint64 with room to spare.  The bound is
checked here, once, when a basis is built (and by the NTT constructors,
which take a bare ``q``); no kernel below re-checks it or keeps a
wide-modulus fallback.

Batched layout: RNS values are limb-major ``(L, N)`` uint64 matrices (row i
holds the residues mod ``q_i``), matching the batched NTT engine in
:mod:`repro.poly.ntt`.  Conversions are vectorized:

- :meth:`RnsBasis.to_rns` reduces machine-width integer arrays with one numpy
  remainder per limb, skips even that when every input value is already
  below every modulus (the residues *are* the values), and falls back to a
  Python-int path only for wide inputs;
- :meth:`RnsBasis.from_rns` computes all CRT digits ``[x_i * (Q/q_i)^{-1}]_{q_i}``
  division-free (Shoup partners, via :mod:`repro.rns.convert`) and evaluates
  the digit-weighted sum ``sum_i d_i * (Q/q_i)`` through raw uint64 word
  matmuls (:class:`repro.rns.convert.WordAccumulator`).  The big-int
  reconstruction it equals is a test-side oracle (``tests/kernel_oracles.py``).
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from repro.obs.profile import instrument

#: The engine's one modulus bound: the lazy NTT range ``[0, 4q)`` fits F1's
#: 32-bit word, so a product of two residues fits a uint64.
MAX_MODULUS = 1 << 30


def check_modulus_width(q: int) -> None:
    """Raise ValueError unless ``q < 2^30`` (:data:`MAX_MODULUS`)."""
    if q >= MAX_MODULUS:
        raise ValueError(
            f"q = {q} needs {q.bit_length()} bits; moduli must be < 2^30 so "
            "the lazy NTT range [0, 4q) fits a 32-bit word"
        )


def _convert():
    # Deferred: repro.rns.convert pulls in repro.poly, whose package init
    # imports this module — a cycle at import time, gone at call time.
    from repro.rns import convert
    return convert


class RnsBasis:
    """An ordered RNS basis ``(q_1, ..., q_L)`` with CRT helpers.

    The basis is immutable and hashable so ciphertexts and key material can key
    caches off it.
    """

    __slots__ = ("moduli", "max_modulus", "_modulus", "_q_col", "_q_col_i64")

    def __init__(self, moduli: tuple[int, ...] | list[int]):
        moduli = tuple(int(q) for q in moduli)
        if not moduli:
            raise ValueError("RNS basis needs at least one modulus")
        if len(set(moduli)) != len(moduli):
            raise ValueError("RNS moduli must be distinct")
        self.moduli = moduli
        #: Widest limb modulus: decides the kernels' uint64 headroom guards.
        self.max_modulus = max(moduli)
        check_modulus_width(self.max_modulus)
        self._modulus = reduce(lambda a, b: a * b, moduli, 1)
        self._q_col = np.array(moduli, dtype=np.uint64).reshape(-1, 1)
        self._q_col_i64 = self._q_col.astype(np.int64)

    @property
    def level(self) -> int:
        """Number of limbs L."""
        return len(self.moduli)

    @property
    def modulus(self) -> int:
        """The wide modulus ``Q`` as a Python integer."""
        return self._modulus

    def moduli_column(self) -> np.ndarray:
        """The moduli as an (L, 1) uint64 column for broadcast arithmetic."""
        return self._q_col

    def drop(self, count: int = 1) -> "RnsBasis":
        """Basis after modulus-switching away the last ``count`` primes."""
        if count >= self.level:
            raise ValueError("cannot drop all RNS limbs")
        return RnsBasis(self.moduli[: self.level - count])

    def crt_weights(self) -> tuple[tuple[int, int], ...]:
        """CRT interpolation data: ``(Q/q_i, (Q/q_i)^{-1} mod q_i)`` per limb."""
        return _convert().crt_weights(self.moduli)

    @instrument("crt_to_rns")
    def to_rns(self, coeffs) -> np.ndarray:
        """Reduce integer coefficients (array or list of Python ints) limb-wise.

        Returns an ``(L, N)`` uint64 array.  Machine-integer inputs take a
        fully vectorized path (one numpy remainder per limb); wide Python
        ints fall back to an object-array reduction mod Q first.
        """
        arr = np.asarray(coeffs)
        if arr.dtype.kind in "iu":
            if arr.dtype.kind == "u":
                if arr.size and int(arr.max()) < min(self.moduli):
                    # Already reduced below every modulus: the residues are
                    # the values — one tile, zero divisions.
                    return np.tile(arr.astype(np.uint64), (self.level, 1))
                return np.remainder(
                    arr.astype(np.uint64)[None, :], self._q_col
                )
            if (arr.size and int(arr.min()) >= 0
                    and int(arr.max()) < min(self.moduli)):
                return np.tile(arr.astype(np.uint64), (self.level, 1))
            # np.remainder takes the divisor's sign: non-negative for q > 0.
            return np.remainder(
                arr.astype(np.int64)[None, :], self._q_col_i64
            ).astype(np.uint64)
        # Fallback: arbitrary-precision inputs.
        values = np.array([int(c) % self._modulus for c in coeffs], dtype=object)
        out = np.empty((self.level, values.shape[0]), dtype=np.uint64)
        for i, q in enumerate(self.moduli):
            out[i] = (values % q).astype(np.uint64)
        return out

    @instrument("crt_from_rns")
    def from_rns(self, limbs: np.ndarray, *, centered: bool = False) -> list[int]:
        """CRT-reconstruct wide integer coefficients from an ``(L, N)`` array.

        With ``centered=True`` results lie in ``(-Q/2, Q/2]``, which is what
        decryption needs to recover signed noise terms.
        """
        limbs = np.asarray(limbs, dtype=np.uint64)
        if limbs.shape[0] != self.level:
            raise ValueError(
                f"expected {self.level} limbs, got {limbs.shape[0]}"
            )
        # Digits stay uint64; the weighted sum runs as raw word matmuls and
        # Python ints appear only in the final per-coefficient recomposition.
        convert = _convert()
        digits = convert.get_digit_decomposer(self.moduli).digits(limbs)
        vals = convert.get_word_accumulator(self.moduli).reconstruct(digits)
        big_q = self._modulus
        if centered:
            half = big_q // 2
            out = []
            for c in vals:
                c %= big_q
                out.append(c - big_q if c > half else c)
            return out
        return [c % big_q for c in vals]

    def __reduce__(self):
        # Serialize as the moduli tuple alone; the derived broadcast columns
        # (_q_col/_q_col_i64) are rebuilt by __init__ on load, so pickled
        # bases stay compact and never ship derived arrays.
        return (RnsBasis, (self.moduli,))

    def __eq__(self, other) -> bool:
        return isinstance(other, RnsBasis) and self.moduli == other.moduli

    def __hash__(self) -> int:
        return hash(self.moduli)

    def __repr__(self) -> str:
        return f"RnsBasis(L={self.level}, logQ≈{self._modulus.bit_length()})"
