"""Plaintext encoders: BGV SIMD batching and CKKS canonical embedding.

**BatchEncoder** (BGV): when the plaintext modulus ``t`` is a prime with
``t ≡ 1 (mod 2N)``, the plaintext ring R_t splits into N slots via a
negacyclic NTT mod t.  Slots are ordered along the orbit of the Galois
generator g=3 (two hypercolumns of N/2, as in HElib), so the rotation
automorphism ``sigma_{3^r}`` acts as a cyclic rotation by r within each
hypercolumn.

**CkksEncoder**: the canonical embedding of R = Z[x]/(x^N+1) into C^{N/2}.
Slot i holds ``m(zeta^{5^i})`` (zeta a primitive complex 2N-th root), so
``sigma_{5^r}`` rotates slots cyclically and ``sigma_{-1}`` conjugates them.
Encoding scales by Delta and rounds to integer coefficients.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.poly.ntt import NttContext


class BatchEncoder:
    """SIMD slot encoder for BGV with prime t ≡ 1 (mod 2N)."""

    def __init__(self, n: int, t: int):
        if (t - 1) % (2 * n):
            raise ValueError(f"t={t} must be ≡ 1 mod 2N for batching (N={n})")
        self.n = n
        self.t = t
        self._ctx = NttContext(n, t)
        # Slot ordering: exponent orbit of g=3.  Hypercolumn 0 holds the NTT
        # slots whose exponent is 3^i mod 2N; hypercolumn 1 holds -3^i.
        order = []
        exp_to_slot = {2 * j + 1: j for j in range(n)}
        g, m = 3, 2 * n
        e = 1
        half = n // 2
        for _ in range(half):
            order.append(exp_to_slot[e])
            e = e * g % m
        e = m - 1  # -1
        for _ in range(half):
            order.append(exp_to_slot[e])
            e = e * g % m
        self._slot_of_position = np.array(order)

    def encode(self, values) -> np.ndarray:
        """values: length-N vector (two N/2 hypercolumns) -> plaintext poly."""
        values = np.asarray(values, dtype=np.int64) % self.t
        if values.shape[0] != self.n:
            padded = np.zeros(self.n, dtype=np.int64)
            padded[: values.shape[0]] = values
            values = padded
        slots = np.zeros(self.n, dtype=np.uint64)
        slots[self._slot_of_position] = values.astype(np.uint64)
        return self._ctx.inverse(slots).astype(np.int64)

    def decode(self, poly_coeffs) -> np.ndarray:
        coeffs = np.asarray(poly_coeffs, dtype=np.int64) % self.t
        slots = self._ctx.forward(coeffs.astype(np.uint64))
        return slots[self._slot_of_position].astype(np.int64)

    def rotated(self, values, steps: int) -> np.ndarray:
        """Reference slot semantics of sigma_{3^steps}: rotate each hypercolumn."""
        values = np.asarray(values)
        half = self.n // 2
        lo, hi = values[:half], values[half:]
        return np.concatenate([np.roll(lo, -steps), np.roll(hi, -steps)])


class CkksEncoder:
    """Canonical-embedding encoder: C^{N/2} slots <-> integer polynomials.

    Evaluating m at every odd power ``zeta^(2j+1)`` is one length-N DFT of
    the twisted coefficients ``c_k zeta^k``; slot i reads entry
    ``pos[i] = (5^i mod 2N - 1) / 2`` of it and its conjugate sits at
    ``N - 1 - pos[i]``.  Both directions are therefore one ``np.fft`` call
    around an O(N) twist and an index gather / scatter.
    """

    def __init__(self, n: int, scale: float):
        self.n = n
        self.slots = n // 2
        self.scale = float(scale)
        self._twist, self._pos, self._conj_pos = _embedding_tables(n)

    def encode(self, values, scale: float | None = None) -> np.ndarray:
        """Complex (or real) slot values -> scaled integer coefficients."""
        scale = self.scale if scale is None else float(scale)
        values = np.asarray(values, dtype=np.complex128).reshape(-1)
        count = values.shape[0]
        if count > self.slots:
            raise ValueError(f"too many slot values for N={self.n}")
        # Conjugate-symmetric evaluation vector over exponents 5^i, -5^i
        # (unset slots are zero), so the inverse embedding is exactly real.
        full = np.zeros(self.n, dtype=np.complex128)
        full[self._pos[:count]] = values
        full[self._conj_pos[:count]] = np.conj(values)
        coeffs = (np.fft.fft(full, norm="forward") * self._twist.conj()).real
        return np.round(coeffs * scale).astype(np.int64)

    def decode(self, coeffs, scale: float | None = None) -> np.ndarray:
        """Integer (centered) coefficients -> complex slot values."""
        scale = self.scale if scale is None else float(scale)
        coeffs = np.asarray(coeffs, dtype=np.float64)
        evals = np.fft.ifft(coeffs * self._twist, norm="forward")
        return evals[self._pos] / scale


@lru_cache(maxsize=None)
def _embedding_tables(n: int):
    """(twist ``zeta^k``, slot positions ``pos``, conjugate positions).

    Cached per ring size and never evicted: one O(N) entry (24 bytes per
    coefficient, 0.39 MB at N=16384) for each distinct N a process uses.
    """
    m = 2 * n
    twist = np.exp(1j * np.pi * np.arange(n) / n)
    pos = np.empty(n // 2, dtype=np.int64)
    e = 1
    for i in range(n // 2):
        pos[i] = (e - 1) // 2
        e = e * 5 % m
    tables = (twist, pos, n - 1 - pos)
    for table in tables:  # one shared copy per N: keep it immutable
        table.setflags(write=False)
    return tables
