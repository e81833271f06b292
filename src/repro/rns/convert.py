"""Cached batched RNS base-conversion tables.

``base_extend`` / ``scale_down`` / ``from_rns`` run as whole
``(L_src, L_dst, N)`` stack operations driven by conversion tables cached
process-globally per moduli tuple, exactly like the NTT twiddle caches in
:mod:`repro.poly.ntt`:

- :class:`DigitDecomposer` — CRT digits ``d_i = [x_i * (Q/q_i)^{-1}]_{q_i}``
  for a whole limb stack via Shoup multiplication (division-free,
  bit-identical to the ``%`` formula).
- :class:`BaseConversion` — the approximate CRT lift ``[x + u*Q]_dst``
  (``0 <= u < L_src``) as one uint64 matrix product against the cached
  ``(Q/q_i) mod p_j`` matrix, summed *raw* under the
  ``L * (q_max-1) * (p_max-1) < 2^64`` headroom bound (the
  :func:`~repro.poly.kernels.mul_accumulate` trick) with one division per
  output limb; per-row reduced fallback past the bound.
- :class:`WordAccumulator` — the exact digit-weighted sum
  ``sum_i d_i * (Q/q_i)`` of CRT reconstruction, computed as raw uint64
  matmuls against the base-``2^w`` word decomposition of the weights and
  recomposed into Python ints by a short Horner loop — one add per word
  instead of L wide multiplies per coefficient.
- :class:`MixedRadix` — exact Garner mixed-radix form over a small basis
  (the special basis of ``scale_down``), giving residues mod arbitrary
  targets and an exact ``v > P/2`` test without ever materializing big
  ints.

Every modulus is below 2^30: :class:`~repro.rns.crt.RnsBasis` rejects
wider ones when it is built, and the FHE parameters reject a plaintext
modulus ``t >= 2^30``, so no table here re-checks that bound.  The
headroom bounds that depend on the basis length are each table's own.

Everything here is *exact* integer arithmetic: each fast path computes the
same mathematical value as the big-int reference formulas, so outputs are
bit-identical.  Those formulas are test-side oracles
(``tests/kernel_oracles.py``); under ``REPRO_KERNEL_DEBUG=1`` the test suite
compares every ``base_extend`` / ``scale_down`` call against them.
"""

from __future__ import annotations

from functools import lru_cache, reduce

import numpy as np

from repro.poly import kernels


@lru_cache(maxsize=None)
def crt_weights(moduli: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """CRT interpolation data ``(Q/q_i, (Q/q_i)^{-1} mod q_i)`` per limb."""
    big_q = reduce(lambda a, b: a * b, moduli, 1)
    out = []
    for q in moduli:
        q_over = big_q // q
        out.append((q_over, pow(q_over % q, -1, q)))
    return tuple(out)


class DigitDecomposer:
    """CRT digits of a whole ``(..., L, N)`` limb stack, division-free.

    ``digits()`` returns ``d_i = [x_i * (Q/q_i)^{-1}]_{q_i}``, fully reduced:
    the per-limb ``%`` is replaced by a Shoup multiply plus one conditional
    subtract — exact, hence bit-identical to the strict formula.
    """

    __slots__ = ("moduli", "q_col", "inv_col", "inv_shoup")

    def __init__(self, moduli: tuple[int, ...]):
        self.moduli = moduli
        weights = crt_weights(moduli)
        self.q_col = np.array(moduli, dtype=np.uint64).reshape(-1, 1)
        self.inv_col = np.array(
            [w[1] for w in weights], dtype=np.uint64
        ).reshape(-1, 1)
        self.inv_shoup = np.array(
            [(w[1] << kernels.SHOUP_SHIFT) // q
             for q, w in zip(moduli, weights)],
            dtype=np.uint64,
        ).reshape(-1, 1)

    def digits(self, limbs: np.ndarray) -> np.ndarray:
        d = kernels.shoup_mul(limbs, self.inv_col, self.inv_shoup, self.q_col)
        return kernels.cond_sub(d, self.q_col)


class BaseConversion:
    """Tables for the src -> dst approximate CRT lift ``[x + u*Q]_dst``.

    Shared moduli are row copies; every new modulus row is one row of the
    cached ``(Q/q_i) mod p_j`` matrix times the digit stack.  Under the raw
    headroom bound the whole lift is a single uint64 matmul plus one
    division per new limb.
    """

    __slots__ = ("src", "dst", "decomposer", "copy_pairs", "new_rows",
                 "new_moduli", "mat", "p_col", "raw_ok")

    def __init__(self, src: tuple[int, ...], dst: tuple[int, ...]):
        self.src, self.dst = src, dst
        self.decomposer = get_digit_decomposer(src)
        src_index = {q: i for i, q in enumerate(src)}
        self.copy_pairs = tuple(
            (j, src_index[p]) for j, p in enumerate(dst) if p in src_index
        )
        new = [(j, p) for j, p in enumerate(dst) if p not in src_index]
        self.new_rows = np.array([j for j, _ in new], dtype=np.intp)
        self.new_moduli = tuple(p for _, p in new)
        if self.new_moduli:
            weights = crt_weights(src)
            self.mat = np.array(
                [[w[0] % p for w in weights] for p in self.new_moduli],
                dtype=np.uint64,
            )
            self.p_col = np.array(
                self.new_moduli, dtype=np.uint64
            ).reshape(-1, 1)
            qmax, pmax = max(src), max(self.new_moduli)
            self.raw_ok = len(src) * (qmax - 1) * (pmax - 1) < 1 << 64
        else:
            self.mat = self.p_col = None
            self.raw_ok = False

    def convert(self, limbs: np.ndarray) -> np.ndarray:
        """Lift an ``(L_src, N)`` stack to ``(L_dst, N)`` over ``dst``."""
        n = limbs.shape[-1]
        out = np.empty((len(self.dst), n), dtype=np.uint64)
        for j, i in self.copy_pairs:
            out[j] = limbs[i]
        if self.new_moduli:
            out[self.new_rows] = self._lift(self.decomposer.digits(limbs))
        return out

    def _lift(self, digits: np.ndarray) -> np.ndarray:
        """``sum_i d_i * (Q/q_i) mod p_j`` for every new modulus row."""
        n = digits.shape[-1]
        if not self.raw_ok:
            # Past the headroom bound: reduce each term, sum of < p terms
            # still fits uint64 (L * p < 2^64 for any realistic L).
            rows = np.empty((len(self.new_moduli), n), dtype=np.uint64)
            for r, p in enumerate(self.new_moduli):
                pp = np.uint64(p)
                row_col = self.mat[r].reshape(-1, 1)
                rows[r] = ((digits % pp) * row_col % pp).sum(axis=0) % pp
            return rows
        return (self.mat @ digits) % self.p_col


class WordAccumulator:
    """Raw-uint64 evaluation of the CRT sum ``sum_i d_i * (Q/q_i)``.

    Each weight is decomposed into base-``2^wbits`` words with ``wbits``
    chosen so every word-level raw sum *plus a propagated carry* obeys
    ``L * (q_max-1) * (2^wbits - 1) + 2^32 < 2^64``; the ``(W, L) @ (L, N)``
    uint64 matmul then yields exact word sums.  With the full ``wbits = 32``
    (every default prime set) the word sums are carry-propagated into
    non-overlapping 32-bit limbs in numpy and each coefficient becomes one
    ``int.from_bytes`` call — no big-int multiplies at all.  Narrower word
    sizes recompose by a Horner loop over W object rows (still fewer wide
    multiplies than L big-int weights).  Past the headroom bound (``wbits <
    8``: about 2^24 limbs of 32 bits) the constructor raises ValueError.
    """

    __slots__ = ("moduli", "wbits", "radix", "nwords", "words")

    def __init__(self, moduli: tuple[int, ...]):
        self.moduli = moduli
        L, qmax = len(moduli), max(moduli)
        budget = (1 << 64) - (1 << 32)  # leave room for the running carry
        cap = budget // (L * (qmax - 1)) if qmax > 1 else 1 << 63
        wbits = min(max(cap.bit_length() - 1, 0), 32)
        if wbits < 8:
            raise ValueError(
                f"{L} limbs of up to {qmax.bit_length()} bits exceed the CRT "
                "word accumulator's uint64 headroom"
            )
        self.wbits = wbits
        weights = crt_weights(moduli)
        mask = (1 << wbits) - 1
        nwords = max(
            1, -(-max(w[0] for w in weights).bit_length() // wbits)
        )
        self.words = np.array(
            [[(w[0] >> (k * wbits)) & mask for w in weights]
             for k in range(nwords)],
            dtype=np.uint64,
        )
        self.radix = 1 << wbits
        self.nwords = nwords

    def reconstruct(self, digits: np.ndarray) -> list[int]:
        """Exact unreduced ``sum_i digits[i] * (Q/q_i)`` per column."""
        raw = self.words @ digits  # (W, N) exact word-level sums
        n = raw.shape[-1]
        if self.wbits == 32:
            # Carry-propagate into W+1 disjoint 32-bit limbs (each sum plus
            # carry < 2^64 by the headroom budget), then read every
            # coefficient with a single little-endian from_bytes.
            limbs32 = np.empty((self.nwords + 1, n), dtype=np.uint64)
            carry = np.zeros(n, dtype=np.uint64)
            mask, shift = np.uint64(0xFFFFFFFF), np.uint64(32)
            for k in range(self.nwords):
                tot = raw[k] + carry
                limbs32[k] = tot & mask
                carry = tot >> shift
            limbs32[self.nwords] = carry
            data = np.ascontiguousarray(
                limbs32.astype("<u4").T
            ).tobytes()
            stride = 4 * (self.nwords + 1)
            return [
                int.from_bytes(data[i * stride:(i + 1) * stride], "little")
                for i in range(n)
            ]
        obj = raw.astype(object)  # Horner over W rows of word sums
        acc = obj[-1]
        for k in range(self.nwords - 2, -1, -1):
            acc = acc * self.radix + obj[k]
        return list(acc)


class MixedRadix:
    """Exact Garner mixed-radix form over a small basis ``(p_1, ..., p_k)``.

    ``digits()`` gives the unique ``a`` with
    ``v = a_1 + a_2*p_1 + ... + a_k*(p_1*...*p_{k-1})`` and ``0 <= a_i < p_i``
    for the CRT value ``v in [0, P)`` — O(k^2/2) uint64 vector ops, no big
    ints.  ``residues()`` maps the form to ``v mod m`` for arbitrary target
    moduli via the cached prefix-product residue matrix; ``greater_than()``
    compares ``v`` against a constant lexicographically (most-significant
    digit first), exactly.

    All products are proven < 2^64 for source and target moduli below 2^32,
    which the engine-wide ``2^30`` bound on every basis and plaintext
    modulus implies.
    """

    __slots__ = ("moduli", "k", "modulus", "prefixes", "q_u", "step_mods",
                 "invs", "_thresholds")

    def __init__(self, moduli: tuple[int, ...]):
        self.moduli = moduli
        k = len(moduli)
        self.k = k
        self.modulus = reduce(lambda a, b: a * b, moduli, 1)
        prefixes = [1]
        for q in moduli[:-1]:
            prefixes.append(prefixes[-1] * q)
        self.prefixes = tuple(prefixes)  # prefix_i = p_1 * ... * p_{i-1}
        self.q_u = tuple(np.uint64(q) for q in moduli)
        self.step_mods = tuple(
            np.array([moduli[j] % moduli[i] for j in range(i)],
                     dtype=np.uint64)
            for i in range(k)
        )
        self.invs = (None,) + tuple(
            np.uint64(pow(prefixes[i] % moduli[i], -1, moduli[i]))
            for i in range(1, k)
        )
        self._thresholds: dict[int, np.ndarray] = {}

    def digits(self, limbs: np.ndarray) -> np.ndarray:
        """Mixed-radix digits ``(k, N)`` of the CRT value of ``limbs``."""
        a = np.empty_like(limbs)
        a[0] = limbs[0]
        for i in range(1, self.k):
            qi = self.q_u[i]
            sm = self.step_mods[i]
            # Horner: the partial value a_1 + ... + a_i*prefix_i mod p_{i+1}.
            acc = a[i - 1] % qi
            for j in range(i - 2, -1, -1):
                # acc < q_i and sm[j] < q_i, so acc*sm[j] + a_j < 2^64.
                acc = (acc * sm[j] + a[j]) % qi
            diff = kernels.cond_sub(limbs[i] + (qi - acc), qi)
            a[i] = diff * self.invs[i] % qi
        return a

    def residues(self, a: np.ndarray, dst_moduli: tuple[int, ...]) -> np.ndarray:
        """``v mod m`` for each target m, from the mixed-radix form."""
        mat, raw_ok = _radix_residue_table(self.moduli, tuple(dst_moduli))
        if raw_ok:
            m_col = np.array(dst_moduli, dtype=np.uint64).reshape(-1, 1)
            return (mat @ a) % m_col
        out = np.empty((len(dst_moduli), a.shape[-1]), dtype=np.uint64)
        for r, m in enumerate(dst_moduli):
            mm = np.uint64(m)
            row_col = mat[r].reshape(-1, 1)
            out[r] = ((a % mm) * row_col % mm).sum(axis=0) % mm
        return out

    def threshold_digits(self, value: int) -> np.ndarray:
        """Mixed-radix digits of a constant in ``[0, P)``, cached."""
        cached = self._thresholds.get(value)
        if cached is None:
            cached = np.array(
                [(value // p) % q for p, q in zip(self.prefixes, self.moduli)],
                dtype=np.uint64,
            )
            self._thresholds[value] = cached
        return cached

    def centered_int64(self, limbs: np.ndarray) -> np.ndarray | None:
        """The centered values ``v - P * (v > P//2)`` of ``limbs`` as int64,
        or None when one falls outside int64 (``greater_than`` decides that
        exactly).  ``v`` is a Horner sum over the digits, wrapping mod 2^64."""
        a = self.digits(limbs)
        big = self.greater_than(a, self.modulus // 2)
        if self.modulus > 1 << 63 and not np.where(  # [-2^63, 2^63) holds it?
                big, self.greater_than(a, self.modulus - (1 << 63) - 1),
                ~self.greater_than(a, (1 << 63) - 1)).all():
            return None
        v = a[-1].copy()
        for i in range(self.k - 2, -1, -1):
            v *= self.q_u[i]
            v += a[i]
        np.subtract(v, np.uint64(self.modulus % (1 << 64)), out=v, where=big)
        return v.view(np.int64)

    def greater_than(self, a: np.ndarray, value: int) -> np.ndarray:
        """Exact boolean ``v > value`` per column (lexicographic compare)."""
        h = self.threshold_digits(value)
        n = a.shape[-1]
        greater = np.zeros(n, dtype=bool)
        equal = np.ones(n, dtype=bool)
        for i in range(self.k - 1, -1, -1):
            np.logical_or(greater, equal & (a[i] > h[i]), out=greater)
            np.logical_and(equal, a[i] == h[i], out=equal)
        return greater


@lru_cache(maxsize=None)
def _radix_residue_table(
    src_moduli: tuple[int, ...], dst_moduli: tuple[int, ...]
) -> tuple[np.ndarray, bool]:
    """``prefix_i mod m_j`` matrix + raw-sum eligibility for ``residues``."""
    mr = get_mixed_radix(src_moduli)
    mat = np.array(
        [[p % m for p in mr.prefixes] for m in dst_moduli], dtype=np.uint64
    )
    amax = max(src_moduli) - 1  # digits a_i < p_i
    raw_ok = len(src_moduli) * amax * (max(dst_moduli) - 1) < 1 << 64
    return mat, raw_ok


@lru_cache(maxsize=None)
def get_digit_decomposer(moduli: tuple[int, ...]) -> DigitDecomposer:
    return DigitDecomposer(moduli)


@lru_cache(maxsize=None)
def get_base_conversion(
    src: tuple[int, ...], dst: tuple[int, ...]
) -> BaseConversion:
    return BaseConversion(src, dst)


@lru_cache(maxsize=None)
def get_word_accumulator(moduli: tuple[int, ...]) -> WordAccumulator:
    return WordAccumulator(moduli)


@lru_cache(maxsize=None)
def get_mixed_radix(moduli: tuple[int, ...]) -> MixedRadix:
    return MixedRadix(moduli)
