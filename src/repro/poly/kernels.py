"""Centralized modular-arithmetic kernels for the batched residue engine.

Every hot path in the engine — NTT butterflies, element-wise ciphertext
arithmetic, the key-switch inner loop — bottoms out in a handful of modular
primitives.  numpy's ``uint64 %`` is an order of magnitude slower than a
vectorized multiply or add (hardware integer division), so this module
replaces division with two cheaper techniques, mirroring how the paper's
modular multipliers avoid generic division in hardware (Sec. 5.3):

1. **Conditional subtraction** (:func:`cond_sub`): a value known to lie in
   ``[0, 2q)`` is reduced to ``[0, q)`` with a single subtract-and-select.
   We use the unsigned-wraparound trick ``min(x, x - q)``: when ``x < q``
   the subtraction wraps above ``x`` so the minimum keeps ``x``; when
   ``x >= q`` it yields the reduced value, which is smaller.  Sound
   whenever ``x < 2q`` and ``2q`` fits the word (uint64, or the NTT's uint32).

2. **Harvey/Shoup lazy multiplication** (:func:`shoup_mul`,
   :func:`shoup_mul32`): with a precomputed scaled twiddle
   ``w' = floor(w * 2^32 / q)`` the product ``x*w mod q`` is obtained
   *division-free* as ``x*w - q*((x*w') >> 32)``, landing in the *lazy*
   range ``[0, 2q)`` (see the proofs in the two functions).
   :func:`shoup_mul` is the uint64 form, used by the digit decomposer of
   :mod:`repro.rns.convert`; :func:`shoup_mul32` is the NTT butterflies'
   form at the paper's 32-bit word size, the shift a view of the high word.

Every modulus is below 2^30, checked once where a basis is built
(:data:`repro.rns.crt.MAX_MODULUS`), so both Shoup forms and the NTT's
``[0, 4q)`` range hold for every basis.  Results are bit-identical to the
strict ``%`` formulas, because every lazy intermediate is congruent mod q
to its strict counterpart and the final reduction is exact.  The kernels
here guard only the headroom bounds that also depend on operand counts.

Debug validation: set the environment variable ``REPRO_KERNEL_DEBUG=1`` (or
flip :data:`DEBUG_VALIDATE`) to assert the reduced-input invariants that the
fast paths rely on instead of re-reducing defensively.  The test suite's
``tests/conftest.py`` reads the same flag at call time to compare every
``base_extend`` / ``scale_down_stack`` call with its big-int oracle.
"""

from __future__ import annotations

import os
import sys

import numpy as np

from repro.obs.profile import instrument

#: The scaling shift of :func:`shoup_mul`: partners are
#: ``floor(w * 2^SHOUP_SHIFT / q)``.
SHOUP_SHIFT = 32

#: When True, kernels assert their documented input invariants (values
#: reduced below their moduli).  Enabled by REPRO_KERNEL_DEBUG=1; cheap enough
#: for tests, off by default for production hot paths.
DEBUG_VALIDATE = os.environ.get("REPRO_KERNEL_DEBUG", "") not in ("", "0")


def _validate_reduced(x: np.ndarray, q, what: str) -> None:
    if DEBUG_VALIDATE:
        assert np.all(x < q), f"{what}: operand not reduced below modulus"


# --------------------------------------------------------------- reduction
def cond_sub(x: np.ndarray, q, out: np.ndarray | None = None,
             tmp: np.ndarray | None = None) -> np.ndarray:
    """Reduce ``x in [0, 2q)`` to ``[0, q)`` by one conditional subtract.

    Implemented as ``min(x, x - q)`` on unsigned words of ``b`` bits (uint64,
    or the NTT plan's uint32): for ``x < q`` the subtract wraps to
    ``x + (2^b - q) > x`` (since ``x < 2q <= 2^b``), so the minimum is
    ``x``; for ``x >= q`` it is the in-range difference ``x - q < q <= x``.  One vector subtract + one vector min — no division,
    no boolean select.  ``tmp`` receives the difference and ``out`` the
    result when given (``out`` may be ``x`` or ``tmp``; ``tmp`` may not be
    ``x``); without them each pass allocates.
    """
    return np.minimum(x, np.subtract(x, q, out=tmp), out=out)


#: :func:`cond_sub` under the name call sites use when the ``[0, 2q)``
#: precondition comes from *cross-modulus* data (e.g. lifting a digit in
#: ``[0, q_i)`` to modulus ``q_j`` with ``q_i < 2*q_j``).
reduce_once = cond_sub


# ------------------------------------------------------- element-wise ring ops
def add_mod(x: np.ndarray, y: np.ndarray, q) -> np.ndarray:
    """``(x + y) mod q`` for reduced inputs — division-free.

    ``x, y in [0, q)`` gives ``x + y in [0, 2q)``; with the engine-wide
    ``q < 2^30`` the sum is below ``2^31``, far from uint64 wrap, and one
    :func:`cond_sub` finishes the job.
    """
    _validate_reduced(x, q, "add_mod lhs")
    _validate_reduced(y, q, "add_mod rhs")
    return cond_sub(x + y, q)


def sub_mod(x: np.ndarray, y: np.ndarray, q) -> np.ndarray:
    """``(x - y) mod q`` for reduced inputs — division-free.

    ``x + (q - y) in [0, 2q)`` when both operands are already reduced (the
    engine-wide invariant; no defensive re-reduction of ``y``), so one
    :func:`cond_sub` suffices.
    """
    _validate_reduced(x, q, "sub_mod lhs")
    _validate_reduced(y, q, "sub_mod rhs")
    return cond_sub(x + (q - y), q)


def neg_mod(x: np.ndarray, q) -> np.ndarray:
    """``(-x) mod q`` for reduced input: ``q - x in (0, q]``, fixed up to
    ``[0, q)`` (the ``x == 0`` slots) by one :func:`cond_sub`."""
    _validate_reduced(x, q, "neg_mod")
    return cond_sub(q - x, q)


def mul_mod(x: np.ndarray, y: np.ndarray, q) -> np.ndarray:
    """``(x * y) mod q`` for reduced inputs; products fit uint64 for q < 2^30.

    The one place a true division remains; Shoup multiplication needs a
    precomputed partner (see :func:`shoup_mul`) so generic value-times-value
    products pay the ``%``.
    """
    _validate_reduced(x, q, "mul_mod lhs")
    _validate_reduced(y, q, "mul_mod rhs")
    return (x * y) % q


def fused_mul_add(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray,
                  q) -> np.ndarray:
    """``(a*b + c*d) mod q`` with a single reduction.

    Used by the tensor-product middle term ``l1 = a0*b1 + a1*b0`` of
    homomorphic multiplication.  Both products are below ``(q-1)^2``, so the
    sum stays below ``2*(q-1)^2 < 2^61`` under the engine-wide ``q < 2^30``.
    """
    return (a * b + c * d) % q


@instrument("modmul_mac")
def mul_accumulate(stack_a: np.ndarray, stack_b: np.ndarray,
                   q_col: np.ndarray, qmax: int) -> np.ndarray:
    """``sum_k stack_a[k] * stack_b[k] mod q`` — the key-switch inner loop.

    ``stack_a``/``stack_b`` are ``(K, L, N)`` uint32 or uint64 residue-matrix
    stacks (the key switch's are uint32) with ``q_col`` the ``(L, 1)``
    modulus column and ``qmax`` its widest modulus
    (:attr:`repro.rns.crt.RnsBasis.max_modulus`).  Each product, formed in
    uint64, is below ``(q-1)^2``; when ``K * (q-1)^2 < 2^64`` (28-bit primes
    up to K = 256 terms, 30-bit ones up to K = 16) the raw products are
    summed *unreduced* and a single division per output limb finishes —
    2K-2 fewer reductions than the reduce-accumulate-reduce loop it
    replaces.  Otherwise each product is reduced first and the sum of K
    reduced terms (< K * 2^30 < 2^64 for any realistic K) still needs only
    one final division.  Returns uint64.
    """
    k = stack_a.shape[0]
    if k * (qmax - 1) ** 2 < 1 << 64:
        return np.einsum("kln,kln->ln", stack_a, stack_b,
                         dtype=np.uint64) % q_col
    products = np.multiply(stack_a, stack_b, dtype=np.uint64)
    return (products % q_col[None]).sum(axis=0) % q_col


# --------------------------------------------------- Shoup lazy multiplication
def shoup_mul(x: np.ndarray, w: np.ndarray, w_shoup: np.ndarray,
              q) -> np.ndarray:
    """Division-free ``x * w mod q`` into the lazy range ``[0, 2q)``.

    Preconditions (with ``s =`` :data:`SHOUP_SHIFT` ``= 32`` and the
    engine-wide ``q < 2^30``):

    - ``x < 2q`` (lazy operand), ``w < q`` (precomputed constant),
      ``w_shoup = floor(w * 2^s / q) < 2^s``;
    - ``x * w < 2q * q < 2^61`` and ``x * w_shoup < 2q * 2^s <= 2^63``,
      so both products fit uint64 exactly.

    With ``est = (x * w_shoup) >> s``: writing ``w_shoup = (w*2^s - r)/q``
    for ``r in [0, q)``, we get ``x*w_shoup/2^s = x*w/q - x*r/(q*2^s)`` and
    ``x*r/(q*2^s) < x/2^s < 2q/2^s < 1``, so ``est`` is the true quotient or
    one less and the remainder ``x*w - q*est`` lies in ``[0, 2q)``.
    ``est <= x*w/q`` always, so the final subtraction never underflows.

    All intermediates are congruent to ``x*w`` mod q, so downstream exact
    reduction yields bit-identical results to the strict ``%`` path.
    """
    est = x * w_shoup
    np.right_shift(est, np.uint64(SHOUP_SHIFT), out=est)
    np.multiply(est, q, out=est)
    return np.subtract(x * w, est, out=est)


#: Index of a uint64's high word when it is viewed as two uint32.
_HIGH_WORD = 1 if sys.byteorder == "little" else 0


def shoup_mul32(x: np.ndarray, w: np.ndarray, w_shoup: np.ndarray, q,
                wide: np.ndarray, tmp: np.ndarray,
                out: np.ndarray) -> np.ndarray:
    """Division-free ``x * w mod q`` into ``[0, 2q)`` on 32-bit words.

    For ``q < 2^30``: ``x < 4q`` and ``w < q`` are uint32, ``w_shoup =
    floor(w * 2^32 / q) < 2^32`` is uint64, as is the C-contiguous scratch
    ``wide``; ``tmp`` and ``out`` are uint32 (``out`` may be ``x`` or a
    strided view, ``tmp`` may not be ``x``).  ``x * w_shoup < 2^64`` is the
    one wide pass and its high word, read as a view, is the quotient
    estimate: the true ``floor(x*w / q)`` or one less, because the error
    ``x*r / (q * 2^32)`` (``r < q`` the partner's remainder) is below
    ``x / 2^32 < 1``.  So ``x*w - q*est`` lies in ``[0, 2q)``, below
    ``2^31``, and its low 32 bits - two wrapping uint32 products and a
    subtract - are the whole value.
    """
    np.multiply(x, w_shoup, out=wide)
    np.multiply(wide.view(np.uint32)[..., _HIGH_WORD::2], q, out=tmp)
    np.multiply(x, w, out=out)
    return np.subtract(out, tmp, out=out)
