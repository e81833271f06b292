"""Key switching — the dominant FHE kernel (Sec. 2.4).

Two algorithmic variants, matching the paper's "algorithmic diversity"
discussion (the F1 compiler chooses between them based on L and reuse):

- :func:`key_switch_v1`: the Listing-1 RNS-decomposition method.  Per call:
  L inverse NTTs, L(L-1) forward NTTs (digit i at its own limb i is the
  input row itself), 2L^2 multiplies and 2L^2 adds of N-element vectors;
  hint storage grows as L^2.
- :func:`key_switch_v2`: raised-modulus (GHS-style).  The input is base-
  extended to Q*P (P ≈ Q), multiplied by a single hint pair, and scaled back
  down.  Per call 6L row transforms — L inverse + L forward (the special
  rows) to raise, then per product L inverse (its special rows) + L forward
  (the correction over Q) — and two base conversions; hints grow only as L.

Polynomials leave the NTT domain only for the limbs whose residues must be
re-expressed under another modulus, so these row counts (and the 2L of a
modulus switch, :func:`repro.fhe.bgv._rescale_bgv`) are exactly the ``NTT``
+ ``INTT`` instructions :mod:`repro.compiler.hecompiler` lowers the same
operation to; ``tests/test_transform_parity.py`` holds the two equal.

All inner loops run on the batched (L, N) residue-matrix engine:

- variant 1's L(L-1) forward NTTs are **one** batched transform of an
  (L-1, L, N) digit stack, variant 2's two products one stacked call per
  direction (a call's fixed cost at N = 1024 is three rows' worth);
- the multiply-accumulate against the hint rows is the fused
  :func:`~repro.poly.kernels.mul_accumulate` — raw products are summed
  un-reduced (28-bit primes leave 8+ bits of uint64 headroom for the L-term
  sum) and reduced once, instead of two reductions per term.

**Hoisting** (Halevi–Shoup): an automorphism commutes with the RNS digit
decomposition — ``sigma_k(D_i(x)) ≡ D_i(sigma_k(x)) (mod q_i)`` with the
same smallness bound — so a ciphertext rotated k ways needs its digit-NTT
stack computed only *once*.  :class:`HoistedDecomposition` captures that
stack; :func:`key_switch_v1_hoisted` replays it against any Galois hint with
just an NTT-domain permutation and the fused multiply-accumulate, skipping
the L inverse + L(L-1) forward NTTs per extra rotation.  (The hoisted digits
are ``sigma`` of the canonical digits, which differ from the canonical
digits of ``sigma(x)`` by multiples of ``q_i`` — ciphertext bits differ, but
the decrypted result and the noise bound are the same; tests pin down exact
BGV plaintext equality.)  The variant-2 analogue hoists the base extension:
:func:`hoist_raise` pays the inverse NTT, the extension and the special
rows' NTT once, and :func:`key_switch_v2_hoisted` permutes the extended NTT
per rotation and scales every rotation's products down in one stack.

Both variants return ``(u0, u1)`` such that ``u0 - u1 * s ≈ x * s_old
(mod Q)`` up to ``t``-multiple noise.

Every modulus and ``t`` is below 2^32 (checked once, when the
:class:`~repro.rns.crt.RnsBasis` and :class:`~repro.fhe.params.FheParams`
are built), so :func:`base_extend` and :func:`scale_down` have one path
each.  Their big-int oracles live in ``tests/kernel_oracles.py``; under
``REPRO_KERNEL_DEBUG=1`` the test suite checks every call against them.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.fhe.keys import KeySwitchHint, RaisedKeySwitchHint
from repro.obs.profile import instrument
from repro.poly import kernels
from repro.poly.ntt import get_rns_context
from repro.poly.polynomial import Domain, RnsPolynomial
from repro.rns import convert
from repro.rns.crt import RnsBasis


class HoistedDecomposition:
    """The reusable digit-NTT stack of one NTT-domain polynomial.

    ``digit_ntt[i]`` is the (L, N) all-limb NTT of digit i lifted to every
    modulus — exactly what :func:`key_switch_v1` consumes, computed once and
    shared across any number of Galois hints (Halevi–Shoup hoisting).
    """

    def __init__(self, x: RnsPolynomial):
        if x.domain is not Domain.NTT:
            raise ValueError("hoisted decomposition expects an NTT-domain input")
        self.basis = x.basis
        self.n = x.n
        self.digit_ntt = _digit_ntt_stack(x)

    def key_switch(self, hint: KeySwitchHint, galois_perm: np.ndarray | None = None,
                   ) -> tuple[RnsPolynomial, RnsPolynomial]:
        """Key-switch the (optionally automorphed) decomposed polynomial."""
        return key_switch_v1_hoisted(self, hint, galois_perm)


def _digit_ntt_stack(x: RnsPolynomial) -> np.ndarray:
    """(L, L, N) stack: digit i of x, lifted to all L moduli, NTT'd.

    Digit i is INTT(x[i]) with coefficients in [0, q_i); its lift to modulus
    q_j is one conditional subtract when the basis is *balanced*
    (max q < 2 * min q — true for the engine's equal-width prime sets) and a
    general ``%`` otherwise.  The diagonal needs no transform (Listing 1's
    ``if i != j``: NTT(INTT(x[j])) *is* x[j]); the rest goes through one
    batched NTT call as an (L-1, L, N) stack whose row k, limb j holds digit
    (j+k+1) mod L — the limb axis stays aligned with the twiddles — and is
    scattered back to [digit, limb].
    """
    basis = x.basis
    level = basis.level
    ctx = get_rns_context(x.n, basis.moduli)
    q_col = basis.moduli_column()
    y = ctx.inverse(x.limbs)  # row i = digit polynomial INTT(x[i], q_i)
    limb = np.arange(level)
    out = np.empty((level,) + y.shape, dtype=np.uint64)
    out[limb, limb] = x.limbs
    if level > 1:
        digit = (limb + np.arange(1, level)[:, None]) % level
        lifted = y[digit]
        if basis.max_modulus < 2 * min(basis.moduli):
            kernels.reduce_once(lifted, q_col, out=lifted)
        else:
            np.remainder(lifted, q_col, out=lifted)
        out[digit, limb] = ctx.forward(lifted)
    return out


@instrument("key_switch")
def key_switch_v1(x: RnsPolynomial, hint: KeySwitchHint) -> tuple[RnsPolynomial, RnsPolynomial]:
    """Listing 1: RNS-digit decomposition key switch, batched across limbs.

    ``x`` must be NTT-domain at the hint's basis.
    """
    if x.domain is not Domain.NTT:
        raise ValueError("key_switch_v1 expects an NTT-domain input")
    if x.basis != hint.basis:
        raise ValueError("input basis does not match hint basis")
    return key_switch_v1_hoisted(HoistedDecomposition(x), hint)


@instrument("key_switch_hoisted")
def key_switch_v1_hoisted(
    dec: HoistedDecomposition,
    hint: KeySwitchHint,
    galois_perm: np.ndarray | None = None,
) -> tuple[RnsPolynomial, RnsPolynomial]:
    """Consume a hoisted digit stack: optional NTT permutation + fused MAC.

    ``galois_perm`` is the NTT-domain index permutation of the automorphism
    (see :func:`~repro.poly.automorphism.automorphism_ntt_permutation`);
    applying it to the digit stack equals decomposing the automorphed
    polynomial up to multiples of q_i, which the key-switch identity absorbs.
    """
    if dec.basis != hint.basis:
        raise ValueError("decomposition basis does not match hint basis")
    basis = dec.basis
    q_col = basis.moduli_column()
    digit_ntt = dec.digit_ntt
    if galois_perm is not None:
        digit_ntt = digit_ntt[:, :, galois_perm]
    u0 = kernels.mul_accumulate(digit_ntt, hint.stack0, q_col,
                                basis.max_modulus)
    u1 = kernels.mul_accumulate(digit_ntt, hint.stack1, q_col,
                                basis.max_modulus)
    return (
        RnsPolynomial(basis, u0, Domain.NTT),
        RnsPolynomial(basis, u1, Domain.NTT),
    )


@instrument("key_switch")
def key_switch_v2(
    x: RnsPolynomial,
    hint: RaisedKeySwitchHint,
    plaintext_modulus: int,
) -> tuple[RnsPolynomial, RnsPolynomial]:
    """Raised-modulus key switch: base-extend, one hint multiply, scale down."""
    if x.domain is not Domain.NTT:
        raise ValueError("key_switch_v2 expects an NTT-domain input")
    if x.basis != hint.basis:
        raise ValueError("input basis does not match hint basis")
    return key_switch_v2_hoisted(hoist_raise(x, hint), [hint],
                                 plaintext_modulus)[0]


def hoist_raise(x: RnsPolynomial, hint: RaisedKeySwitchHint) -> RnsPolynomial:
    """The reusable raised form of ``x``: base-extended to Q*P, NTT domain.

    ``x``'s own rows *are* the raised form's Q rows, so the cost is an
    inverse NTT of ``x``, the base extension, and a forward NTT of the
    special rows alone; rotations sharing one input reuse it (the variant-2
    hoisting analogue — the per-rotation work drops to a permutation, two
    multiplies, and the scale-downs).
    """
    level = x.basis.level
    lifted = base_extend(x.to_coeff(), hint.extended).limbs
    ctx = get_rns_context(x.n, hint.extended.moduli)
    raised = np.concatenate(
        [x.limbs, ctx.forward(lifted[level:], start=level)])
    return RnsPolynomial(hint.extended, raised, Domain.NTT)


@instrument("key_switch_hoisted")
def key_switch_v2_hoisted(
    x_ext: RnsPolynomial,
    hints: list[RaisedKeySwitchHint],
    plaintext_modulus: int,
    galois_perms: list[np.ndarray] | None = None,
) -> list[tuple[RnsPolynomial, RnsPolynomial]]:
    """Variant-2 core on a raised input: one ``(u0, u1)`` per hint, each
    after its optional NTT-domain automorphism.

    Permuting the extended NTT equals raising the automorphed input (the
    extension's ``u*Q`` slack maps to ``sigma(u)*Q``, equally small and
    equally annihilated mod Q by the scale-down).  Every hint's two products
    are scaled down as one (2r, 2L, N) stack, so r rotations of one input
    pay one inverse and one forward transform call between them.
    """
    ext = hints[0].extended
    if x_ext.basis != ext or any(h.extended != ext for h in hints):
        raise ValueError("raised input basis does not match hint basis")
    q_col = ext.moduli_column()
    u_ext = np.stack([
        kernels.mul_mod(x_ext.limbs if perm is None else x_ext.limbs[:, perm],
                        h.limbs, q_col)
        for hint, perm in zip(hints, galois_perms or [None] * len(hints))
        for h in (hint.hint0, hint.hint1)])
    u = scale_down_stack(u_ext, Domain.NTT, ext, hints[0].special,
                         plaintext_modulus)
    return [(RnsPolynomial(hints[0].basis, u0, Domain.NTT),
             RnsPolynomial(hints[0].basis, u1, Domain.NTT))
            for u0, u1 in zip(u[0::2], u[1::2])]


@instrument("base_extend")
def base_extend(x: RnsPolynomial, extended: RnsBasis) -> RnsPolynomial:
    """Fast RNS base extension (coefficient domain -> coefficient domain).

    Computes ``x + u*Q`` over the extended basis for some small integer
    polynomial ``u`` with ``0 <= u < L`` (the standard approximate CRT lift;
    the ``u*Q`` term is annihilated by the subsequent scale-down mod Q).

    The whole lift runs on cached per-basis-pair conversion tables
    (:class:`repro.rns.convert.BaseConversion`): Shoup digit extraction plus
    one raw uint64 matmul against the ``(Q/q_i) mod p_j`` matrix.  It equals
    the per-target-modulus oracle in ``tests/kernel_oracles.py`` bit for bit.
    """
    if x.domain is not Domain.COEFF:
        raise ValueError("base_extend expects a coefficient-domain input")
    conv = convert.get_base_conversion(x.basis.moduli, extended.moduli)
    return RnsPolynomial(extended, conv.convert(x.limbs), Domain.COEFF)


@instrument("scale_down")
def scale_down(
    x: RnsPolynomial,
    special: RnsBasis,
    plaintext_modulus: int,
) -> RnsPolynomial:
    """Divide-and-round by P = prod(special), keeping the result ≡ 0 shift mod t.

    ``x`` is over Q*P (special limbs last); returns round-to-multiple result
    over Q **in the domain x arrived in**, where the subtracted correction
    ``delta ≡ x (mod P)`` and ``delta ≡ 0 (mod t)`` so BGV plaintexts survive
    unscathed apart from the tracked ``P^{-1} mod t`` factor.

    Only ``delta`` needs coefficients: an NTT-domain input has its special
    limbs inverse-transformed and ``delta`` over Q forward-transformed, and
    the subtraction finishes in the NTT domain (a per-limb ring isomorphism,
    so the limbs equal the coefficient-domain result's NTT bit for bit); a
    coefficient-domain input transforms nothing.

    Hot path: the exact value ``v = [x]_P`` is carried in Garner mixed-radix
    form (:class:`repro.rns.convert.MixedRadix`) — raw uint64 vector ops
    only — and ``delta / P mod q_j`` is assembled directly from ``v mod
    q_j``, ``v > P/2`` and the centered correction, never materializing
    big-int object arrays.  It equals the object-array oracle in
    ``tests/kernel_oracles.py`` bit for bit.
    """
    out = scale_down_stack(x.limbs, x.domain, x.basis, special,
                            plaintext_modulus)
    return RnsPolynomial(RnsBasis(x.basis.moduli[:-special.level]), out,
                         x.domain)


def scale_down_stack(
    limbs: np.ndarray, domain: Domain, ext: RnsBasis, special: RnsBasis, t: int
) -> np.ndarray:
    """:func:`scale_down` on a ``(..., L_ext, N)`` stack of residue matrices
    in ``domain``: one inverse and one forward transform call for the lot."""
    n_special = special.level
    if ext.moduli[-n_special:] != special.moduli:
        raise ValueError("special basis must be the trailing limbs of x's basis")
    level, n = ext.level - n_special, limbs.shape[-1]
    basis_q = RnsBasis(ext.moduli[:level])
    ntt = domain is Domain.NTT
    tail = limbs[..., level:, :]
    if ntt:
        tail = get_rns_context(n, ext.moduli).inverse(tail, start=level)
    # The correction is per-coefficient work on (limbs, coefficients)
    # matrices: the leading axes ride along the coefficient axis.
    corr = _scale_down_correction(
        np.moveaxis(tail, -2, 0).reshape(n_special, -1), basis_q, special, t)
    corr = np.moveaxis(corr.reshape((level,) + limbs.shape[:-2] + (n,)), 0, -2)
    if ntt:
        corr = get_rns_context(n, basis_q.moduli).forward(corr)
    q_col = basis_q.moduli_column()
    p_inv_col = _scale_down_tables(basis_q.moduli, special.moduli, t)[0]
    # (x - delta) / P as x * P^{-1} - delta / P; products stay < q^2 + q.
    return (limbs[..., :level, :] * p_inv_col + (q_col - corr)) % q_col


def _scale_down_correction(
    tail: np.ndarray, basis_q: RnsBasis, special: RnsBasis, t: int
) -> np.ndarray:
    """``delta / P mod q_j`` from the special limbs' coefficients ``tail``
    (``(k, M)``), object-free; see :func:`scale_down` for the contract.

    With ``v = [x]_P in [0, P)``, ``big = (v > P//2)`` marking where the
    centered value is ``v_c = v - P``, and ``w_c`` the centered ``w = [-v_c
    * P^{-1}]_t`` (which needs only ``v_c mod t``): ``delta = v_c + P *
    w_c``, so ``delta / P = v * P^{-1} + w - big - big_w * t (mod q)``.  The
    two centerings pick one of four constants per limb, and ``v*P^{-1} + w +
    constant < q^2 + 2^33 < 2^64`` for ``q, t < 2^32``: one division.
    """
    p_inv_col, centering, p_inv_t, half = _scale_down_tables(
        basis_q.moduli, special.moduli, t)
    mr = convert.get_mixed_radix(special.moduli)
    a = mr.digits(tail)
    big = mr.greater_than(a, half)
    raw = mr.residues(a, basis_q.moduli) * p_inv_col
    case = big.astype(np.intp)
    if t > 1:
        tt = np.uint64(t)
        vt = mr.residues(a, (t,))[0]
        c_t = np.uint64(t - special.modulus % t)  # == t when P ≡ 0 (mod t)
        vt_c = np.where(big, kernels.cond_sub(vt + c_t, tt), vt)
        w = kernels.cond_sub(tt - vt_c, tt) * p_inv_t % tt
        raw += w
        case += 2 * (w > np.uint64(t // 2))  # centered w is w - t there
    raw += centering[:, case]
    return raw % basis_q.moduli_column()


@lru_cache(maxsize=None)
def _scale_down_tables(
    q_moduli: tuple[int, ...], special_moduli: tuple[int, ...], t: int
):
    """Per-(basis, special, t) constants for the object-free scale-down:
    ``P^{-1} mod q``, the ``(L, 4)`` centering constants ``-(big + big_w * t)
    mod q`` indexed by ``big + 2 * big_w``, ``P^{-1} mod t`` and ``P // 2``."""
    p_product = 1
    for p in special_moduli:
        p_product *= p
    p_inv_col = np.array(
        [pow(p_product % q, -1, q) for q in q_moduli], dtype=np.uint64
    ).reshape(-1, 1)
    centering = np.array(
        [[(-(case & 1) - (case >> 1) * t) % q for case in range(4)]
         for q in q_moduli], dtype=np.uint64)
    p_inv_t = np.uint64(pow(p_product % t, -1, t)) if t > 1 else np.uint64(0)
    return p_inv_col, centering, p_inv_t, p_product // 2
