"""Key switching — the dominant FHE kernel (Sec. 2.4).

Two algorithmic variants, matching the paper's "algorithmic diversity"
discussion (the F1 compiler chooses between them based on L and reuse):

- :func:`key_switch_v1`: the Listing-1 RNS-decomposition method.  Per call:
  L inverse NTTs, L(L-1) forward NTTs (digit i at its own limb i is the
  input row itself), 2L^2 multiplies and 2L^2 adds of N-element vectors;
  hint storage grows as L^2.
- :func:`key_switch_v2`: raised-modulus (GHS-style).  The input is base-
  extended to Q*P (P ≈ Q), multiplied by a single hint pair, and scaled back
  down.  Per call 6L row transforms in 4 calls — L inverse + L forward (the
  special rows) to raise, then for both products 2L inverse (their special
  rows) + 2L forward (the corrections over Q); hints grow only as L.

Polynomials leave the NTT domain only for the limbs whose residues must be
re-expressed under another modulus, so these row counts (and the 2L of a
modulus switch, :func:`repro.fhe.bgv._rescale_bgv`) are exactly the ``NTT``
+ ``INTT`` instructions :mod:`repro.compiler.hecompiler` lowers the same
operation to; ``tests/test_transform_parity.py`` holds the two equal.  One
pair is fused past that lowering: a variant-2 multiply and the rescale that
consumes it (:func:`key_switch_v2_rescale`) are 6L rows in 4 calls, not the
8L in 6 the compiler counts, since both end in a scale-down whose correction
needs coefficients only on the limbs divided away.

All inner loops run on the batched (L, N) residue-matrix engine: variant
1's L(L-1) forward NTTs are **one** batched transform of an (L-1, L, N)
digit stack, variant 2's two products one stacked call per direction, and
the multiply-accumulate against the hint rows is the fused
:func:`~repro.poly.kernels.mul_accumulate` (raw products summed un-reduced
in the uint64 headroom of 28-bit primes, reduced once).  Variant 1's state
is 32-bit words, as F1 stores residues (Sec. 5.3): its hint stacks from
keygen on and its digit stack from the inverse NTT on are uint32, widened
only inside that contraction, which returns uint64 limbs.  Ciphertext
limbs, variant-2 hints and base conversion stay uint64: their products
would be mixed uint32 x uint64 passes, which cost more than a pure pass.

**Hoisting** (Halevi–Shoup): an automorphism commutes with the RNS digit
decomposition, so a ciphertext rotated k ways needs its digit-NTT stack
(:class:`HoistedDecomposition`) only *once*; :func:`key_switch_v1_hoisted`
replays it against any Galois hint with an NTT-domain permutation and the
fused multiply-accumulate.  The hoisted digits differ from those of
``sigma(x)`` by multiples of ``q_i``: ciphertext bits differ, the decrypted
result and the noise bound do not.  The variant-2 analogue, :func:`hoist_raise`,
pays the base extension once, and :func:`key_switch_v2_hoisted` permutes
the raised NTT per rotation and scales all products down in one stack.

Both variants return ``(u0, u1)`` such that ``u0 - u1 * s ≈ x * s_old
(mod Q)`` up to ``t``-multiple noise.  Every modulus and ``t`` is below
2^30 (checked once, when the :class:`~repro.rns.crt.RnsBasis` and
:class:`~repro.fhe.params.FheParams` are built), so :func:`base_extend` and
:func:`scale_down` have one path each; their big-int oracles live in
``tests/kernel_oracles.py``, which ``REPRO_KERNEL_DEBUG=1`` checks in tests.
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

    ``digit_ntt[i]`` is the (L, N) uint32 all-limb NTT of digit i lifted to
    every modulus — what :func:`key_switch_v1` consumes, computed once and
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
    """(L, L, N) uint32 stack: digit i of x, lifted to all L moduli, NTT'd.

    Digit i is INTT(x[i]) with coefficients in [0, q_i); its lift to modulus
    q_j is one conditional subtract when the basis is *balanced*
    (max q < 2 * min q — true for the engine's equal-width prime sets) and a
    general ``%`` otherwise.  The diagonal needs no transform (Listing 1's
    ``if i != j``: NTT(INTT(x[j])) *is* x[j]); the rest goes through one
    batched NTT call, in place, as an (L-1, L, N) stack whose row k, limb j
    holds digit (j+k+1) mod L — the limb axis stays aligned with the
    twiddles — and is scattered back to [digit, limb].
    """
    basis = x.basis
    level = basis.level
    ctx = get_rns_context(x.n, basis.moduli)
    q_col = basis.moduli_column().astype(np.uint32)
    y = ctx.inverse(x.limbs, out=np.empty(x.limbs.shape, np.uint32))  # digits
    limb = np.arange(level)
    out = np.empty((level,) + y.shape, dtype=np.uint32)
    if level > 1:
        digit = (limb + np.arange(1, level)[:, None]) % level
        lifted = y[digit]
        if basis.max_modulus < 2 * min(basis.moduli):
            # out[1:] is free scratch: nothing is written to out before this
            kernels.reduce_once(lifted, q_col, out=lifted, tmp=out[1:])
        else:
            np.remainder(lifted, q_col, out=lifted)
        out[digit, limb] = ctx.forward(lifted, out=lifted)
    out[limb, limb] = x.limbs
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
    extension's ``u*Q`` slack maps to ``sigma(u)*Q``, which the scale-down
    annihilates alike).  All products scale down as one (2r, 2L, N) stack:
    one inverse and one forward transform call for r rotations.
    """
    ext = hints[0].extended
    if x_ext.basis != ext or any(h.extended != ext for h in hints):
        raise ValueError("raised input basis does not match hint basis")
    u = scale_down_stack(_hint_products(x_ext, hints, galois_perms), Domain.NTT,
                         ext, hints[0].special, plaintext_modulus)
    return [(RnsPolynomial(hints[0].basis, u0, Domain.NTT),
             RnsPolynomial(hints[0].basis, u1, Domain.NTT))
            for u0, u1 in zip(u[0::2], u[1::2])]


def _hint_products(x_ext: RnsPolynomial, hints: list[RaisedKeySwitchHint],
                   galois_perms: list[np.ndarray] | None = None) -> np.ndarray:
    """``(2r, 2L, N)``: the raised input (each copy after its optional
    automorphism) times each hint's two halves, over Q*P."""
    q_col = x_ext.basis.moduli_column()
    return np.stack([
        kernels.mul_mod(x_ext.limbs if perm is None else x_ext.limbs[:, perm],
                        h.limbs, q_col)
        for hint, perm in zip(hints, galois_perms or [None] * len(hints))
        for h in (hint.hint0, hint.hint1)])


@instrument("key_switch")
def key_switch_v2_rescale(x: RnsPolynomial, terms: np.ndarray,
                          hint: RaisedKeySwitchHint, t: int) -> np.ndarray:
    """``terms + key_switch_v2(x)`` rescaled by its top limb, as one step.

    ``terms`` is the ``(2, L, N)`` pair the products ``(u0, u1)`` land on (a
    multiply's tensor terms); returns the ``(2, L-1, N)`` NTT-domain limbs
    of the two steps in turn, bit for bit.  Only the corrections need
    coefficients: row L-1 of the products becomes ``terms + u * P^{-1}`` in
    place, so one inverse call brings the rescale's limb along with the
    special rows, the corrections combine in the coefficient domain, and
    one forward call finishes: 6L rows in 4 calls, not 8L in 6.
    """
    if x.domain is not Domain.NTT or x.basis != hint.basis:
        raise ValueError("expected an NTT-domain input at the hint's basis")
    moduli, top = x.basis.moduli, x.basis.level - 1
    u = _hint_products(hoist_raise(x, hint), [hint])
    q_col, p_inv = _scale_down_tables(moduli, hint.special.moduli, t)[:2]
    u[:, top] = (terms[:, top] + u[:, top] * p_inv[top]) % q_col[top]
    rows, corr = scale_down_begin(u, Domain.NTT, hint.extended, hint.special,
                                  t, below=1)
    kept = (terms[:, :top] + u[:, :top] * p_inv[:top]) % q_col[:top]
    return scale_down_finish(kept, drop_limbs(rows, corr, moduli, t),
                             Domain.NTT, moduli[:top], moduli[top:], t)


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
def scale_down(x: RnsPolynomial, special: RnsBasis,
               plaintext_modulus: int) -> RnsPolynomial:
    """Divide-and-round by P = prod(special), keeping the result ≡ 0 shift mod t.

    ``x`` is over Q*P (special limbs last); returns round-to-multiple result
    over Q **in the domain x arrived in**, where the subtracted correction
    ``delta ≡ x (mod P)`` and ``delta ≡ 0 (mod t)`` so BGV plaintexts survive
    unscathed apart from the tracked ``P^{-1} mod t`` factor.

    Only ``delta`` needs coefficients (an NTT-domain input transforms its
    special limbs and ``delta`` alone; the per-limb NTT is a ring
    isomorphism, so the limbs are bit for bit the coefficient result's NTT).
    ``v = [x]_P`` rides in Garner mixed-radix form
    (:class:`repro.rns.convert.MixedRadix`), uint64 vector ops only.
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
    level = ext.level - special.level
    corr = scale_down_begin(limbs, domain, ext, special, t)[1]
    return scale_down_finish(limbs[..., :level, :], corr, domain,
                             ext.moduli[:level], special.moduli, t)


def scale_down_begin(limbs: np.ndarray, domain: Domain, ext: RnsBasis,
                     special: RnsBasis, t: int, below: int = 0):
    """The inverse-plus-correction half of :func:`scale_down_stack`: one
    inverse call brings the special limbs, and the ``below`` limbs under
    them that later drops divide away (:func:`drop_limbs`), to coefficients.
    Returns those ``below`` rows and ``delta / P mod q_j`` over all of Q."""
    n_special = special.level
    if ext.moduli[-n_special:] != special.moduli:
        raise ValueError("special basis must be the trailing limbs of x's basis")
    start = ext.level - n_special - below
    tail = limbs[..., start:, :]
    if domain is Domain.NTT:
        tail = get_rns_context(limbs.shape[-1], ext.moduli).inverse(
            tail, start=start)
    return tail[..., :below, :], _scale_down_correction(
        tail[..., below:, :], ext.moduli[:start + below], special.moduli, t)


def drop_limbs(rows: np.ndarray, corr: np.ndarray, moduli: tuple[int, ...],
               t: int) -> np.ndarray:
    """Carry a scale-down's correction ``corr`` (over ``moduli``) through
    one-limb drops of the top ``m`` limbs, whose coefficients ``rows`` are
    already divided by what went before (a limb's value is row - corr).
    Each drop makes ``corr * q_top^{-1} + delta_top / q_top`` over the limbs
    under it; returns the correction over the ``len(moduli) - m`` kept."""
    base = len(moduli) - rows.shape[-2]
    for i in reversed(range(rows.shape[-2])):
        keep = base + i
        q_top = np.uint64(moduli[keep])
        value = (rows[..., i:i + 1, :] + (q_top - corr[..., keep:keep + 1, :])
                 ) % q_top
        top = moduli[keep:keep + 1]
        q_col, q_inv = _scale_down_tables(moduli[:keep], top, t)[:2]
        corr = (corr[..., :keep, :] * q_inv + _scale_down_correction(
            value, moduli[:keep], top, t)) % q_col
        rows = rows[..., :i, :] * q_inv[base:keep] % q_col[base:keep]
    return corr


def scale_down_finish(kept: np.ndarray, corr: np.ndarray, domain: Domain,
                      moduli: tuple[int, ...], dropped: tuple[int, ...],
                      t: int) -> np.ndarray:
    """The forward-plus-combine half of :func:`scale_down_stack`: ``kept *
    P^{-1} - delta / P`` over ``moduli`` (``P = prod(dropped)``), one forward
    call for an NTT-domain stack; products stay below ``q^2 + q``."""
    if domain is Domain.NTT:
        corr = get_rns_context(kept.shape[-1], moduli).forward(corr)
    q_col, p_inv_col = _scale_down_tables(moduli, dropped, t)[:2]
    return (kept * p_inv_col + (q_col - corr)) % q_col


def _scale_down_correction(
    tail: np.ndarray, q_moduli: tuple[int, ...],
    special_moduli: tuple[int, ...], t: int,
) -> np.ndarray:
    """``delta / P mod q_j`` from the special limbs' coefficients ``tail``
    (``(..., k, N)`` -> ``(..., L, N)``), object-free; see
    :func:`scale_down` for the contract.

    With ``v = [x]_P in [0, P)``, ``big = (v > P//2)`` marking where the
    centered value is ``v_c = v - P``, and ``w_c`` the centered ``w = [-v_c
    * P^{-1}]_t`` (which needs only ``v_c mod t``): ``delta = v_c + P *
    w_c``, so ``delta / P = v * P^{-1} + w - big - big_w * t (mod q)``.  The
    two centerings pick one of four constants per limb, and ``v*P^{-1} + w +
    constant < q^2 + 2^33 < 2^64`` for ``q, t < 2^30``: one division.
    """
    q_col, p_inv_col, centering, p_inv_t, p_mod_t, half = _scale_down_tables(
        q_moduli, special_moduli, t)
    lead, n = tail.shape[:-2], tail.shape[-1]
    mr = convert.get_mixed_radix(special_moduli)
    a = mr.digits(np.moveaxis(tail, -2, 0).reshape(len(special_moduli), -1))
    big = mr.greater_than(a, half)
    raw = mr.residues(a, q_moduli) * p_inv_col
    case = big.astype(np.intp)
    if t > 1:
        tt = np.uint64(t)
        vt = mr.residues(a, (t,))[0]
        c_t = np.uint64(t - p_mod_t)  # == t when P ≡ 0 (mod t)
        vt_c = np.where(big, kernels.cond_sub(vt + c_t, tt), vt)
        w = kernels.cond_sub(tt - vt_c, tt) * p_inv_t % tt
        raw += w
        case += 2 * (w > np.uint64(t // 2))  # centered w is w - t there
    raw += centering[:, case]
    corr = raw % q_col
    return np.moveaxis(corr.reshape((len(q_moduli),) + lead + (n,)), 0, -2)


@lru_cache(maxsize=None)
def _scale_down_tables(
    q_moduli: tuple[int, ...], special_moduli: tuple[int, ...], t: int
):
    """Per-(basis, special, t) constants for the object-free scale-down:
    the ``q`` column, ``P^{-1} mod q``, the ``(L, 4)`` centering constants
    ``-(big + big_w * t) mod q`` indexed by ``big + 2 * big_w``, ``P^{-1}
    mod t``, ``P mod t`` and ``P // 2``."""
    p_product = 1
    for p in special_moduli:
        p_product *= p
    q_col = np.array(q_moduli, dtype=np.uint64).reshape(-1, 1)
    p_inv_col = np.array(
        [pow(p_product % q, -1, q) for q in q_moduli], dtype=np.uint64
    ).reshape(-1, 1)
    centering = np.array(
        [[(-(case & 1) - (case >> 1) * t) % q for case in range(4)]
         for q in q_moduli], dtype=np.uint64)
    p_inv_t = np.uint64(pow(p_product % t, -1, t)) if t > 1 else np.uint64(0)
    return q_col, p_inv_col, centering, p_inv_t, p_product % t, p_product // 2
