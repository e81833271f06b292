"""Big-int oracles for the RNS conversion kernels, the per-digit Listing-1
key switch, the per-limb GSW external product, the strict ``%`` NTT, and
the debug hook.

The engine computes base extension, scale-down and CRT reconstruction with
uint64 tables (:mod:`repro.rns.convert`), and the Listing-1 key switch as
one fused multiply-accumulate over uint32 digit and hint stacks; each fast
path must equal the formulation here bit for bit.  :func:`ntt_reference`
is the textbook transform the lazy NTT plan must match.
``tests/test_base_convert.py`` fuzzes the conversions, and :func:`install`
(called from ``tests/conftest.py``) makes every ``base_extend`` /
``scale_down_stack`` call, every Listing-1 key switch, every rescale and
every fused multiply-rescale key switch assert it while
``repro.poly.kernels.DEBUG_VALIDATE`` is set (``REPRO_KERNEL_DEBUG=1``).
"""

from __future__ import annotations

import functools

import numpy as np

from repro.fhe import bgv, keyswitch
from repro.poly import kernels
from repro.poly.ntt import NttContext, get_rns_context
from repro.poly.polynomial import Domain, RnsPolynomial
from repro.rns.crt import RnsBasis
from repro.rns.primes import primitive_root_of_unity


def from_rns_exact(basis: RnsBasis, limbs: np.ndarray, *,
                   centered: bool = False) -> list[int]:
    """CRT reconstruction as an object-array sum of big-int weights."""
    weights = basis.crt_weights()
    big_q = basis.modulus
    inv_col = np.array([w[1] for w in weights], dtype=np.uint64).reshape(-1, 1)
    # d_i = [x_i * (Q/q_i)^{-1}]_{q_i}; products < 2^64 because q_i < 2^32.
    digits = (np.asarray(limbs, dtype=np.uint64) * inv_col
              % basis.moduli_column()).astype(object)
    q_over_col = np.array([w[0] for w in weights], dtype=object).reshape(-1, 1)
    acc = (digits * q_over_col).sum(axis=0) % big_q
    if centered:
        acc = np.where(acc > big_q // 2, acc - big_q, acc)
    return [int(c) for c in acc]


def base_extend_reference(x: RnsPolynomial, extended: RnsBasis) -> RnsPolynomial:
    """The approximate CRT lift ``sum_i d_i * (Q/q_i) mod p_j``, one target
    modulus at a time with per-row reduced sums."""
    if x.domain is not Domain.COEFF:
        raise ValueError("base_extend expects a coefficient-domain input")
    basis = x.basis
    old_index = {q: i for i, q in enumerate(basis.moduli)}
    weights = basis.crt_weights()
    inv_col = np.array([w[1] for w in weights], dtype=np.uint64).reshape(-1, 1)
    digits = (x.limbs * inv_col) % basis.moduli_column()
    out = np.empty((extended.level, x.n), dtype=np.uint64)
    for j, p in enumerate(extended.moduli):
        if p in old_index:
            out[j] = x.limbs[old_index[p]]
            continue
        pp = np.uint64(p)
        q_over_col = np.array(
            [w[0] % p for w in weights], dtype=np.uint64
        ).reshape(-1, 1)
        # Each term < p < 2^32, so the L-term sum fits in uint64.
        out[j] = ((digits % pp) * q_over_col % pp).sum(axis=0) % pp
    return RnsPolynomial(extended, out, Domain.COEFF)


def scale_down_reference(x: RnsPolynomial, special: RnsBasis,
                         plaintext_modulus: int) -> RnsPolynomial:
    """Divide-and-round by ``P = prod(special)`` through the centered big-int
    ``v = [x]_P`` and a correction ``delta ≡ v (mod P)``, ``≡ 0 (mod t)``;
    coefficient-domain result over Q."""
    x = x.to_coeff()
    ext = x.basis
    n_special = special.level
    if ext.moduli[-n_special:] != special.moduli:
        raise ValueError("special basis must be the trailing limbs of x's basis")
    basis_q = RnsBasis(ext.moduli[:-n_special])
    t = plaintext_modulus
    p_product = special.modulus
    v = np.array(from_rns_exact(special, x.limbs[-n_special:], centered=True),
                 dtype=object)
    if t > 1:
        w = (-v * pow(p_product % t, -1, t)) % t
        w = np.where(w > t // 2, w - t, w)  # centered
    else:
        w = np.zeros(x.n, dtype=object)
    delta = v + p_product * w
    q_col = basis_q.moduli_column()
    delta_mod = np.stack([(delta % q).astype(np.uint64)
                          for q in basis_q.moduli])
    p_inv_col = np.array(
        [pow(p_product % q, -1, q) for q in basis_q.moduli], dtype=np.uint64
    ).reshape(-1, 1)
    out = ((x.limbs[: basis_q.level] + q_col - delta_mod) % q_col
           * p_inv_col) % q_col
    return RnsPolynomial(basis_q, out, Domain.COEFF)


def rescale_reference(x: RnsPolynomial, t: int, count: int) -> RnsPolynomial:
    """``count`` one-limb scale-downs in turn, last limb first;
    coefficient-domain result."""
    for _ in range(count):
        x = scale_down_reference(x, RnsBasis(x.basis.moduli[-1:]), t)
    return x


def key_switch_v1_reference(x: RnsPolynomial, hint,
                            galois_perm: np.ndarray | None = None):
    """The pre-fusion Listing-1 loop: digit i is ``INTT(x[i])`` lifted to
    every modulus and NTT'd on its own, then (after the optional NTT-domain
    permutation of a hoisted rotation) multiplied by hint row i and
    reduce-accumulated, one digit at a time, in uint64.  Returns the
    ``(u0, u1)`` limbs."""
    basis = x.basis
    ctx = get_rns_context(x.n, basis.moduli)
    q_col = basis.moduli_column()
    y = ctx.inverse(x.limbs)
    u0 = np.zeros_like(x.limbs)
    u1 = np.zeros_like(x.limbs)
    for i, (h0, h1) in enumerate(zip(hint.hint0, hint.hint1)):
        digit_ntt = ctx.forward(np.remainder(y[i][None, :], q_col))
        if galois_perm is not None:
            digit_ntt = digit_ntt[:, galois_perm]
        u0 = (u0 + digit_ntt * h0.limbs % q_col) % q_col
        u1 = (u1 + digit_ntt * h1.limbs % q_col) % q_col
    return u0, u1


def external_product_reference(gsw, ct):
    """The per-limb GSW external product: digit ``[i][j]`` is ``x[i]``'s
    inverse NTT lifted to ``q_j`` and NTT'd on its own (``x[i]`` itself at
    ``j == i``), and ``b_digits . C0 - a_digits . C1`` is reduce-accumulated
    limb by limb.  Returns the ``(a, b)`` limbs."""
    basis, n = ct.basis, ct.n

    def digits(x):
        y = [NttContext(n, q).inverse(x.limbs[i])
             for i, q in enumerate(basis.moduli)]
        return [[x.limbs[i] if i == j else
                 NttContext(n, qj).forward(y[i] % np.uint64(qj))
                 for j, qj in enumerate(basis.moduli)]
                for i in range(basis.level)]

    a_digits, b_digits = digits(ct.a), digits(ct.b)
    out = np.zeros((2,) + ct.a.limbs.shape, dtype=np.uint64)
    for i in range(basis.level):
        for j, q in enumerate(basis.moduli):
            qq = np.uint64(q)
            bd, ad = b_digits[i][j], a_digits[i][j]
            for k in (0, 1):  # result += b_digit * C0[i] - a_digit * C1[i]
                out[k, j] = (out[k, j] + bd * gsw.c0[i][k].limbs[j] % qq
                             + (qq - ad * gsw.c1[i][k].limbs[j] % qq)) % qq
    return out[0], out[1]


@functools.lru_cache(maxsize=None)
def _ntt_reference_tables(n: int, q: int):
    """``psi^i`` and ``psi^-i`` (i < n) as uint64 rows, from Python ints,
    and ``n^-1 mod q``."""
    psi = primitive_root_of_unity(2 * n, q)

    def powers(root):
        out = [1] * n
        for i in range(1, n):
            out[i] = out[i - 1] * root % q
        return np.array(out, dtype=np.uint64)

    return powers(psi), powers(pow(psi, -1, q)), pow(n, -1, q)


def ntt_reference(x, moduli, inverse: bool = False) -> np.ndarray:
    """The strict negacyclic NTT of every limb of ``x`` (``(..., L, N)``,
    limb l mod ``moduli[l]``): pre-twist by ``psi^i``, bit-reverse, and a
    radix-2 DIT stage loop with a ``%`` per product and per sum; the inverse
    runs the loop on ``psi^-1`` and scales by ``psi^-i * n^-1``.  Products
    of residues fit a uint64 for any ``q < 2^32``."""
    x = np.asarray(x, dtype=np.uint64)
    n = x.shape[-1]
    bits = n.bit_length() - 1
    brv = np.array([int(format(i, f"0{bits}b")[::-1], 2) if bits else 0
                    for i in range(n)])
    out = np.empty_like(x)
    for limb, q in enumerate(moduli):
        psi, psi_inv, n_inv = _ntt_reference_tables(n, int(q))
        qq = np.uint64(q)
        a = x[..., limb, :]
        a = (a if inverse else a * psi % qq)[..., brv]
        roots = psi_inv if inverse else psi
        length = 2
        while length <= n:  # omega_length^k = psi^(k * 2n / length)
            half = length // 2
            tw = roots[::n // half]
            blocks = a.reshape(a.shape[:-1] + (n // length, length))
            lo, hi = blocks[..., :half], blocks[..., half:]
            t = hi * tw % qq
            blocks[..., half:] = (lo + qq - t) % qq
            blocks[..., :half] = (lo + t) % qq
            length *= 2
        out[..., limb, :] = a * (psi_inv * np.uint64(n_inv) % qq) % qq \
            if inverse else a
    return out


def _check_key_switch_v1(out, dec, hint, galois_perm=None) -> None:
    """The decomposition's input is its digit stack's diagonal (Listing 1's
    ``i == j``: NTT(INTT(x[i])) is x[i])."""
    diag = np.arange(dec.basis.level)
    x = RnsPolynomial(dec.basis, dec.digit_ntt[diag, diag], Domain.NTT)
    for got, want in zip(out, key_switch_v1_reference(x, hint, galois_perm)):
        assert got.limbs.dtype == np.uint64, "key switch limbs must be uint64"
        assert np.array_equal(got.limbs, want), \
            "key_switch_v1_hoisted diverged from its per-digit oracle"


def _check_base_extend(out: RnsPolynomial, x: RnsPolynomial,
                       extended: RnsBasis) -> None:
    assert np.array_equal(out.limbs, base_extend_reference(x, extended).limbs), \
        "batched base_extend diverged from its big-int oracle"


def _check_scale_down_stack(out: np.ndarray, limbs: np.ndarray, domain: Domain,
                            ext: RnsBasis, special: RnsBasis, t: int) -> None:
    level, n = ext.level - special.level, limbs.shape[-1]
    want = np.stack([
        scale_down_reference(RnsPolynomial(ext, m, domain), special, t).limbs
        for m in limbs.reshape(-1, ext.level, n)
    ]).reshape(limbs.shape[:-2] + (level, n))
    got = out
    if domain is Domain.NTT:
        got = get_rns_context(n, ext.moduli[:level]).inverse(out)
    assert np.array_equal(got, want), \
        "scale_down_stack diverged from its big-int oracle"


def _check_rescale(out, a: RnsPolynomial, b: RnsPolynomial, t: int,
                   count: int) -> None:
    for got, x in zip(out, (a, b)):
        assert np.array_equal(got.to_coeff().limbs,
                              rescale_reference(x, t, count).limbs), \
            "_rescale_bgv diverged from its big-int oracle"


def _check_key_switch_rescale(out: np.ndarray, x: RnsPolynomial,
                              terms: np.ndarray, hint, t: int) -> None:
    """Against the key switch (itself checked through ``scale_down_stack``)
    and a big-int rescale of ``terms + (u0, u1)``."""
    q_col = x.basis.moduli_column()
    inverse = get_rns_context(x.n, x.basis.moduli[:-1]).inverse
    for got, term, u in zip(out, terms, keyswitch.key_switch_v2(x, hint, t)):
        y = RnsPolynomial(x.basis, (term + u.limbs) % q_col, Domain.NTT)
        assert np.array_equal(inverse(got), rescale_reference(y, t, 1).limbs), \
            "key_switch_v2_rescale diverged from its big-int oracle"


#: The engine functions behind the hooks, by name.  The hooks look them up
#: at call time, so a test can swap one in to see a divergence caught.
ENGINE: dict = {}


def _hooked(module, name: str, check):
    engine = ENGINE.setdefault(name, getattr(module, name))

    @functools.wraps(engine)
    def hooked(*args):
        out = ENGINE[name](*args)
        if kernels.DEBUG_VALIDATE:  # read per call: fixtures may flip it
            check(out, *args)
        return out
    return hooked


def install() -> None:
    """Route ``base_extend``, ``scale_down_stack``, ``key_switch_v1_hoisted``,
    ``_rescale_bgv`` and ``key_switch_v2_rescale`` through their oracle
    checks at the module that calls them (``keyswitch`` for the first three,
    ``bgv`` for the rest)."""
    keyswitch.key_switch_v1_hoisted = _hooked(
        keyswitch, "key_switch_v1_hoisted", _check_key_switch_v1)
    keyswitch.base_extend = _hooked(keyswitch, "base_extend",
                                    _check_base_extend)
    keyswitch.scale_down_stack = _hooked(keyswitch, "scale_down_stack",
                                         _check_scale_down_stack)
    bgv._rescale_bgv = _hooked(bgv, "_rescale_bgv", _check_rescale)
    bgv.key_switch_v2_rescale = _hooked(keyswitch, "key_switch_v2_rescale",
                                        _check_key_switch_rescale)
