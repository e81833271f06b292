"""BGV scheme (Sec. 2.2) over RNS polynomials.

Ciphertexts are pairs ``(a, b = a*s + t*e + m)``; decryption recovers
``m = [b - a*s mod Q]_t`` via centered reduction.  All homomorphic operations
are built from exactly the primitives F1 accelerates: element-wise modular
add/multiply, NTTs, and automorphisms, plus key switching (Listing 1 or the
raised-modulus variant) and RNS modulus switching.
"""

from __future__ import annotations

import numpy as np

from repro.fhe import noise as noise_model
from repro.fhe.ciphertext import Ciphertext
from repro.fhe.context import FheContext
from repro.fhe.keys import (
    KeySwitchHint,
    RaisedKeySwitchHint,
    SecretKey,
    generate_ks_hint,
    generate_raised_ks_hint,
)
from repro.fhe.keyswitch import (
    HoistedDecomposition,
    _scale_down_tables,
    drop_limbs,
    hoist_raise,
    key_switch_v1,
    key_switch_v2,
    key_switch_v2_hoisted,
    key_switch_v2_rescale,
    scale_down_begin,
    scale_down_finish,
)
from repro.fhe.params import FheParams
from repro.fhe.sampling import sample_error, small_poly, uniform_poly
from repro.obs.profile import instrument
from repro.poly import kernels
from repro.poly.automorphism import automorphism_ntt_permutation
from repro.poly.polynomial import Domain, RnsPolynomial
from repro.rns.crt import RnsBasis
from repro.rns.primes import ntt_friendly_primes


def rotation_exponent(steps: int, n: int) -> int:
    """Galois exponent for a rotation by ``steps``: k = 3^steps mod 2N."""
    return pow(3, steps, 2 * n)


class BgvContext(FheContext):
    """Keys plus homomorphic operations for one BGV parameter set."""

    scheme = "bgv"

    def __init__(self, params: FheParams, *, seed: int = 0, ks_variant: int = 1,
                 secret: SecretKey | None = None):
        if ks_variant not in (1, 2):
            raise ValueError("ks_variant must be 1 (Listing 1) or 2 (raised modulus)")
        self.params = params
        self.rng = np.random.default_rng(seed)
        # An injected secret lets several contexts share one key — needed by
        # bootstrapping, whose working context encrypts the input context's
        # key (circular security, as standard).
        self.secret = secret if secret is not None else SecretKey.generate(
            params.n, self.rng
        )
        self.ks_variant = ks_variant
        self._hints_v1: dict[str, KeySwitchHint] = {}
        self._hints_v2: dict[tuple[str, RnsBasis], RaisedKeySwitchHint] = {}
        self._special_primes: dict[RnsBasis, RnsBasis] = {}

    # ----------------------------------------------------------------- serde
    def to_state(self) -> dict:
        """Compact serializable form of the whole context.

        Ships only what cannot be derived: parameters, the secret key's
        ternary coefficients, the RNG state, and the variant flag.  Every
        derived artifact — per-basis NTT key forms, NTT twiddles, Shoup
        quotients, key-switch hint caches, special-prime bases — is rebuilt
        lazily after a restore.  Regenerated hints draw fresh randomness,
        which is semantically irrelevant: they re-encrypt the *same* secret,
        so decrypted values are bit-identical (BGV) / tolerance-equal (CKKS)
        across replicas.
        """
        return {
            "scheme": self.scheme,
            "params": self.params.to_state(),
            "secret": self.secret.to_state(),
            "rng_state": self.rng.bit_generator.state,
            "ks_variant": self.ks_variant,
        }

    @classmethod
    def from_state(cls, state: dict) -> "BgvContext":
        ctx = cls.__new__(cls)
        ctx._restore_state(state)
        return ctx

    def _restore_state(self, state: dict) -> None:
        self.__init__(
            FheParams.from_state(state["params"]),
            ks_variant=state["ks_variant"],
            secret=SecretKey.from_state(state["secret"]),
        )
        self.rng.bit_generator.state = state["rng_state"]

    def __getstate__(self):
        return self.to_state()

    def __setstate__(self, state):
        self._restore_state(state)

    # ------------------------------------------------------------ encryption
    @property
    def t(self) -> int:
        return self.params.plaintext_modulus

    def encode(self, values) -> np.ndarray:
        """Coefficient-encode integers mod t into a plaintext polynomial."""
        n = self.params.n
        values = np.asarray(values, dtype=np.int64) % self.t
        if values.shape[0] > n:
            raise ValueError(f"too many values ({values.shape[0]}) for N={n}")
        out = np.zeros(n, dtype=np.int64)
        out[: values.shape[0]] = values
        return out

    def encrypt(self, plaintext, *, level: int | None = None) -> Ciphertext:
        """Secret-key encrypt a length-<=N vector of integers mod t."""
        return self._encrypt(self.encode(plaintext), level, noise_bits=(
            noise_model.fresh_noise_bits(self.params.n, self.t,
                                         self.params.error_width)))

    def _encrypt(self, m: np.ndarray, level: int | None, **tags) -> Ciphertext:
        """``(a, a*s + NTT(t*e + m))`` for int64 coefficients ``m``, drawing
        ``a`` then ``e``.  The NTT is linear and every residue reduced, so
        one transform of the sum is bit-identical to one per term."""
        basis = self.params.basis_at(level) if level is not None else self.params.basis
        n = self.params.n
        a = uniform_poly(basis, n, self.rng, Domain.NTT)
        e = sample_error(n, self.params.error_width, self.rng)
        b = a * self.secret.poly(basis) + small_poly(basis, self.t * e + m, Domain.NTT)
        return Ciphertext(a=a, b=b, **tags)

    def _phase(self, ct: Ciphertext) -> np.ndarray:
        """Centered coefficients of ``b - a*s`` (int64 when all fit)."""
        return (ct.b - ct.a * self.secret.poly(ct.basis)).to_centered_ints()

    def decrypt(self, ct: Ciphertext) -> np.ndarray:
        """Decrypt to integers mod t (undoing any modulus-switch scale)."""
        wide, t = self._phase(ct), self.t  # m + t*e, centered mod Q
        correction = pow(ct.plaintext_scale, -1, t) if t > 1 else 0
        return (wide % t * correction % t).astype(np.int64)

    # Unified FheContext surface (see repro.fhe.context): BGV's historical
    # names are the implementations; these are the scheme-agnostic aliases.
    def encrypt_values(self, values, *, level: int | None = None,
                       scale: float | None = None) -> Ciphertext:
        return self.encrypt(values, level=level)

    def decrypt_values(self, ct: Ciphertext, count: int | None = None) -> np.ndarray:
        out = self.decrypt(ct)
        return out[:count] if count is not None else out

    def rescale(self, ct: Ciphertext) -> Ciphertext:
        return self.mod_switch(ct)

    def noise_budget_bits(self, ct: Ciphertext) -> float:
        """Measured log2(Q / (2*|noise|)); decryption fails when <= 0."""
        max_noise = max((abs(int(c)) for c in self._phase(ct)), default=1)
        return float(ct.basis.modulus.bit_length() - 1 - max(max_noise, 1).bit_length())

    # ------------------------------------------------------ hint management
    def _old_key_for_target(self, target: str) -> RnsPolynomial:
        basis = self.params.basis
        if target == "relin":
            return self.secret.square_poly(basis)
        if target.startswith("galois_"):
            k = int(target.split("_", 1)[1])
            return small_poly(basis, self.secret.automorphism_coeffs(k), Domain.NTT)
        raise ValueError(f"unknown key-switch target {target!r}")

    def _old_key_int_coeffs(self, target: str) -> list[int]:
        if target == "relin":  # s^2 over the integers (negacyclic), exact at Q
            return self._old_key_for_target(target).to_int_coeffs(centered=True)
        if target.startswith("galois_"):
            k = int(target.split("_", 1)[1])
            return [int(c) for c in self.secret.automorphism_coeffs(k)]
        raise ValueError(f"unknown key-switch target {target!r}")

    def hint_v1(self, target: str, basis: RnsBasis) -> KeySwitchHint:
        """``target``'s Listing-1 hint at ``basis``, a prefix of the chain:
        generated once, at the top basis, and sliced for every lower level
        (:meth:`~repro.fhe.keys.KeySwitchHint.prefix`)."""
        hint = self._hints_v1.get(target)
        if hint is None:
            hint = self._hints_v1[target] = generate_ks_hint(
                self.secret, target, self._old_key_for_target(target), self.t,
                self.params.error_width, self.rng)
        return hint.prefix(basis)

    def hint_v2(self, target: str, basis: RnsBasis) -> RaisedKeySwitchHint:
        key = (target, basis)
        hint = self._hints_v2.get(key)
        if hint is None:
            hint = self._hints_v2[key] = generate_raised_ks_hint(
                self.secret, target, self._old_key_int_coeffs(target), basis,
                self._special_basis_for(basis), self.t,
                self.params.error_width, self.rng)
        return hint

    def _special_basis_for(self, basis: RnsBasis) -> RnsBasis:
        special = self._special_primes.get(basis)
        if special is None:
            bits = max(q.bit_length() for q in basis.moduli)
            # P must be ~>= Q for the raised-modulus noise bound: one special
            # prime per ciphertext limb at the same width (wider would cross
            # the engine's 2^30 modulus bound when the base primes are 30-bit).
            candidates = ntt_friendly_primes(
                self.params.n, bits, 2 * basis.level + 8
            )
            fresh = [p for p in candidates if p not in basis.moduli][: basis.level]
            special = RnsBasis(fresh)
            self._special_primes[basis] = special
        return special

    def _key_switch(self, x: RnsPolynomial, target: str) -> tuple[RnsPolynomial, RnsPolynomial, float]:
        basis = x.basis
        if self.ks_variant == 1:
            u0, u1 = key_switch_v1(x, self.hint_v1(target, basis))
        else:
            u0, u1 = key_switch_v2(x, self.hint_v2(target, basis), self.t)
        return u0, u1, self._ks_noise_bits(basis, x.n)

    def _ks_noise_bits(self, basis: RnsBasis, n: int) -> float:
        """Analytic noise added by one key switch at the given basis."""
        if self.ks_variant == 1:
            return noise_model.keyswitch_v1_noise_bits(
                n, self.t, basis.level, max(basis.moduli), self.params.error_width
            )
        return noise_model.keyswitch_v2_noise_bits(n, self.t, self.params.error_width)

    # --------------------------------------------------------------- HE ops
    def add(self, ct0: Ciphertext, ct1: Ciphertext) -> Ciphertext:
        self._check_pair(ct0, ct1, "add")
        return ct0.with_polys(
            ct0.a + ct1.a,
            ct0.b + ct1.b,
            noise_bits=noise_model.add_noise_bits(ct0.noise_bits, ct1.noise_bits),
        )

    def sub(self, ct0: Ciphertext, ct1: Ciphertext) -> Ciphertext:
        self._check_pair(ct0, ct1, "sub")
        return ct0.with_polys(
            ct0.a - ct1.a,
            ct0.b - ct1.b,
            noise_bits=noise_model.add_noise_bits(ct0.noise_bits, ct1.noise_bits),
        )

    def add_plain(self, ct: Ciphertext, plaintext) -> Ciphertext:
        m = small_poly(ct.basis, self._scaled_plain(ct, plaintext), Domain.NTT)
        return ct.with_polys(ct.a, ct.b + m, noise_bits=ct.noise_bits + 0.1)

    def mul_plain(self, ct: Ciphertext, plaintext) -> Ciphertext:
        """Multiply by an unencrypted vector (cheaper: 2L limb multiplies)."""
        m = small_poly(ct.basis, np.asarray(self.encode(plaintext)), Domain.NTT)
        bits = noise_model.log2(self.t) + noise_model.log2(ct.n) / 2.0
        return ct.with_polys(
            ct.a * m, ct.b * m, noise_bits=ct.noise_bits + bits
        )

    def _scaled_plain(self, ct: Ciphertext, plaintext) -> np.ndarray:
        """Encode a plaintext, pre-multiplied by the ciphertext's scale factor."""
        m = self.encode(plaintext).astype(np.int64)
        return (m * ct.plaintext_scale) % self.t

    def _tensor(self, ct0: Ciphertext, ct1: Ciphertext) -> tuple[RnsPolynomial, RnsPolynomial, RnsPolynomial]:
        """The tensor-product triple ``(l2, l1, l0)`` with the middle term
        fused (``a0*b1 + a1*b0`` in one reduction, see
        :func:`~repro.poly.kernels.fused_mul_add`)."""
        basis = ct0.basis
        q = basis.moduli_column()
        a0, b0, a1, b1 = ct0.a.limbs, ct0.b.limbs, ct1.a.limbs, ct1.b.limbs
        l2 = RnsPolynomial(basis, kernels.mul_mod(a0, a1, q), Domain.NTT)
        l1 = RnsPolynomial(basis, kernels.fused_mul_add(a0, b1, a1, b0, q),
                           Domain.NTT)
        l0 = RnsPolynomial(basis, kernels.mul_mod(b0, b1, q), Domain.NTT)
        return l2, l1, l0

    def mul(self, ct0: Ciphertext, ct1: Ciphertext) -> Ciphertext:
        """Homomorphic multiplication: tensor, then key-switch l2 (Sec. 2.2.1)."""
        self._check_pair(ct0, ct1, "mul")
        l2, l1, l0 = self._tensor(ct0, ct1)
        u0, u1, ks_noise = self._key_switch(l2, "relin")
        # u0 - u1*s = l2*s^2, so (l1+u1, l0+u0) decrypts to l0 - l1 s + l2 s^2.
        return self._product(ct0, ct1, l1 + u1, l0 + u0, ks_noise)

    def mul_rescale(self, ct0: Ciphertext, ct1: Ciphertext) -> Ciphertext:
        """``rescale(mul(ct0, ct1))`` bit for bit, metadata included; the
        raised-modulus key switch shares its scale-down's transform calls
        with the rescale (:func:`~repro.fhe.keyswitch.key_switch_v2_rescale`)."""
        if self.ks_variant == 1 or ct0.level < 2:
            return super().mul_rescale(ct0, ct1)
        self._check_pair(ct0, ct1, "mul")
        l2, l1, l0 = self._tensor(ct0, ct1)
        b, a = key_switch_v2_rescale(l2, np.stack([l0.limbs, l1.limbs]),
                                     self.hint_v2("relin", l2.basis), self.t)
        product = self._product(ct0, ct1, l1, l0,
                                self._ks_noise_bits(l2.basis, l2.n))
        basis = l2.basis.drop()
        return self._rescaled(product, RnsPolynomial(basis, a, Domain.NTT),
                              RnsPolynomial(basis, b, Domain.NTT))

    def _product(self, ct0: Ciphertext, ct1: Ciphertext, a: RnsPolynomial,
                 b: RnsPolynomial, ks_noise: float) -> Ciphertext:
        """The product ciphertext ``(a, b)`` with its scale and noise."""
        raw_noise = noise_model.mul_noise_bits(
            ct0.noise_bits, ct1.noise_bits, ct0.n, self.t)
        return Ciphertext(
            a=a, b=b,
            plaintext_scale=ct0.plaintext_scale * ct1.plaintext_scale % self.t,
            noise_bits=max(raw_noise, ks_noise) + 1.0,
        )

    def automorphism(self, ct: Ciphertext, k: int) -> Ciphertext:
        """Homomorphic sigma_k: permute both polys, key-switch the a-part."""
        a_sigma = ct.a.automorphism(k)
        b_sigma = ct.b.automorphism(k)
        u0, u1, ks_noise = self._key_switch(a_sigma, f"galois_{k}")
        return ct.with_polys(
            -u1,
            b_sigma - u0,
            noise_bits=max(ct.noise_bits, ks_noise) + 1.0,
        )

    def _rotation_exponent(self, steps: int, n: int) -> int:
        """Galois exponent realizing a rotation by ``steps`` (scheme-specific)."""
        return rotation_exponent(steps, n)

    def rotate(self, ct: Ciphertext, steps: int) -> Ciphertext:
        """Homomorphic slot rotation (automorphism with k = 3^steps)."""
        return self.automorphism(ct, self._rotation_exponent(steps, ct.n))

    def rotate_many(self, ct: Ciphertext, steps: list[int]) -> list[Ciphertext]:
        """Rotate one ciphertext by many amounts with Halevi–Shoup hoisting.

        The expensive part of a rotation is key-switching ``sigma_k(a)``;
        because the automorphism commutes with the RNS digit decomposition
        (variant 1) and with the base extension (variant 2), the per-input
        heavy lifting — digit INTT + L^2 forward NTTs, or raise-to-QP — is
        computed once and replayed per rotation as an NTT-domain permutation
        plus the cheap multiply(-accumulate) tail.  Results decrypt exactly
        like the corresponding sequence of :meth:`rotate` calls (BGV
        plaintexts are bit-identical; ciphertext bits differ by the
        hoisting's q-multiple digit slack).
        """
        if len(steps) <= 1:
            return [self.rotate(ct, s) for s in steps]
        n, basis = ct.n, ct.basis
        ks = [self._rotation_exponent(s, n) for s in steps]
        perms = [automorphism_ntt_permutation(n, k) for k in ks]
        if self.ks_variant == 1:
            dec = HoistedDecomposition(ct.a)
            switched = [dec.key_switch(self.hint_v1(f"galois_{k}", basis), p)
                        for k, p in zip(ks, perms)]
        else:
            # All galois hints at one basis share the extended basis, so the
            # raised form is computed once and the scale-downs run as one.
            hints = [self.hint_v2(f"galois_{k}", basis) for k in ks]
            switched = key_switch_v2_hoisted(hoist_raise(ct.a, hints[0]), hints,
                                             self.t, perms)
        noise = max(ct.noise_bits, self._ks_noise_bits(basis, n)) + 1.0
        return [ct.with_polys(-u1, ct.b.automorphism(k) - u0, noise_bits=noise)
                for k, (u0, u1) in zip(ks, switched)]

    def mod_switch(self, ct: Ciphertext) -> Ciphertext:
        """Switch Q -> Q/q_L, scaling noise down by ~q_L (Sec. 2.2.2)."""
        return self.mod_switch_to(ct, ct.level - 1)

    def rescale_to(self, ct: Ciphertext, level: int) -> Ciphertext:
        """Drop down to ``level`` limbs in one step.

        Bit-identical to repeated :meth:`rescale`, but the per-drop
        corrections are folded into one (:func:`_rescale_bgv`): only the
        dropped limbs leave the NTT domain, once.
        """
        count = ct.level - level
        if count <= 0:
            return ct
        if level < 1:
            raise ValueError("cannot rescale the last limb away")
        return self._rescaled(ct, *_rescale_bgv(ct.a, ct.b, self.t, count))

    #: BGV modulus switching *is* rescaling.
    mod_switch_to = instrument("mod_switch")(rescale_to)

    def _rescaled(self, ct: Ciphertext, a: RnsPolynomial,
                  b: RnsPolynomial) -> Ciphertext:
        """``ct`` rescaled to ``(a, b)``'s basis, last dropped limb first."""
        scale, noise = ct.plaintext_scale, ct.noise_bits
        for q_last in reversed(ct.basis.moduli[a.basis.level:]):
            if self.t > 1:
                scale = scale * pow(q_last, -1, self.t) % self.t
            noise = noise_model.mod_switch_noise_bits(noise, q_last, ct.n, self.t)
        return ct.with_polys(a, b, plaintext_scale=scale if self.t > 1 else 1,
                             noise_bits=noise)

    def _check_pair(self, ct0: Ciphertext, ct1: Ciphertext, op: str) -> None:
        if ct0.basis != ct1.basis:
            raise ValueError(
                f"{op}: ciphertexts at different levels "
                f"({ct0.level} vs {ct1.level}); mod_switch first"
            )
        if op in ("add", "sub") and ct0.plaintext_scale != ct1.plaintext_scale:
            raise ValueError(
                f"{op}: plaintext scales differ "
                f"({ct0.plaintext_scale} vs {ct1.plaintext_scale})"
            )


def _rescale_bgv(a: RnsPolynomial, b: RnsPolynomial, t: int, count: int,
                 ) -> tuple[RnsPolynomial, RnsPolynomial]:
    """Exact-division rescale of a ciphertext's NTT-domain ``(a, b)`` by its
    last ``count`` limbs, one at a time, each with delta ≡ 0 (mod t).

    ``count`` drops are ``(x - D) / P`` with ``P`` the dropped product and
    ``D`` a function of the dropped limbs only.  Those alone leave the NTT
    domain (one stacked call, the ones under the top limb already divided by
    it), ``D / P`` folds up in the coefficient domain
    (:func:`~repro.fhe.keyswitch.drop_limbs`), and one forward call brings
    it back to meet ``x * P^{-1}``: bit for bit the all-coefficient-domain
    chain (the oracle in ``tests/test_rescale_oracle.py``).
    """
    basis = a.basis
    keep, top = basis.level - count, basis.level - 1
    stack = np.stack([a.limbs, b.limbs])
    q_col, q_inv = _scale_down_tables(basis.moduli[:top], basis.moduli[top:], t)[:2]
    stack[:, keep:top] = stack[:, keep:top] * q_inv[keep:] % q_col[keep:]
    rows, corr = scale_down_begin(stack, Domain.NTT, basis,
                                  RnsBasis(basis.moduli[top:]), t, count - 1)
    out = scale_down_finish(stack[:, :keep],
                            drop_limbs(rows, corr, basis.moduli[:top], t),
                            Domain.NTT, basis.moduli[:keep],
                            basis.moduli[keep:], t)
    new_basis = basis.drop(count)
    return (RnsPolynomial(new_basis, out[0], Domain.NTT),
            RnsPolynomial(new_basis, out[1], Domain.NTT))
