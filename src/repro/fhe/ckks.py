"""CKKS scheme (Sec. 2.5): approximate arithmetic on complex/fixed-point slots.

Structurally identical to BGV at the polynomial level — same primitive mix of
NTTs, automorphisms, element-wise modular ops, and key switching — which is
exactly why F1 supports both schemes on one substrate.  Differences: the
plaintext rides in the high bits at scale Delta (no ``t`` factor on errors),
multiplication is followed by *rescaling* (the CKKS analogue of modulus
switching), and slots are N/2 complex values.
"""

from __future__ import annotations

import math

import numpy as np

from repro.fhe import noise as noise_model
from repro.fhe.bgv import BgvContext
from repro.fhe.ciphertext import Ciphertext
from repro.fhe.encoding import CkksEncoder
from repro.fhe.params import FheParams
from repro.fhe.sampling import small_poly
from repro.obs.profile import instrument
from repro.poly.polynomial import Domain, RnsPolynomial


def ckks_rotation_exponent(steps: int, n: int) -> int:
    """Galois exponent rotating CKKS slots by ``steps``: k = 5^steps mod 2N."""
    return pow(5, steps, 2 * n)


CONJUGATION_EXPONENT = -1  # sigma_{-1} conjugates all slots


class CkksContext(BgvContext):
    """CKKS on top of the shared RLWE machinery (keys, hints, key switching).

    The plaintext modulus of the underlying machinery is forced to 1 so that
    hint errors and rescaling corrections enter without a ``t`` factor.

    ``encrypt_values`` / ``decrypt_values`` / ``rescale`` are CKKS's native
    spellings of the unified :class:`~repro.fhe.context.FheContext` surface
    (``mod_switch`` here is the value-preserving CKKS "mod down", *not* the
    level-management step a DSL MOD_SWITCH lowers to — that is ``rescale``).
    """

    scheme = "ckks"

    def __init__(self, params: FheParams, *, scale: float | None = None, seed: int = 0, ks_variant: int = 2,
                 secret=None):
        # Variant 2 (raised modulus) is the CKKS default: the Listing-1
        # variant adds ~q-magnitude noise, which swamps values held at scale
        # Delta ~ q.  BGV tolerates it because noise rides above t, not Delta.
        if params.plaintext_modulus != 1:
            params = FheParams(
                n=params.n,
                basis=params.basis,
                plaintext_modulus=1,
                error_width=params.error_width,
                allow_insecure=params.allow_insecure,
            )
        super().__init__(params, seed=seed, ks_variant=ks_variant, secret=secret)
        self.default_scale = float(scale) if scale else float(min(params.basis.moduli))
        self.encoder = CkksEncoder(params.n, self.default_scale)

    # ----------------------------------------------------------------- serde
    def to_state(self) -> dict:
        """The shared RLWE state plus the CKKS default scale; the encoder is
        derived from (N, scale) and rebuilt on restore."""
        state = super().to_state()
        state["scale"] = self.default_scale
        return state

    def _restore_state(self, state: dict) -> None:
        from repro.fhe.keys import SecretKey

        self.__init__(
            FheParams.from_state(state["params"]),
            scale=state["scale"],
            ks_variant=state["ks_variant"],
            secret=SecretKey.from_state(state["secret"]),
        )
        self.rng.bit_generator.state = state["rng_state"]

    # ------------------------------------------------------------ encryption
    def encrypt_values(self, values, *, level: int | None = None, scale: float | None = None) -> Ciphertext:
        """Encrypt complex/real slot values at the given scale."""
        scale = scale or self.default_scale
        return self._encrypt(self.encoder.encode(values, scale), level,
                             scale=scale, noise_bits=3.0)  # t is 1: e + m

    def decrypt_values(self, ct: Ciphertext, count: int | None = None) -> np.ndarray:
        """Decrypt to complex slot values.

        The phase reconstruction rides the batched engine (one all-limb INTT
        plus an int64 CRT); int64 -> float64 rounds exactly like
        ``float(int)``, which a phase too wide for int64 goes through.
        """
        slots = self.encoder.decode(self._phase(ct).astype(np.float64), ct.scale)
        return slots[:count] if count is not None else slots

    # --------------------------------------------------------------- HE ops
    def add(self, ct0: Ciphertext, ct1: Ciphertext) -> Ciphertext:
        self._check_pair(ct0, ct1, "add")
        out = ct0.with_polys(ct0.a + ct1.a, ct0.b + ct1.b)
        out.noise_bits = noise_model.add_noise_bits(ct0.noise_bits, ct1.noise_bits)
        return out

    def sub(self, ct0: Ciphertext, ct1: Ciphertext) -> Ciphertext:
        self._check_pair(ct0, ct1, "sub")
        out = ct0.with_polys(ct0.a - ct1.a, ct0.b - ct1.b)
        out.noise_bits = noise_model.add_noise_bits(ct0.noise_bits, ct1.noise_bits)
        return out

    def add_plain(self, ct: Ciphertext, values) -> Ciphertext:
        coeffs = self.encoder.encode(values, ct.scale)
        m = small_poly(ct.basis, coeffs, Domain.NTT)
        return ct.with_polys(ct.a, ct.b + m)

    def mul_plain(self, ct: Ciphertext, values, *, scale: float | None = None) -> Ciphertext:
        scale = scale or self.default_scale
        coeffs = self.encoder.encode(values, scale)
        m = small_poly(ct.basis, coeffs, Domain.NTT)
        return ct.with_polys(ct.a * m, ct.b * m, scale=ct.scale * scale)

    def mul_mask(self, ct: Ciphertext, mask) -> Ciphertext:
        """Multiply by a 0/1 lane mask at a cheap exact scale.

        A mask at the full default scale would double the ciphertext's
        scale budget for what is conceptually a selection, while a mask at
        scale ~1 encodes 0/1 slot values inaccurately (they are not
        constant polynomials).  The compromise is an exact power of two
        near sqrt(Delta): per-slot encode error ~ sqrt(N/2)/2 / 2^14 (a
        few 1e-4 at test sizes), and because the scale is exactly
        representable, downstream scale alignment (`_matched_scales`
        amplification by powers of two) stays error-free.  The existing
        rescale waterline (sqrt(Delta)) absorbs the extra factor without
        consuming a limb, so masked and unmasked paths keep level parity.
        """
        amp = 2.0 ** round(math.log2(self.default_scale) / 2.0)
        return self.mul_plain(ct, np.asarray(mask), scale=amp)

    def _product(self, ct0: Ciphertext, ct1: Ciphertext, a: RnsPolynomial,
                 b: RnsPolynomial, ks_noise: float) -> Ciphertext:
        return Ciphertext(
            a=a, b=b,
            scale=ct0.scale * ct1.scale,
            noise_bits=ct0.noise_bits + ct1.noise_bits + ks_noise / 4.0,
        )

    def rescale(self, ct: Ciphertext) -> Ciphertext:
        """Divide by q_last: the CKKS noise/scale management step."""
        return self.rescale_to(ct, ct.level - 1)

    def _rescaled(self, ct: Ciphertext, a: RnsPolynomial,
                  b: RnsPolynomial) -> Ciphertext:
        """``ct`` rescaled to ``(a, b)``'s basis: scale / each dropped limb."""
        scale, noise = ct.scale, ct.noise_bits
        for q_last in reversed(ct.basis.moduli[a.basis.level:]):
            scale = scale / q_last
            noise = max(noise - np.log2(q_last), 3.0) + 1.0
        return ct.with_polys(a, b, scale=scale, noise_bits=noise)

    def mod_switch(self, ct: Ciphertext) -> Ciphertext:
        """Drop a limb, preserving the encrypted value and scale.

        The CKKS phase Delta*m + e is tiny relative to Q, so truncating the
        RNS basis keeps it intact modulo the smaller Q' (this is the CKKS
        "mod down" used to align levels without rescaling).  Limbs are
        independent in either domain, so nothing is transformed."""
        if ct.level <= 1:
            raise ValueError("cannot drop the last limb")
        return ct.with_polys(ct.a.drop_limb(), ct.b.drop_limb())

    @instrument("mod_switch")
    def mod_switch_to(self, ct: Ciphertext, level: int) -> Ciphertext:
        """Drop limbs down to ``level`` (bit-identical to looping
        :meth:`mod_switch`)."""
        count = ct.level - level
        if count <= 0:
            return ct
        if level < 1:
            raise ValueError("cannot drop the last limb")
        return ct.with_polys(ct.a.drop_limb(count), ct.b.drop_limb(count))

    def _rotation_exponent(self, steps: int, n: int) -> int:
        return ckks_rotation_exponent(steps, n)

    def conjugate(self, ct: Ciphertext) -> Ciphertext:
        return self.automorphism(ct, CONJUGATION_EXPONENT)

    def _check_pair(self, ct0: Ciphertext, ct1: Ciphertext, op: str) -> None:
        if ct0.basis != ct1.basis:
            raise ValueError(f"{op}: levels differ; rescale/mod_switch first")
        # Addition needs matching scales; multiplication does not — the
        # result's scale is simply the product of the operand scales.
        if op in ("add", "sub") and not np.isclose(ct0.scale, ct1.scale, rtol=1e-9):
            raise ValueError(f"{op}: scales differ ({ct0.scale} vs {ct1.scale})")
