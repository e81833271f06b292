"""Non-packed BGV bit bootstrapping (Sec. 7's bootstrapping benchmarks,
realized functionally in the Alperin-Sheriff–Peikert [3] / Halevi-Shoup
style).

Takes a noise-exhausted single-limb BGV ciphertext encrypting one bit in
coefficient 0 and homomorphically refreshes it:

1. **MSB conversion + modulus switch** (client-free, on public values):
   multiply the phase by (q+1)/2 so the bit rides the top, then round to a
   power-of-two modulus ``2^d``: phase becomes ``2^(d-1) m + e'  (mod 2^d)``.
2. **Homomorphic inner product**: with the bootstrapping key
   ``bk = Enc_{2^e}(s)`` (e = d + log2 N), compute ``u = b - a * bk`` using
   only plaintext multiplies/adds.  Coefficient 0 of u's plaintext is the
   (lifted) LWE phase; other coefficients are junk.
3. **Trace**: the ladder ``u <- u + sigma_k(u)`` over a generator tower of
   the Galois group zeroes all non-constant coefficients and multiplies
   coefficient 0 by N = 2^nu — shifting the payload to the top bits of the
   mod-2^e plaintext space.  A plaintext offset of 2^(e-2) then centers the
   noise so the message is exactly the top bit.
4. **Digit extraction** (GHS, p=2): for each low digit j, *lift* it to full
   remaining precision by repeated squaring (``z^(2^k) ≡ z_0 mod 2^(k+1)``),
   subtract the lifted digit, and divide by 2 (exact on even phases, and the
   division halves the plaintext modulus).  After e-1 digit removals only
   the message bit remains, at plaintext modulus 2.  This costs ~e^2/2
   homomorphic squarings — the quadratic blow-up that makes bootstrapping
   "tens to hundreds of homomorphic operations" (Sec. 2.2.2).

Two parameter conditions make step 4 sound with word-sized RNS:

- all moduli are *FHE-friendly* (q ≡ 1 mod 2^16, Sec. 5.3!), so BGV modulus
  switching leaves the mod-2^e plaintext bits untouched (q^{-1} ≡ 1);
- the secret is *sparse* (standard for bootstrapping), so the step-1
  rounding error fits under 2^(d-2).
"""

from __future__ import annotations

import math

import numpy as np

from repro.fhe.bgv import BgvContext
from repro.fhe.ciphertext import Ciphertext
from repro.fhe.keys import SecretKey
from repro.fhe.params import FheParams
from repro.rns.crt import RnsBasis
from repro.rns.primes import fhe_friendly_primes


class BitBootstrapper:
    """Bootstraps t=2 BGV ciphertexts encrypting a bit in coefficient 0."""

    def __init__(self, n: int = 64, *, d: int = 5, levels: int = 116,
                 secret_weight: int = 12, seed: int = 0):
        nu = int(math.log2(n))
        self.n = n
        self.d = d
        self.e = d + nu
        if self.e > 16:
            raise ValueError(
                f"need d + log2(N) <= 16 for FHE-friendly moduli (got {self.e})"
            )
        primes = fhe_friendly_primes(n, 30, levels)
        rng = np.random.default_rng(seed)
        self.secret = _sparse_secret(n, secret_weight, rng)
        # Input context: one limb, plaintext modulus 2 (exhausted regime).
        self.params_in = FheParams(
            n=n, basis=RnsBasis(primes[:1]), plaintext_modulus=2
        )
        self.ctx_in = BgvContext(self.params_in, seed=seed + 1, secret=self.secret)
        # Working context: plaintext modulus 2^e, deep chain, low-noise KS.
        self.params_big = FheParams(
            n=n, basis=RnsBasis(primes), plaintext_modulus=1 << self.e,
            error_width=4,
        )
        self.ctx = BgvContext(
            self.params_big, seed=seed + 2, ks_variant=2, secret=self.secret
        )
        # Bootstrapping key: the shared secret, encrypted under itself at 2^e.
        self.bootstrap_key = self.ctx.encrypt(self.secret.coeffs % (1 << self.e))

    # ----------------------------------------------------------- public API
    def encrypt_bit(self, bit: int) -> Ciphertext:
        """Encrypt a bit at the bottom of the chain (about to be exhausted)."""
        message = np.zeros(self.n, dtype=np.int64)
        message[0] = bit & 1
        return self.ctx_in.encrypt(message)

    def decrypt_bit(self, ct: Ciphertext) -> int:
        """Decrypt coefficient 0 mod 2 from any of the two contexts' bases."""
        phase = ct.b - ct.a * _secret_at(self.secret, ct.basis)
        return int(phase.to_int_coeffs(centered=True)[0]) & 1

    def bootstrap(self, ct: Ciphertext) -> Ciphertext:
        """Refresh a level-1 input ciphertext up the modulus chain."""
        a_v, b_v = self._switch_to_power_of_two(ct)
        u = self._homomorphic_phase(a_v, b_v)
        w = self._trace(u)
        # Center so the top bit is exactly the message despite signed noise.
        w = self.ctx.add_plain(w, _constant(self.n, 1 << (self.e - 2)))
        return self._extract_top_bit(w)

    # ------------------------------------------------------------ internals
    def _switch_to_power_of_two(self, ct: Ciphertext) -> tuple[np.ndarray, np.ndarray]:
        """MSB-encode and round the public ciphertext to modulus 2^d."""
        q1 = ct.basis.moduli[0]
        half = (q1 + 1) // 2  # 2^{-1} mod q1: moves the bit to the top
        scale = (1 << self.d) / q1
        # Both polynomials in one batched op; coeff * half < 2^59 under the
        # engine's 2^30 modulus bound, exact in uint64.
        coeffs = np.stack(
            [ct.a.to_coeff().limbs[0], ct.b.to_coeff().limbs[0]]
        ).astype(np.uint64)
        msb = (coeffs * np.uint64(half)) % np.uint64(q1)
        rounded = np.round(msb.astype(np.float64) * scale).astype(np.int64) % (1 << self.d)
        return rounded[0], rounded[1]

    def _homomorphic_phase(self, a_v: np.ndarray, b_v: np.ndarray) -> Ciphertext:
        """u = b - a*s over plaintext modulus 2^e, via the bootstrapping key."""
        minus_a = (-a_v) % (1 << self.e)
        u = self.ctx.mul_plain(self.bootstrap_key, minus_a)
        return self.ctx.add_plain(u, b_v % (1 << self.e))

    def _trace(self, u: Ciphertext) -> Ciphertext:
        """Sum over the Galois group: generator tower of <3> and -1."""
        n = self.n
        k = 3
        for _ in range(int(math.log2(n)) - 1):  # <3> has order N/2
            u = self.ctx.add(u, self.ctx.automorphism(u, k))
            k = k * k % (2 * n)
        u = self.ctx.add(u, self.ctx.automorphism(u, 2 * n - 1))  # sigma_{-1}
        return u

    def _square(self, ct: Ciphertext) -> Ciphertext:
        """Homomorphic square with two limb drops (the noise fixed point for
        30-bit primes; production BGV drops one ~55-bit prime instead).  At
        N = 64, 116 levels, seed 3, both bits refresh to level 6 with 167
        bits of noise budget left."""
        ctx = self.ctx
        return ctx.mod_switch(ctx.mod_switch(ctx.mul(ct, ct)))

    def _extract_top_bit(self, z: Ciphertext) -> Ciphertext:
        """GHS p=2 digit extraction with full digit lifting.

        Round j: lift digit j to the full remaining precision with
        ``e-1-j`` squarings, subtract, halve.  The one-step shortcut
        ``Z <- (Z - Z^2)/2`` is *not* sound beyond the first digit (its
        carry corrections corrupt higher bits); the full lift is what GHS's
        lemma licenses.
        """
        ctx = self.ctx
        for j in range(self.e - 1):
            lift = z
            for _ in range(self.e - 1 - j):
                lift = self._square(lift)
            z_aligned = ctx.mod_switch_to(z, lift.level)
            diff = ctx.sub(z_aligned, lift)      # ≡ 0 (mod 2): exact halving
            inv2 = pow(2, -1, diff.basis.modulus)
            z = diff.with_polys(
                diff.a.scalar_mul(inv2), diff.b.scalar_mul(inv2)
            )
        return z


def _sparse_secret(n: int, weight: int, rng: np.random.Generator) -> SecretKey:
    """Hamming-weight-limited ternary secret (standard for bootstrapping:
    it bounds the rounding error of the modulus switch to q' = 2^d)."""
    coeffs = np.zeros(n, dtype=np.int64)
    positions = rng.choice(n, size=weight, replace=False)
    coeffs[positions] = rng.choice([-1, 1], size=weight)
    return SecretKey(coeffs)


def _secret_at(secret: SecretKey, basis: RnsBasis):
    return secret.poly(basis)


def _constant(n: int, value: int) -> np.ndarray:
    out = np.zeros(n, dtype=np.int64)
    out[0] = value
    return out
