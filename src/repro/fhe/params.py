"""FHE parameter sets.

A parameter set fixes the ring degree N, the RNS modulus chain, the plaintext
modulus t (BGV/GSW) or scale Delta (CKKS), and the error distribution width.
Matching Sec. 2.2.3, ``N / log Q`` must clear a security floor; the library
checks a simple version of that constraint (the 2018 HE security standard's
128-bit table, linearly interpolated) and lets tests opt out with
``allow_insecure=True`` since functional tests run at toy sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rns.crt import MAX_MODULUS, RnsBasis
from repro.rns.primes import ntt_friendly_primes

# (N, max log Q) pairs from the homomorphic encryption security standard [2]
# for 128-bit classical security with ternary secrets.
_SECURITY_TABLE = {
    1024: 27,
    2048: 54,
    4096: 109,
    8192: 218,
    16384: 438,
    32768: 881,
}


def max_secure_log_q(n: int) -> int:
    """Largest log Q considered 128-bit secure at ring degree N."""
    if n in _SECURITY_TABLE:
        return _SECURITY_TABLE[n]
    if n > max(_SECURITY_TABLE):
        return _SECURITY_TABLE[max(_SECURITY_TABLE)] * (n // max(_SECURITY_TABLE))
    return 0


@dataclass(frozen=True)
class FheParams:
    """Immutable FHE parameter set shared by the scheme contexts."""

    n: int
    basis: RnsBasis
    plaintext_modulus: int = 256
    error_width: int = 8  # centered binomial parameter; sigma = sqrt(width/2)
    allow_insecure: bool = True

    def __post_init__(self):
        if self.n < 2 or self.n & (self.n - 1):
            raise ValueError(f"N must be a power of two >= 2, got {self.n}")
        if not 1 <= self.plaintext_modulus < MAX_MODULUS:
            raise ValueError(
                f"plaintext modulus must be in [1, 2^30), got "
                f"{self.plaintext_modulus}"
            )
        for q in self.basis.moduli:
            if (q - 1) % (2 * self.n):
                raise ValueError(f"modulus {q} is not NTT-friendly for N={self.n}")
        log_q = self.basis.modulus.bit_length()
        if not self.allow_insecure and log_q > max_secure_log_q(self.n):
            raise ValueError(
                f"insecure parameters: logQ={log_q} exceeds "
                f"{max_secure_log_q(self.n)} at N={self.n}"
            )

    @property
    def level(self) -> int:
        """Number of RNS limbs L at the top of the modulus chain."""
        return self.basis.level

    @property
    def log_q(self) -> int:
        return self.basis.modulus.bit_length()

    def to_state(self) -> dict:
        """Compact serializable form: plain ints only (no derived arrays)."""
        return {
            "n": self.n,
            "moduli": list(self.basis.moduli),
            "plaintext_modulus": self.plaintext_modulus,
            "error_width": self.error_width,
            "allow_insecure": self.allow_insecure,
        }

    @classmethod
    def from_state(cls, state: dict) -> "FheParams":
        return cls(
            n=state["n"],
            basis=RnsBasis(state["moduli"]),
            plaintext_modulus=state["plaintext_modulus"],
            error_width=state["error_width"],
            allow_insecure=state["allow_insecure"],
        )

    def basis_at(self, level: int) -> RnsBasis:
        """The RNS basis after modulus-switching down to ``level`` limbs."""
        if not (1 <= level <= self.level):
            raise ValueError(f"level must be in [1, {self.level}], got {level}")
        return RnsBasis(self.basis.moduli[:level])

    @classmethod
    def build(
        cls,
        n: int,
        levels: int,
        *,
        prime_bits: int = 28,
        plaintext_modulus: int = 256,
        error_width: int = 8,
        seed: int | None = None,
    ) -> "FheParams":
        """Construct a parameter set with freshly sampled NTT-friendly primes.

        The plaintext modulus must be a power of two not exceeding 2N (so that
        ``q ≡ 1 (mod 2N)`` implies ``q ≡ 1 (mod t)`` and BGV modulus switching
        needs no plaintext-scale correction), or any integer coprime to the
        primes (correction is then tracked at decryption).
        """
        primes = ntt_friendly_primes(n, prime_bits, levels, seed=seed)
        return cls(
            n=n,
            basis=RnsBasis(primes),
            plaintext_modulus=plaintext_modulus,
            error_width=error_width,
        )
