"""Scheme-agnostic FHE context interface.

BGV and CKKS differ in how plaintexts ride inside the ring (integers mod t
vs. fixed-point at scale Delta) but expose the same homomorphic-operation
surface — which is why a single DSL :class:`~repro.dsl.program.Program` can
be interpreted against either scheme, and why F1 runs both on one substrate.
:class:`FheContext` names that shared surface:

- ``encrypt_values`` / ``decrypt_values`` — scheme-appropriate encode +
  (de)encrypt of a slot/coefficient vector;
- ``add`` / ``sub`` / ``mul`` / ``mul_plain`` / ``add_plain`` / ``rotate`` —
  the homomorphic ops of the DSL (``rotate_many`` and ``mul_rescale`` run
  a rotation set and a multiply-then-rescale as one step);
- ``rescale`` — the per-scheme noise/level management step a DSL
  ``MOD_SWITCH`` lowers to (BGV modulus switching, CKKS rescaling).

The historical per-scheme names (BGV ``encrypt``/``decrypt``/``mod_switch``,
CKKS ``encrypt_values``/``decrypt_values``/``rescale``) remain available on
the concrete contexts; the unified names are thin aliases where the scheme
already had its own spelling.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.fhe.ciphertext import Ciphertext


class FheContext(abc.ABC):
    """The homomorphic-operation surface shared by all schemes.

    Concrete contexts (:class:`~repro.fhe.bgv.BgvContext`,
    :class:`~repro.fhe.ckks.CkksContext`) implement these; backends that
    interpret DSL programs (:class:`repro.backends.FunctionalBackend`)
    program against exactly this interface and nothing scheme-specific.
    """

    #: scheme tag matching :attr:`repro.dsl.program.Program.scheme`
    scheme: str = ""

    # ----------------------------------------------------------- encryption
    @abc.abstractmethod
    def encrypt_values(self, values, *, level: int | None = None,
                       scale: float | None = None) -> Ciphertext:
        """Encode and encrypt a vector of scheme-native values.

        BGV encodes integers mod t into coefficients (``scale`` is ignored);
        CKKS encodes complex/real slot values at scale Delta.
        """

    @abc.abstractmethod
    def decrypt_values(self, ct: Ciphertext, count: int | None = None) -> np.ndarray:
        """Decrypt and decode back to values (first ``count`` if given)."""

    # --------------------------------------------------------------- HE ops
    @abc.abstractmethod
    def add(self, ct0: Ciphertext, ct1: Ciphertext) -> Ciphertext: ...

    @abc.abstractmethod
    def sub(self, ct0: Ciphertext, ct1: Ciphertext) -> Ciphertext: ...

    @abc.abstractmethod
    def mul(self, ct0: Ciphertext, ct1: Ciphertext) -> Ciphertext: ...

    @abc.abstractmethod
    def mul_plain(self, ct: Ciphertext, values) -> Ciphertext: ...

    @abc.abstractmethod
    def add_plain(self, ct: Ciphertext, values) -> Ciphertext: ...

    @abc.abstractmethod
    def rotate(self, ct: Ciphertext, steps: int) -> Ciphertext: ...

    def mul_mask(self, ct: Ciphertext, mask) -> Ciphertext:
        """Multiply by a 0/1 lane mask (zero the lanes where ``mask`` is 0).

        Semantically this is just ``mul_plain``, but masks deserve their
        own entry point because schemes can encode them more carefully
        than a generic plaintext: CKKS overrides this to encode the mask
        at an exact power-of-two scale near sqrt(Delta), so masking (the
        slot-batching rotate-then-mask lowering) costs far less precision
        and scale growth than a full-Delta multiply.  For BGV a 0/1 vector
        is exact at any scale, so the default is fine.
        """
        return self.mul_plain(ct, np.asarray(mask))

    def rotate_many(self, ct: Ciphertext, steps: list[int]) -> list[Ciphertext]:
        """Rotate one ciphertext by several amounts.

        Default is the sequential loop; contexts with a cheaper shared-input
        path (Halevi–Shoup hoisting in :class:`~repro.fhe.bgv.BgvContext`)
        override it.  Outputs must decrypt identically to
        ``[self.rotate(ct, s) for s in steps]``.
        """
        return [self.rotate(ct, s) for s in steps]

    def mul_rescale(self, ct0: Ciphertext, ct1: Ciphertext) -> Ciphertext:
        """A multiply and the rescale that consumes it, bit for bit the
        composition (the default); contexts whose key switch ends in a
        scale-down (:class:`~repro.fhe.bgv.BgvContext`'s variant 2) fuse it."""
        return self.rescale(self.mul(ct0, ct1))

    @abc.abstractmethod
    def rescale(self, ct: Ciphertext) -> Ciphertext:
        """Drop one RNS limb with the scheme's noise/scale management."""

    # ------------------------------------------------------------ utilities
    def rescale_to(self, ct: Ciphertext, level: int) -> Ciphertext:
        """Rescale down until the ciphertext sits at ``level`` limbs."""
        while ct.level > level:
            ct = self.rescale(ct)
        return ct


def context_from_state(state: dict) -> FheContext:
    """Rebuild a concrete context from a ``to_state()`` dict.

    Dispatches on the state's ``scheme`` tag, so callers that shipped a
    serialized context across a process boundary (the serving layer's
    process executor) need not know which scheme produced it.  Only compact
    state travels — parameters, secret-key coefficients, RNG state; every
    derived cache (NTT twiddles, Shoup quotients, key-switch hints) is
    rebuilt lazily on the receiving side.
    """
    from repro.fhe.bgv import BgvContext
    from repro.fhe.ckks import CkksContext

    scheme = state.get("scheme")
    if scheme == "ckks":
        return CkksContext.from_state(state)
    if scheme == "bgv":
        return BgvContext.from_state(state)
    raise ValueError(f"cannot restore a context for scheme {scheme!r}")
