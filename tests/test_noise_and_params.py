"""Noise model (repro.fhe.noise) and parameter validation (repro.fhe.params)."""

import numpy as np
import pytest

from repro.fhe import noise
from repro.fhe.params import FheParams, max_secure_log_q
from repro.poly.polynomial import RnsPolynomial
from repro.rns.crt import RnsBasis
from repro.rns.primes import ntt_friendly_primes


class TestNoiseEstimates:
    """The analytic estimates must upper-bound the measured noise."""

    def _measured_bits(self, bgv, ct):
        phase = ct.b - ct.a * bgv.secret.poly(ct.basis)
        wide = phase.to_int_coeffs(centered=True)
        worst = max(abs(c) for c in wide)
        return max(worst, 1).bit_length()

    def test_fresh_estimate_bounds_measurement(self, bgv, rng):
        ct = bgv.encrypt(rng.integers(0, 256, 256))
        assert ct.noise_bits >= self._measured_bits(bgv, ct) - 1

    def test_mul_estimate_bounds_measurement(self, bgv, rng):
        m = rng.integers(0, 256, 256)
        ct = bgv.mul(bgv.encrypt(m), bgv.encrypt(m))
        assert ct.noise_bits >= self._measured_bits(bgv, ct) - 1

    def test_add_estimate_bounds_measurement(self, bgv, rng):
        m = rng.integers(0, 256, 256)
        ct = bgv.add(bgv.encrypt(m), bgv.encrypt(m))
        assert ct.noise_bits >= self._measured_bits(bgv, ct) - 1

    def test_rotation_estimate_bounds_measurement(self, bgv, rng):
        m = rng.integers(0, 256, 256)
        ct = bgv.rotate(bgv.encrypt(m), 1)
        assert ct.noise_bits >= self._measured_bits(bgv, ct) - 1

    def test_mod_switch_reduces_estimate(self, bgv, rng):
        m = rng.integers(0, 256, 256)
        prod = bgv.mul(bgv.encrypt(m), bgv.encrypt(m))
        assert bgv.mod_switch(prod).noise_bits < prod.noise_bits

    def test_formula_monotonicity(self):
        assert noise.mul_noise_bits(20, 20, 1024, 256) > 40
        assert noise.add_noise_bits(20, 10) == 21
        assert noise.keyswitch_v2_noise_bits(1024, 256, 8) < \
            noise.keyswitch_v1_noise_bits(1024, 256, 8, 1 << 28, 8)


class TestParams:
    def test_security_table(self):
        assert max_secure_log_q(4096) == 109
        assert max_secure_log_q(16384) == 438
        assert max_secure_log_q(512) == 0

    def test_insecure_params_rejected_when_enforced(self):
        primes = ntt_friendly_primes(1024, 28, 4)  # logQ ~112 >> 27
        with pytest.raises(ValueError):
            FheParams(
                n=1024, basis=RnsBasis(primes), allow_insecure=False
            )

    def test_secure_params_accepted(self):
        primes = ntt_friendly_primes(4096, 26, 4)  # logQ ~104 <= 109
        FheParams(n=4096, basis=RnsBasis(primes), allow_insecure=False)

    def test_non_ntt_friendly_modulus_rejected(self):
        with pytest.raises(ValueError):
            FheParams(n=1024, basis=RnsBasis([97]))

    @pytest.mark.parametrize("n", [0, 1, 96])
    def test_ring_degree_must_be_a_power_of_two_of_at_least_2(self, n):
        basis = RnsBasis(ntt_friendly_primes(64, 28, 2))
        with pytest.raises(ValueError, match="power of two"):
            FheParams(n=n, basis=basis)

    @pytest.mark.parametrize("t", [0, -3, 1 << 30, 2**40])
    def test_plaintext_modulus_must_be_in_1_to_2_pow_30(self, t):
        basis = RnsBasis(ntt_friendly_primes(64, 28, 2))
        bound = "plaintext modulus must be in \\[1, 2\\^30\\)"
        with pytest.raises(ValueError, match=bound):
            FheParams(n=64, basis=basis, plaintext_modulus=t)
        state = FheParams(n=64, basis=basis).to_state()
        with pytest.raises(ValueError, match=bound):
            FheParams.from_state({**state, "plaintext_modulus": t})
        FheParams(n=64, basis=basis, plaintext_modulus=(1 << 30) - 1)

    def test_33_bit_modulus_rejected_on_restore(self):
        """A 33-bit NTT-friendly modulus used to build a parameter set."""
        basis = RnsBasis(ntt_friendly_primes(64, 28, 2))
        state = FheParams(n=64, basis=basis).to_state()
        with pytest.raises(ValueError, match="2\\^30"):
            FheParams.from_state({**state, "moduli": [8589932801]})
        poly = RnsPolynomial.zeros(basis, 64).to_state()
        with pytest.raises(ValueError, match="2\\^30"):
            RnsPolynomial.from_state({**poly, "moduli": (8589932801, 65537)})

    def test_31_bit_moduli_rejected(self):
        """Every door to a parameter set or polynomial refuses a modulus at
        or above the engine's 2^30 bound, naming it."""
        with pytest.raises(ValueError, match="2\\^30"):
            FheParams.build(n=64, levels=2, prime_bits=31)
        FheParams.build(n=64, levels=2, prime_bits=30)
        wide = ntt_friendly_primes(64, 31, 2)
        basis = RnsBasis(ntt_friendly_primes(64, 28, 2))
        state = FheParams(n=64, basis=basis).to_state()
        with pytest.raises(ValueError, match="2\\^30"):
            FheParams.from_state({**state, "moduli": wide})
        poly = RnsPolynomial.zeros(basis, 64).to_state()
        with pytest.raises(ValueError, match="2\\^30"):
            RnsPolynomial.from_state({**poly, "moduli": tuple(wide)})

    def test_basis_at(self, bgv_params):
        assert bgv_params.basis_at(2).level == 2
        assert bgv_params.basis_at(bgv_params.level) == bgv_params.basis
        with pytest.raises(ValueError):
            bgv_params.basis_at(0)
        with pytest.raises(ValueError):
            bgv_params.basis_at(bgv_params.level + 1)

    def test_build_respects_plaintext_modulus(self):
        p = FheParams.build(n=128, levels=2, plaintext_modulus=16)
        assert p.plaintext_modulus == 16
        # q ≡ 1 mod 2N implies q ≡ 1 mod t for power-of-two t <= 2N.
        for q in p.basis.moduli:
            assert q % 16 == 1

    def test_log_q(self, bgv_params):
        assert bgv_params.log_q == bgv_params.basis.modulus.bit_length()
