"""Key switching internals (repro.fhe.keyswitch): the Listing-1 RNS variant
and the raised-modulus variant, plus base extension and scale-down."""

import numpy as np
import pytest

import kernel_oracles
from repro.fhe.keys import generate_ks_hint, generate_raised_ks_hint
from repro.fhe.keyswitch import base_extend, key_switch_v1, key_switch_v2, scale_down
from repro.fhe.sampling import uniform_poly
from repro.poly import kernels
from repro.poly.polynomial import Domain, RnsPolynomial
from repro.rns.crt import RnsBasis
from repro.rns.primes import ntt_friendly_primes

N = 128
T = 256


@pytest.fixture(scope="module")
def basis(bgv_params):
    return bgv_params.basis


def _phase_error_bits(u0, u1, s, x, old_key):
    """max |(u0 - u1*s) - x*old_key| as log2, centered mod Q."""
    got = u0 - u1 * s
    want = x * old_key
    diff = (got - want).to_int_coeffs(centered=True)
    worst = max((abs(d) for d in diff), default=0)
    return worst.bit_length()


class TestVariant1:
    def test_identity_on_phase(self, bgv, rng):
        """u0 - u1*s = x*s^2 + t*(small): the relinearization contract."""
        basis = bgv.params.basis
        x = uniform_poly(basis, bgv.params.n, rng, Domain.NTT)
        hint = bgv.hint_v1("relin", basis)
        u0, u1 = key_switch_v1(x, hint)
        s = bgv.secret.poly(basis)
        err_bits = _phase_error_bits(u0, u1, s, x, bgv.secret.square_poly(basis))
        # Error = t * sum d_i e_i: bounded by t * L * q * e * N.
        bound = (
            8 + 2 + 28 + 3 + bgv.params.n.bit_length()
        )
        assert err_bits <= bound

    def test_error_is_multiple_of_t(self, bgv, rng):
        basis = bgv.params.basis
        x = uniform_poly(basis, bgv.params.n, rng, Domain.NTT)
        u0, u1 = key_switch_v1(x, bgv.hint_v1("relin", basis))
        s = bgv.secret.poly(basis)
        diff = (u0 - u1 * s - x * bgv.secret.square_poly(basis)).to_int_coeffs()
        assert all(d % T == 0 for d in diff)

    def test_requires_ntt_domain(self, bgv, rng):
        basis = bgv.params.basis
        x = uniform_poly(basis, bgv.params.n, rng, Domain.COEFF)
        with pytest.raises(ValueError):
            key_switch_v1(x, bgv.hint_v1("relin", basis))

    def test_basis_mismatch_rejected(self, bgv, rng):
        basis = bgv.params.basis
        hint = bgv.hint_v1("relin", basis)
        low = uniform_poly(RnsBasis(basis.moduli[:2]), bgv.params.n, rng, Domain.NTT)
        with pytest.raises(ValueError):
            key_switch_v1(low, hint)


class TestVariant2:
    def test_identity_on_phase(self, bgv_v2, rng):
        basis = bgv_v2.params.basis
        x = uniform_poly(basis, bgv_v2.params.n, rng, Domain.NTT)
        hint = bgv_v2.hint_v2("relin", basis)
        u0, u1 = key_switch_v2(x, hint, T)
        s = bgv_v2.secret.poly(basis)
        err_bits = _phase_error_bits(
            u0.to_ntt(), u1.to_ntt(), s, x, bgv_v2.secret.square_poly(basis)
        )
        # v2's error is ~t*e*N — far below v1's.
        assert err_bits <= 8 + 3 + bgv_v2.params.n.bit_length() + 6


class TestBaseExtension:
    def test_extension_is_x_plus_multiple_of_q(self, bgv, rng):
        basis = bgv.params.basis
        special = bgv._special_basis_for(basis)
        extended = RnsBasis(basis.moduli + special.moduli)
        x = uniform_poly(basis, N, rng, Domain.COEFF)
        lifted = base_extend(x, extended)
        q = basis.modulus
        x_ints = x.to_int_coeffs(centered=False)
        for lifted_c, orig_c in zip(lifted.to_int_coeffs(centered=False), x_ints):
            diff = (lifted_c - orig_c) % extended.modulus
            assert diff % q == 0
            assert diff // q < basis.level  # u < L

    def test_original_limbs_preserved(self, bgv, rng):
        basis = bgv.params.basis
        special = bgv._special_basis_for(basis)
        extended = RnsBasis(basis.moduli + special.moduli)
        x = uniform_poly(basis, N, rng, Domain.COEFF)
        lifted = base_extend(x, extended)
        assert np.array_equal(lifted.limbs[: basis.level], x.limbs)

    def test_requires_coeff_domain(self, bgv, rng):
        basis = bgv.params.basis
        special = bgv._special_basis_for(basis)
        extended = RnsBasis(basis.moduli + special.moduli)
        x = uniform_poly(basis, N, rng, Domain.NTT)
        with pytest.raises(ValueError):
            base_extend(x, extended)


class TestScaleDown:
    def test_divides_by_p_with_t_preservation(self, bgv):
        basis = bgv.params.basis
        special = bgv._special_basis_for(basis)
        extended = RnsBasis(basis.moduli + special.moduli)
        p_product = special.modulus
        # Build x = P * v for a known small v: scale-down must return v.
        v_ints = list(range(-8, 8)) + [0] * (N - 16)
        x = RnsPolynomial.from_int_coeffs(
            extended, [c * p_product for c in v_ints]
        )
        out = scale_down(x, special, T)
        assert out.to_int_coeffs(centered=True) == v_ints

    def test_rounding_error_is_multiple_of_t_and_small(self, bgv, rng):
        basis = bgv.params.basis
        special = bgv._special_basis_for(basis)
        extended = RnsBasis(basis.moduli + special.moduli)
        x = uniform_poly(extended, N, rng, Domain.COEFF)
        out = scale_down(x, special, T)
        p_product = special.modulus
        x_ints = x.to_int_coeffs(centered=True)
        out_ints = out.to_int_coeffs(centered=True)
        q = basis.modulus
        for xi, oi in zip(x_ints, out_ints):
            err = (oi * p_product - xi) % q
            err = min(err, q - err)
            # delta bounded by P*(t+1)/2-ish.
            assert err <= p_product * (T + 2) // 2


class TestDebugHook:
    """The big-int oracles live in ``tests/kernel_oracles.py``; the hook
    ``tests/conftest.py`` installs must still catch an engine divergence."""

    def test_flipped_scale_down_bit_fails_a_v2_key_switch(self, bgv_v2,
                                                          monkeypatch):
        engine = kernel_oracles.ENGINE["scale_down_stack"]

        def flipped(*args):
            out = engine(*args).copy()
            out.flat[0] ^= np.uint64(1)
            return out

        monkeypatch.setitem(kernel_oracles.ENGINE, "scale_down_stack", flipped)
        x = bgv_v2.encrypt(np.arange(bgv_v2.params.n) % T).a
        hint = bgv_v2.hint_v2("relin", x.basis)
        monkeypatch.setattr(kernels, "DEBUG_VALIDATE", False)
        key_switch_v2(x, hint, T)  # nothing checks the engine
        monkeypatch.setattr(kernels, "DEBUG_VALIDATE", True)
        with pytest.raises(AssertionError, match="scale_down_stack diverged"):
            key_switch_v2(x, hint, T)
        monkeypatch.setitem(kernel_oracles.ENGINE, "scale_down_stack", engine)
        key_switch_v2(x, hint, T)  # the unflipped engine passes its oracle

    def test_flipped_key_switch_v1_bit_fails_hoisted_rotations(self, bgv,
                                                               monkeypatch):
        """The Listing-1 hook checks every hoisted key switch, Galois
        permutation included, against the per-digit loop."""
        engine = kernel_oracles.ENGINE["key_switch_v1_hoisted"]

        def flipped(*args):
            u0, u1 = engine(*args)
            limbs = u0.limbs.copy()
            limbs.flat[0] ^= np.uint64(1)
            return RnsPolynomial(u0.basis, limbs, u0.domain), u1

        ct = bgv.encrypt(np.arange(bgv.params.n) % T)
        monkeypatch.setattr(kernels, "DEBUG_VALIDATE", True)
        bgv.rotate_many(ct, [1, 2])  # the unflipped engine passes its oracle
        bgv.mul(ct, ct)
        monkeypatch.setitem(kernel_oracles.ENGINE, "key_switch_v1_hoisted",
                            flipped)
        for step in (lambda: bgv.rotate_many(ct, [1, 2]),
                     lambda: bgv.mul(ct, ct)):
            with pytest.raises(AssertionError,
                               match="key_switch_v1_hoisted diverged"):
                step()

    def test_flipped_fused_rescale_bit_fails_a_mul_rescale(self, bgv_v2,
                                                           monkeypatch):
        engine = kernel_oracles.ENGINE["key_switch_v2_rescale"]

        def flipped(*args):
            out = engine(*args).copy()
            out.flat[0] ^= np.uint64(1)
            return out

        x = bgv_v2.encrypt(np.arange(bgv_v2.params.n) % T)
        monkeypatch.setattr(kernels, "DEBUG_VALIDATE", True)
        bgv_v2.mul_rescale(x, x)  # the unflipped engine passes its oracle
        monkeypatch.setitem(kernel_oracles.ENGINE, "key_switch_v2_rescale",
                            flipped)
        with pytest.raises(AssertionError,
                           match="key_switch_v2_rescale diverged"):
            bgv_v2.mul_rescale(x, x)
