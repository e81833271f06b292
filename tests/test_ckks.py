"""CKKS scheme end-to-end (repro.fhe.ckks)."""

import numpy as np
import pytest

from repro.fhe.ckks import CkksContext, ckks_rotation_exponent

SLOTS = 128  # N = 256


@pytest.fixture(scope="module")
def vals():
    rng = np.random.default_rng(31)
    z0 = rng.normal(size=SLOTS) + 1j * rng.normal(size=SLOTS)
    z1 = rng.normal(size=SLOTS) + 1j * rng.normal(size=SLOTS)
    return z0, z1


def _err(a, b):
    return float(np.max(np.abs(a - b)))


class TestEncryptDecrypt:
    def test_roundtrip_precision(self, ckks, vals):
        z0, _ = vals
        dec = ckks.decrypt_values(ckks.encrypt_values(z0), SLOTS)
        assert _err(dec, z0) < 1e-4

    def test_real_values(self, ckks):
        xs = np.linspace(-2, 2, SLOTS)
        dec = ckks.decrypt_values(ckks.encrypt_values(xs), SLOTS)
        assert _err(dec.real, xs) < 1e-4

    def test_level_zero_rejected(self, ckks, vals):
        """level=0 is out of range, not a spelling of "top level"."""
        with pytest.raises(ValueError, match=r"level must be in \[1, 4\]"):
            ckks.encrypt_values(vals[0], level=0)

    def test_forces_t_equals_one(self, ckks):
        assert ckks.params.plaintext_modulus == 1


class TestArithmetic:
    def test_add(self, ckks, vals):
        z0, z1 = vals
        out = ckks.add(ckks.encrypt_values(z0), ckks.encrypt_values(z1))
        assert _err(ckks.decrypt_values(out, SLOTS), z0 + z1) < 1e-3

    def test_sub(self, ckks, vals):
        z0, z1 = vals
        out = ckks.sub(ckks.encrypt_values(z0), ckks.encrypt_values(z1))
        assert _err(ckks.decrypt_values(out, SLOTS), z0 - z1) < 1e-3

    def test_mul_then_rescale(self, ckks, vals):
        z0, z1 = vals
        prod = ckks.rescale(ckks.mul(ckks.encrypt_values(z0), ckks.encrypt_values(z1)))
        assert prod.level == ckks.params.level - 1
        assert _err(ckks.decrypt_values(prod, SLOTS), z0 * z1) < 1e-2

    def test_mul_plain(self, ckks, vals):
        z0, z1 = vals
        out = ckks.rescale(ckks.mul_plain(ckks.encrypt_values(z0), z1))
        assert _err(ckks.decrypt_values(out, SLOTS), z0 * z1) < 1e-2

    def test_add_plain(self, ckks, vals):
        z0, z1 = vals
        out = ckks.add_plain(ckks.encrypt_values(z0), z1)
        assert _err(ckks.decrypt_values(out, SLOTS), z0 + z1) < 1e-3

    def test_depth_two(self, ckks, vals):
        z0, z1 = vals
        p = ckks.rescale(ckks.mul(ckks.encrypt_values(z0), ckks.encrypt_values(z1)))
        # Fresh operand encrypted directly at the product's level and scale.
        other = ckks.encrypt_values(z1, level=p.level, scale=p.scale)
        p2 = ckks.rescale(ckks.mul(p, other))
        assert _err(ckks.decrypt_values(p2, SLOTS), z0 * z1 * z1) < 5e-2

    def test_mod_switch_preserves_value(self, ckks, vals):
        z0, _ = vals
        dropped = ckks.mod_switch(ckks.encrypt_values(z0))
        assert dropped.level == ckks.params.level - 1
        assert _err(ckks.decrypt_values(dropped, SLOTS), z0) < 1e-3

    def test_scale_mismatch_rejected(self, ckks, vals):
        z0, z1 = vals
        a = ckks.encrypt_values(z0)
        b = ckks.mul_plain(ckks.encrypt_values(z1), z1,
                           scale=2 * ckks.default_scale)
        with pytest.raises(ValueError):
            ckks.add(a, b)


class TestRotationsAndConjugation:
    @pytest.mark.parametrize("steps", [1, 3, 7])
    def test_rotate(self, ckks, vals, steps):
        z0, _ = vals
        out = ckks.rotate(ckks.encrypt_values(z0), steps)
        assert _err(ckks.decrypt_values(out, SLOTS), np.roll(z0, -steps)) < 1e-3

    def test_rotation_exponent(self):
        assert ckks_rotation_exponent(2, 256) == pow(5, 2, 512)

    def test_conjugate(self, ckks, vals):
        z0, _ = vals
        out = ckks.conjugate(ckks.encrypt_values(z0))
        assert _err(ckks.decrypt_values(out, SLOTS), np.conj(z0)) < 1e-3

    def test_rotate_composes(self, ckks, vals):
        z0, _ = vals
        ct = ckks.rotate(ckks.rotate(ckks.encrypt_values(z0), 2), 3)
        assert _err(ckks.decrypt_values(ct, SLOTS), np.roll(z0, -5)) < 1e-3


class TestRescaleBookkeeping:
    def test_rescale_tracks_scale(self, ckks, vals):
        z0, z1 = vals
        prod = ckks.mul(ckks.encrypt_values(z0), ckks.encrypt_values(z1))
        scale_before = prod.scale
        rescaled = ckks.rescale(prod)
        q_last = prod.basis.moduli[-1]
        assert rescaled.scale == pytest.approx(scale_before / q_last)

    def test_rescale_bottom_rejected(self, ckks, vals):
        ct = ckks.encrypt_values(vals[0], level=1)
        with pytest.raises(ValueError):
            ckks.rescale(ct)
