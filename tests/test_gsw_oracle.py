"""The GSW external product (repro.fhe.gsw) against its per-limb oracle.

``GswContext.external_product`` decomposes both ciphertext polys with the
key switch's digit stack and takes the inner products with the fused
multiply-accumulate; ``tests/kernel_oracles.py`` keeps the per-limb loop it
replaced.  The two must agree bit for bit.  Not ``@slow``: one encryption
and one product per case at N = 256, L = 4.
"""

import numpy as np
import pytest

from kernel_oracles import external_product_reference
from repro.fhe.gsw import GswContext

N = 256


def _multipliers():
    mono = np.zeros(N, dtype=np.int64)
    mono[3] = 1
    small = np.random.default_rng(11).integers(-2, 3, N)
    return {"monomial": mono, "zero": np.zeros(N, dtype=np.int64),
            "random small": small}


@pytest.mark.parametrize("name", list(_multipliers()))
def test_external_product_is_bit_identical_to_the_per_limb_oracle(bgv, name):
    gsw = GswContext(bgv)
    ct = bgv.encrypt(np.random.default_rng(41).integers(0, 256, N))
    g = gsw.encrypt(_multipliers()[name])
    out = gsw.external_product(g, ct)
    want_a, want_b = external_product_reference(g, ct)
    assert out.a.limbs.dtype == np.uint64
    assert np.array_equal(out.a.limbs, want_a)
    assert np.array_equal(out.b.limbs, want_b)
