"""Golden bit-identity of the functional engine's homomorphic operations.

``engine_golden.json`` pins sha256 digests of the ``(a, b)`` limb bytes that
``mul`` / ``rotate`` / ``rotate_many`` / ``mod_switch(_to)`` / ``rescale(_to)``
produce on seeded inputs, for BGV under both key-switch variants (t = 257 and
the default 256) and CKKS, at N in {64, 1024} and levels {2, 3, 6}.  A change
to *how* the engine computes (which domain a correction is subtracted in,
how many rows a call transforms, how a transform is blocked) cannot move one
bit of one limb.  The JSON is the reference implementation: it is written by
running this module (``PYTHONPATH=src python tests/test_engine_golden.py``)
on the commit whose ciphertext bits are to be preserved, and is not edited
by hand.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.fhe.bgv import BgvContext
from repro.fhe.ckks import CkksContext
from repro.fhe.params import FheParams

GOLDEN = Path(__file__).with_name("engine_golden.json")
ROTATE_MANY_STEPS = [1, 2, 3]


def _cases() -> dict[str, tuple]:
    """case id -> (scheme, ks_variant, plaintext modulus, N, levels)."""
    cases = {}
    for n in (64, 1024):
        for levels in (2, 3, 6):
            for variant in (1, 2):
                for t in (257, 256):
                    cases[f"bgv_v{variant}_t{t}_n{n}_l{levels}"] = (
                        "bgv", variant, t, n, levels)
                cases[f"ckks_v{variant}_n{n}_l{levels}"] = (
                    "ckks", variant, 1, n, levels)
    return cases


CASES = _cases()


def _digest(*cts) -> str:
    h = hashlib.sha256()
    for ct in cts:
        for poly in (ct.a, ct.b):
            h.update(np.ascontiguousarray(poly.limbs).tobytes())
    return h.hexdigest()


def _setup(case: str):
    """The case's seeded context and its two fresh ciphertexts."""
    scheme, variant, t, n, levels = CASES[case]
    params = FheParams.build(n=n, levels=levels, plaintext_modulus=t)
    rng = np.random.default_rng([n, levels, t])
    if scheme == "bgv":
        ctx = BgvContext(params, seed=11, ks_variant=variant)
        values = [rng.integers(0, t, n) for _ in range(2)]
    else:
        ctx = CkksContext(params, seed=11, ks_variant=variant)
        values = [rng.uniform(-1.0, 1.0, n // 2) for _ in range(2)]
    x, y = (ctx.encrypt_values(v) for v in values)
    return ctx, x, y


def fingerprint(case: str) -> dict[str, str]:
    levels = CASES[case][4]
    ctx, x, y = _setup(case)
    out = {
        "encrypt": _digest(x, y),
        "mul": _digest(ctx.mul(x, y)),
        "rotate": _digest(ctx.rotate(x, 1)),
        "rotate_many": _digest(*ctx.rotate_many(x, ROTATE_MANY_STEPS)),
        "mod_switch": _digest(ctx.mod_switch(x)),
        "rescale": _digest(ctx.rescale(y)),
    }
    for drop in (1, 2, 3):
        if levels - drop >= 1:
            out[f"mod_switch_to-{drop}"] = _digest(
                ctx.mod_switch_to(x, levels - drop))
            out[f"rescale_to-{drop}"] = _digest(
                ctx.rescale_to(y, levels - drop))
    # A product one level down: the key switch at a basis the context did not
    # start at, on operands a rescale produced.
    low = ctx.rescale(x)
    out["mul_after_rescale"] = _digest(ctx.mul(low, ctx.rescale(y)))
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden["cases"]) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_matches_golden(case, golden):
    got = fingerprint(case)
    want = golden["cases"][case]
    assert sorted(got) == sorted(want), case
    # Operation by operation, so a drift reads as "rotate_many differs".
    for op in want:
        assert got[op] == want[op], (case, op)


@pytest.mark.parametrize("case", sorted(CASES))
def test_mul_rescale_is_the_rescaled_product(case):
    """``mul_rescale`` equals ``rescale(mul())`` (fused under the raised-
    modulus key switch, composed under Listing 1): limbs, basis, scale,
    plaintext scale and noise estimate, at the top level and one down."""
    ctx, x, y = _setup(case)
    pairs = [(x, y)]
    if x.level > 2:
        pairs.append((ctx.rescale(x), ctx.rescale(y)))
    for u, v in pairs:
        want = ctx.rescale(ctx.mul(u, v))
        got = ctx.mul_rescale(u, v)
        assert got.basis == want.basis
        assert _digest(got) == _digest(want), (case, u.level)
        assert ((got.scale, got.plaintext_scale, got.noise_bits)
                == (want.scale, want.plaintext_scale, want.noise_bits))


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {"cases": {case: fingerprint(case) for case in sorted(CASES)}},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(CASES)} cases)")
