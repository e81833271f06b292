"""Shared fixtures: small parameter sets and contexts, cached per session.

Functional tests run at toy ring sizes (N = 64..512) — the math is identical
at every power-of-two N (the paper's own functional simulator spans
N = 1024..16384; we go smaller for speed and cover the large sizes in the
performance-model tests, which are size-independent).

``REPRO_KERNEL_DEBUG=1`` also checks every ``base_extend`` /
``scale_down_stack`` call, every Listing-1 key switch, every rescale and
every fused multiply-rescale against its oracle: the hook below is
installed before any test module imports the engine, and reads
``kernels.DEBUG_VALIDATE`` per call."""

import numpy as np
import pytest

import kernel_oracles
from repro.fhe.bgv import BgvContext
from repro.fhe.ckks import CkksContext
from repro.fhe.params import FheParams

kernel_oracles.install()


@pytest.fixture(scope="session")
def bgv_params():
    return FheParams.build(n=256, levels=4, prime_bits=28, plaintext_modulus=256)


@pytest.fixture(scope="session")
def bgv(bgv_params):
    return BgvContext(bgv_params, seed=7)


@pytest.fixture(scope="session")
def bgv_v2(bgv_params):
    return BgvContext(bgv_params, seed=7, ks_variant=2)


@pytest.fixture(scope="session")
def ckks_params():
    return FheParams.build(n=256, levels=4, prime_bits=28, plaintext_modulus=1)


@pytest.fixture(scope="session")
def ckks(ckks_params):
    return CkksContext(ckks_params, seed=9)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
