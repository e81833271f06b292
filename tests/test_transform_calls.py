"""Transform *calls* per HE step: the fixed cost that small rings pay.

At N = 512 a transform call is one block, and most of its cost is fixed
(~100 µs of numpy calls whatever the rows), so the call count of a batch is
what its transform time follows.  ``tests/test_transform_parity.py`` pins
the rows; this pins the calls, read from the ``ntt_forward`` /
``ntt_inverse`` timer histograms under ``obs.profiled()``:

- an encryption transforms ``t*e + m`` once;
- ``rotate_many`` under the raised-modulus key switch scales every
  rotation's products down as one stack (one inverse + one forward call,
  on top of the one raise);
- a multiply and the rescale that consumes it are one ``mul_rescale`` step
  of 4 calls under that key switch, not 6;
- one batch of each ``serve_mixed`` program makes exactly the counts below.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import FunctionalBackend
from repro.fhe.bgv import BgvContext
from repro.fhe.ckks import CkksContext
from repro.fhe.params import FheParams
from repro.obs import profile
from repro.obs.metrics import global_metrics
from repro.poly import kernels
from repro.serve import ProgramRegistry, SlotBatcher
from repro.serve.traffic import (
    deep_ckks_program,
    linear_bgv_program,
    mixed_level_requests,
    poly_ckks_program,
    rotation_ckks_program,
)


@pytest.fixture(autouse=True)
def engine_calls_only(monkeypatch):
    """``REPRO_KERNEL_DEBUG=1``'s oracles transform too; count the engine."""
    monkeypatch.setattr(kernels, "DEBUG_VALIDATE", False)


def _calls() -> tuple[int, int]:
    reg = global_metrics()
    return (reg.histogram("kernel.ntt_forward.ms").count,
            reg.histogram("kernel.ntt_inverse.ms").count)


def _counted(fn) -> tuple[int, int]:
    """(forward, inverse) transform calls made by ``fn()``."""
    before = _calls()
    with profile.profiled():
        fn()
    return tuple(now - was for now, was in zip(_calls(), before))


@pytest.mark.parametrize("level", (1, 3))
def test_an_encryption_is_one_forward_call(level):
    params = FheParams.build(n=64, levels=3)
    bgv, ckks = BgvContext(params, seed=1), CkksContext(params, seed=1)
    for ctx in (bgv, ckks):          # the secret's NTT form at this basis
        ctx.encrypt_values([0], level=level)
    assert _counted(lambda: bgv.encrypt([1, 2, 3], level=level)) == (1, 0)
    assert _counted(lambda: ckks.encrypt_values([0.5], level=level)) == (1, 0)


@pytest.mark.parametrize("steps", ([1, 2], [1, 2, 3, 5]))
@pytest.mark.parametrize("scheme", (BgvContext, CkksContext))
def test_rotate_many_scales_down_once_under_v2(scheme, steps):
    ctx = scheme(FheParams.build(n=64, levels=3), seed=2, ks_variant=2)
    ct = (ctx.encrypt_values(np.linspace(-1, 1, 8)) if scheme is CkksContext
          else ctx.encrypt(np.arange(8)))
    ctx.rotate_many(ct, steps)                     # hints made outside
    # hoist_raise: 1 inverse + 1 forward; the stacked scale-down: 1 + 1
    assert _counted(lambda: ctx.rotate_many(ct, steps)) == (2, 2)
    # ... which is what one rotation alone pays
    assert _counted(lambda: ctx.rotate(ct, steps[0])) == (2, 2)


#: (program, arrival levels, k) -> (forward, inverse) calls of one batch:
#: 7 / 7 / 10 calls at k = 21 (two arrival cohorts), 4 / 7 / 9 at k = 1;
#: poly_ckks's multiply and its rescale are one ``mul_rescale`` step
BATCHES = [
    (linear_bgv_program, (3, 2), 21, (5, 2)),
    (linear_bgv_program, (3, 2), 1, (3, 1)),
    (poly_ckks_program, (4,), 21, (4, 3)),
    (poly_ckks_program, (4,), 1, (4, 3)),
    (rotation_ckks_program, (3, 2), 21, (7, 3)),
    (rotation_ckks_program, (3, 2), 1, (6, 3)),
]


@pytest.mark.parametrize(("build", "levels", "k", "want"), BATCHES,
                         ids=[f"{b.__name__}-k{k}" for b, _, k, _ in BATCHES])
def test_serve_mixed_batch_calls(build, levels, k, want):
    program = build(512)
    batcher = SlotBatcher(program, width=8)
    entry, _ = ProgramRegistry().context_for(program, seed=3)
    requests = mixed_level_requests(program, k, width=8, levels=levels, seed=5)

    def batch():
        return batcher.run(requests, backend=FunctionalBackend(validate=False),
                           context=entry.context, seed=3)

    batch()                                        # key-switch hints
    assert _counted(batch) == want


def test_deep_chain_batch_calls():
    program = deep_ckks_program(256)
    batcher = SlotBatcher(program, width=4, max_batch=2)
    entry, _ = ProgramRegistry().context_for(program, seed=3)
    requests = mixed_level_requests(program, 2, width=4, levels=(6,), seed=5)

    def batch():
        return batcher.run(requests, backend=FunctionalBackend(validate=False),
                           context=entry.context, seed=3)

    batch()
    # three multiply-rescale pairs at 4 calls each, plus encrypt / decrypt
    assert sum(_counted(batch)) == 15
