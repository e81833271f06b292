"""Thread-fan bit-identity: REPRO_NUM_THREADS must never change results.

The limb-stack pool (:mod:`repro.poly.parallel`) splits work along axes
whose chunks are computed by the same kernels on the same values, so every
fan point — flat and stacked NTT, batched base extension, scale-down, the
serve slot pack/unpack — must produce bit-identical outputs at any thread
count, and a threaded end-to-end batched run must match the serial one.
Also covers the pool plumbing itself: env parsing, the override, span
splitting, no-nesting, and deterministic error propagation.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.backends import FunctionalBackend
from repro.fhe.keyswitch import base_extend, scale_down
from repro.poly import parallel
from repro.poly.ntt import get_rns_context
from repro.poly.polynomial import Domain, RnsPolynomial
from repro.rns.crt import RnsBasis
from repro.rns.primes import ntt_friendly_primes
from repro.serve.batcher import SlotBatcher
from repro.serve.traffic import (
    linear_bgv_program,
    poly_ckks_program,
    synthetic_requests,
)

# Large enough that (L, N) stacks clear MIN_PARALLEL_ELEMS and the fans
# actually engage (1024 * 8 limbs = 8192 elements).
N, LEVEL = 1024, 8


@contextlib.contextmanager
def threads(n: int):
    prev = parallel.set_num_threads(n)
    try:
        yield
    finally:
        parallel.set_num_threads(prev)


@pytest.fixture(scope="module")
def setup():
    basis = RnsBasis(ntt_friendly_primes(N, 28, LEVEL))
    special = RnsBasis(
        [p for p in ntt_friendly_primes(N, 27, LEVEL + 4)
         if p not in basis.moduli][:4]
    )
    extended = RnsBasis(basis.moduli + special.moduli)
    rng = np.random.default_rng(23)
    limbs = np.stack(
        [rng.integers(0, q, N, dtype=np.uint64) for q in basis.moduli]
    )
    stack = np.stack([limbs, limbs[:, ::-1].copy(), limbs ^ 1, limbs])
    ext_limbs = np.stack(
        [rng.integers(0, q, N, dtype=np.uint64) for q in extended.moduli]
    )
    return {
        "basis": basis, "special": special, "extended": extended,
        "ctx": get_rns_context(N, basis.moduli),
        "limbs": limbs, "stack": stack,
        "x": RnsPolynomial(basis, limbs, Domain.COEFF),
        "x_ext": RnsPolynomial(extended, ext_limbs, Domain.COEFF),
    }


class TestPoolPlumbing:
    def test_env_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_NUM_THREADS", raising=False)
        assert parallel.num_threads() == 1
        monkeypatch.setenv("REPRO_NUM_THREADS", "4")
        assert parallel.num_threads() == 4
        monkeypatch.setenv("REPRO_NUM_THREADS", "0")
        assert parallel.num_threads() == 1
        monkeypatch.setenv("REPRO_NUM_THREADS", "not-a-number")
        assert parallel.num_threads() == 1

    def test_override_wins_and_restores(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "8")
        prev = parallel.set_num_threads(2)
        try:
            assert parallel.num_threads() == 2
        finally:
            parallel.set_num_threads(prev)
        assert parallel.num_threads() == 8

    def test_split_ranges_covers_exactly(self):
        for total in (1, 5, 8, 17):
            for parts in (1, 2, 3, 8, 50):
                spans = parallel.split_ranges(total, parts)
                assert spans[0][0] == 0 and spans[-1][1] == total
                assert all(lo < hi for lo, hi in spans)
                assert all(
                    spans[i][1] == spans[i + 1][0]
                    for i in range(len(spans) - 1)
                )
                assert len(spans) == min(parts, total)

    def test_no_nested_fans(self):
        seen = []
        with threads(2):
            parallel.run_tasks(
                [lambda: seen.append(parallel.active_threads())] * 2
            )
        assert seen == [1, 1]

    def test_first_submission_order_error_wins(self):
        def boom_a():
            raise ValueError("a")

        def boom_b():
            raise ValueError("b")

        with threads(2):
            with pytest.raises(ValueError, match="a"):
                parallel.run_tasks([boom_a, boom_b])


@pytest.mark.parametrize("nt", [1, 2, 4])
class TestFanBitIdentity:
    def test_ntt_flat(self, setup, nt):
        ref = setup["ctx"].forward(setup["limbs"])
        with threads(nt):
            assert np.array_equal(setup["ctx"].forward(setup["limbs"]), ref)
        ref_inv = setup["ctx"].inverse(ref)
        with threads(nt):
            assert np.array_equal(setup["ctx"].inverse(ref), ref_inv)

    def test_ntt_stacked(self, setup, nt):
        ref = setup["ctx"].forward(setup["stack"])
        with threads(nt):
            got = setup["ctx"].forward(setup["stack"])
        assert np.array_equal(got, ref)

    def test_base_extend(self, setup, nt):
        ref = base_extend(setup["x"], setup["extended"]).limbs
        with threads(nt):
            got = base_extend(setup["x"], setup["extended"]).limbs
        assert np.array_equal(got, ref)

    def test_scale_down(self, setup, nt):
        ref = scale_down(setup["x_ext"], setup["special"], 256).limbs
        with threads(nt):
            got = scale_down(setup["x_ext"], setup["special"], 256).limbs
        assert np.array_equal(got, ref)

    def test_pack_unpack(self, nt):
        program = poly_ckks_program(512)
        batcher = SlotBatcher(program, width=16)
        requests = synthetic_requests(
            program, batcher.capacity, width=16, seed=7
        )
        ref_inputs, ref_plains = batcher.pack(requests)
        out_id = program.ops[-1].op_id
        fake = {out_id: next(iter(ref_inputs.values()))}
        ref_unpacked = batcher.unpack(fake, batcher.capacity)
        with threads(nt):
            inputs, plains = batcher.pack(requests)
            unpacked = batcher.unpack(fake, batcher.capacity)
        assert list(inputs) == list(ref_inputs)
        assert list(plains) == list(ref_plains)
        assert all(np.array_equal(inputs[k], ref_inputs[k]) for k in inputs)
        assert all(np.array_equal(plains[k], ref_plains[k]) for k in plains)
        for got_req, ref_req in zip(unpacked, ref_unpacked):
            assert list(got_req) == list(ref_req)
            assert all(
                np.array_equal(got_req[k], ref_req[k]) for k in got_req
            )


class TestEndToEndThreaded:
    def test_bgv_batched_run_bit_identical(self):
        program = linear_bgv_program(N)
        batcher = SlotBatcher(program, width=16)
        requests = synthetic_requests(program, 4, width=16, seed=11)
        backend = FunctionalBackend(validate=False)
        ref, _ = batcher.run(requests, backend, seed=3)
        with threads(2):
            got, _ = batcher.run(requests, backend, seed=3)
        for got_req, ref_req in zip(got, ref):
            assert all(
                np.array_equal(got_req[k], ref_req[k]) for k in ref_req
            )

    def test_ckks_batched_run_matches(self):
        program = poly_ckks_program(N)
        batcher = SlotBatcher(program, width=16)
        requests = synthetic_requests(program, 4, width=16, seed=11)
        backend = FunctionalBackend(validate=False)
        ref, _ = batcher.run(requests, backend, seed=3)
        with threads(2):
            got, _ = batcher.run(requests, backend, seed=3)
        for got_req, ref_req in zip(got, ref):
            for k in ref_req:
                np.testing.assert_allclose(
                    got_req[k], ref_req[k], rtol=0, atol=1e-8
                )
