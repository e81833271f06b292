"""Microbenchmark: batched residue-matrix kernels vs. the per-limb reference.

The batched engine's claim (and F1's premise) is that FHE ops are wide-vector
computations over (L, N) residue matrices; this compares the
:class:`~repro.poly.ntt.RnsNttContext` all-limb NTT and the vectorized CRT
reconstruction against the per-limb / per-coefficient Python-loop reference at
an F1-realistic shape, asserts bit-identity, and records the speedup."""

import time

import numpy as np

from repro.poly.ntt import NttContext, get_rns_context
from repro.rns.crt import RnsBasis
from repro.rns.primes import ntt_friendly_primes

N_BENCH = 4096
L_BENCH = 8
REPS = 5


def _setup():
    basis = RnsBasis(ntt_friendly_primes(N_BENCH, 28, L_BENCH))
    rng = np.random.default_rng(0)
    limbs = np.stack(
        [rng.integers(0, q, N_BENCH, dtype=np.uint64) for q in basis.moduli]
    )
    return basis, limbs


def _time(fn, reps=REPS):
    fn()  # warm caches
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_batched_ntt_vs_per_limb(benchmark, once):
    basis, limbs = _setup()
    ctx = get_rns_context(N_BENCH, basis.moduli)
    per_limb = [NttContext(N_BENCH, q) for q in basis.moduli]

    batched = once(benchmark, lambda: ctx.forward(limbs))
    reference = np.stack([c.forward(limbs[i]) for i, c in enumerate(per_limb)])
    assert np.array_equal(batched, reference)  # bit-identical

    t_batched = _time(lambda: ctx.forward(limbs))
    t_per_limb = _time(
        lambda: [c.forward(limbs[i]) for i, c in enumerate(per_limb)]
    )
    print(
        f"\nall-limb NTT (N={N_BENCH}, L={L_BENCH}): "
        f"batched {t_batched * 1e3:.2f} ms vs per-limb {t_per_limb * 1e3:.2f} ms "
        f"({t_per_limb / t_batched:.2f}x)"
    )
    # No wall-clock assertion here: at this large-N shape the two paths are
    # near parity (the batched win is at the small-N/high-L FHE shapes) and
    # CI load would make a ratio check flaky.  benchmarks/check_perf.py is
    # the perf gate; this test guards bit-identity and records the ratio.


def test_vectorized_from_rns_vs_per_coefficient(benchmark, once):
    basis, limbs = _setup()

    def reference():
        # The pre-batching reconstruction: Python loop over N coefficients.
        weights = basis.crt_weights()
        big_q = basis.modulus
        out = []
        for j in range(limbs.shape[1]):
            acc = 0
            for i, (q_over, q_over_inv) in enumerate(weights):
                acc += q_over * ((int(limbs[i, j]) * q_over_inv) % basis.moduli[i])
            out.append(acc % big_q)
        return out

    vectorized = once(benchmark, lambda: basis.from_rns(limbs))
    assert vectorized == reference()

    t_vec = _time(lambda: basis.from_rns(limbs), reps=3)
    t_ref = _time(reference, reps=3)
    print(
        f"\nfrom_rns (N={N_BENCH}, L={L_BENCH}): "
        f"vectorized {t_vec * 1e3:.2f} ms vs per-coefficient {t_ref * 1e3:.2f} ms "
        f"({t_ref / t_vec:.2f}x)"
    )
    assert t_vec < t_ref


def _transformed_rows(fn) -> int:
    """Rows ``fn()`` forward- and inverse-transforms (profiling on)."""
    from repro.obs import profile
    from repro.obs.metrics import global_metrics

    def rows():
        reg = global_metrics()
        return (reg.counter("kernel.ntt_forward.rows").value
                + reg.counter("kernel.ntt_inverse.rows").value)

    with profile.profiled():
        before = rows()
        fn()
        return rows() - before


def test_hoisted_rotations_beat_sequential(benchmark, once, monkeypatch):
    """Halevi-Shoup hoisting: k=8 rotations of one ciphertext reuse a single
    digit decomposition, so the batch must decrypt identically to sequential
    rotates and transform >= 3x fewer rows.  Rows are counted, not timed, so
    machine load cannot move the ratio (at L=8 the L + L(L-1) rows of the
    decomposition are paid once instead of eight times)."""
    from repro.fhe.bgv import BgvContext
    from repro.fhe.params import FheParams
    from repro.poly import kernels

    # REPRO_KERNEL_DEBUG=1's oracles transform too; count the engine.
    monkeypatch.setattr(kernels, "DEBUG_VALIDATE", False)
    params = FheParams.build(n=512, levels=8, prime_bits=28,
                             plaintext_modulus=256)
    bgv = BgvContext(params, seed=11)
    ct = bgv.encrypt(np.arange(params.n) % 256)
    steps = list(range(1, 9))
    for s in steps:  # hints built outside the counted region
        bgv.hint_v1(f"galois_{bgv._rotation_exponent(s, params.n)}", ct.basis)

    hoisted = once(benchmark, lambda: bgv.rotate_many(ct, steps))
    sequential = [bgv.rotate(ct, s) for s in steps]
    for h, s in zip(hoisted, sequential):
        assert np.array_equal(bgv.decrypt(h), bgv.decrypt(s))

    rows_hoisted = _transformed_rows(lambda: bgv.rotate_many(ct, steps))
    rows_seq = _transformed_rows(lambda: [bgv.rotate(ct, s) for s in steps])
    print(f"\nrotate x8 (N=512, L=8): hoisted {rows_hoisted} rows vs "
          f"sequential {rows_seq} rows ({rows_seq / rows_hoisted:.2f}x)")
    assert rows_seq > 3.0 * rows_hoisted
