"""Functional simulator (repro.sim.functional, Sec. 8.5): DSL programs
executed on real ciphertexts, checked against a plaintext oracle."""

import numpy as np
import pytest

from repro.dsl.program import OpKind, Program
from repro.fhe.bgv import BgvContext
from repro.fhe.ckks import CkksContext
from repro.fhe.params import FheParams
from repro.poly.automorphism import automorphism_coeff
from repro.poly.ntt import naive_negacyclic_multiply
from repro.sim.functional import FunctionalSimulator

N = 256
T = 256


def plaintext_oracle(program: Program, inputs, plains):
    """Interpret the op graph directly on plaintext vectors (mod t).

    Rotations are sigma_{3^r} on coefficients — the same semantics the
    homomorphic path implements."""
    env = {}
    out = {}
    for op in program.ops:
        k = op.kind
        if k is OpKind.INPUT:
            env[op.op_id] = np.asarray(inputs[op.op_id], dtype=np.uint64) % T
        elif k is OpKind.INPUT_PLAIN:
            v = np.zeros(N, dtype=np.uint64)
            data = np.asarray(plains.get(op.op_id, [1]), dtype=np.uint64)
            v[: data.shape[0]] = data % T
            env[op.op_id] = v
        elif k is OpKind.ADD:
            env[op.op_id] = (env[op.args[0]] + env[op.args[1]]) % T
        elif k is OpKind.SUB:
            env[op.op_id] = (env[op.args[0]] - env[op.args[1]]) % T
        elif k is OpKind.MUL:
            env[op.op_id] = naive_negacyclic_multiply(
                env[op.args[0]], env[op.args[1]], T
            )
        elif k is OpKind.MUL_PLAIN:
            env[op.op_id] = naive_negacyclic_multiply(
                env[op.args[0]], env[op.args[1]], T
            )
        elif k is OpKind.ADD_PLAIN:
            env[op.op_id] = (env[op.args[0]] + env[op.args[1]]) % T
        elif k is OpKind.ROTATE:
            exponent = pow(3, op.rotate_steps, 2 * N)
            env[op.op_id] = automorphism_coeff(env[op.args[0]], exponent, T)
        elif k is OpKind.MOD_SWITCH:
            env[op.op_id] = env[op.args[0]]
        elif k is OpKind.OUTPUT:
            env[op.op_id] = env[op.args[0]]
            out[op.op_id] = env[op.args[0]]
    return out


@pytest.fixture(scope="module")
def params():
    return FheParams.build(n=N, levels=4, prime_bits=28, plaintext_modulus=T)


class TestBgvPrograms:
    def _run_and_compare(self, program, params, inputs, plains=None):
        plains = plains or {}
        sim = FunctionalSimulator(program, params, seed=5)
        got = sim.run(inputs, plains)
        want = plaintext_oracle(program, inputs, plains)
        assert got.keys() == want.keys()
        for key in got:
            assert np.array_equal(got[key] % T, want[key] % T), key

    def test_add_chain(self, params):
        p = Program(n=N, name="adds")
        x, y = p.input(2), p.input(2)
        p.output(p.add(p.add(x, y), x))
        rng = np.random.default_rng(0)
        self._run_and_compare(
            p, params,
            {x.op_id: rng.integers(0, T, N), y.op_id: rng.integers(0, T, N)},
        )

    def test_mul_with_rescale(self, params):
        p = Program(n=N, name="mul")
        x, y = p.input(3), p.input(3)
        p.output(p.mul(x, y))
        rng = np.random.default_rng(1)
        self._run_and_compare(
            p, params,
            {x.op_id: rng.integers(0, T, N), y.op_id: rng.integers(0, T, N)},
        )

    def test_rotate(self, params):
        p = Program(n=N, name="rot")
        x = p.input(2)
        p.output(p.rotate(x, 3))
        rng = np.random.default_rng(2)
        self._run_and_compare(p, params, {x.op_id: rng.integers(0, T, N)})

    def test_mul_plain_and_add_plain(self, params):
        p = Program(n=N, name="plain")
        x = p.input(2)
        w = p.input_plain(2)
        c = p.input_plain(2)
        p.output(p.add_plain(p.mul_plain(x, w), c))
        rng = np.random.default_rng(3)
        self._run_and_compare(
            p, params,
            {x.op_id: rng.integers(0, T, N)},
            {w.op_id: rng.integers(0, T, N), c.op_id: rng.integers(0, T, N)},
        )

    def test_matvec_program_shape(self, params):
        """A miniature Listing-2: mul + rotate-accumulate + output."""
        p = Program(n=N, name="mini_matvec")
        row = p.input(3)
        v = p.input(3)
        prod = p.mul(row, v)
        acc = p.add(prod, p.rotate(prod, 1))
        acc = p.add(acc, p.rotate(acc, 2))
        p.output(acc)
        rng = np.random.default_rng(4)
        self._run_and_compare(
            p, params,
            {row.op_id: rng.integers(0, T, N), v.op_id: rng.integers(0, T, N)},
        )

    def test_depth_two(self, params):
        p = Program(n=N, name="deep")
        x, y, z = p.input(4), p.input(4), p.input(4)
        p.output(p.mul(p.mul(x, y), z))
        rng = np.random.default_rng(6)
        self._run_and_compare(
            p, params,
            {h.op_id: rng.integers(0, T, N) for h in (x, y, z)},
        )


class TestMulRescaleFusion:
    """A MUL whose one consumer is a MOD_SWITCH that rescales runs as one
    ``ctx.mul_rescale`` step, bit for bit the two steps in turn; any other
    MUL runs on its own."""

    @staticmethod
    def _run(program, ctx, *, fused=True):
        calls = []
        for name in ("mul", "mul_rescale", "rescale", "mod_switch"):
            def counted(*args, _name=name, _method=getattr(ctx, name)):
                calls.append(_name)
                return _method(*args)
            setattr(ctx, name, counted)
        if not fused:
            ctx.mul_rescale = lambda x, y: ctx.rescale(ctx.mul(x, y))
        rng = np.random.default_rng(8)
        inputs = {op.op_id: (rng.uniform(-1, 1, N // 2) if ctx.scheme == "ckks"
                             else rng.integers(0, T, N))
                  for op in program.ops if op.kind is OpKind.INPUT}
        sim = FunctionalSimulator(program, ctx.params, context=ctx)
        return sim.run(inputs), calls

    @pytest.mark.parametrize("scheme", ("bgv", "ckks"))
    def test_a_rescaled_product_runs_fused(self, params, scheme):
        p = Program(n=N, scheme=scheme, name="chain")
        x, y = p.input(4), p.input(4)
        p.output(p.mul(p.mul(x, y), x))

        def context():
            if scheme == "ckks":
                return CkksContext(params, seed=4)
            return BgvContext(params, seed=4, ks_variant=2)

        got, calls = self._run(p, context())
        want, _ = self._run(p, context(), fused=False)
        assert calls.count("mul_rescale") == 2 and "mul" not in calls
        for key in want:
            assert np.array_equal(got[key], want[key])

    def test_a_product_with_a_second_consumer_is_not_fused(self, params):
        p = Program(n=N, name="two_users")
        x, y = p.input(3), p.input(3)
        prod = p.mul(x, y, rescale=False)
        p.output(p.mod_switch(prod))
        p.output(prod)
        _, calls = self._run(p, BgvContext(params, seed=4, ks_variant=2))
        assert calls == ["mul", "rescale", "mod_switch"]

    def test_a_ckks_product_lowered_to_mod_down_is_not_fused(self, params):
        # At Delta = 2^12 a product (scale 2^24) divided by a 28-bit limb
        # would sink below the sqrt(Delta) waterline: MOD_SWITCH is mod-down.
        p = Program(n=N, scheme="ckks", name="mod_down")
        x, y = p.input(3), p.input(3)
        p.output(p.mul(x, y))
        _, calls = self._run(p, CkksContext(params, seed=4, scale=2.0**12))
        assert calls == ["mul", "mod_switch"]


class TestValidation:
    def test_n_mismatch(self, params):
        with pytest.raises(ValueError):
            FunctionalSimulator(Program(n=2 * N), params)

    def test_level_overflow(self, params):
        p = Program(n=N)
        p.input(params.level + 3)
        with pytest.raises(ValueError):
            FunctionalSimulator(p, params)

    def test_missing_input(self, params):
        p = Program(n=N)
        x = p.input(2)
        p.output(x)
        with pytest.raises(KeyError):
            FunctionalSimulator(p, params).run({})
