"""Functional simulator (Sec. 8.5): executes DSL programs with real FHE math.

Runs a :class:`~repro.dsl.program.Program` on actual ciphertexts, verifying
input-output correctness of the homomorphic-operation graph the compiler
schedules.  This mirrors the paper's C++/NTL functional simulator: "this
allows one to verify correctness of FHE algorithms and to create a dataflow
graph".

The interpreter is scheme-agnostic: it drives the unified
:class:`~repro.fhe.context.FheContext` surface (``encrypt_values`` /
``decrypt_values`` / ``rescale`` / the shared HE ops), so the same loop
executes BGV and CKKS programs.  The only scheme-aware pieces are the scale
managers: CKKS additions require operands at one scale Delta, and BGV
additions require one accumulated plaintext-scale factor, so mismatched
operands are aligned with a plaintext-constant multiplication before the op
(standard CKKS practice; a no-op for power-of-two ``t ≤ 2N`` BGV, where the
factor is always 1).

Programs compiled for the performance model typically use N = 16K; the
functional simulator accepts any power-of-two N, so tests run the *same
program shape* at small N (the paper's simulator likewise supports
N = 1024...16384).
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from repro.dsl.program import KS_OPS, OpKind, Program
from repro.fhe.bgv import BgvContext
from repro.fhe.ciphertext import Ciphertext
from repro.fhe.ckks import CkksContext
from repro.fhe.context import FheContext
from repro.fhe.params import FheParams


class FunctionalSimulator:
    """Executes a program's homomorphic ops on real ciphertexts.

    After :meth:`run`, :attr:`executed_counts` holds the per-kind count of
    program ops consumed and :attr:`hints_used` the distinct key-switch
    hints, so callers can cross-check that other backends (e.g. the F1
    compiler) consumed the exact same graph.
    """

    def __init__(self, program: Program, params: FheParams, *, seed: int = 0,
                 ks_variant: int | None = None, context: FheContext | None = None):
        if program.n != params.n:
            raise ValueError(
                f"program N={program.n} does not match params N={params.n}"
            )
        max_level = max((op.level for op in program.ops), default=1)
        if max_level > params.level:
            raise ValueError(
                f"program needs {max_level} limbs; params provide {params.level}"
            )
        self.program = program
        self.params = params
        if context is not None:
            ctx_params = getattr(context, "params", None)
            if ctx_params is not None and ctx_params.n != program.n:
                raise ValueError(
                    f"injected context has N={ctx_params.n}; "
                    f"program has N={program.n}"
                )
            if context.scheme and context.scheme != program.scheme and not (
                context.scheme == "bgv" and program.scheme == "gsw"
            ):
                raise ValueError(
                    f"injected {context.scheme} context cannot run a "
                    f"{program.scheme} program"
                )
            self.ctx: FheContext = context
        elif program.scheme == "ckks":
            kw = {"ks_variant": ks_variant} if ks_variant else {}
            self.ctx = CkksContext(params, seed=seed, **kw)
        else:
            self.ctx = BgvContext(params, seed=seed, ks_variant=ks_variant or 1)
        self.executed_counts: dict[str, int] = {}
        self.hints_used: set[str] = set()
        self._mask_cache: dict[tuple[int, int], np.ndarray] = {}

    def run(self, inputs: dict[int, np.ndarray], plains: dict[int, np.ndarray] | None = None,
            *, batch_layout=None) -> dict[int, np.ndarray]:
        """Execute; returns decrypted outputs keyed by OUTPUT op id.

        ``inputs`` maps INPUT op ids to value vectors; ``plains`` maps
        INPUT_PLAIN op ids to unencrypted vectors.

        ``batch_layout`` (a :class:`repro.serve.batcher.BatchLayout`, duck
        typed here to avoid a layering cycle) activates the slot-batching
        extensions: INPUT encryption honors per-request arrival levels
        (cohorts encrypted at their own level, mod-switched to the batch
        waterline, then summed — blocks are disjoint so addition merges
        them exactly), and when ``masked_rotations`` is set every ROTATE
        is followed by the 0/1 block-edge mask that makes the global slot
        rotation equal k per-request rotations.
        """
        plains = plains or {}
        ctx = self.ctx
        self.executed_counts = {}
        self.hints_used = set()
        env: dict[int, Ciphertext] = {}
        plain_env: dict[int, np.ndarray] = {}
        outputs: dict[int, np.ndarray] = {}
        # Rotation hoisting: ROTATE ops sharing a source handle (the
        # dot-product / convolution pattern: many windows of one packed
        # vector) are executed together through ctx.rotate_many, which pays
        # the key-switch digit decomposition once (Halevi–Shoup).  Handles
        # are SSA, so env[src] is identical whenever each group member runs.
        rot_groups: dict[int, list] = {}
        # A MUL whose one consumer is a rescaling MOD_SWITCH runs with it as
        # one ctx.mul_rescale step: the two share their transform calls.
        users: dict[int, list] = {}
        for op in self.program.ops:
            if op.kind is OpKind.ROTATE:
                rot_groups.setdefault(op.args[0], []).append(op)
            for arg in op.args:
                users.setdefault(arg, []).append(op)
        pending_rotations: dict[int, Ciphertext] = {}
        rescaled: dict[int, Ciphertext] = {}
        for op in self.program.ops:
            kind = op.kind
            self.executed_counts[kind.value] = self.executed_counts.get(kind.value, 0) + 1
            if kind in KS_OPS:
                self.hints_used.add(op.hint_id)
            if kind is OpKind.INPUT:
                if op.op_id not in inputs:
                    raise KeyError(f"missing value for input op {op.op_id}")
                env[op.op_id] = self._encrypt_input(
                    op, inputs[op.op_id], batch_layout
                )
            elif kind is OpKind.INPUT_PLAIN:
                plain_env[op.op_id] = np.asarray(
                    plains.get(op.op_id, np.ones(1))
                )
            elif kind in (OpKind.ADD, OpKind.SUB):
                x, y = self._matched_scales(env[op.args[0]], env[op.args[1]])
                env[op.op_id] = (ctx.add if kind is OpKind.ADD else ctx.sub)(x, y)
            elif kind is OpKind.MUL:
                x, y = env[op.args[0]], env[op.args[1]]
                consumers = users.get(op.op_id, [])
                if (len(consumers) == 1
                        and consumers[0].kind is OpKind.MOD_SWITCH
                        and self._rescales(x.scale * y.scale, x.basis)):
                    rescaled[consumers[0].op_id] = ctx.mul_rescale(x, y)
                else:
                    env[op.op_id] = ctx.mul(x, y)
            elif kind is OpKind.MUL_PLAIN:
                env[op.op_id] = ctx.mul_plain(
                    env[op.args[0]], plain_env[op.args[1]]
                )
            elif kind is OpKind.ADD_PLAIN:
                env[op.op_id] = ctx.add_plain(
                    env[op.args[0]], plain_env[op.args[1]]
                )
            elif kind is OpKind.ROTATE:
                group = rot_groups[op.args[0]]
                if len(group) > 1:
                    if op.op_id not in pending_rotations:
                        results = ctx.rotate_many(
                            env[op.args[0]], [g.rotate_steps for g in group]
                        )
                        pending_rotations.update(
                            (g.op_id, r) for g, r in zip(group, results)
                        )
                    env[op.op_id] = pending_rotations.pop(op.op_id)
                else:
                    env[op.op_id] = ctx.rotate(env[op.args[0]], op.rotate_steps)
                if batch_layout is not None and batch_layout.masked_rotations:
                    env[op.op_id] = ctx.mul_mask(
                        env[op.op_id],
                        self._rotation_mask(op.rotate_steps, batch_layout),
                    )
            elif kind is OpKind.MOD_SWITCH:
                env[op.op_id] = (rescaled.pop(op.op_id) if op.op_id in rescaled
                                 else self._level_drop(env[op.args[0]]))
            elif kind is OpKind.OUTPUT:
                ct = env[op.args[0]]
                env[op.op_id] = ct
                outputs[op.op_id] = ctx.decrypt_values(ct)
            else:
                raise ValueError(f"unhandled op kind {kind}")
        return outputs

    # --------------------------------------------- slot-batching extensions
    def _encrypt_input(self, op, values, layout) -> Ciphertext:
        """Encrypt one INPUT, honoring per-request arrival levels.

        A request arriving ``delta`` limbs deep shifts its whole execution
        down by ``delta``: its inputs are encrypted at ``op.level - delta``
        (modulus switching preserves the plaintext in both schemes, so the
        shifted graph computes the same function).  Mixed deltas split the
        packed vector into per-delta cohorts (zeroing the other requests'
        stride blocks), encrypt each cohort at its own level, mod-switch
        everything to the deepest cohort's waterline, and merge with
        homomorphic addition — the blocks are disjoint, so the sum is the
        packed ciphertext a uniform batch would have produced.
        """
        if layout is None:
            return self.ctx.encrypt_values(values, level=op.level)
        deltas = [layout.base_level - lvl for lvl in layout.levels]
        if not any(deltas):
            return self.ctx.encrypt_values(values, level=op.level)
        d_max = max(deltas)
        target = op.level - d_max
        if target < 1:
            raise ValueError(
                f"cross-level batch would drop input op {op.op_id} to "
                f"{target} limbs; request levels exceed this program's range"
            )
        if len(set(deltas)) == 1:
            return self.ctx.encrypt_values(values, level=target)
        values = np.asarray(values)
        cohorts: dict[int, list[int]] = {}
        for j, delta in enumerate(deltas):
            cohorts.setdefault(delta, []).append(j)
        combined = None
        for delta, members in sorted(cohorts.items()):
            vec = np.zeros_like(values)
            for j in members:
                lo = j * layout.stride
                vec[lo:lo + layout.stride] = values[lo:lo + layout.stride]
            ct = self.ctx.encrypt_values(vec, level=op.level - delta)
            ct = self.ctx.mod_switch_to(ct, target)
            combined = (ct if combined is None
                        else self.ctx.add(*self._matched_scales(combined, ct)))
        return combined

    def _rotation_mask(self, steps: int, layout) -> np.ndarray:
        """The 0/1 mask that confines a global slot rotation to its blocks.

        After rotating the packed vector left by ``steps``, lane ``g``
        holds what was at ``g + steps``; it belongs to the same request iff
        the source stayed inside g's stride block and inside the ring.
        Those are exactly the lanes a solo run would populate (the rest
        were its zero padding), so masking reproduces solo semantics.
        """
        key = (steps, layout.stride)
        mask = self._mask_cache.get(key)
        if mask is None:
            lanes = self.params.n // 2
            lane = np.arange(lanes)
            src = lane + steps
            keep = (((lane % layout.stride) + steps < layout.stride)
                    & (src >= 0) & (src < lanes))
            mask = keep.astype(np.float64)
            self._mask_cache[key] = mask
        return mask

    # --------------------------------------------------- scale alignment
    def _level_drop(self, ct: Ciphertext) -> Ciphertext:
        """Lower a DSL MOD_SWITCH: per-scheme limb drop.

        BGV modulus switching always preserves the plaintext.  CKKS has two
        limb-dropping ops and the right one depends on where the scale sits:
        *rescaling* divides the scale by q_last (correct after a multiply,
        where the scale is ~Delta^2), but applied to a fresh ciphertext at
        scale ~Delta it would sink the message below the noise.  There the
        value-preserving "mod down" is the correct lowering.  The waterline
        is sqrt(Delta): rescale only while the result keeps that much scale.
        """
        if self._rescales(ct.scale, ct.basis):
            return self.ctx.rescale(ct)
        return self.ctx.mod_switch(ct)

    def _rescales(self, scale: float, basis) -> bool:
        """Whether :meth:`_level_drop` rescales at ``scale`` on ``basis``."""
        ctx = self.ctx
        return not (isinstance(ctx, CkksContext) and scale / basis.moduli[-1]
                    < math.sqrt(ctx.default_scale))

    def _matched_scales(self, ct0: Ciphertext, ct1: Ciphertext) -> tuple[Ciphertext, Ciphertext]:
        """Bring two addends to a common scale before add/sub.

        Program-level alignment guarantees matching *levels*; scales can
        still diverge (a rescaled product sits at Delta^2/q while a rescaled
        input sits at Delta/q).  CKKS fixes this by multiplying the
        smaller-scale operand by the all-ones plaintext encoded at the scale
        ratio; BGV by a scalar constant that retargets the accumulated
        plaintext-scale factor.
        """
        if isinstance(self.ctx, CkksContext):
            return self._matched_ckks(ct0, ct1)
        return self._matched_bgv(ct0, ct1)

    def _matched_ckks(self, ct0: Ciphertext, ct1: Ciphertext) -> tuple[Ciphertext, Ciphertext]:
        if np.isclose(ct0.scale, ct1.scale, rtol=1e-9):
            return ct0, ct1
        swapped = ct0.scale > ct1.scale
        small, big = (ct1, ct0) if swapped else (ct0, ct1)
        ones = np.ones(self.params.n // 2)
        ratio = big.scale / small.scale
        log_ratio = math.log2(ratio)
        if log_ratio == round(log_ratio) >= 1:
            # Exact power-of-two ratio (the common case once rotation
            # masks are in play — mul_mask uses an exact 2^k scale):
            # all-ones encoded at an integer power of two is an exact
            # constant polynomial, so the small side's fixup is
            # error-free with no amplification.  Taking this path keeps
            # the result scale as low as possible, which matters at
            # shallow levels where the amplified path below would push
            # the phase past q/2.
            small = self.ctx.mul_plain(small, ones, scale=ratio)
            return (big, small) if swapped else (small, big)
        # Encoding all-ones at scale `ratio` rounds the constant coefficient
        # to round(ratio): accurate only when ratio is large.  For small
        # ratios, amplify *both* sides by an exact power of two so the
        # rounded coefficient carries >= ~20 bits; the big side's multiply
        # is by exactly 2^k and therefore error-free.
        amp = 1.0
        while ratio * amp < 2 ** 20:
            amp *= 2 ** 10
        small = self.ctx.mul_plain(small, ones, scale=ratio * amp)
        if amp > 1.0:
            big = self.ctx.mul_plain(big, ones, scale=amp)
        return (big, small) if swapped else (small, big)

    def _matched_bgv(self, ct0: Ciphertext, ct1: Ciphertext) -> tuple[Ciphertext, Ciphertext]:
        if ct0.plaintext_scale == ct1.plaintext_scale:
            return ct0, ct1
        # Retarget ct1's factor: multiplying the payload by
        # k = s_target * s^{-1} (mod t) makes it decrypt identically under
        # the claimed factor s_target.
        t = self.ctx.t
        target = ct0.plaintext_scale
        k = target * pow(ct1.plaintext_scale, -1, t) % t
        fixed = replace(self.ctx.mul_plain(ct1, np.array([k])),
                        plaintext_scale=target)
        return ct0, fixed
