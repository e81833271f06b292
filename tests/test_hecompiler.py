"""Compiler phase 1 (repro.compiler.hecompiler): ordering + translation."""

import copy

import numpy as np
import pytest

from repro.compiler.hecompiler import KsChoice, compile_to_instructions, order_he_ops
from repro.core.isa import VALUE_KINDS, ValueKind
from repro.dsl.program import OpKind, Program


def _matvec(n=1024, rows=4, level=4):
    p = Program(n=n, name="matvec")
    row_handles = [p.input(level=level) for _ in range(rows)]
    v = p.input(level=level)
    for r in row_handles:
        p.output(p.inner_sum(p.mul(r, v)))
    return p


class TestOrdering:
    def test_topological(self):
        p = _matvec()
        order = order_he_ops(p)
        position = {op: i for i, op in enumerate(order)}
        for op in p.ops:
            for arg in op.args:
                assert position[arg] < position[op.op_id]

    def test_all_ops_once(self):
        p = _matvec()
        order = order_he_ops(p)
        assert sorted(order) == list(range(len(p.ops)))

    def test_hint_clustering(self):
        """Independent same-hint ops are batched: the 4 muls of the matvec
        run consecutively (Sec. 4.2's reuse ordering)."""
        p = _matvec()
        order = order_he_ops(p)
        mul_positions = [
            i for i, op_id in enumerate(order) if p.ops[op_id].kind is OpKind.MUL
        ]
        assert max(mul_positions) - min(mul_positions) == len(mul_positions) - 1

    def test_rotation_amounts_batched(self):
        p = _matvec()
        order = order_he_ops(p)
        hints = [p.ops[o].hint_id for o in order if p.ops[o].hint_id]
        # Count transitions between distinct hints: with perfect batching it
        # equals the number of distinct hints minus... (each hint appears in
        # one contiguous run, possibly chunked but adjacent).
        runs = 1 + sum(1 for a, b in zip(hints, hints[1:]) if a != b)
        distinct = len(set(hints))
        assert runs <= distinct * 2  # chunking may split runs, but not shred

    def test_chunk_cap_bounds_cluster_bursts(self):
        """At high level the per-chunk emission is capped."""
        p = Program(n=16384)
        x = p.input(18)
        ys = [p.mul(x, p.input(18), rescale=False) for _ in range(40)]
        order = order_he_ops(p, capacity_rvecs=1024)
        position = {op: i for i, op in enumerate(order)}
        assert sorted(order) == list(range(len(p.ops)))


class TestTranslationCounts:
    def test_mul_instruction_count(self):
        """One L-level mul: 4L+2L^2 MUL, L(L-1) NTT, L INTT, ~2L^2+3L ADD."""
        level = 4
        p = Program(n=1024)
        x, y = p.input(level), p.input(level)
        p.output(p.mul(x, y, rescale=False))
        result = compile_to_instructions(p, ks_choice=KsChoice(force=1))
        stats = result.graph.stats()["by_kind"]
        assert stats["mul"] == 4 * level + 2 * level * level
        assert stats["ntt"] == level * (level - 1)
        assert stats["intt"] == level
        # accumulation adds: l1 (L) + 2*(L^2-L) + recombination 2L
        assert stats["add"] == level + 2 * (level * level - level) + 2 * level

    def test_rotate_instruction_count(self):
        level = 3
        p = Program(n=1024)
        x = p.input(level)
        p.output(p.rotate(x, 1))
        result = compile_to_instructions(p, ks_choice=KsChoice(force=1))
        stats = result.graph.stats()["by_kind"]
        assert stats["aut"] == 2 * level
        assert stats["ntt"] == level * (level - 1)

    def test_add_instruction_count(self):
        p = Program(n=1024)
        x, y = p.input(5), p.input(5)
        p.output(p.add(x, y))
        result = compile_to_instructions(p)
        assert result.graph.stats()["by_kind"] == {"add": 10}

    def test_mod_switch_instruction_count(self):
        level = 4
        p = Program(n=1024)
        x = p.input(level)
        p.output(p.mod_switch(x))
        stats = compile_to_instructions(p).graph.stats()["by_kind"]
        new = level - 1
        assert stats["intt"] == 2
        assert stats["ntt"] == 2 * new
        assert stats["sub"] == 2 * new
        assert stats["mul"] == 2 * new


class TestHintValues:
    def test_v1_hint_rvec_count(self):
        level = 4
        p = Program(n=1024)
        x, y = p.input(level), p.input(level)
        p.output(p.mul(x, y, rescale=False))
        result = compile_to_instructions(p, ks_choice=KsChoice(force=1))
        assert result.hint_rvecs[f"relin@L{level}"] == 2 * level * level

    def test_v2_hint_rvec_count(self):
        level = 4
        p = Program(n=1024)
        x, y = p.input(level), p.input(level)
        p.output(p.mul(x, y, rescale=False))
        result = compile_to_instructions(p, ks_choice=KsChoice(force=2))
        assert result.hint_rvecs[f"relin@L{level}:v2"] == 4 * level

    def test_hint_values_shared_across_ops(self):
        """Two muls at the same level consume the same KSH value ids —
        the reuse that Fig. 9a's compulsory traffic measures."""
        p = Program(n=1024)
        x, y = p.input(3), p.input(3)
        p.output(p.mul(x, y, rescale=False))
        p.output(p.mul(y, x, rescale=False))
        result = compile_to_instructions(p, ks_choice=KsChoice(force=1))
        ksh = result.graph.value_kind == VALUE_KINDS.index(ValueKind.KSH)
        assert np.count_nonzero(ksh) == 2 * 9  # one hint only, not two
        assert result.graph.hints == ["relin@L3"]
        assert np.array_equal(result.graph.hint >= 0, ksh)

    def test_ks_choice_auto(self):
        choice = KsChoice()
        assert choice.pick(level=24, hint_reuse=1) == 2
        assert choice.pick(level=24, hint_reuse=5) == 1
        assert choice.pick(level=8, hint_reuse=1) == 1
        assert KsChoice(force=2).pick(level=2, hint_reuse=9) == 2

    def test_variant_recorded_per_op(self):
        p = Program(n=16384)
        x, y = p.input(24), p.input(24)
        m = p.mul(x, y, rescale=False)
        p.output(m)
        result = compile_to_instructions(p)
        assert result.ks_variant_used[m.op_id - 0] == 2 or 2 in result.ks_variant_used.values()


class TestGraphIntegrity:
    def test_validate_passes(self):
        result = compile_to_instructions(_matvec())
        result.graph.validate()  # should not raise

    def test_outputs_registered(self):
        p = Program(n=1024)
        x = p.input(2)
        p.output(p.add(x, x))
        result = compile_to_instructions(p)
        assert len(result.outputs) == 2 * 2  # a and b polys, L=2 limbs

    def test_inputs_are_offchip_values(self):
        p = Program(n=1024)
        x = p.input(3)
        p.output(p.add(x, x))
        result = compile_to_instructions(p)
        graph = result.graph
        inputs = graph.value_kind == VALUE_KINDS.index(ValueKind.INPUT)
        assert np.count_nonzero(inputs) == 2 * 3
        assert np.all(graph.producer[inputs] == -1)
        # ... and everything else here is some instruction's result.
        assert np.array_equal(np.flatnonzero(~inputs), graph.out)

    @pytest.mark.parametrize("column, row, value, message", [
        ("in0", 5, 10**6, "does not exist"),
        ("in0", 0, "last", "produced later"),      # reads its own future
        ("out", 3, "other", "mislinked"),          # two producers of a value
        ("producer", "last", -1, "mislinked"),     # a result nobody produced
        ("users", 0, "other", "user index is stale"),
        ("user_ptr", 1, 0, "user index is stale"),
    ])
    def test_validate_catches_one_corrupted_cell(self, column, row, value,
                                                 message):
        graph = compile_to_instructions(_matvec()).graph
        hacked = copy.copy(graph)
        cells = getattr(graph, column).copy()
        row = len(cells) - 1 if row == "last" else row
        if value == "last":
            value = graph.out[-1]
        elif value == "other":
            value = cells[row] + 1
        cells[row] = value
        setattr(hacked, column, cells)
        with pytest.raises(ValueError, match=message):
            hacked.validate()
        graph.validate()                           # the original is untouched
