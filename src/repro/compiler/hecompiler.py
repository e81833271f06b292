"""Compiler phase 1: homomorphic-operation ordering and translation (Sec. 4.2).

**Ordering** clusters independent homomorphic operations that consume the same
key-switch hint and list-schedules the clusters, so that e.g. all four
multiplies of Listing 2 run back-to-back and reuse one relinearization hint,
then all four Rotate(x, 1), and so on.  Hint-free operations (adds, plaintext
ops, mod switches) are emitted eagerly whenever ready since they unlock
successors without any hint traffic.

**Translation** lowers each homomorphic operation to residue-vector
instructions using the scheme's implementation (Sec. 2.2.1 / Listing 1),
choosing between the two key-switching algorithms per operation (the
"algorithmic choice" of Sec. 4.2): the L^2-hint RNS-decomposition variant
when the hint is highly reused or L is small, and the O(L)-hint
raised-modulus variant when hints would dominate traffic.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.core.isa import InstructionGraph, InstrKind, ValueKind
from repro.dsl.program import HeOp, OpKind, Program

NTT, INTT, MUL = InstrKind.NTT, InstrKind.INTT, InstrKind.MUL
ADD, SUB, AUT = InstrKind.ADD, InstrKind.SUB, InstrKind.AUT


# ----------------------------------------------------------------- ordering
def order_he_ops(program: Program, *, capacity_rvecs: int = 1024) -> list[int]:
    """Hint-reuse-clustered list schedule of the homomorphic ops.

    Same-hint clusters are emitted in *chunks* sized so one chunk's live
    ciphertexts fit in the scratchpad alongside the (shared, resident) hint:
    unbounded clustering maximizes hint reuse but explodes the intermediate
    footprint (the tension Sec. 2.4 calls out), and the hint stays on-chip
    between consecutive chunks anyway, so chunking preserves the reuse.
    """
    ops = program.ops
    indegree = {op.op_id: len(op.args) for op in ops}
    ready: set[int] = {op.op_id for op in ops if indegree[op.op_id] == 0}
    order: list[int] = []

    def emit(op_id: int) -> None:
        order.append(op_id)
        ready.discard(op_id)
        for user in ops[op_id].users:
            indegree[user] -= 1
            if indegree[user] == 0:
                ready.add(user)

    def chunk_cap(level: int) -> int:
        # One op holds roughly: 2 input cts (4L), its result (2L), and key-
        # switch temporaries (~4L) live at once; the 2L^2 hint is shared.
        hint_rvecs = min(2 * level * level, capacity_rvecs // 2)
        per_op = 10 * level
        return max(2, (capacity_rvecs - hint_rvecs) // per_op)

    while ready:
        # Drain hint-free ops first — they are cheap and unlock work.
        progressed = True
        while progressed:
            progressed = False
            for op_id in sorted(op for op in ready if ops[op].hint_id is None):
                emit(op_id)
                progressed = True
        if not ready:
            break
        # Among ready hinted ops, batch the cluster that contains the
        # earliest op in program order (list scheduling by priority): all
        # ready ops sharing its hint run back to back, reusing the hint,
        # while priority order keeps the live intermediate set bounded
        # (depth-first across independent subtrees).
        groups: dict[str, list[int]] = defaultdict(list)
        for op_id in ready:
            groups[ops[op_id].hint_id].append(op_id)
        hint = min(groups, key=lambda h: min(groups[h]))
        chosen = sorted(groups[hint])
        for op_id in chosen[: chunk_cap(ops[chosen[0]].level)]:
            emit(op_id)
    if len(order) != len(ops):
        raise ValueError("cycle detected in homomorphic-operation graph")
    return order


# -------------------------------------------------------------- translation
@dataclass
class KsChoice:
    """Key-switch algorithm selection policy (Sec. 4.2's algorithmic choice)."""

    force: int | None = None      # 1, 2, or None for automatic
    # Sec. 2.4: the O(L)-hint variant "becomes attractive for very large L
    # (~20)".  The concrete tipping point is when the 2L^2-RVec hint no
    # longer fits in the 1024-RVec scratchpad (L >= 23 at N = 16K): below it,
    # a reused v1 hint stays resident and its lower compute wins.
    v2_level_threshold: int = 23  # prefer v2 at very large L...
    v2_reuse_threshold: int = 2   # ...when the hint is barely reused

    def pick(self, level: int, hint_reuse: int) -> int:
        if self.force in (1, 2):
            return self.force
        if level >= self.v2_level_threshold and hint_reuse < self.v2_reuse_threshold:
            return 2
        return 1


@dataclass
class CtValues:
    """Residue-vector value ids of one ciphertext: a/b polys, L limbs each."""

    a: list[int]
    b: list[int]
    level: int


@dataclass
class TranslationResult:
    graph: InstructionGraph
    outputs: set[int] = field(default_factory=set)
    he_order: list[int] = field(default_factory=list)
    hint_rvecs: dict[str, int] = field(default_factory=dict)  # hint -> #RVecs
    ks_variant_used: dict[int, int] = field(default_factory=dict)  # op -> 1|2


class _Translator:
    """Lowers one program to an InstructionGraph, caching hint values.

    Each homomorphic op is lowered as a few ``(kind, inputs)`` blocks handed
    to :meth:`InstructionGraph.emit_many`.  A block's k-th entry produces
    value ``first + k`` (``first`` = ``graph.next_value_id`` when the block
    is started), which is how an entry names an earlier one's result.
    """

    def __init__(self, program: Program, ks_choice: KsChoice):
        self.program = program
        self.graph = InstructionGraph(program.n)
        self.ks_choice = ks_choice
        self.ct: dict[int, CtValues] = {}
        self.plain: dict[int, list[int]] = {}
        # hint_id -> grids of value ids; generated lazily, shared across ops.
        self._hints_v1: dict[str, tuple[list[list[int]], list[list[int]]]] = {}
        self._hints_v2: dict[str, tuple[list[int], list[int]]] = {}
        self.result = TranslationResult(graph=self.graph)
        self._hint_reuse = defaultdict(int)
        for op in program.ops:
            if op.hint_id:
                self._hint_reuse[op.hint_id] += 1

    # ------------------------------------------------------------ hint data
    def hint_v1_values(self, hint_id: str, level: int):
        grids = self._hints_v1.get(hint_id)
        if grids is None:
            g = self.graph
            hint0 = [[g.new_value(ValueKind.KSH, hint_id=hint_id)
                      for _ in range(level)] for _ in range(level)]
            hint1 = [[g.new_value(ValueKind.KSH, hint_id=hint_id)
                      for _ in range(level)] for _ in range(level)]
            grids = (hint0, hint1)
            self._hints_v1[hint_id] = grids
            self.result.hint_rvecs[hint_id] = 2 * level * level
        return grids

    def hint_v2_values(self, hint_id: str, level: int):
        pair = self._hints_v2.get(hint_id)
        if pair is None:
            g = self.graph
            ext = 2 * level  # extended basis Q*P with P ~ Q
            key = hint_id + ":v2"
            hint0 = [g.new_value(ValueKind.KSH, hint_id=key) for _ in range(ext)]
            hint1 = [g.new_value(ValueKind.KSH, hint_id=key) for _ in range(ext)]
            pair = (hint0, hint1)
            self._hints_v2[hint_id] = pair
            self.result.hint_rvecs[key] = 2 * ext
        return pair

    # ----------------------------------------------------------- key switch
    def key_switch(self, x: list[int], hint_id: str, he_op: int) -> tuple[list[int], list[int]]:
        """Lower KeySwitch(x) -> (u0, u1); picks the algorithm per op."""
        level = len(x)
        variant = self.ks_choice.pick(level, self._hint_reuse[hint_id])
        self.result.ks_variant_used[he_op] = variant
        if variant == 1:
            return self._key_switch_v1(x, hint_id, he_op)
        return self._key_switch_v2(x, hint_id, he_op)

    def _key_switch_v1(self, x: list[int], hint_id: str, he_op: int):
        """Listing 1: L INTTs, L(L-1) NTTs, 2L^2 mul, ~2L^2 accumulate adds."""
        g = self.graph
        level = len(x)
        hint0, hint1 = self.hint_v1_values(hint_id, level)
        y = g.emit_many([(INTT, (xi,)) for xi in x], he_op)
        # ~90% of all instructions come out of this loop: per (i, j) an NTT
        # of digit i at modulus j (off the diagonal), the two hint products,
        # and (past the first digit) their accumulation into u0[j], u1[j].
        out = g.next_value_id
        block = []
        op = block.append
        u0 = [0] * level
        u1 = [0] * level
        for i in range(level):
            row0, row1, digit = hint0[i], hint1[i], (y[i],)
            for j in range(level):
                if i == j:
                    xqj = x[i]
                else:
                    op((NTT, digit))
                    xqj = out
                    out += 1
                op((MUL, (xqj, row0[j])))
                op((MUL, (xqj, row1[j])))
                if i == 0:
                    u0[j], u1[j] = out, out + 1
                    out += 2
                else:
                    op((ADD, (u0[j], out)))
                    op((ADD, (u1[j], out + 1)))
                    u0[j], u1[j] = out + 2, out + 3
                    out += 4
        g.emit_many(block, he_op)
        return u0, u1

    def _key_switch_v2(self, x: list[int], hint_id: str, he_op: int):
        """Raised-modulus: base-extend to 2L limbs, 1 hint mult, scale down."""
        g = self.graph
        level = len(x)
        hint0, hint1 = self.hint_v2_values(hint_id, level)
        # Digits (coefficient domain).
        y = g.emit_many([(INTT, (xi,)) for xi in x], he_op)
        # Base extension: each of the L special limbs is a digit-weighted MAC
        # (L products, L-1 accumulating adds) followed by an NTT.
        ext: list[int] = list(x)
        out = g.next_value_id
        block = []
        for _ in range(level):
            block.append((MUL, (y[0],)))
            acc = out
            out += 1
            for i in range(1, level):
                block += [(MUL, (y[i],)), (ADD, (acc, out))]
                acc = out + 1
                out += 2
            block.append((NTT, (acc,)))
            ext.append(out)
            out += 1
        g.emit_many(block, he_op)
        # Hint multiply over the extended basis.
        u0_ext = g.emit_many([(MUL, pair) for pair in zip(ext, hint0)], he_op)
        u1_ext = g.emit_many([(MUL, pair) for pair in zip(ext, hint1)], he_op)
        # Scale down by P: INTT special limbs, reconstruct delta, correct each
        # remaining limb (NTT(delta), SUB, MUL by P^{-1}).
        u0 = self._scale_down(u0_ext, level, he_op)
        u1 = self._scale_down(u1_ext, level, he_op)
        return u0, u1

    def _scale_down(self, ext: range, level: int, he_op: int) -> list[int]:
        g = self.graph
        digits = g.emit_many([(INTT, (s,)) for s in ext[level:]], he_op)
        # delta reconstruction: digit-weighted accumulation (elementwise).
        acc = digits[0]
        if level > 1:
            out = g.next_value_id
            block = [(ADD, (acc, digits[1]))]
            block += [(ADD, (out + k - 2, digits[k])) for k in range(2, level)]
            acc = g.emit_many(block, he_op)[-1]
        return self._subtract_and_scale(acc, ext[:level], he_op)

    def _subtract_and_scale(self, coeff: int, limbs, he_op: int) -> list[int]:
        """Per limb j: NTT(coeff) at modulus j, limbs[j] - that, one MUL."""
        out = self.graph.next_value_id
        block = []
        for k, limb in enumerate(limbs):
            delta = out + 3 * k
            block += [(NTT, (coeff,)), (SUB, (limb, delta)), (MUL, (delta + 1,))]
        return list(self.graph.emit_many(block, he_op)[2::3])

    # ------------------------------------------------------------- HE ops
    def translate_op(self, op: HeOp) -> None:
        kind = op.kind
        g = self.graph
        if kind is OpKind.INPUT:
            self.ct[op.op_id] = CtValues(
                a=[g.new_value(ValueKind.INPUT) for _ in range(op.level)],
                b=[g.new_value(ValueKind.INPUT) for _ in range(op.level)],
                level=op.level,
            )
            return
        if kind is OpKind.INPUT_PLAIN:
            self.plain[op.op_id] = [
                g.new_value(ValueKind.PLAIN) for _ in range(op.level)
            ]
            return
        if kind in (OpKind.ADD, OpKind.SUB):
            x, y = (self.ct[a] for a in op.args)
            ik = ADD if kind is OpKind.ADD else SUB
            self.ct[op.op_id] = CtValues(
                a=self._elementwise(ik, x.a, y.a, op),
                b=self._elementwise(ik, x.b, y.b, op),
                level=op.level,
            )
            return
        if kind is OpKind.ADD_PLAIN:
            x = self.ct[op.args[0]]
            p = self.plain[op.args[1]]
            self.ct[op.op_id] = CtValues(
                a=list(x.a), b=self._elementwise(ADD, x.b, p, op),
                level=op.level,
            )
            return
        if kind is OpKind.MUL_PLAIN:
            x = self.ct[op.args[0]]
            p = self.plain[op.args[1]]
            self.ct[op.op_id] = CtValues(
                a=self._elementwise(MUL, x.a, p, op),
                b=self._elementwise(MUL, x.b, p, op),
                level=op.level,
            )
            return
        if kind is OpKind.MUL:
            self._translate_mul(op)
            return
        if kind is OpKind.ROTATE:
            self._translate_rotate(op)
            return
        if kind is OpKind.MOD_SWITCH:
            self._translate_mod_switch(op)
            return
        if kind is OpKind.OUTPUT:
            ct = self.ct[op.args[0]]
            self.ct[op.op_id] = ct
            self.result.outputs.update(ct.a)
            self.result.outputs.update(ct.b)
            return
        raise ValueError(f"unhandled op kind {kind}")

    def _elementwise(self, kind: InstrKind, xs, ys, op: HeOp) -> list[int]:
        """One two-operand instruction per limb of the op's level."""
        level = op.level
        return list(self.graph.emit_many(
            [(kind, pair) for pair in zip(xs[:level], ys[:level], strict=True)],
            op.op_id))

    def _translate_mul(self, op: HeOp) -> None:
        """Tensor (4L mul + L add) + key switch + recombination (Sec. 2.2.1)."""
        g = self.graph
        x, y = (self.ct[a] for a in op.args)
        level = op.level
        l2 = self._elementwise(MUL, x.a, y.a, op)
        out = g.next_value_id
        block = []
        for j in range(level):
            t0 = out + 3 * j
            block += [(MUL, (x.a[j], y.b[j])), (MUL, (y.a[j], x.b[j])),
                      (ADD, (t0, t0 + 1))]
        l1 = g.emit_many(block, op.op_id)[2::3]
        l0 = self._elementwise(MUL, x.b, y.b, op)
        u0, u1 = self.key_switch(l2, op.hint_id, op.op_id)
        self.ct[op.op_id] = CtValues(
            a=self._elementwise(ADD, l1, u1, op),
            b=self._elementwise(ADD, l0, u0, op),
            level=level,
        )

    def _translate_rotate(self, op: HeOp) -> None:
        """2L automorphisms + key switch + L adds (Sec. 2.2.1)."""
        g = self.graph
        x = self.ct[op.args[0]]
        level = op.level
        k = op.rotate_steps
        a_sig = list(g.emit_many([(AUT, (v,)) for v in x.a[:level]], op.op_id, k))
        b_sig = g.emit_many([(AUT, (v,)) for v in x.b[:level]], op.op_id, k)
        u0, u1 = self.key_switch(a_sig, op.hint_id, op.op_id)
        self.ct[op.op_id] = CtValues(
            a=list(u1), b=self._elementwise(ADD, b_sig, u0, op), level=level,
        )

    def _translate_mod_switch(self, op: HeOp) -> None:
        """Per component: INTT last limb, rebuild delta at each remaining
        modulus (NTT), subtract and scale (Sec. 2.2.2, RNS form)."""
        x = self.ct[op.args[0]]
        new_level = op.level  # already level-1
        halves = []
        for src in (x.a, x.b):
            last_coeff = self.graph.emit(INTT, (src[new_level],), he_op=op.op_id)
            halves.append(
                self._subtract_and_scale(last_coeff, src[:new_level], op.op_id))
        self.ct[op.op_id] = CtValues(a=halves[0], b=halves[1], level=new_level)


def compile_to_instructions(
    program: Program, *, ks_choice: KsChoice | None = None,
    capacity_rvecs: int = 1024,
) -> TranslationResult:
    """Phase 1: order homomorphic ops, lower to an instruction DFG."""
    ks_choice = ks_choice or KsChoice()
    translator = _Translator(program, ks_choice)
    order = order_he_ops(program, capacity_rvecs=capacity_rvecs)
    for op_id in order:
        translator.translate_op(program.ops[op_id])
    translator.result.he_order = order
    translator.graph.validate()
    return translator.result
