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

An operation's lowering depends only on its kind, its level and the
key-switch variant, so each such *shape* is lowered once per program, into a
template whose operands are rows of the template itself or slots of an
externals vector (the operand limbs, then the hint), and every operation of
that shape is the template with ``base + row`` / ``externals[slot]``
substituted, appended to the graph's columns.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.core.isa import (
    INSTR_KINDS, GraphBuilder, InstrKind, InstructionGraph, ValueKind)
from repro.dsl.program import HeOp, OpKind, Program

NTT, INTT, MUL, ADD, SUB, AUT = map(INSTR_KINDS.index, (
    InstrKind.NTT, InstrKind.INTT, InstrKind.MUL,
    InstrKind.ADD, InstrKind.SUB, InstrKind.AUT))
_NO_OPERAND = np.array([-1])      # slot 0 of every externals vector


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
class TranslationResult:
    graph: InstructionGraph
    outputs: set[int] = field(default_factory=set)
    he_order: list[int] = field(default_factory=list)
    hint_rvecs: dict[str, int] = field(default_factory=dict)  # hint -> #RVecs
    ks_variant_used: dict[int, int] = field(default_factory=dict)  # op -> 1|2


class _Shape:
    """One lowering being recorded.  An operand is a *reference*: the row of
    this shape that produces it (>= 0), or ``~slot`` (< 0) for slot ``slot``
    of the externals vector.  Slot 0 is "no operand", so a unary row's second
    operand reads -1 here exactly as it does in the graph's ``in1`` column."""

    def __init__(self):
        self.kind: list[int] = []
        self.in0: list[int] = []
        self.in1: list[int] = []
        self.hint_at: int | None = None   # rows from here on follow the hint

    def emit(self, kind: int, a: int, b: int = -1) -> int:
        self.kind.append(kind)
        self.in0.append(a)
        self.in1.append(b)
        return len(self.kind) - 1

    def each(self, kind: int, xs: list[int], ys: list[int]) -> list[int]:
        """One two-operand instruction per limb."""
        return [self.emit(kind, x, y) for x, y in zip(xs, ys, strict=True)]

    # ----------------------------------------------------------- key switch
    def key_switch(self, variant: int, x: list[int], hint: list[int]):
        """KeySwitch(x) -> (u0, u1).  A hint first used here gets its value
        ids at this point, after the rows emitted so far."""
        self.hint_at = len(self.kind)
        if variant == 1:
            return self._key_switch_v1(x, hint)
        return self._key_switch_v2(x, hint)

    def _key_switch_v1(self, x: list[int], hint: list[int]):
        """Listing 1: L INTTs, L(L-1) NTTs, 2L^2 mul, ~2L^2 accumulate adds."""
        level = len(x)
        hint0, hint1 = hint[:level * level], hint[level * level:]
        y = [self.emit(INTT, xi) for xi in x]
        # ~90% of all instructions come out of this loop: per (i, j) an NTT
        # of digit i at modulus j (off the diagonal), the two hint products,
        # and (past the first digit) their accumulation into u0[j], u1[j].
        u0 = [0] * level
        u1 = [0] * level
        for i in range(level):
            for j in range(level):
                xqj = x[i] if i == j else self.emit(NTT, y[i])
                p0 = self.emit(MUL, xqj, hint0[i * level + j])
                p1 = self.emit(MUL, xqj, hint1[i * level + j])
                if i:
                    p0 = self.emit(ADD, u0[j], p0)
                    p1 = self.emit(ADD, u1[j], p1)
                u0[j], u1[j] = p0, p1
        return u0, u1

    def _key_switch_v2(self, x: list[int], hint: list[int]):
        """Raised-modulus: base-extend to 2L limbs, 1 hint mult, scale down."""
        level = len(x)
        # Digits (coefficient domain).
        y = [self.emit(INTT, xi) for xi in x]
        # Base extension: each of the L special limbs is a digit-weighted MAC
        # (L products, L-1 accumulating adds) followed by an NTT.
        ext = list(x)     # extended basis Q*P with P ~ Q: 2L limbs
        for _ in range(level):
            acc = self.emit(MUL, y[0])
            for yi in y[1:]:
                acc = self.emit(ADD, acc, self.emit(MUL, yi))
            ext.append(self.emit(NTT, acc))
        # Hint multiply over the extended basis.
        u0_ext = self.each(MUL, ext, hint[:2 * level])
        u1_ext = self.each(MUL, ext, hint[2 * level:])
        # Scale down by P: INTT special limbs, reconstruct delta, correct each
        # remaining limb (NTT(delta), SUB, MUL by P^{-1}).
        return self._scale_down(u0_ext, level), self._scale_down(u1_ext, level)

    def _scale_down(self, ext: list[int], level: int) -> list[int]:
        digits = [self.emit(INTT, s) for s in ext[level:]]
        # delta reconstruction: digit-weighted accumulation (elementwise).
        acc = digits[0]
        for digit in digits[1:]:
            acc = self.emit(ADD, acc, digit)
        return self.subtract_and_scale(acc, ext[:level])

    def subtract_and_scale(self, coeff: int, limbs: list[int]) -> list[int]:
        """Per limb j: NTT(coeff) at modulus j, limbs[j] - that, one MUL."""
        return [self.emit(MUL, self.emit(SUB, limb, self.emit(NTT, coeff)))
                for limb in limbs]

    # --------------------------------------------------------------- HE ops
    def lower(self, kind: OpKind, variant: int, operands: list[list[int]]):
        """Emit one homomorphic op; returns its result's (a, b) limbs."""
        if kind in (OpKind.ADD, OpKind.SUB):
            xa, xb, ya, yb = operands
            ik = ADD if kind is OpKind.ADD else SUB
            return self.each(ik, xa, ya), self.each(ik, xb, yb)
        if kind is OpKind.ADD_PLAIN:
            xa, xb, plain = operands
            return xa, self.each(ADD, xb, plain)
        if kind is OpKind.MUL_PLAIN:
            xa, xb, plain = operands
            return self.each(MUL, xa, plain), self.each(MUL, xb, plain)
        if kind is OpKind.MUL:
            # Tensor (4L mul + L add) + key switch + recombination
            # (Sec. 2.2.1).
            xa, xb, ya, yb, hint = operands
            l2 = self.each(MUL, xa, ya)
            l1 = [self.emit(ADD, self.emit(MUL, xa[j], yb[j]),
                            self.emit(MUL, ya[j], xb[j]))
                  for j in range(len(xa))]
            l0 = self.each(MUL, xb, yb)
            u0, u1 = self.key_switch(variant, l2, hint)
            return self.each(ADD, l1, u1), self.each(ADD, l0, u0)
        if kind is OpKind.ROTATE:
            # 2L automorphisms + key switch + L adds (Sec. 2.2.1).
            xa, xb, hint = operands
            a_sig = [self.emit(AUT, v) for v in xa]
            b_sig = [self.emit(AUT, v) for v in xb]
            u0, u1 = self.key_switch(variant, a_sig, hint)
            return u1, self.each(ADD, b_sig, u0)
        if kind is OpKind.MOD_SWITCH:
            # Per component: INTT last limb, rebuild delta at each remaining
            # modulus (NTT), subtract and scale (Sec. 2.2.2, RNS form).
            return tuple(
                self.subtract_and_scale(self.emit(INTT, src[-1]), src[:-1])
                for src in operands)
        raise ValueError(f"unhandled op kind {kind}")


class _Template:
    """A recorded shape as arrays.  ``refs`` holds the rows' first operands,
    then their second operands, then the result limbs, so one substitution
    resolves them all."""

    def __init__(self, shape: _Shape, results):
        self.kind = np.array(shape.kind, np.int8)
        self.rows = len(shape.kind)
        self.hint_at = self.rows if shape.hint_at is None else shape.hint_at
        self.result_cuts = np.cumsum([len(limbs) for limbs in results])[:-1]
        self.refs = refs = np.array(
            shape.in0 + shape.in1 + [ref for limbs in results for ref in limbs],
            np.int64)
        self.internal = refs >= 0
        self.slot = np.where(self.internal, 0, ~refs)
        self.after_hint = np.flatnonzero(refs >= self.hint_at)


class _Translator:
    """Lowers one program to an InstructionGraph, one template per shape and
    one set of hint values per hint, both alive for this compile only."""

    def __init__(self, program: Program, ks_choice: KsChoice):
        self.builder = GraphBuilder(program.n)
        self.ks_choice = ks_choice
        #: op id -> value ids of its result: (a, b) limbs, or (limbs,) of a
        #: plaintext
        self.limbs: dict[int, tuple[np.ndarray, ...]] = {}
        self._hints: dict[str, np.ndarray] = {}    # hint key -> value ids
        self._templates: dict[tuple, _Template] = {}
        self.outputs: set[int] = set()
        self.hint_rvecs: dict[str, int] = {}
        self.ks_variant_used: dict[int, int] = {}
        self._hint_reuse = defaultdict(int)
        for op in program.ops:
            if op.hint_id:
                self._hint_reuse[op.hint_id] += 1

    def translate_op(self, op: HeOp) -> None:
        kind, level, builder = op.kind, op.level, self.builder
        if kind is OpKind.INPUT:
            self.limbs[op.op_id] = (builder.new_values(ValueKind.INPUT, level),
                                    builder.new_values(ValueKind.INPUT, level))
        elif kind is OpKind.INPUT_PLAIN:
            self.limbs[op.op_id] = (builder.new_values(ValueKind.PLAIN, level),)
        elif kind is OpKind.OUTPUT:
            self.limbs[op.op_id] = self.limbs[op.args[0]]
            for limbs in self.limbs[op.op_id]:
                self.outputs.update(limbs.tolist())
        else:
            self.limbs[op.op_id] = self._instantiate(op)

    def _template(self, kind: OpKind, level: int, variant: int,
                  sizes: list[int]) -> _Template:
        """The shape's template, recorded on first use against symbolic
        operands: ``sizes[k]`` consecutive external slots each, from slot 1,
        in the order :meth:`_instantiate` concatenates the real ones."""
        key = (kind, level, variant)
        template = self._templates.get(key)
        if template is None:
            slots = iter(range(1, 1 + sum(sizes)))
            shape = _Shape()
            results = shape.lower(kind, variant, [
                [~next(slots) for _ in range(size)] for size in sizes])
            template = self._templates[key] = _Template(shape, results)
        return template

    def _instantiate(self, op: HeOp) -> tuple[np.ndarray, ...]:
        level, builder = op.level, self.builder
        # A mod switch reads the limb it drops; everything else reads the
        # op's level of each operand polynomial.
        reads = level + (op.kind is OpKind.MOD_SWITCH)
        operands = [limbs[:reads] for arg in op.args for limbs in self.limbs[arg]]
        if any(len(limbs) != reads for limbs in operands):
            raise ValueError(f"op {op.op_id}: an operand has under {reads} limbs")
        sizes = [reads] * len(operands)
        variant, hint_key = 0, None
        if op.hint_id:
            variant = self.ks_choice.pick(level, self._hint_reuse[op.hint_id])
            self.ks_variant_used[op.op_id] = variant
            # v1: two L x L grids; v2: two rows over the 2L-limb basis Q*P.
            hint_key, hint_rvecs = (
                (op.hint_id, 2 * level * level) if variant == 1
                else (op.hint_id + ":v2", 4 * level))
            sizes.append(hint_rvecs)
        template = self._template(op.kind, level, variant, sizes)

        base, cut = builder.num_values, template.hint_at
        new_hint = hint_key is not None and hint_key not in self._hints
        if new_hint:
            # Its values are created once the rows before the key switch are
            # in, so these are the ids they will get.
            self._hints[hint_key] = np.arange(base + cut, base + cut + hint_rvecs)
            self.hint_rvecs[hint_key] = hint_rvecs
        if hint_key:
            operands.append(self._hints[hint_key])
        externals = np.concatenate([_NO_OPERAND, *operands])
        ids = np.where(template.internal, template.refs + base,
                       externals[template.slot])
        if new_hint:
            ids[template.after_hint] += hint_rvecs
        rows = template.rows
        kinds, in0, in1 = template.kind, ids[:rows], ids[rows:2 * rows]
        builder.append(kinds[:cut], in0[:cut], in1[:cut], op.op_id,
                       op.rotate_steps)
        if new_hint:
            created = builder.new_values(ValueKind.KSH, hint_rvecs,
                                         hint_id=hint_key)
            assert created[0] == base + cut
        builder.append(kinds[cut:], in0[cut:], in1[cut:], op.op_id,
                       op.rotate_steps)
        return tuple(np.split(ids[2 * rows:], template.result_cuts))


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
    graph = translator.builder.build()
    graph.validate()
    return TranslationResult(
        graph=graph, outputs=translator.outputs, he_order=order,
        hint_rvecs=translator.hint_rvecs,
        ks_variant_used=translator.ks_variant_used)
