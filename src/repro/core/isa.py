"""F1's instruction set at residue-vector (RVec) granularity.

A ciphertext polynomial is L residue vectors; every compute instruction reads
one or two RVecs and produces one.  This is the granularity the paper's
compiler schedules ("our scratchpad stores at least 1024 residue vectors").

Values carry a *kind* so the data-movement scheduler can classify traffic the
way Fig. 9a does: key-switch hints (KSH), program inputs, plaintext operands,
and intermediates (which spill/fill).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

#: instruction mnemonic -> functional-unit family executing it
_FU_FAMILY = {"ntt": "ntt", "intt": "ntt", "mul": "mul",
              "add": "add", "sub": "add", "aut": "aut"}


class InstrKind(enum.Enum):
    NTT = "ntt"
    INTT = "intt"
    MUL = "mul"
    ADD = "add"
    SUB = "sub"
    AUT = "aut"

    def __init__(self, mnemonic: str):
        #: functional-unit family executing this instruction (a plain member
        #: attribute: the schedulers read it once per instruction)
        self.fu: str = _FU_FAMILY[mnemonic]


class ValueKind(enum.Enum):
    INPUT = "input"        # encrypted program input (off-chip master copy)
    KSH = "ksh"            # key-switch hint RVec (off-chip master copy)
    PLAIN = "plain"        # unencrypted operand (off-chip master copy)
    INTERMEDIATE = "intermediate"
    OUTPUT = "output"


@dataclass(slots=True)
class Value:
    """One residue vector flowing through the instruction DFG."""

    value_id: int
    kind: ValueKind
    producer: int | None = None          # instruction id, None for off-chip
    users: list[int] = field(default_factory=list)   # ascending instr ids
    hint_id: str | None = None           # for KSH values: which hint

    @property
    def off_chip_master(self) -> bool:
        """True if the value originates off-chip (loads of it are clean)."""
        return self.kind in (ValueKind.INPUT, ValueKind.KSH, ValueKind.PLAIN)


@dataclass(slots=True)
class Instruction:
    """One vector operation over ``graph.n``-element residue vectors;
    ``instr_id`` is also its phase-1 priority (the global issue order)."""

    instr_id: int
    kind: InstrKind
    inputs: tuple[int, ...]
    output: int
    he_op: int = -1                      # originating homomorphic op
    rotate_exponent: int = 0             # for AUT


class InstructionGraph:
    """Instruction-level dataflow graph (the output of compiler phase 1)."""

    def __init__(self, n: int):
        self.n = n
        self.instructions: list[Instruction] = []
        self.values: list[Value] = []

    # ------------------------------------------------------------- building
    def new_value(self, kind: ValueKind, *, hint_id: str | None = None) -> int:
        """Append an off-chip value (input, plaintext or hint RVec)."""
        vid = len(self.values)
        self.values.append(Value(vid, kind, None, [], hint_id))
        return vid

    @property
    def next_value_id(self) -> int:
        """The id the next appended value gets (see :meth:`emit_many`)."""
        return len(self.values)

    def emit_many(self, ops, he_op: int = -1, rotate_exponent: int = 0) -> range:
        """Append a block of ``(kind, inputs)`` instructions, in order.

        Returns the produced value ids.  They are consecutive from
        :attr:`next_value_id`, so an entry may name the output of an earlier
        entry of the same block as ``next_value_id + k``.
        """
        instructions, values = self.instructions, self.values
        instr_id = len(instructions)
        first = out = len(values)
        intermediate = ValueKind.INTERMEDIATE
        for kind, inputs in ops:
            values.append(Value(out, intermediate, instr_id, [], None))
            for vid in inputs:
                values[vid].users.append(instr_id)
            instructions.append(
                Instruction(instr_id, kind, inputs, out, he_op, rotate_exponent))
            instr_id += 1
            out += 1
        return range(first, out)

    def emit(self, kind: InstrKind, inputs: tuple[int, ...], *,
             he_op: int = -1, rotate_exponent: int = 0) -> int:
        """Append one instruction; returns the produced value id."""
        return self.emit_many(((kind, inputs),), he_op, rotate_exponent)[0]

    # ------------------------------------------------------------ queries
    def stats(self) -> dict:
        by_kind: dict[str, int] = {}
        for ins in self.instructions:
            by_kind[ins.kind.value] = by_kind.get(ins.kind.value, 0) + 1
        by_value: dict[str, int] = {}
        for v in self.values:
            by_value[v.kind.value] = by_value.get(v.kind.value, 0) + 1
        return {
            "instructions": len(self.instructions),
            "values": len(self.values),
            "by_kind": by_kind,
            "by_value_kind": by_value,
        }

    def validate(self) -> None:
        """Structural invariants: SSA, topological order, user lists correct.

        User lists are in ascending instruction order, so one cursor per
        value walks them in step with the instruction list.
        """
        values = self.values
        cursor = [0] * len(values)
        for ins in self.instructions:
            instr_id = ins.instr_id
            for vid in ins.inputs:
                v = values[vid]
                if v.producer is not None and v.producer >= instr_id:
                    raise ValueError(
                        f"instr {instr_id} uses value {vid} produced later"
                    )
                at = cursor[vid]
                if at == len(v.users) or v.users[at] != instr_id:
                    raise ValueError(f"user list of value {vid} is stale")
                cursor[vid] = at + 1
            if values[ins.output].producer != instr_id:
                raise ValueError(f"output of instr {instr_id} mislinked")
        for v, at in zip(values, cursor):
            if at != len(v.users):
                raise ValueError(f"user list of value {v.value_id} is stale")
