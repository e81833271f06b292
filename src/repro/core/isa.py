"""F1's instruction set at residue-vector (RVec) granularity.

A ciphertext polynomial is L residue vectors; every compute instruction reads
one or two RVecs and produces one.  This is the granularity the paper's
compiler schedules ("our scratchpad stores at least 1024 residue vectors").

Values carry a *kind* so the data-movement scheduler can classify traffic the
way Fig. 9a does: key-switch hints (KSH), program inputs, plaintext operands,
and intermediates (which spill/fill).

**Storage is columns.**  An :class:`InstructionGraph` holds one numpy array
per field and nothing per instruction or value:

===================  =====  ==================================================
per instruction      dtype
===================  =====  ==================================================
``kind``             int8   index into :data:`INSTR_KINDS`
``in0``, ``in1``     int32  operand value ids; ``in1 = -1`` for a unary op
``out``              int32  produced value id
``he_op``            int32  originating homomorphic op (``-1`` = none)
``rotate_exponent``  int32  for AUT, else 0
===================  =====  ==================================================

===================  =====  ==================================================
per value            dtype
===================  =====  ==================================================
``value_kind``       int8   index into :data:`VALUE_KINDS`
``producer``         int32  instruction id; ``-1`` = off-chip master copy
``hint``             int32  index into ``hints`` (the interned hint ids);
                            ``-1`` = not a key-switch hint
``user_ptr``         int32  CSR offsets, ``len(values) + 1`` of them
===================  =====  ==================================================

``users[user_ptr[v]:user_ptr[v + 1]]`` are the instructions reading value
``v``, ascending (an instruction reading ``v`` twice is listed twice).  An
instruction's id is its row, and also its phase-1 priority (the global issue
order).  A compiler pass walks columns with ``zip`` over their buffers
(gathered into its visit order by numpy first) and ``.tolist()``s only a table
it indexes at random, so none of them holds an object per instruction;
``Value`` and ``Instruction`` exist only as the records ``graph.values[i]`` /
``graph.instructions[i]`` build on demand, from Python scalars.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Iterator, Sequence
from typing import NamedTuple

import numpy as np

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
        #: functional-unit family executing this instruction
        self.fu: str = _FU_FAMILY[mnemonic]


class ValueKind(enum.Enum):
    INPUT = "input"        # encrypted program input (off-chip master copy)
    KSH = "ksh"            # key-switch hint RVec (off-chip master copy)
    PLAIN = "plain"        # unencrypted operand (off-chip master copy)
    INTERMEDIATE = "intermediate"
    OUTPUT = "output"


#: column code -> kind: a kind's code is its position here
INSTR_KINDS = tuple(InstrKind)
VALUE_KINDS = tuple(ValueKind)
_INTERMEDIATE = VALUE_KINDS.index(ValueKind.INTERMEDIATE)
_AUT = INSTR_KINDS.index(InstrKind.AUT)


def stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for non-negative integer keys below
    2^32, as radix passes: numpy sorts a 16-bit type stably by radix and a
    wider one by timsort.  The low 16 bits go first (``astype`` keeps them),
    then the high 16 bits, if any key has them."""
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    if keys.max(initial=0) >> 16:
        order = order[np.argsort((keys[order] >> 16).astype(np.uint16),
                                 kind="stable")]
    return order


class Value(NamedTuple):
    """One residue vector flowing through the instruction DFG."""

    value_id: int
    kind: ValueKind
    producer: int | None             # instruction id, None for off-chip
    users: tuple[int, ...]           # ascending instr ids
    hint_id: str | None              # for KSH values: which hint


class Instruction(NamedTuple):
    """One vector operation over ``graph.n``-element residue vectors."""

    instr_id: int
    kind: InstrKind
    inputs: tuple[int, ...]
    output: int
    he_op: int                       # originating homomorphic op
    rotate_exponent: int             # for AUT


class RecordView(Sequence):
    """Read-only sequence over parallel columns: row ``i`` is
    ``record(i, *cells)``, the cells as Python scalars, built on each access."""

    __slots__ = ("_columns", "_record")

    def __init__(self, columns: tuple[np.ndarray, ...], record: Callable):
        self._columns = columns
        self._record = record

    def __len__(self) -> int:
        return len(self._columns[0])

    def _rows(self, lo: int, hi: int) -> Iterator:
        cells = zip(*(column[lo:hi].tolist() for column in self._columns))
        return (self._record(row, *at) for row, at in enumerate(cells, lo))

    def __iter__(self) -> Iterator:
        return self._rows(0, len(self))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        row = range(len(self))[index]         # negative / out-of-range rule
        return next(self._rows(row, row + 1))


class InstructionGraph:
    """Instruction-level dataflow graph (the output of compiler phase 1):
    the columns of the module docstring, plus the CSR user index built here
    by one stable sort of the two operand columns."""

    COLUMNS = ("kind", "in0", "in1", "out", "he_op", "rotate_exponent",
               "value_kind", "producer", "hint", "user_ptr", "users")

    def __init__(self, n: int, *, kind, in0, in1, out, he_op, rotate_exponent,
                 value_kind, producer, hint, hints: list[str]):
        self.n = n
        self.kind, self.in0, self.in1, self.out = kind, in0, in1, out
        self.he_op, self.rotate_exponent = he_op, rotate_exponent
        self.value_kind, self.producer = value_kind, producer
        self.hint, self.hints = hint, hints
        # Operands in (instruction, slot) order; a stable sort by value id
        # then leaves each value's readers in ascending instruction order.
        operands = np.stack((in0, in1), axis=1).ravel()
        slots = np.flatnonzero(operands >= 0)
        read = operands[slots]
        self.users = (slots[stable_order(read)] >> 1).astype(np.int32)
        self.user_ptr = np.zeros(len(value_kind) + 1, np.int32)
        np.cumsum(np.bincount(read, minlength=len(value_kind)),
                  out=self.user_ptr[1:])

    # -------------------------------------------------------------- views
    @property
    def instructions(self) -> RecordView:
        return RecordView((self.kind, self.in0, self.in1, self.out, self.he_op,
                           self.rotate_exponent), self._instruction)

    @property
    def values(self) -> RecordView:
        return RecordView((self.value_kind, self.producer, self.hint,
                           self.user_ptr[:-1], self.user_ptr[1:]), self._value)

    @staticmethod
    def _instruction(instr_id, kind, a, b, out, he_op, exponent) -> Instruction:
        return Instruction(instr_id, INSTR_KINDS[kind],
                           (a,) if b < 0 else (a, b), out, he_op, exponent)

    def _value(self, value_id, kind, producer, hint, first, end) -> Value:
        return Value(value_id, VALUE_KINDS[kind],
                     None if producer < 0 else producer,
                     tuple(self.users[first:end].tolist()),
                     None if hint < 0 else self.hints[hint])

    # ------------------------------------------------------------ queries
    def stats(self) -> dict:
        def histogram(codes: np.ndarray, kinds: tuple) -> dict[str, int]:
            counts = np.bincount(codes, minlength=len(kinds)).tolist()
            return {kind.value: count
                    for kind, count in zip(kinds, counts) if count}

        return {
            "instructions": len(self.kind),
            "values": len(self.value_kind),
            "by_kind": histogram(self.kind, INSTR_KINDS),
            "by_value_kind": histogram(self.value_kind, VALUE_KINDS),
        }

    def validate(self) -> None:
        """Structural invariants: SSA, topological order, user index correct."""
        ids = np.arange(len(self.kind))
        for column, least in ((self.in0, 0), (self.in1, -1), (self.out, 0)):
            if len(ids) and not (least <= column.min()
                                 and column.max() < len(self.value_kind)):
                raise ValueError("an instruction names a value that does "
                                 "not exist")
        if (np.count_nonzero(self.producer >= 0) != len(ids)
                or not np.array_equal(self.producer[self.out], ids)):
            raise ValueError("an instruction's output is mislinked")
        binary = self.in1 >= 0
        late = (self.producer[self.in0] >= ids) \
            | (binary & (self.producer[self.in1] >= ids))
        if late.any():
            raise ValueError(f"instr {np.flatnonzero(late)[0]} uses a value "
                             "produced later")
        # The index lists each operand once: as many entries as operands,
        # every (value, reader) entry is an operand of the reader, and a
        # value's readers ascend, repeating only where both slots read it.
        readers = self.users
        value = np.repeat(np.arange(len(self.value_kind)),
                          np.diff(self.user_ptr))
        same_value = value[1:] == value[:-1]
        step = np.diff(readers)[same_value]
        both = (self.in0 == self.in1)[readers[1:][same_value]]
        if (len(readers) != len(ids) + np.count_nonzero(binary)
                or len(value) != len(readers)
                or np.any((self.in0[readers] != value)
                          & (self.in1[readers] != value))
                or np.any((step < 0) | ((step == 0) & ~both))):
            raise ValueError("user index is stale")


class GraphBuilder:
    """Accumulates an :class:`InstructionGraph` block by block.

    Value ids are handed out in call order, one per off-chip value and one
    per instruction output, so a block's k-th instruction produces value
    ``num_values + k`` (as read before the block is appended).
    """

    def __init__(self, n: int):
        self.n = n
        self.num_values = 0
        self.num_instructions = 0
        self.hints: list[str] = []
        # Per block: the three per-instruction arrays, and what is constant
        # over the block.
        self._kind: list[np.ndarray] = []
        self._in0: list[np.ndarray] = []
        self._in1: list[np.ndarray] = []
        self._out: list[np.ndarray] = []
        self._constants: list[tuple] = []   # (length, he_op, exponent)
        self._off_chip: list[tuple] = []    # (first id, count, kind, hint)

    def new_values(self, kind: ValueKind, count: int, *,
                   hint_id: str | None = None) -> np.ndarray:
        """Append ``count`` off-chip values (inputs, plaintexts or the RVecs
        of one hint); returns their ids."""
        hint = -1
        if hint_id is not None:
            hint = len(self.hints)
            self.hints.append(hint_id)
        first = self.num_values
        self._off_chip.append((first, count, VALUE_KINDS.index(kind), hint))
        self.num_values += count
        return np.arange(first, first + count)

    def append(self, kind: np.ndarray, in0: np.ndarray, in1: np.ndarray,
               he_op: int, rotate_exponent: int = 0) -> None:
        """Append a block of instructions whose operands are value ids;
        ``rotate_exponent`` is that of the block's AUT instructions."""
        if not len(kind):
            return
        self._kind.append(kind)
        self._in0.append(in0)
        self._in1.append(in1)
        self._out.append(
            np.arange(self.num_values, self.num_values + len(kind)))
        self._constants.append((len(kind), he_op, rotate_exponent))
        self.num_values += len(kind)
        self.num_instructions += len(kind)

    def build(self) -> InstructionGraph:
        def column(blocks: list[np.ndarray], dtype) -> np.ndarray:
            return np.concatenate([np.zeros(0, dtype), *blocks], dtype=dtype,
                                  casting="same_kind")

        kind, out = column(self._kind, np.int8), column(self._out, np.int32)
        lengths, he_op, exponent = np.array(
            self._constants, np.int32).reshape(-1, 3).T
        value_kind = np.full(self.num_values, _INTERMEDIATE, np.int8)
        hint = np.full(self.num_values, -1, np.int32)
        producer = np.full(self.num_values, -1, np.int32)
        producer[out] = np.arange(self.num_instructions, dtype=np.int32)
        for first, count, code, hint_code in self._off_chip:
            value_kind[first:first + count] = code
            hint[first:first + count] = hint_code
        return InstructionGraph(
            self.n, kind=kind, in0=column(self._in0, np.int32),
            in1=column(self._in1, np.int32), out=out,
            he_op=np.repeat(he_op, lengths),
            rotate_exponent=np.repeat(exponent, lengths) * (kind == _AUT),
            value_kind=value_kind, producer=producer, hint=hint,
            hints=self.hints,
        )
