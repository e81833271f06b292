"""The F1 DSL: dataflow graphs of homomorphic operations.

Mirrors Listing 2 of the paper:

    p = Program(n=16384)
    rows = [p.input(level=16) for _ in range(4)]
    v = p.input(level=16)
    out = [p.inner_sum(p.mul(r, v)) for r in rows]

Every method appends an :class:`HeOp` node; handles are lightweight
references.  Levels (RNS limb counts) are tracked per operation because data
sizes — and therefore scheduling — depend on them; ``mod_switch`` drops one
limb, and by default :meth:`Program.mul` inserts the customary BGV/CKKS
mod-switch *before* each multiplication (Sec. 2.2.2) when levels allow.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass, field


class OpKind(enum.Enum):
    INPUT = "input"            # encrypted program input
    INPUT_PLAIN = "input_plain"  # unencrypted vector (e.g. model weights)
    ADD = "add"
    SUB = "sub"
    MUL = "mul"                # ciphertext x ciphertext (includes key switch)
    MUL_PLAIN = "mul_plain"
    ADD_PLAIN = "add_plain"
    ROTATE = "rotate"          # automorphism + key switch
    MOD_SWITCH = "mod_switch"
    OUTPUT = "output"


#: op kinds that consume a key-switch hint
KS_OPS = (OpKind.MUL, OpKind.ROTATE)


@dataclass
class HeOp:
    """One homomorphic operation node in the program dataflow graph."""

    op_id: int
    kind: OpKind
    args: tuple[int, ...]
    level: int                      # RNS limbs of the operand/result basis
    rotate_steps: int = 0
    name: str = ""
    users: list[int] = field(default_factory=list)

    @property
    def hint_id(self) -> str | None:
        """Identity of the key-switch hint this op consumes, if any.

        Hints are per (target, level): every multiplication at level L shares
        one relinearization hint; each rotation amount has its own.
        """
        if self.kind is OpKind.MUL:
            return f"relin@L{self.level}"
        if self.kind is OpKind.ROTATE:
            return f"galois_{self.rotate_steps}@L{self.level}"
        return None


@dataclass(frozen=True)
class CtHandle:
    """Reference to the ciphertext value produced by an op."""

    program: "Program"
    op_id: int

    @property
    def op(self) -> HeOp:
        return self.program.ops[self.op_id]

    @property
    def level(self) -> int:
        return self.op.level


class Program:
    """A builder for homomorphic-operation dataflow graphs."""

    def __init__(self, n: int = 16384, scheme: str = "bgv", name: str = "program"):
        if n & (n - 1):
            raise ValueError("N must be a power of two")
        if scheme not in ("bgv", "ckks", "gsw"):
            raise ValueError(f"unsupported scheme {scheme!r}")
        self.n = n
        self.scheme = scheme
        self.name = name
        self.ops: list[HeOp] = []
        self._signature: tuple[int, str] = (-1, "")   # (len(ops), digest)

    # ------------------------------------------------------------- builders
    def _check_handle(self, h: "CtHandle") -> "CtHandle":
        if h.program is not self:
            raise ValueError(
                f"handle for op {h.op_id} belongs to program "
                f"{h.program.name!r}, not {self.name!r}; ops cannot "
                f"reference values from another Program"
            )
        return h

    def _append(self, kind: OpKind, args: tuple["CtHandle", ...], level: int, **kw) -> CtHandle:
        arg_ids = tuple(self._check_handle(h).op_id for h in args)
        op = HeOp(op_id=len(self.ops), kind=kind, args=arg_ids, level=level, **kw)
        for a in arg_ids:
            self.ops[a].users.append(op.op_id)
        self.ops.append(op)
        return CtHandle(self, op.op_id)

    def input(self, level: int, name: str = "") -> CtHandle:
        """Declare an encrypted input at the given noise budget L."""
        if level < 1:
            raise ValueError("level must be >= 1")
        return self._append(OpKind.INPUT, (), level, name=name)

    def input_plain(self, level: int, name: str = "") -> CtHandle:
        """Declare an unencrypted input vector (one polynomial, L limbs)."""
        return self._append(OpKind.INPUT_PLAIN, (), level, name=name)

    def _level_of(self, h: CtHandle) -> int:
        return self.ops[self._check_handle(h).op_id].level

    def _align(self, x: CtHandle, y: CtHandle) -> tuple[CtHandle, CtHandle]:
        """Mod-switch the higher-level operand down to match the lower."""
        lx, ly = self._level_of(x), self._level_of(y)
        while lx > ly:
            x = self.mod_switch(x)
            lx -= 1
        while ly > lx:
            y = self.mod_switch(y)
            ly -= 1
        return x, y

    def add(self, x: CtHandle, y: CtHandle) -> CtHandle:
        x, y = self._align(x, y)
        return self._append(OpKind.ADD, (x, y), x.level)

    def sub(self, x: CtHandle, y: CtHandle) -> CtHandle:
        x, y = self._align(x, y)
        return self._append(OpKind.SUB, (x, y), x.level)

    def mul(self, x: CtHandle, y: CtHandle, *, rescale: bool = True) -> CtHandle:
        """Homomorphic multiply; by default mod-switches the result.

        Matches standard practice (Sec. 2.2.2): operate at the operands'
        shared level, then drop one limb to shed the noise blowup.
        """
        x, y = self._align(x, y)
        out = self._append(OpKind.MUL, (x, y), x.level)
        if rescale and out.level > 1:
            out = self.mod_switch(out)
        return out

    def square(self, x: CtHandle, *, rescale: bool = True) -> CtHandle:
        return self.mul(x, x, rescale=rescale)

    def mul_plain(self, x: CtHandle, weights: CtHandle | None = None) -> CtHandle:
        """Multiply by an unencrypted vector (declares one if not given)."""
        if weights is None:
            weights = self.input_plain(self._level_of(x))
        return self._append(OpKind.MUL_PLAIN, (x, weights), x.level)

    def add_plain(self, x: CtHandle, values: CtHandle | None = None) -> CtHandle:
        if values is None:
            values = self.input_plain(self._level_of(x))
        return self._append(OpKind.ADD_PLAIN, (x, values), x.level)

    def rotate(self, x: CtHandle, steps: int) -> CtHandle:
        """Homomorphic rotation (automorphism + key switch)."""
        if steps == 0:
            return self._check_handle(x)
        return self._append(
            OpKind.ROTATE, (x,), self._level_of(x), rotate_steps=steps
        )

    def mod_switch(self, x: CtHandle) -> CtHandle:
        level = self._level_of(x)
        if level <= 1:
            raise ValueError("cannot mod-switch below one limb")
        return self._append(OpKind.MOD_SWITCH, (x,), level - 1)

    def output(self, x: CtHandle, name: str = "") -> CtHandle:
        return self._append(OpKind.OUTPUT, (x,), self._level_of(x), name=name)

    # ------------------------------------------------------------ utilities
    def inner_sum(self, x: CtHandle) -> CtHandle:
        """Sum all slots via the rotate-and-add ladder (Listing 2's innerSum)."""
        for i in range(int(math.log2(self.n))):
            x = self.add(x, self.rotate(x, 1 << i))
        return x

    def signature(self) -> str:
        """Canonical structural fingerprint of the op graph.

        Two programs share a signature iff they are the same computation:
        same ring degree, scheme, and op sequence (kind, argument wiring,
        level, rotation amount).  Names — of the program or of individual
        ops — are presentation only and do not enter the hash, so a client
        re-building "the same" program each request maps to one registry
        entry.  Ops are identified positionally, which is well-defined
        because args always point backwards in the append-ordered list.

        Memoised on ``len(self.ops)``: ops are append-only (every builder
        goes through ``_append``), so an unchanged length means an
        unchanged graph and a serving ``submit`` does not re-hash it.
        """
        if self._signature[0] == len(self.ops):
            return self._signature[1]
        h = hashlib.sha256()
        h.update(f"{self.n}|{self.scheme}".encode())
        for op in self.ops:
            h.update(
                f"|{op.kind.value}:{','.join(map(str, op.args))}"
                f":{op.level}:{op.rotate_steps}".encode()
            )
        self._signature = (len(self.ops), h.hexdigest())
        return self._signature[1]

    def stats(self) -> dict:
        counts: dict[str, int] = {}
        for op in self.ops:
            counts[op.kind.value] = counts.get(op.kind.value, 0) + 1
        hints = {op.hint_id for op in self.ops if op.hint_id}
        return {
            "ops": len(self.ops),
            "counts": counts,
            "distinct_hints": len(hints),
            "multiplicative_depth": self.multiplicative_depth(),
        }

    def multiplicative_depth(self) -> int:
        depth = [0] * len(self.ops)
        for op in self.ops:
            base = max((depth[a] for a in op.args), default=0)
            depth[op.op_id] = base + (1 if op.kind is OpKind.MUL else 0)
        return max(depth, default=0)

    def __repr__(self) -> str:
        return f"Program({self.name!r}, N={self.n}, scheme={self.scheme}, ops={len(self.ops)})"
