"""Compiler phase 2: off-chip data-movement scheduling (Sec. 4.3).

Works against a simplified machine — a scratchpad of C residue-vector slots
directly feeding functional units.  Instructions are visited in phase-1
priority order (they are already topologically sorted); for each one, absent
operands are loaded, space is made by evicting the resident value with the
furthest next use (the Belady-style policy of Sec. 4.3: next use estimated
from the priorities of unissued users), and dirty evictions append spill
stores.  The output is an ordered event list (LOAD / EXEC / STORE) that
phase 3 turns into cycles — with loads annotated with the event that freed
their slot, so cycle scheduling can hoist them as early as capacity allows
(decoupled data orchestration, Sec. 3).

Traffic is classified as in Fig. 9a: key-switch hints, inputs, and plaintext
operands split into compulsory (first touch) and non-compulsory (capacity)
loads; intermediate fills and spill stores are always non-compulsory.

**The event list is three columns**, one row per event:

==========  =====  ========================================================
``kind``    int8   index into :data:`EVENT_KINDS` (load, exec, store, evict)
``target``  int32  value id (load / store / evict) or instruction id (exec)
``frees``   int32  index of the event whose completion freed the slot this
                   one fills; ``-1`` = a slot was free
==========  =====  ========================================================

**The victim rule.**  When the scratchpad is full, the value evicted is
``argmax (next use, -value id)`` over the resident values the current
instruction does not touch: the furthest next use (a dead output's is "never",
beyond every position), ties to the lower id.  That is a function of the
scheduler's state alone, so the heap that answers it is an index, not state:
it is built from the resident set the first time the scratchpad fills,
maintained from there, and rebuilt the same way whenever more than half of
its entries are stale; a program that never fills the scratchpad never has
one.  Either way the victim sequence is the one an always-maintained heap
gives (``tests/test_compiler_columns.py`` keeps that scheduler as the oracle).
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import NamedTuple

import numpy as np

from repro.core.config import F1Config
from repro.core.isa import VALUE_KINDS, InstructionGraph, RecordView, ValueKind

#: event-kind column code -> name
EVENT_KINDS = ("load", "exec", "store", "evict")
LOAD, EXEC, STORE, EVICT = range(4)


class Event(NamedTuple):
    """One row of the event list, as ``movement.events[i]`` builds it."""

    kind: str                 # "load" | "exec" | "store" | "evict"
    target: int               # value id (load/store/evict) or instr id (exec)
    frees_slot_of: int | None   # event index whose completion freed space


@dataclass
class TrafficStats:
    """Per-category off-chip traffic in residue-vector units."""

    ksh_compulsory: int = 0
    ksh_capacity: int = 0
    input_compulsory: int = 0
    input_capacity: int = 0
    plain_compulsory: int = 0
    plain_capacity: int = 0
    intermediate_loads: int = 0
    intermediate_stores: int = 0
    output_stores: int = 0

    def total_rvecs(self) -> int:
        return (
            self.ksh_compulsory + self.ksh_capacity
            + self.input_compulsory + self.input_capacity
            + self.plain_compulsory + self.plain_capacity
            + self.intermediate_loads + self.intermediate_stores
            + self.output_stores
        )

    def breakdown(self, rvec_bytes: int) -> dict:
        """Fig. 9a categories, in bytes."""
        return {
            "ksh_compulsory": self.ksh_compulsory * rvec_bytes,
            "ksh_capacity": self.ksh_capacity * rvec_bytes,
            "input_compulsory": self.input_compulsory * rvec_bytes,
            "input_capacity": self.input_capacity * rvec_bytes,
            "plain_compulsory": self.plain_compulsory * rvec_bytes,
            "plain_capacity": self.plain_capacity * rvec_bytes,
            "intermediate_loads": self.intermediate_loads * rvec_bytes,
            "intermediate_stores": (self.intermediate_stores + self.output_stores)
            * rvec_bytes,
        }


@dataclass
class DataMovementSchedule:
    kind: np.ndarray            # the event columns of the module docstring
    target: np.ndarray
    frees: np.ndarray
    traffic: TrafficStats
    capacity_rvecs: int
    order: Sequence[int] = ()   # instruction order used
    outputs: set[int] = field(default_factory=set)  # program output values

    COLUMNS = ("kind", "target", "frees")

    @property
    def events(self) -> RecordView:
        return RecordView(
            (self.kind, self.target, self.frees),
            lambda row, kind, target, frees: Event(
                EVENT_KINDS[kind], target, None if frees < 0 else frees))


# Traffic counters in TrafficStats field order: a first load of an off-chip
# value counts at its kind's slot, a repeated one at the slot after it.
_KSH, _INPUT, _PLAIN, _FILL, _SPILL, _OUT = 0, 2, 4, 6, 7, 8
_LOAD_SLOT = [{ValueKind.KSH: _KSH, ValueKind.INPUT: _INPUT,
               ValueKind.PLAIN: _PLAIN}.get(kind, _FILL) for kind in VALUE_KINDS]


def schedule_data_movement(
    graph: InstructionGraph,
    outputs: set[int],
    config: F1Config,
    *,
    order: list[int] | None = None,
) -> DataMovementSchedule:
    """Greedy scheduling with furthest-next-use eviction.

    ``order`` overrides the instruction visit order (used by the CSR baseline);
    it must be a topological order of the graph.
    """
    num_instructions, num_values = len(graph.kind), len(graph.value_kind)
    # Per value, the visit positions of its users, ascending, closed by
    # ``never``; a cursor per value marks the first one not yet issued
    # (next-use estimation and dead-value detection).  Phase 1 lists users
    # in instruction order, which is the default visit order.
    never = num_instructions
    first_use = graph.user_ptr + np.arange(num_values + 1, dtype=np.int32)
    use_column = np.full(int(first_use[-1]), never, np.int32)
    is_use = np.ones(len(use_column), bool)
    is_use[first_use[1:] - 1] = False
    if order is None:
        order = range(num_instructions)
        visit = slice(None)
        use_column[is_use] = graph.users
    else:
        visit = np.asarray(order)
        position = np.empty(num_instructions, np.int32)
        position[visit] = np.arange(num_instructions, dtype=np.int32)
        value = np.repeat(np.arange(num_values), np.diff(graph.user_ptr))
        positions = position[graph.users]
        use_column[is_use] = positions[np.lexsort((positions, value))]
    uses = use_column.tolist()
    cursor = first_use[:-1].tolist()
    load_slot = np.array(_LOAD_SLOT, np.int8)[graph.value_kind].tolist()
    operands = (graph.in0[visit], graph.in1[visit], graph.out[visit])

    capacity = graph_capacity(graph, config)
    resident: dict[int, bool] = {}          # value id -> dirty
    touched: set[int] = set()               # values loaded at least once
    spilled: set[int] = set()               # intermediates with off-chip copy
    ev_kind, ev_target, ev_frees = array("b"), array("i"), array("i")
    traffic = [0] * 9
    # The eviction index: None until the scratchpad first fills, then a heap
    # of ``-next_use * num_values + value id`` (one int orders like the pair
    # and costs the collector nothing); entries may be stale.
    evict_heap: list[int] | None = None

    def make_space(a: int, b: int, output: int) -> int:
        """Evict until a slot is free; returns the freeing event index."""
        nonlocal evict_heap
        if evict_heap is None or len(evict_heap) > 2 * len(resident):
            # Not built yet, or mostly stale: one entry per resident value.
            evict_heap = [vid - uses[cursor[vid]] * num_values
                          for vid in resident]
            heapify(evict_heap)
        while len(resident) >= capacity:
            while True:
                if not evict_heap:
                    raise RuntimeError(
                        "scratchpad thrashing: everything resident is pinned "
                        f"(capacity {capacity}, "
                        f"pinned {len({a, b, output} - {-1})})"
                    )
                neg_use, vid = divmod(heappop(evict_heap), num_values)
                if vid not in resident or vid == a or vid == b or vid == output:
                    continue
                next_use = uses[cursor[vid]]
                if -neg_use != next_use:     # stale; refresh
                    heappush(evict_heap, vid - next_use * num_values)
                    continue
                break
            dirty = resident.pop(vid)
            live = next_use != never
            if dirty and (live or vid in outputs):
                # Live intermediate: spill it so it can be refilled later.
                ev_kind.append(STORE)
                if live:
                    traffic[_SPILL] += 1
                    spilled.add(vid)
                else:
                    traffic[_OUT] += 1
            else:
                # Clean (or dead) copy: drop it; the explicit event lets the
                # cycle scheduler know when the slot actually becomes free.
                ev_kind.append(EVICT)
            ev_target.append(vid)
            ev_frees.append(-1)
        return len(ev_kind) - 1

    def load(vid: int, a: int, b: int, output: int) -> None:
        slot = load_slot[vid]
        if slot == _FILL and vid not in spilled:
            raise RuntimeError(
                f"instr {instr_id} needs value {vid} which is neither "
                "resident nor recoverable (order not topological?)"
            )
        free_evt = -1 if len(resident) < capacity else make_space(a, b, output)
        if slot != _FILL and vid in touched:
            slot += 1                   # a capacity reload, not compulsory
        touched.add(vid)
        traffic[slot] += 1
        ev_kind.append(LOAD)
        ev_target.append(vid)
        ev_frees.append(free_evt)
        resident[vid] = False
        if evict_heap is not None:
            heappush(evict_heap, vid - uses[cursor[vid]] * num_values)

    for instr_id, a, b, output in zip(order, *(c.data for c in operands)):
        reads = 1
        if b == a:
            b, reads = -1, 2                # one operand, read twice
        # Load missing operands.
        if a not in resident:
            load(a, a, b, output)
        if b >= 0 and b not in resident:
            load(b, a, b, output)
        # Space for the result.
        free_evt = -1 if len(resident) < capacity else make_space(a, b, output)
        ev_kind.append(EXEC)
        ev_target.append(instr_id)
        ev_frees.append(free_evt)
        resident[output] = True  # produced on-chip: dirty
        if evict_heap is not None:
            heappush(evict_heap, output - uses[cursor[output]] * num_values)
        # Retire this use (the operand's cursor is on it); free dead values
        # (no store needed).
        cursor[a] = at = cursor[a] + reads
        if uses[at] != never or a in outputs:
            if evict_heap is not None:
                heappush(evict_heap, a - uses[at] * num_values)
        else:
            del resident[a]
        if b >= 0:
            cursor[b] = at = cursor[b] + 1
            if uses[at] != never or b in outputs:
                if evict_heap is not None:
                    heappush(evict_heap, b - uses[at] * num_values)
            else:
                del resident[b]

    # Store surviving outputs.
    for vid in sorted(outputs):
        if resident.get(vid):
            ev_kind.append(STORE)
            ev_target.append(vid)
            ev_frees.append(-1)
            traffic[_OUT] += 1
    return DataMovementSchedule(
        kind=np.frombuffer(ev_kind, np.int8),
        target=np.frombuffer(ev_target, np.int32),
        frees=np.frombuffer(ev_frees, np.int32), traffic=TrafficStats(*traffic),
        capacity_rvecs=capacity, order=order, outputs=set(outputs),
    )


def graph_capacity(graph: InstructionGraph, config: F1Config) -> int:
    capacity = config.scratchpad_capacity_rvecs(graph.n)
    if capacity < 8:
        raise ValueError("scratchpad too small for even a few residue vectors")
    return capacity
