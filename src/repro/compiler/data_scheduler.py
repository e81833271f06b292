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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush

from repro.core.config import F1Config
from repro.core.isa import InstructionGraph, ValueKind

INFINITY = float("inf")


@dataclass(slots=True)
class Event:
    kind: str                 # "load" | "exec" | "store" | "evict"
    target: int               # value id (load/store/evict) or instr id (exec)
    frees_slot_of: int | None = None   # event index whose completion freed space


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
    events: list[Event]
    traffic: TrafficStats
    capacity_rvecs: int
    order: list[int] = field(default_factory=list)  # instruction order used
    outputs: set[int] = field(default_factory=set)  # program output values


# Traffic counters in TrafficStats field order: a first load of an off-chip
# value counts at its kind's slot, a repeated one at the slot after it.
_KSH, _INPUT, _PLAIN, _FILL, _SPILL, _OUT = 0, 2, 4, 6, 7, 8


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
    instructions = graph.instructions
    values = graph.values
    # Per value, the visit positions of its users, ascending; a cursor per
    # value marks the first one not yet issued (next-use estimation and
    # dead-value detection).  Phase 1 appends users in instruction order,
    # which is the default visit order, so the lists are used as they are.
    if order is None:
        order = list(range(len(instructions)))
        uses = [v.users for v in values]
    else:
        position_of = {instr_id: pos for pos, instr_id in enumerate(order)}
        uses = [sorted(position_of[u] for u in v.users) for v in values]
    cursor = [0] * len(values)

    capacity = graph_capacity(graph, config)
    resident: dict[int, bool] = {}          # value id -> dirty
    touched: set[int] = set()               # values loaded at least once
    spilled: set[int] = set()               # intermediates with off-chip copy
    events: list[Event] = []
    add_event = events.append
    traffic = [0] * 9
    # Eviction heap of (-next_use_position, value id); entries may be stale.
    evict_heap: list[tuple[float, int]] = []
    ksh, program_input, plain = ValueKind.KSH, ValueKind.INPUT, ValueKind.PLAIN

    def make_space(pinned: tuple[int, ...], output: int) -> int:
        """Evict until a slot is free; returns the freeing event index."""
        while len(resident) >= capacity:
            while True:
                if not evict_heap:
                    raise RuntimeError(
                        "scratchpad thrashing: everything resident is pinned "
                        f"(capacity {capacity}, "
                        f"pinned {len(set(pinned) | {output})})"
                    )
                neg_use, vid = heappop(evict_heap)
                if vid not in resident or vid in pinned or vid == output:
                    continue
                at, users = cursor[vid], uses[vid]
                next_use = users[at] if at < len(users) else INFINITY
                if -neg_use != next_use:
                    heappush(evict_heap, (-next_use, vid))  # stale; refresh
                    continue
                break
            dirty = resident.pop(vid)
            live = at < len(users)
            if dirty and (live or vid in outputs):
                # Live intermediate: spill it so it can be refilled later.
                add_event(Event("store", vid))
                if live:
                    traffic[_SPILL] += 1
                    spilled.add(vid)
                else:
                    traffic[_OUT] += 1
            else:
                # Clean (or dead) copy: drop it; the explicit event lets the
                # cycle scheduler know when the slot actually becomes free.
                add_event(Event("evict", vid))
        return len(events) - 1

    for pos, instr_id in enumerate(order):
        instr = instructions[instr_id]
        inputs, output = instr.inputs, instr.output
        # Load missing operands.
        for vid in inputs:
            if vid in resident:
                continue
            kind = values[vid].kind
            if kind is ksh:
                slot = _KSH
            elif kind is program_input:
                slot = _INPUT
            elif kind is plain:
                slot = _PLAIN
            elif vid in spilled:
                slot = _FILL
            else:
                raise RuntimeError(
                    f"instr {instr_id} needs value {vid} which is neither "
                    "resident nor recoverable (order not topological?)"
                )
            free_evt = (None if len(resident) < capacity
                        else make_space(inputs, output))
            if slot != _FILL and vid in touched:
                slot += 1                   # a capacity reload, not compulsory
            touched.add(vid)
            traffic[slot] += 1
            add_event(Event("load", vid, free_evt))
            resident[vid] = False
            at, users = cursor[vid], uses[vid]
            heappush(evict_heap,
                     (-users[at] if at < len(users) else -INFINITY, vid))
        # Space for the result.
        free_evt = (None if len(resident) < capacity
                    else make_space(inputs, output))
        add_event(Event("exec", instr_id, free_evt))
        resident[output] = True  # produced on-chip: dirty
        at, users = cursor[output], uses[output]
        heappush(evict_heap,
                 (-users[at] if at < len(users) else -INFINITY, output))
        # Retire this use; free dead values (no store needed).
        if len(inputs) > 1 and (len(inputs) > 2 or inputs[0] == inputs[1]):
            inputs = tuple(dict.fromkeys(inputs))
        for vid in inputs:
            at, users = cursor[vid], uses[vid]
            while at < len(users) and users[at] == pos:
                at += 1
            cursor[vid] = at
            if vid not in resident:
                continue
            if at < len(users):
                heappush(evict_heap, (-users[at], vid))
            elif vid in outputs:
                heappush(evict_heap, (-INFINITY, vid))
            else:
                del resident[vid]

    # Store surviving outputs.
    for vid in sorted(outputs):
        if resident.get(vid):
            add_event(Event("store", vid))
            traffic[_OUT] += 1
    return DataMovementSchedule(
        events=events, traffic=TrafficStats(*traffic), capacity_rvecs=capacity,
        order=order, outputs=set(outputs),
    )


def graph_capacity(graph: InstructionGraph, config: F1Config) -> int:
    capacity = config.scratchpad_capacity_rvecs(graph.n)
    if capacity < 8:
        raise ValueError("scratchpad too small for even a few residue vectors")
    return capacity
