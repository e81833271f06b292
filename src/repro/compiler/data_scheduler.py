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

**The eviction-free prefix.**  Until the first step that has to evict,
the loop's output has a closed form, computed from whole columns
(``_eviction_free_prefix``).  It rests on three facts about that stretch:
a load is exactly the first read of an off-chip value in visit order
(operand ``a`` before ``b``); a value leaves the scratchpad only at its last
read, unless it is a program output (a result nothing reads stays
resident); so the occupancy is a prefix sum of (loads + 1 result - values
freed) per step, and the prefix ends at the first step whose loads and
result do not fit beside what is resident.  Every ``frees`` there is ``-1``
and every load compulsory.  The per-instruction loop starts at that step,
from the state the prefix hands it; in a program that never fills the
scratchpad (six of the seven Table-3 programs at the default size) it
never runs.

**The victim rule.**  When the scratchpad is full, the value evicted is
``argmax (next use, -value id)`` over the resident values the current
instruction does not touch: the furthest next use (a dead output's is "never",
beyond every position), ties to the lower id.  That is a function of the
scheduler's state alone, so the heap that answers it is an index, not state:
it is built from the resident set when the loop starts (its first step fills
the scratchpad), maintained from there, and rebuilt the same way whenever
more than half of its entries are stale.  The victim sequence is the one an
always-maintained heap gives (``tests/test_compiler_columns.py`` keeps that
scheduler as the oracle).
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
    capacity = graph_capacity(graph, config)
    prefix = _eviction_free_prefix(graph, outputs, capacity, order)
    events = (array("b", prefix.kind.tobytes()),
              array("i", prefix.target.tobytes()),
              array("i", [-1]) * len(prefix.kind))     # no prefix load waits
    if prefix.steps < len(graph.kind):
        _schedule_from(graph, outputs, capacity, order, prefix, events)
    resident, traffic = prefix.resident, prefix.traffic

    # Store surviving outputs.
    ev_kind, ev_target, ev_frees = events
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
        capacity_rvecs=capacity,
        order=range(len(graph.kind)) if order is None else order,
        outputs=set(outputs),
    )


class _Prefix(NamedTuple):
    """Phase 2's state before the first step that would evict."""

    steps: int                  # instructions visited without evicting
    kind: np.ndarray            # their event columns (every ``frees`` -1)
    target: np.ndarray
    traffic: list[int]          # TrafficStats fields (all compulsory loads)
    loaded: np.ndarray          # the off-chip values those loads brought in
    resident: dict[int, bool]   # value id -> dirty


def _unrecoverable(instr_id: int, vid: int) -> RuntimeError:
    return RuntimeError(
        f"instr {instr_id} needs value {vid} which is neither resident nor "
        "recoverable (order not topological?)")


def _first(mask: np.ndarray) -> int:
    """Index of the first true entry; ``len(mask)`` if there is none."""
    return int(mask.argmax()) if mask.any() else len(mask)


def _eviction_free_prefix(graph: InstructionGraph, outputs: set[int],
                          capacity: int, order: list[int] | None) -> _Prefix:
    """The loop's output and state up to the first step that needs
    ``make_space``, from whole columns (the module docstring's three
    facts).  Raises the loop's error if ``order`` reads a value before its
    producer within that prefix."""
    num_instructions, num_values = len(graph.kind), len(graph.value_kind)
    never = num_instructions
    step = np.arange(num_instructions, dtype=np.int32)
    if order is None:
        visit, read_at = slice(None), graph.users
    else:
        visit = np.asarray(order)
        position = np.empty(num_instructions, np.int32)
        position[visit] = step
        read_at = position[graph.users]
    a, b = graph.in0[visit], graph.in1[visit]
    b = np.where(b == a, -1, b)                 # one operand, read twice
    # Per value, plus a last entry (what b = -1 picks) that no step matches:
    # the step that loads it (its first read, if it lives off-chip), makes
    # it (-1: off-chip, so never late) and frees it (its last read, unless
    # it is an output).
    load_slot = np.array(_LOAD_SLOT, np.int8)[graph.value_kind]
    offchip = load_slot != _FILL
    is_read = np.diff(graph.user_ptr) > 0
    first_read = graph.user_ptr[:-1][is_read]
    load_at = np.full(num_values + 1, never, np.int32)
    freed_at = load_at.copy()
    load_at[:-1][is_read] = np.minimum.reduceat(read_at, first_read)
    freed_at[:-1][is_read] = np.maximum.reduceat(read_at, first_read)
    load_at[:-1][~offchip] = never
    freed_at[np.fromiter(outputs, np.int32, len(outputs))] = never
    made_at = np.full(num_values + 1, -1, np.int32)
    made_at[:-1][~offchip] = never
    made_at[graph.out[visit]] = step
    del is_read, first_read, read_at

    loads_a, loads_b = load_at[a] == step, load_at[b] == step
    grow = loads_a.astype(np.int32)
    grow += loads_b
    grow += 1                                   # the result
    freed = (freed_at[a] == step).astype(np.int32)
    freed += freed_at[b] == step
    # The scratchpad's occupancy at each step's peak: before it, plus its
    # loads and its result.
    peak = np.cumsum(grow - freed, dtype=np.int32)
    peak += freed
    steps = _first(peak > capacity)
    del freed, peak
    late = _first((made_at[a] >= step) | (made_at[b] >= step))
    if late < steps:
        vid = a[late] if made_at[a[late]] >= late else b[late]
        raise _unrecoverable(int(late if order is None else order[late]),
                             int(vid))

    # Events: LOAD a, LOAD b, EXEC per step, as its loads need them.
    loads_a, loads_b = loads_a[:steps], loads_b[:steps]
    exec_at = np.cumsum(grow[:steps], dtype=np.int32) - 1
    size = int(exec_at[-1]) + 1 if steps else 0
    kind = np.full(size, LOAD, np.int8)
    kind[exec_at] = EXEC
    target = np.empty(size, np.int32)
    target[exec_at] = step[:steps] if order is None else visit[:steps]
    target[exec_at[loads_b] - 1] = b[:steps][loads_b]
    target[exec_at[loads_a] - 1 - loads_b[loads_a]] = a[:steps][loads_a]

    loaded = np.flatnonzero(load_at[:-1] < steps)
    entered_at = np.where(offchip, load_at[:-1], made_at[:-1])
    held = np.flatnonzero((entered_at < steps) & (freed_at[:-1] >= steps))
    return _Prefix(
        steps, kind, target,
        np.bincount(load_slot[loaded], minlength=9).tolist(), loaded,
        dict(zip(held.tolist(), (~offchip[held]).tolist())))


def _schedule_from(graph: InstructionGraph, outputs: set[int], capacity: int,
                   order: list[int] | None, prefix: _Prefix,
                   events: tuple[array, array, array]) -> None:
    """Phase 2's per-instruction loop from ``prefix.steps`` on, appending to
    ``events`` and updating ``prefix.resident`` / ``prefix.traffic``."""
    num_instructions, num_values = len(graph.kind), len(graph.value_kind)
    start = prefix.steps
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
        order, visit = range(num_instructions), slice(None)
        use_column[is_use] = graph.users
    else:
        visit = np.asarray(order)
        position = np.empty(num_instructions, np.int32)
        position[visit] = np.arange(num_instructions, dtype=np.int32)
        value = np.repeat(np.arange(num_values), np.diff(graph.user_ptr))
        positions = position[graph.users]
        use_column[is_use] = positions[np.lexsort((positions, value))]
    uses = use_column.tolist()
    in0, in1, out = graph.in0[visit], graph.in1[visit], graph.out[visit]
    done = np.concatenate((in0[:start], in1[:start][in1[:start] >= 0]))
    cursor = (first_use[:-1]
              + np.bincount(done, minlength=num_values)).tolist()
    load_slot = np.array(_LOAD_SLOT, np.int8)[graph.value_kind].tolist()
    del first_use, use_column, is_use, done

    resident, traffic = prefix.resident, prefix.traffic   # dirty flags
    touched = set(prefix.loaded.tolist())   # values loaded at least once
    spilled: set[int] = set()               # intermediates with off-chip copy
    ev_kind, ev_target, ev_frees = events
    # The eviction index, built here because the first step fills the
    # scratchpad: a heap of ``-next_use * num_values + value id`` (one int
    # orders like the pair and costs the collector nothing); entries may be
    # stale.
    evict_heap = [vid - uses[cursor[vid]] * num_values for vid in resident]
    heapify(evict_heap)

    def make_space(a: int, b: int, output: int) -> int:
        """Evict until a slot is free; returns the freeing event index."""
        nonlocal evict_heap
        if len(evict_heap) > 2 * len(resident):
            # Mostly stale: one entry per resident value.
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
            raise _unrecoverable(instr_id, vid)
        free_evt = -1 if len(resident) < capacity else make_space(a, b, output)
        if slot != _FILL and vid in touched:
            slot += 1                   # a capacity reload, not compulsory
        touched.add(vid)
        traffic[slot] += 1
        ev_kind.append(LOAD)
        ev_target.append(vid)
        ev_frees.append(free_evt)
        resident[vid] = False
        heappush(evict_heap, vid - uses[cursor[vid]] * num_values)

    for instr_id, a, b, output in zip(order[start:], in0[start:].data,
                                      in1[start:].data, out[start:].data):
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
        heappush(evict_heap, output - uses[cursor[output]] * num_values)
        # Retire this use (the operand's cursor is on it); free dead values
        # (no store needed).
        cursor[a] = at = cursor[a] + reads
        if uses[at] != never or a in outputs:
            heappush(evict_heap, a - uses[at] * num_values)
        else:
            del resident[a]
        if b >= 0:
            cursor[b] = at = cursor[b] + 1
            if uses[at] != never or b in outputs:
                heappush(evict_heap, b - uses[at] * num_values)
            else:
                del resident[b]


def graph_capacity(graph: InstructionGraph, config: F1Config) -> int:
    capacity = config.scratchpad_capacity_rvecs(graph.n)
    if capacity < 8:
        raise ValueError("scratchpad too small for even a few residue vectors")
    return capacity
