"""Compiler phase 3: cycle-level scheduling (Sec. 4.4).

Consumes the phase-2 event list and the full architecture description, and
assigns every load, store, and instruction a start cycle, a cluster, and a
functional unit, respecting:

- data dependences (operands ready, plus a bank->cluster transfer);
- functional-unit structural hazards (each unit is fully pipelined with a
  fixed occupancy per residue vector — new ops can issue every
  ``occupancy`` cycles, results appear after ``latency``);
- aggregate HBM bandwidth (loads/stores serialize on bytes/cycle) and load
  latency;
- scratchpad capacity (a load may not complete before the event that freed
  its slot has completed — phase 2 annotates this), while otherwise hoisting
  loads as early as bandwidth allows (decoupled data orchestration).

Because the schedule is fully static, the resulting makespan *is* the
performance number (Sec. 4.4: "our scheduler also doubles as a performance
measurement tool"); the independent checker in :mod:`repro.sim.simulator`
re-validates it.

**One loop, over the instructions.**  Their columns are gathered first:
operands, result, FU family, flag bits, and how far the queue of LOAD /
STORE / EVICT events must be drained before each (``drain`` times those at
their place in the order).  Before it starts, two things are closed form:

- *The wait-free stretch.*  Up to the first event that is neither an exec
  nor the one load, with no ``frees``, of an off-chip value
  (``_wait_free_prefix``: no STORE, EVICT, refill or second load before
  it), every transfer starts where the last one left the channel.  Its
  start is a running sum of ``load_cycles`` (``np.cumsum``: the loop's own
  adds, bit for bit) and its delivery is written before the first issue.
  In the Table-3 suite at the default config, 20 561 of 22 263 loads.
- *Bookkeeping only where it is read.*  Every value has a delivery cycle
  (its latest copy's landing plus the operand hop, rounded once); its
  ready cycle is kept only if a STORE names it, its last use's end only if
  an EVICT does, and an event's end only if a load's ``frees`` does.

The unit pick is one rule: ``start = max(ready, lowest next-free)``, on the
first unit (lowest cluster, then unit) whose next-free is at most
``start``.  Per family the loop keeps the running minimum of next-free in
unit order, negated (``floor``, ascending): the unit is
``bisect_left(floor, -start)``, the lowest next-free is ``-floor`` at the
last unit, and after an issue ``floor`` is re-derived from that unit until
it agrees with its old values.

**The schedule is columns**, one row per issued instruction (in issue order)
and one per off-chip transfer (in channel order):

==================  =======  ================================================
per issue           dtype
==================  =======  ================================================
``instr_id``        int32    the instruction issued
``start``, ``end``  int64    issue cycle; result-available cycle
``unit_index``      int32    ``cluster * units_per_cluster + unit`` within the
                             instruction's FU family
``fu``              int8     index into :data:`FU_FAMILIES`
==================  =======  ================================================

==================  =======  ================================================
per transfer        dtype
==================  =======  ================================================
``transfer_kind``   int8     ``LOAD`` or ``STORE`` (the event-kind codes)
``transfer_value``  int32    the value moved
``transfer_start``  float64  channel occupancy begins
``transfer_end``    float64  data landed (a load's includes the HBM latency)
==================  =======  ================================================

Cluster, unit and occupancy are not stored: they follow from ``unit_index``,
``fu`` and the architecture description, and ``schedule.instrs[i]`` /
``schedule.transfers[i]`` build a full record from them.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.compiler.data_scheduler import (
    EVENT_KINDS, EVICT, EXEC, LOAD, STORE, DataMovementSchedule)
from repro.core.config import F1Config
from repro.core.isa import (
    INSTR_KINDS, InstructionGraph, RecordView, stable_order)

FU_FAMILIES = ("ntt", "aut", "mul", "add")
#: instruction-kind code -> FU-family code
FU_OF_KIND = np.array([FU_FAMILIES.index(kind.fu) for kind in INSTR_KINDS],
                      np.int8)
#: per-issue flag bits: drain queued events first (the low bit, so ``flag >
#: _RUN`` means bookkeeping is due); note the end for an EVICT of operand a /
#: b / the result, a STORE of the result, a load whose ``frees`` is this exec
_RUN, _A, _B, _OUT, _STORED, _NAMED = 1, 2, 4, 8, 16, 32
#: closes each family's unit lists: above any negated next-free, so it ends
#: the re-derivation of ``floor`` after an issue
_END = 1 << 62


class ScheduledInstr(NamedTuple):
    instr_id: int
    start: int
    end: int          # result-available cycle
    cluster: int
    unit: int
    fu: str
    occupancy: int


class ScheduledTransfer(NamedTuple):
    kind: str         # "load" | "store"
    value_id: int
    start: float
    end: float


@dataclass
class CycleSchedule:
    makespan: int
    instr_id: np.ndarray        # the columns of the module docstring
    start: np.ndarray
    end: np.ndarray
    unit_index: np.ndarray
    fu: np.ndarray
    transfer_kind: np.ndarray
    transfer_value: np.ndarray
    transfer_start: np.ndarray
    transfer_end: np.ndarray
    config: F1Config
    n: int
    fu_busy_cycles: dict = field(default_factory=dict)   # fu kind -> cycles
    hbm_busy_cycles: float = 0.0

    COLUMNS = ("instr_id", "start", "end", "unit_index", "fu", "transfer_kind",
               "transfer_value", "transfer_start", "transfer_end")

    @property
    def time_ms(self) -> float:
        return self.makespan / (self.config.frequency_ghz * 1e9) * 1e3

    def fu_utilization(self) -> dict:
        out = {}
        for fu, busy in self.fu_busy_cycles.items():
            units = self.config.fu_count(fu)
            out[fu] = busy / max(1, self.makespan * units)
        return out

    def hbm_utilization(self) -> float:
        return self.hbm_busy_cycles / max(1, self.makespan)

    def occupancy(self) -> np.ndarray:
        """Per issue, the cycles it holds its unit."""
        per_family = [self.config.fu_occupancy(fu, self.n) for fu in FU_FAMILIES]
        return np.array(per_family, np.int64)[self.fu]

    @property
    def instrs(self) -> RecordView:
        per_cluster = [getattr(self.config, fu).count for fu in FU_FAMILIES]
        return RecordView(
            (self.instr_id, self.start, self.end, self.unit_index, self.fu,
             self.occupancy()),
            lambda row, instr_id, start, end, index, fu, occupancy:
            ScheduledInstr(instr_id, start, end, *divmod(index, per_cluster[fu]),
                           FU_FAMILIES[fu], occupancy))

    @property
    def transfers(self) -> RecordView:
        return RecordView(
            (self.transfer_kind, self.transfer_value, self.transfer_start,
             self.transfer_end),
            lambda row, kind, value, start, end: ScheduledTransfer(
                EVENT_KINDS[kind], value, start, end))


def _wait_free_prefix(graph: InstructionGraph,
                      movement: DataMovementSchedule) -> int:
    """The events before the first one that is neither an exec nor the one
    load, with no ``frees``, of an off-chip value: the stretch whose
    transfers phase 3 times in closed form."""
    kind, target, frees = movement.kind, movement.target, movement.frees
    loads = np.flatnonzero(kind == LOAD)
    value = target[loads]
    by_value = stable_order(value)
    again = np.zeros(len(loads), bool)          # not the value's first load
    again[by_value[1:]] = np.diff(value[by_value]) == 0
    waits = kind != EXEC
    waits[loads] = (frees[loads] >= 0) | (graph.producer[value] >= 0) | again
    return int(np.argmax(waits)) if waits.any() else len(kind)


def schedule_cycles(graph: InstructionGraph, movement: DataMovementSchedule,
                    config: F1Config) -> CycleSchedule:
    n = graph.n
    occupancies = [config.fu_occupancy(fu, n) for fu in FU_FAMILIES]
    latencies = [config.fu_latency(fu, n) for fu in FU_FAMILIES]
    hop = config.transfer_cycles(n)
    load_cycles = config.load_cycles(n)
    latency_hbm = config.hbm_latency_cycles
    kind, target, frees = movement.kind, movement.target, movement.frees
    num_values = len(graph.value_kind)
    moved = (kind == LOAD) | (kind == STORE)
    # The channel's clock if no transfer waits: a running sum from 0.0, so
    # each entry has the bits of the loop's repeated ``+ load_cycles``.
    clock = np.concatenate(
        ([0.0], np.full(np.count_nonzero(moved), load_cycles))).cumsum()
    cut = _wait_free_prefix(graph, movement)
    loads = np.flatnonzero(kind == LOAD)
    stretch = loads[:np.searchsorted(loads, cut)]
    landed = clock[:len(stretch)] + load_cycles + latency_hbm

    # Per value, the cycle an instruction may issue on it; row -1, past the
    # values, stands in for a missing operand b.  The rest is kept only
    # where it is read: ``value_ready`` for the values a STORE names,
    # ``last_use`` for those an EVICT names, ``event_end`` for the events
    # a load's ``frees`` names.
    delivered = np.full(num_values + 1, hop, np.int64)
    delivered[-1] = 0
    delivered[target[stretch]] = np.round(landed + hop)
    delivered = delivered.tolist()
    stored, evicted = np.zeros((2, num_values + 1), bool)
    stored[target[kind == STORE]] = evicted[target[kind == EVICT]] = True
    named = np.zeros(len(kind), bool)
    named[frees[loads][frees[loads] >= 0]] = True
    value_ready = dict.fromkeys(np.flatnonzero(stored).tolist(), 0.0)
    keep = stored[target[stretch]]
    value_ready.update(zip(target[stretch][keep].tolist(),
                           landed[keep].tolist()))
    last_use = dict.fromkeys(np.flatnonzero(evicted).tolist(), 0.0)
    event_end = dict.fromkeys(np.flatnonzero(named).tolist())
    keep = named[stretch]
    event_end.update(zip(stretch[keep].tolist(), landed[keep].tolist()))

    # Per instruction, in issue order: operands, result, FU family, flag
    # bits, and how far the queue of non-exec events past the stretch must
    # be drained before it.
    execs = np.flatnonzero(kind == EXEC)
    instr = target[execs]
    in0, in1, out = graph.in0[instr], graph.in1[instr], graph.out[instr]
    fu = FU_OF_KIND[graph.kind[instr]]
    queue = cut + np.flatnonzero(kind[cut:] != EXEC)
    run_end = np.searchsorted(queue, execs)
    flags = ((np.diff(run_end, prepend=0) > 0) * _RUN | evicted[in0] * _A
             | evicted[in1] * _B | evicted[out] * _OUT | stored[out] * _STORED
             | named[execs] * _NAMED).astype(np.int8)
    exec_event = dict(zip(out[named[execs]].tolist(),
                          execs[named[execs]].tolist()))
    queued = [column.tolist() for column in (kind[queue], target[queue],
                                             frees[queue], queue)]
    drained = 0
    hbm_next_free = float(clock[len(stretch)])

    # Per FU family: occupancy, latency, latency + hop, and over its units
    # (cluster, then unit) the negated next-free cycle and its running
    # maximum ``floor``, each closed by a sentinel.
    families = []
    for name, occupancy, latency in zip(FU_FAMILIES, occupancies, latencies):
        units = getattr(config, name).count * config.clusters
        families.append((occupancy, latency, latency + hop,
                         [0] * units + [_END], [0] * units + [_END]))
    starts, unit_indices, transfer_starts = [], [], array("d")

    def drain(stop: int) -> None:
        """The queued LOAD / STORE / EVICT events up to ``stop``, in order."""
        nonlocal drained, hbm_next_free
        for kind, value, freed_by, event in zip(
                *(column[drained:stop] for column in queued)):
            if kind == LOAD:
                start = hbm_next_free
                if freed_by >= 0 and event_end[freed_by] > start:
                    start = event_end[freed_by]
                hbm_next_free = start + load_cycles
                end = start + load_cycles + latency_hbm
                if value in value_ready:
                    value_ready[value] = end
                delivered[value] = int(round(end + hop))
                transfer_starts.append(start)
            elif kind == STORE:
                start = max(hbm_next_free, value_ready[value])
                hbm_next_free = start + load_cycles
                end = start + load_cycles
                transfer_starts.append(start)
            elif kind == EVICT:
                # The slot is free once the victim's last use completes.
                end = last_use[value]
            else:
                raise ValueError(f"unknown movement event kind {kind!r}")
            if event in event_end:
                event_end[event] = end
        drained = stop

    for a, b, output, family, flag, run in zip(
            *(column.data for column in (in0, in1, out, fu, flags, run_end))):
        if flag & _RUN:
            drain(run)
        ready = delivered[a]
        if delivered[b] > ready:
            ready = delivered[b]
        occupancy, latency, reach, taken, floor = families[family]
        # The first unit free at ``start = max(ready, lowest next-free)``.
        low = -floor[-2]
        start = ready if ready > low else low
        index = bisect_left(floor, -start)
        taken[index] = top = -start - occupancy
        if index and floor[index - 1] > top:
            top = floor[index - 1]
        unit = index
        while floor[unit] != top:         # re-derive until it agrees
            floor[unit] = top
            unit += 1
            if taken[unit] > top:
                top = taken[unit]
        delivered[output] = start + reach
        if flag > _RUN:
            end = start + latency
            if flag & _A and end > last_use[a]:
                last_use[a] = end
            if flag & _B and end > last_use[b]:
                last_use[b] = end
            if flag & _OUT:
                last_use[output] = end      # values are produced once
            if flag & _STORED:
                value_ready[output] = end
            if flag & _NAMED:
                event_end[exec_event[output]] = end
        starts.append(start)
        unit_indices.append(index)
    drain(len(queue))

    # Everything else follows from those, a column at a time.
    start = np.array(starts, np.int64)
    end = start + np.array(latencies, np.int64)[fu]
    transfer_kind = kind[moved]
    transfer_start = np.concatenate(
        (clock[:len(stretch)], np.frombuffer(transfer_starts, np.float64)))
    transfer_end = transfer_start + load_cycles
    transfer_end[transfer_kind == LOAD] += latency_hbm
    issues = np.bincount(fu, minlength=len(FU_FAMILIES)).tolist()
    # Loads only feed instructions, so the last result or store closes it.
    makespan = max(float(end.max(initial=0)), float(
        transfer_end[transfer_kind == STORE].max(initial=0.0)))
    return CycleSchedule(
        makespan=int(round(makespan)),
        instr_id=instr, start=start, end=end,
        unit_index=np.array(unit_indices, np.int32), fu=fu,
        transfer_kind=transfer_kind, transfer_value=target[moved],
        transfer_start=transfer_start, transfer_end=transfer_end,
        config=config, n=n,
        fu_busy_cycles={name: count * occupancy for name, count, occupancy
                        in zip(FU_FAMILIES, issues, occupancies)},
        hbm_busy_cycles=float(clock[-1]),
    )
