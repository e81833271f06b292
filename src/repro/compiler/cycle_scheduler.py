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
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.compiler.data_scheduler import (
    EVENT_KINDS, EVICT, EXEC, LOAD, STORE, DataMovementSchedule)
from repro.core.config import F1Config
from repro.core.isa import INSTR_KINDS, InstructionGraph, RecordView

FU_FAMILIES = ("ntt", "aut", "mul", "add")
#: instruction-kind code -> FU-family code
FU_OF_KIND = np.array([FU_FAMILIES.index(kind.fu) for kind in INSTR_KINDS],
                      np.int8)


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


def schedule_cycles(graph: InstructionGraph, movement: DataMovementSchedule,
                    config: F1Config) -> CycleSchedule:
    n = graph.n
    # Per FU family, fixed for the whole graph: occupancy, issue-to-result
    # latency (NTT/INTT and ADD/SUB share theirs) and the next-free cycle of
    # every unit, flat in (cluster, unit) order.
    occupancies = [config.fu_occupancy(fu, n) for fu in FU_FAMILIES]
    latencies = [config.fu_latency(fu, n) for fu in FU_FAMILIES]
    families = [(occupancy, latency,
                 [0] * (getattr(config, fu).count * config.clusters))
                for fu, occupancy, latency
                in zip(FU_FAMILIES, occupancies, latencies)]
    num_values = len(graph.value_kind)
    transfer = config.transfer_cycles(n)
    # Per value: when its latest copy lands, and when an instruction may
    # issue on it (plus the operand hop, rounded once, when it is written).
    value_ready: list[float] = [0.0] * num_values
    delivered: list[int] = [transfer] * num_values
    last_use_end: list[float] = [0.0] * num_values
    event_end: list[float] = []
    hbm_next_free = 0.0
    hbm_busy = 0.0
    load_cycles = config.load_cycles(n)
    latency_hbm = config.hbm_latency_cycles
    lows = [0] * len(FU_FAMILIES)     # per FU family, its lowest next-free

    # What the loop decides: start and unit per issue, start per transfer.
    starts, unit_indices, transfer_starts = array("q"), array("i"), array("d")
    # What it reads, one row per event: the event itself and, gathered here
    # for the exec events (row 0 stands in elsewhere and is not read), the
    # instruction's operands, result and FU family.
    issued = movement.kind == EXEC
    instr = np.where(issued, movement.target, 0)
    family = FU_OF_KIND[graph.kind[instr]]
    columns = (movement.kind, movement.target, movement.frees,
               graph.in0[instr], graph.in1[instr], graph.out[instr], family)

    for kind, target, frees, a, b, output, fu in zip(
            *(column.data for column in columns)):
        if kind == EXEC:
            occupancy, latency, next_free = families[fu]
            ready = delivered[a]
            if b >= 0 and delivered[b] > ready:
                ready = delivered[b]
            # Greedy earliest start: the first unit (lowest cluster, then
            # lowest unit) free at ``ready``, else the first of the earliest:
            # the low-water mark, which moves only with a unit holding it.
            low = lows[fu]
            if low >= ready:
                start = free = low
                index = next_free.index(low)
            else:
                start = ready
                for index, free in enumerate(next_free):
                    if free <= ready:
                        break
            next_free[index] = start + occupancy
            if free == low:
                lows[fu] = min(next_free)
            end = start + latency
            value_ready[output] = end
            delivered[output] = end + transfer
            if end > last_use_end[a]:
                last_use_end[a] = end
            if b >= 0 and end > last_use_end[b]:
                last_use_end[b] = end
            last_use_end[output] = end     # values are produced once
            starts.append(start)
            unit_indices.append(index)
        elif kind == LOAD:
            start = hbm_next_free
            if frees >= 0 and event_end[frees] > start:
                start = event_end[frees]
            hbm_next_free = start + load_cycles
            hbm_busy += load_cycles
            end = start + load_cycles + latency_hbm
            value_ready[target] = end
            delivered[target] = int(round(end + transfer))
            transfer_starts.append(start)
        elif kind == STORE:
            start = max(hbm_next_free, value_ready[target])
            hbm_next_free = start + load_cycles
            hbm_busy += load_cycles
            end = start + load_cycles
            transfer_starts.append(start)
        elif kind == EVICT:
            # The slot is free once the victim's last scheduled use completes.
            end = last_use_end[target]
        else:
            raise ValueError(f"unknown movement event kind {kind!r}")
        event_end.append(end)

    # Everything else follows from those, a column at a time.
    fu = family[issued]
    start = np.frombuffer(starts, np.int64)
    end = start + np.array(latencies, np.int64)[fu]
    moved = (movement.kind == LOAD) | (movement.kind == STORE)
    transfer_kind = movement.kind[moved]
    transfer_start = np.frombuffer(transfer_starts, np.float64)
    transfer_end = transfer_start + load_cycles
    transfer_end[transfer_kind == LOAD] += latency_hbm
    issues = np.bincount(fu, minlength=len(FU_FAMILIES)).tolist()
    # Loads only feed instructions, so the last result or store closes it.
    makespan = max(float(end.max(initial=0)), float(
        transfer_end[transfer_kind == STORE].max(initial=0.0)))
    return CycleSchedule(
        makespan=int(round(makespan)),
        instr_id=movement.target[issued], start=start, end=end,
        unit_index=np.frombuffer(unit_indices, np.int32), fu=fu,
        transfer_kind=transfer_kind, transfer_value=movement.target[moved],
        transfer_start=transfer_start, transfer_end=transfer_end,
        config=config, n=n,
        fu_busy_cycles={name: count * occupancy for name, count, occupancy
                        in zip(FU_FAMILIES, issues, occupancies)},
        hbm_busy_cycles=hbm_busy,
    )
