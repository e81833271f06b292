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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.data_scheduler import DataMovementSchedule
from repro.core.config import F1Config
from repro.core.isa import InstructionGraph


@dataclass(slots=True)
class ScheduledInstr:
    instr_id: int
    start: int
    end: int          # result-available cycle
    cluster: int
    unit: int
    fu: str
    occupancy: int


@dataclass(slots=True)
class ScheduledTransfer:
    kind: str         # "load" | "store"
    value_id: int
    start: float
    end: float


@dataclass
class CycleSchedule:
    makespan: int
    instrs: list[ScheduledInstr]
    transfers: list[ScheduledTransfer]
    config: F1Config
    n: int
    fu_busy_cycles: dict = field(default_factory=dict)   # fu kind -> cycles
    hbm_busy_cycles: float = 0.0

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


FU_FAMILIES = ("ntt", "aut", "mul", "add")


def schedule_cycles(
    graph: InstructionGraph,
    movement: DataMovementSchedule,
    config: F1Config,
) -> CycleSchedule:
    instructions = graph.instructions
    n = graph.n
    # Per FU family, fixed for the whole graph: occupancy, issue-to-result
    # latency (NTT/INTT and ADD/SUB share theirs), units per cluster, and the
    # next-free cycle of every unit, flat in (cluster, unit) order.
    families = {}
    for fu in FU_FAMILIES:
        per_cluster = getattr(config, fu).count
        families[fu] = (config.fu_occupancy(fu, n), config.fu_latency(fu, n),
                        per_cluster, [0] * (per_cluster * config.clusters))
    value_ready: list[float] = [0.0] * len(graph.values)
    last_use_end: list[float] = [0.0] * len(graph.values)
    event_end: list[float] = [0.0] * len(movement.events)
    hbm_next_free = 0.0
    hbm_busy = 0.0
    load_cycles = config.load_cycles(n)
    transfer = config.transfer_cycles(n)
    latency_hbm = config.hbm_latency_cycles

    scheduled: list[ScheduledInstr] = []
    transfers: list[ScheduledTransfer] = []
    fu_busy: dict[str, int] = dict.fromkeys(FU_FAMILIES, 0)
    makespan = 0.0

    for idx, event in enumerate(movement.events):
        kind = event.kind
        if kind == "exec":
            instr = instructions[event.target]
            fu = instr.kind.fu
            occupancy, latency, per_cluster, next_free = families[fu]
            inputs = instr.inputs
            ready = 0.0
            for vid in inputs:
                if value_ready[vid] > ready:
                    ready = value_ready[vid]
            # Operand delivery over the on-chip network.
            ready = int(round(ready + transfer))
            # Greedy earliest start: the first unit (lowest cluster, then
            # lowest unit) free at ``ready``, else the first of the earliest.
            start = min(next_free)
            if start >= ready:
                index = next_free.index(start)
            else:
                start = ready
                for index, free in enumerate(next_free):
                    if free <= ready:
                        break
            next_free[index] = start + occupancy
            cluster, unit = divmod(index, per_cluster)
            end = start + latency
            output = instr.output
            value_ready[output] = end
            event_end[idx] = end
            for vid in inputs:
                if end > last_use_end[vid]:
                    last_use_end[vid] = end
            if end > last_use_end[output]:
                last_use_end[output] = end
            fu_busy[fu] += occupancy
            scheduled.append(ScheduledInstr(
                instr.instr_id, start, end, cluster, unit, fu, occupancy))
            if end > makespan:
                makespan = end
        elif kind == "load":
            earliest = 0.0
            if event.frees_slot_of is not None and event.frees_slot_of >= 0:
                earliest = event_end[event.frees_slot_of]
            start = max(hbm_next_free, earliest)
            hbm_next_free = start + load_cycles
            hbm_busy += load_cycles
            end = start + load_cycles + latency_hbm
            value_ready[event.target] = end
            event_end[idx] = end
            transfers.append(ScheduledTransfer("load", event.target, start, end))
        elif kind == "store":
            start = max(hbm_next_free, value_ready[event.target])
            hbm_next_free = start + load_cycles
            hbm_busy += load_cycles
            end = start + load_cycles
            event_end[idx] = end
            transfers.append(ScheduledTransfer("store", event.target, start, end))
            if end > makespan:
                makespan = end
        elif kind == "evict":
            # The slot is free once the victim's last scheduled use completes.
            event_end[idx] = last_use_end[event.target]
        else:
            raise ValueError(f"unknown movement event kind {kind!r}")

    return CycleSchedule(
        makespan=int(round(makespan)),
        instrs=scheduled,
        transfers=transfers,
        config=config,
        n=n,
        fu_busy_cycles=fu_busy,
        hbm_busy_cycles=hbm_busy,
    )
