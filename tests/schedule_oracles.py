"""Loop oracles for compiler phase 3 and for the schedule checker's replay.

``schedule_cycles`` (:mod:`repro.compiler.cycle_scheduler`) picks a unit from
a per-family low-water mark and reads each operand's delivery cycle rounded
once, when the value was written; ``check_schedule``
(:mod:`repro.sim.simulator`) runs checks 1, 4 and 5 as column operations.
The two functions here are the formulations those replaced, one event at a
time: a ``min()`` over the family's next-free list on every issue, and a
replay of the event list against a resident set.  ``tests/test_schedulers.py``
and ``tests/test_simulator_checker.py`` hold the column code to them, bit for
bit and violation for violation.

One rule of the replay is newer than the loop: check 1 holds an operand to
``round(available + transfer_cycles(n))``, the operand hop the scheduler
charges, not only to ``available``.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.compiler.cycle_scheduler import FU_FAMILIES, FU_OF_KIND, CycleSchedule
from repro.compiler.data_scheduler import EVICT, EXEC, LOAD, STORE
from repro.sim.simulator import (
    CheckReport, _check_hbm_serialization, _check_structural_hazards,
    _transfer_of_event)


def schedule_cycles_loop(graph, movement, config) -> CycleSchedule:
    """Phase 3 with a ``min()`` scan of the unit list on every issue and the
    operand hop rounded on every read."""
    n = graph.n
    occupancies = [config.fu_occupancy(fu, n) for fu in FU_FAMILIES]
    latencies = [config.fu_latency(fu, n) for fu in FU_FAMILIES]
    families = [(occupancy, latency,
                 [0] * (getattr(config, fu).count * config.clusters))
                for fu, occupancy, latency
                in zip(FU_FAMILIES, occupancies, latencies)]
    num_values = len(graph.value_kind)
    value_ready: list[float] = [0.0] * num_values
    last_use_end: list[float] = [0.0] * num_values
    event_end: list[float] = []
    hbm_next_free = 0.0
    hbm_busy = 0.0
    load_cycles = config.load_cycles(n)
    transfer = config.transfer_cycles(n)
    latency_hbm = config.hbm_latency_cycles

    starts, unit_indices, transfer_starts = array("q"), array("i"), array("d")
    issued = movement.kind == EXEC
    instr = np.where(issued, movement.target, 0)
    family = FU_OF_KIND[graph.kind[instr]]
    columns = (movement.kind, movement.target, movement.frees,
               graph.in0[instr], graph.in1[instr], graph.out[instr], family)

    for kind, target, frees, a, b, output, fu in zip(
            *(column.data for column in columns)):
        if kind == EXEC:
            occupancy, latency, next_free = families[fu]
            ready = value_ready[a]
            if b >= 0 and value_ready[b] > ready:
                ready = value_ready[b]
            ready = int(round(ready + transfer))
            start = min(next_free)
            if start >= ready:
                index = next_free.index(start)
            else:
                start = ready
                for index, free in enumerate(next_free):
                    if free <= ready:
                        break
            next_free[index] = start + occupancy
            end = start + latency
            value_ready[output] = end
            if end > last_use_end[a]:
                last_use_end[a] = end
            if b >= 0 and end > last_use_end[b]:
                last_use_end[b] = end
            if end > last_use_end[output]:
                last_use_end[output] = end
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
            transfer_starts.append(start)
        elif kind == STORE:
            start = max(hbm_next_free, value_ready[target])
            hbm_next_free = start + load_cycles
            hbm_busy += load_cycles
            end = start + load_cycles
            transfer_starts.append(start)
        elif kind == EVICT:
            end = last_use_end[target]
        else:
            raise ValueError(f"unknown movement event kind {kind!r}")
        event_end.append(end)

    fu = family[issued]
    start = np.frombuffer(starts, np.int64)
    end = start + np.array(latencies, np.int64)[fu]
    moved = (movement.kind == LOAD) | (movement.kind == STORE)
    transfer_kind = movement.kind[moved]
    transfer_start = np.frombuffer(transfer_starts, np.float64)
    transfer_end = transfer_start + load_cycles
    transfer_end[transfer_kind == LOAD] += latency_hbm
    issues = np.bincount(fu, minlength=len(FU_FAMILIES)).tolist()
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


def check_schedule_loop(graph, movement, schedule) -> CheckReport:
    """``check_schedule`` with checks 1, 4 and 5 as one event-by-event
    replay; checks 2 and 3 are the checker's own."""
    violations: list[str] = []
    peak = _replay_events_loop(graph, movement, schedule, violations)
    _check_structural_hazards(schedule, violations)
    _check_hbm_serialization(schedule, schedule.config.hbm_latency_cycles,
                             violations)
    return CheckReport(
        ok=not violations, violations=violations,
        instructions_checked=len(schedule.instr_id),
        transfers_checked=len(schedule.transfer_kind),
        peak_resident_rvecs=peak)


def _replay_events_loop(graph, movement, schedule, violations) -> int:
    num_values = len(graph.value_kind)
    hop = schedule.config.transfer_cycles(graph.n)
    start = np.full(len(movement.kind), np.nan)
    end = np.full(len(movement.kind), np.nan)

    def timed_by(row, starts, ends):
        at = np.flatnonzero(row >= 0)
        start[at], end[at] = starts[row[at]], ends[row[at]]

    is_exec = movement.kind == EXEC
    issue_of = np.full(len(graph.kind), -1, np.int64)
    issue_of[schedule.instr_id] = np.arange(len(schedule.instr_id))
    row = np.full(len(movement.kind), -1, np.int64)
    row[is_exec] = issue_of[movement.target[is_exec]]
    timed_by(row, schedule.start, schedule.end)
    for kind in (LOAD, STORE):
        timed_by(_transfer_of_event(movement, schedule, kind, violations),
                 schedule.transfer_start, schedule.transfer_end)
    instr = np.where(is_exec, movement.target, 0)
    columns = (movement.kind, movement.target, start, end,
               graph.in0[instr], graph.in1[instr], graph.out[instr])
    produced = (graph.producer >= 0).tolist()
    available: list = [None] * num_values   # latest load/produce completion
    stored: list = [None] * num_values      # end of the latest store
    users_left = np.diff(graph.user_ptr).tolist()
    outputs, capacity = movement.outputs, movement.capacity_rvecs
    resident: set[int] = set()
    peak = issued = 0

    for kind, target, start, end, a, b, output in zip(
            *(column.data for column in columns)):
        if kind == EXEC:
            if start == start:
                issued += 1
                available[output] = end
            else:
                violations.append(f"instr {target} is issued but never scheduled")
                start = float("inf")   # no start to hold its operands to
            for vid in (a, b):
                if vid < 0:
                    continue
                if vid not in resident:
                    violations.append(
                        f"clobber: instr {target} reads non-resident {vid}")
                ready = available[vid]
                if ready is None:
                    violations.append(
                        f"instr {target}: operand {vid} never made available")
                elif start + 1e-9 < round(ready + hop):
                    violations.append(
                        f"instr {target} starts at {start} before operand "
                        f"{vid} is ready at {float(round(ready + hop))} "
                        f"(available at {ready} + {hop}-cycle hop)")
                users_left[vid] -= 1
                if users_left[vid] <= 0 and vid not in outputs:
                    resident.discard(vid)
            resident.add(output)
        elif kind == LOAD:
            resident.add(target)
            available[target] = None if start != start else end
            if start != start:
                violations.append(
                    f"value {target}: a load event without a load transfer")
            elif produced[target] and (stored[target] is None
                                       or start + 1e-9 < stored[target]):
                violations.append(
                    f"refill of value {target} starts at {start} before its "
                    f"store ends at {stored[target]}")
        elif kind == STORE:
            resident.discard(target)
            ready = available[target]
            if start != start:
                violations.append(
                    f"value {target}: a store event without a store transfer")
            elif ready is None or start + 1e-9 < ready:
                violations.append(
                    f"store of value {target} starts at {start} before it "
                    f"is available at {ready}")
            if end == end:
                stored[target] = end
        elif kind == EVICT:
            resident.discard(target)
        if len(resident) > peak:
            peak = len(resident)
            if peak > capacity:
                violations.append(
                    f"scratchpad capacity exceeded: {peak} resident "
                    f"> {capacity}")
                break
    else:
        if issued != len(schedule.instr_id):
            violations.append(
                f"{len(schedule.instr_id)} instructions scheduled but "
                f"{issued} of them issued by the event list")
    return peak
