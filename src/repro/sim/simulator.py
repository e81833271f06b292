"""Schedule checker: forward-simulates a static schedule and validates it.

Matching Sec. 4.4 ("after the final schedule is generated, we validate it by
simulating it forward to ensure that no clobbers or resource usage violations
occur") and Sec. 7 (the cycle-accurate simulator "acts more as a checker: it
runs the instruction stream at each component and verifies that latencies are
as expected and there are no missed dependences or structural hazards").

Checks performed, independently of the scheduler's own bookkeeping:

1. **Dependences**: every instruction starts no earlier than each operand is
   available.  Availability is decided in event order: it is the completion
   of the operand's latest ``load`` (the k-th load event of a value is timed
   by that value's k-th load transfer) or of its producing instruction,
   whichever event came last before the consumer — so a spilled-and-refilled
   intermediate or a re-loaded hint is held to its *refill*, not to its
   first arrival.
2. **Structural hazards**: per (cluster, FU, unit), issue slots are spaced by
   at least the occupancy.
3. **HBM bandwidth**: in no window does scheduled traffic exceed capacity
   (verified by serialization: transfer intervals on the aggregate channel
   must not overlap).
4. **Scratchpad capacity**: replaying the phase-2 event list never exceeds
   the slot count, and no value is used while not resident (clobber check).

Checks 2 and 3 are comparisons over columns extracted once from the record
lists; checks 1 and 4 share one replay of the event list.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from repro.compiler.cycle_scheduler import FU_FAMILIES, CycleSchedule
from repro.compiler.data_scheduler import INFINITY, DataMovementSchedule
from repro.core.config import F1Config
from repro.core.isa import InstructionGraph


@dataclass
class CheckReport:
    ok: bool
    violations: list[str] = field(default_factory=list)
    instructions_checked: int = 0
    transfers_checked: int = 0
    peak_resident_rvecs: int = 0

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise AssertionError(
                "schedule validation failed:\n" + "\n".join(self.violations[:20])
            )


def check_schedule(
    graph: InstructionGraph,
    movement: DataMovementSchedule,
    schedule: CycleSchedule,
    config: F1Config | None = None,
) -> CheckReport:
    config = config or schedule.config
    violations: list[str] = []
    peak = _replay_events(graph, movement, schedule, violations)
    _check_structural_hazards(schedule.instrs, violations)
    _check_hbm_serialization(
        schedule.transfers, config.hbm_latency_cycles, violations)
    return CheckReport(
        ok=not violations,
        violations=violations,
        instructions_checked=len(schedule.instrs),
        transfers_checked=len(schedule.transfers),
        peak_resident_rvecs=peak,
    )


def _column(records, name: str, dtype=np.float64) -> np.ndarray:
    return np.fromiter(map(attrgetter(name), records), dtype, len(records))


def _check_structural_hazards(instrs, violations: list[str]) -> None:
    """Check 2: on each unit, consecutive issues are an occupancy apart."""
    if len(instrs) < 2:
        return
    start = _column(instrs, "start")
    busy_until = start + _column(instrs, "occupancy")
    family = {fu: code for code, fu in enumerate(FU_FAMILIES)}
    fu = np.fromiter((family.get(s.fu, -1) for s in instrs), np.int64, len(instrs))
    cluster = _column(instrs, "cluster", np.int64)
    unit = _column(instrs, "unit", np.int64)
    # Stable: issues of one unit at the same cycle stay in schedule order.
    by_unit = np.lexsort((start, unit, cluster, fu))
    prev, cur = by_unit[:-1], by_unit[1:]
    same_unit = ((fu[prev] == fu[cur]) & (cluster[prev] == cluster[cur])
                 & (unit[prev] == unit[cur]))
    for at in np.flatnonzero(same_unit & (start[cur] < busy_until[prev])):
        p, c = instrs[prev[at]], instrs[cur[at]]
        violations.append(
            f"unit {(c.fu, c.cluster, c.unit)}: instr {c.instr_id} issues at "
            f"{c.start} inside occupancy of {p.instr_id} "
            f"({p.start}+{p.occupancy})"
        )


def _check_hbm_serialization(transfers, hbm_latency: int,
                             violations: list[str]) -> None:
    """Check 3: transfers do not overlap on the aggregate channel.

    Bandwidth occupancy is taken from each transfer's *recorded* window, not
    re-derived from load_cycles (which mis-sized store transfers).  A load's
    recorded end additionally includes the fixed HBM access latency, which
    does not occupy the channel; subtract it to recover the occupancy end.
    """
    if len(transfers) < 2:
        return
    start = _column(transfers, "start")
    is_load = np.fromiter((tr.kind == "load" for tr in transfers), bool,
                          len(transfers))
    channel_free = _column(transfers, "end") - hbm_latency * is_load
    in_time = np.lexsort((channel_free, start))
    start, channel_free = start[in_time], channel_free[in_time]
    for at in np.flatnonzero(start[1:] + 1e-6 < channel_free[:-1]):
        violations.append(
            f"HBM oversubscribed: transfer at {float(start[at + 1])} overlaps "
            f"one ending {float(channel_free[at])}"
        )


def _replay_events(graph: InstructionGraph, movement: DataMovementSchedule,
                   schedule: CycleSchedule, violations: list[str]) -> int:
    """Checks 1 and 4: replay the phase-2 event list against the cycle
    schedule's times; returns the peak number of resident residue vectors."""
    instructions, values = graph.instructions, graph.values
    scheduled: list = [None] * len(instructions)
    for s in schedule.instrs:
        scheduled[s.instr_id] = s
    # Per value, its load completions in transfer order: the k-th load event
    # of a value takes the k-th.
    load_ends: dict[int, deque[float]] = {}
    for tr in schedule.transfers:
        if tr.kind == "load":
            load_ends.setdefault(tr.value_id, deque()).append(tr.end)
    available: list = [None] * len(values)   # latest load/produce completion
    users_left = [len(v.users) for v in values]
    outputs, capacity = movement.outputs, movement.capacity_rvecs
    resident: set[int] = set()
    peak = issued = 0

    for event in movement.events:
        kind, target = event.kind, event.target
        if kind == "exec":
            instr = instructions[target]
            timing = scheduled[target]
            if timing is None:
                violations.append(f"instr {target} is issued but never scheduled")
                start = INFINITY       # no start to hold its operands to
            else:
                issued += 1
                start = timing.start
                available[instr.output] = timing.end
            for vid in instr.inputs:
                if vid not in resident:
                    violations.append(
                        f"clobber: instr {target} reads non-resident {vid}"
                    )
                ready = available[vid]
                if ready is None:
                    violations.append(
                        f"instr {target}: operand {vid} never made available"
                    )
                elif start + 1e-9 < ready:
                    violations.append(
                        f"instr {target} starts at {start} before operand "
                        f"{vid} is ready at {ready}"
                    )
                users_left[vid] -= 1
                if users_left[vid] <= 0 and vid not in outputs:
                    resident.discard(vid)
            resident.add(instr.output)
        elif kind == "load":
            resident.add(target)
            ends = load_ends.get(target)
            if ends:
                available[target] = ends.popleft()
            else:
                available[target] = None
                violations.append(
                    f"value {target}: a load event without a load transfer"
                )
        elif kind in ("evict", "store"):
            resident.discard(target)
        if len(resident) > peak:
            peak = len(resident)
            if peak > capacity:
                violations.append(
                    f"scratchpad capacity exceeded: {peak} resident "
                    f"> {capacity}"
                )
                break
    else:
        for vid, ends in load_ends.items():
            if ends:
                violations.append(
                    f"value {vid}: {len(ends)} load transfer(s) without a "
                    "load event"
                )
        if issued != len(schedule.instrs):
            violations.append(
                f"{len(schedule.instrs)} instructions scheduled but "
                f"{issued} of them issued by the event list"
            )
    return peak
