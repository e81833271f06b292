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
5. **Stores**: the k-th store event of a value is timed by that value's k-th
   store transfer, exactly as loads are; a store starts no earlier than the
   value is available (it writes back what the scratchpad holds), and a
   refill of an instruction's result starts no earlier than the end of the
   store that wrote the copy it reads.

Checks 2 and 3 are comparisons over the schedule's columns as they are;
checks 1, 4 and 5 share one replay of the event columns.  The checker reads
the three artifacts (graph, event list, schedule) and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.compiler.cycle_scheduler import CycleSchedule
from repro.compiler.data_scheduler import (
    EVENT_KINDS, EVICT, EXEC, LOAD, STORE, DataMovementSchedule)
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
    _check_structural_hazards(schedule, violations)
    _check_hbm_serialization(schedule, config.hbm_latency_cycles, violations)
    return CheckReport(
        ok=not violations,
        violations=violations,
        instructions_checked=len(schedule.instr_id),
        transfers_checked=len(schedule.transfer_kind),
        peak_resident_rvecs=peak,
    )


def _check_structural_hazards(schedule: CycleSchedule,
                              violations: list[str]) -> None:
    """Check 2: on each unit, consecutive issues are an occupancy apart."""
    start, fu, unit = schedule.start, schedule.fu, schedule.unit_index
    busy_until = start + schedule.occupancy()
    # Stable: issues of one unit at the same cycle stay in schedule order.
    by_unit = np.lexsort((start, unit, fu))
    prev, cur = by_unit[:-1], by_unit[1:]
    same_unit = (fu[prev] == fu[cur]) & (unit[prev] == unit[cur])
    instrs = schedule.instrs
    for at in np.flatnonzero(same_unit & (start[cur] < busy_until[prev])):
        p, c = instrs[prev[at]], instrs[cur[at]]
        violations.append(
            f"unit {(c.fu, c.cluster, c.unit)}: instr {c.instr_id} issues at "
            f"{c.start} inside occupancy of {p.instr_id} "
            f"({p.start}+{p.occupancy})"
        )


def _check_hbm_serialization(schedule: CycleSchedule, hbm_latency: int,
                             violations: list[str]) -> None:
    """Check 3: transfers do not overlap on the aggregate channel.

    Bandwidth occupancy is taken from each transfer's *recorded* window, not
    re-derived from load_cycles (which mis-sized store transfers).  A load's
    recorded end additionally includes the fixed HBM access latency, which
    does not occupy the channel; subtract it to recover the occupancy end.
    """
    start = schedule.transfer_start
    channel_free = (schedule.transfer_end
                    - hbm_latency * (schedule.transfer_kind == LOAD))
    in_time = np.lexsort((channel_free, start))
    start, channel_free = start[in_time], channel_free[in_time]
    for at in np.flatnonzero(start[1:] + 1e-6 < channel_free[:-1]):
        violations.append(
            f"HBM oversubscribed: transfer at {float(start[at + 1])} overlaps "
            f"one ending {float(channel_free[at])}"
        )


def _transfer_of_event(movement: DataMovementSchedule, schedule: CycleSchedule,
                       kind: int, violations: list[str]) -> np.ndarray:
    """Per event, the row of the transfer that times it, or -1: the k-th
    ``kind`` event of a value takes that value's k-th ``kind`` transfer.
    Transfers left without an event are reported here."""
    events = np.flatnonzero(movement.kind == kind)
    transfers = np.flatnonzero(schedule.transfer_kind == kind)
    # Group both sides by value, each group in its own order, and pair the
    # groups' members by rank.
    events = events[np.argsort(movement.target[events], kind="stable")]
    transfers = transfers[
        np.argsort(schedule.transfer_value[transfers], kind="stable")]
    value = movement.target[events]
    num_values = 1 + max(value.max(initial=-1),
                         schedule.transfer_value[transfers].max(initial=-1))
    want = np.bincount(value, minlength=num_values)
    have = np.bincount(schedule.transfer_value[transfers], minlength=num_values)
    rank = np.arange(len(events)) - (np.cumsum(want) - want)[value]
    timed = rank < have[value]
    rows = np.full(len(movement.kind), -1, np.int64)
    rows[events[timed]] = transfers[((np.cumsum(have) - have)[value] + rank)[timed]]
    for vid in np.flatnonzero(have > want).tolist():
        violations.append(
            f"value {vid}: {have[vid] - want[vid]} {EVENT_KINDS[kind]} "
            f"transfer(s) without a {EVENT_KINDS[kind]} event")
    return rows


def _replay_events(graph: InstructionGraph, movement: DataMovementSchedule,
                   schedule: CycleSchedule, violations: list[str]) -> int:
    """Checks 1, 4 and 5: replay the phase-2 event list against the cycle
    schedule's times; returns the peak number of resident residue vectors."""
    num_values = len(graph.value_kind)
    # Per event, the window the schedule gives it: an exec's issue (start,
    # result), a load's or store's transfer; NaN where it gives none.
    start = np.full(len(movement.kind), np.nan)
    end = np.full(len(movement.kind), np.nan)

    def timed_by(row: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> None:
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
    # ... and, for the exec events (row 0 stands in elsewhere and is not
    # read), the instruction's operands and result.
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
            resident.add(output)
        elif kind == LOAD:
            resident.add(target)
            available[target] = None if start != start else end
            if start != start:
                violations.append(
                    f"value {target}: a load event without a load transfer"
                )
            # A refill reads the copy a store wrote.
            elif produced[target] and (stored[target] is None
                                       or start + 1e-9 < stored[target]):
                violations.append(
                    f"refill of value {target} starts at {start} before its "
                    f"store ends at {stored[target]}"
                )
        elif kind == STORE:
            resident.discard(target)
            ready = available[target]
            if start != start:
                violations.append(
                    f"value {target}: a store event without a store transfer"
                )
            elif ready is None or start + 1e-9 < ready:
                violations.append(
                    f"store of value {target} starts at {start} before it "
                    f"is available at {ready}"
                )
            if end == end:
                stored[target] = end
        elif kind == EVICT:
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
        if issued != len(schedule.instr_id):
            violations.append(
                f"{len(schedule.instr_id)} instructions scheduled but "
                f"{issued} of them issued by the event list"
            )
    return peak
