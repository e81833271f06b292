"""Schedule checker: forward-simulates a static schedule and validates it.

Matching Sec. 4.4 ("after the final schedule is generated, we validate it by
simulating it forward to ensure that no clobbers or resource usage violations
occur") and Sec. 7 (the cycle-accurate simulator "acts more as a checker: it
runs the instruction stream at each component and verifies that latencies are
as expected and there are no missed dependences or structural hazards").

Checks performed, independently of the scheduler's own bookkeeping:

1. **Dependences**: no instruction starts before each operand is available
   plus the bank->cluster hop (``transfer_cycles``, rounded as the scheduler
   rounds it).  Availability is decided in event order: it is the completion
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

All five run on columns.  Checks 1, 4 and 5 group the event list's steps (an
exec's operand reads, then each event's add or drop of its own value) by
value, where the latest load or result before a read, and residency at it,
are prefix counts; ``tests/schedule_oracles.py`` keeps the event-by-event
replay as their oracle.  Only the graph, events and schedule are read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.compiler.cycle_scheduler import CycleSchedule
from repro.compiler.data_scheduler import (
    EVENT_KINDS, EVICT, EXEC, LOAD, STORE, DataMovementSchedule)
from repro.core.config import F1Config
from repro.core.isa import InstructionGraph, stable_order


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


def check_schedule(graph: InstructionGraph, movement: DataMovementSchedule,
                   schedule: CycleSchedule,
                   config: F1Config | None = None) -> CheckReport:
    config, violations = config or schedule.config, []
    peak = _replay_events(graph, movement, schedule,
                          config.transfer_cycles(graph.n), violations)
    _check_structural_hazards(schedule, violations)
    _check_hbm_serialization(schedule, config.hbm_latency_cycles, violations)
    return CheckReport(ok=not violations, violations=violations,
                       instructions_checked=len(schedule.instr_id),
                       transfers_checked=len(schedule.transfer_kind),
                       peak_resident_rvecs=peak)


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
    events = events[stable_order(movement.target[events])]
    transfers = transfers[stable_order(schedule.transfer_value[transfers])]
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
                   schedule: CycleSchedule, hop: int, violations: list) -> int:
    """Checks 1, 4 and 5 on the event columns against the cycle schedule's
    times; returns the peak number of resident residue vectors."""
    kind, target = movement.kind, movement.target
    # Per event, the window the schedule gives it: an exec's issue (start,
    # result), a load's or store's transfer; NaN where it gives none.
    start, end = np.full((2, len(kind)), np.nan)

    def timed_by(row: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> None:
        at = np.flatnonzero(row >= 0)
        start[at], end[at] = starts[row[at]], ends[row[at]]

    is_exec = kind == EXEC
    instr = np.where(is_exec, target, 0)
    issue_of = np.full(len(graph.kind), -1, np.int64)
    issue_of[schedule.instr_id] = np.arange(len(schedule.instr_id))
    timed_by(np.where(is_exec, issue_of[instr], -1), schedule.start,
             schedule.end)
    for moved in (LOAD, STORE):
        timed_by(_transfer_of_event(movement, schedule, moved, violations),
                 schedule.transfer_start, schedule.transfer_end)
    timed = start == start

    # Event e is up to three steps, 3e to 3e + 2: an exec reads its operands,
    # then every event adds or drops its own value (an exec's result, the
    # value loaded, stored or evicted).  The steps, grouped by value and in
    # step order within a group:
    steps = np.stack((np.where(is_exec, graph.in0[instr], -1),
                      np.where(is_exec, graph.in1[instr], -1),
                      np.where(is_exec, graph.out[instr], target)), 1).ravel()
    step = np.flatnonzero(steps >= 0).astype(np.int32)
    step = step[stable_order(steps[step])]
    value, event, own = steps[step], (step // 3).astype(np.int32), step % 3 == 2
    del steps, step, instr, issue_of
    of_kind, read = kind[event], ~own
    grouped = np.bincount(value, minlength=len(graph.value_kind))
    first = (np.cumsum(grouped) - grouped).astype(np.int32)[value]

    def latest(mask, of, missing, rows=slice(None)) -> np.ndarray:
        """Per step in ``rows``, ``of`` (one entry per ``mask`` step) at the
        latest ``mask`` step of its value before it, else ``missing``."""
        count = np.cumsum(mask.view(np.int8), dtype=np.int32) - mask
        found = count[rows] > count[first[rows]]
        return np.append(of, missing)[np.where(found, count[rows] - 1, -1)]

    # Check 4.  A read drops its operand once no reader is left (program
    # outputs stay), so residency is a per-value sequence of adds and drops.
    reads = np.cumsum(read.view(np.int8), dtype=np.int32)
    kept = np.zeros(len(graph.value_kind), bool)
    kept[list(movement.outputs)] = True
    change = own | (read & ~kept[value] & (np.diff(graph.user_ptr)[value]
                                           <= reads - (reads - read)[first]))
    del reads, kept, grouped
    adds = own & ((of_kind == EXEC) | (of_kind == LOAD))
    was_in = latest(change, adds[change], False)
    resident = np.cumsum(
        np.bincount(event[change & adds & ~was_in], minlength=len(kind))
        - np.bincount(event[change & ~adds & was_in], minlength=len(kind)))
    over = np.flatnonzero(resident > movement.capacity_rvecs)
    # The replay stops at the first event that overfills the scratchpad.
    last = int(over[0]) if len(over) else len(kind) - 1
    peak = int(resident[last] if len(over) else resident.max(initial=0))

    # Check 1: an operand is available from its latest load or result before
    # the read and delivered a hop later.  Check 5: a store reads that same
    # copy; a refill reads what the latest store wrote.
    del change, adds, resident
    was_in = was_in[reads := np.flatnonzero(read & (event <= last)).astype(
        np.int32)]
    wrote = own & ((of_kind == LOAD) | (of_kind == EXEC) & timed[event])
    own &= (event <= last) & timed[event]
    stores = np.flatnonzero(own & (of_kind == STORE))
    refills = np.flatnonzero(own & (of_kind == LOAD)
                             & (graph.producer[value] >= 0))
    available, store_ready = (latest(wrote, end[event[wrote]], np.nan, rows)
                              for rows in (reads, stores))
    wrote = own & (of_kind == STORE)
    stored = latest(wrote, end[event[wrote]], np.nan, refills)
    reader, operand = target[event[reads]], value[reads]
    began, ready = start[event[reads]], np.round(available + hop)
    untimed = ~timed & (np.arange(len(kind)) <= last)
    for message, mask, columns in (
            ("instr {} is issued but never scheduled", untimed & is_exec,
             (target,)),
            *((f"value {{}}: a {EVENT_KINDS[moved]} event without a "
               f"{EVENT_KINDS[moved]} transfer", untimed & (kind == moved),
               (target,)) for moved in (LOAD, STORE)),
            ("clobber: instr {} reads non-resident {}", ~was_in,
             (reader, operand)),
            ("instr {}: operand {} never made available",
             available != available, (reader, operand)),
            ("instr {} starts at {} before operand {} is ready at {} "
             f"(available at {{}} + {hop}-cycle hop)", began + 1e-9 < ready,
             (reader, began, operand, ready, available)),
            ("store of value {} starts at {} before it is available at {}",
             ~(start[event[stores]] + 1e-9 >= store_ready),
             (value[stores], start[event[stores]], store_ready)),
            ("refill of value {} starts at {} before its store ends at {}",
             ~(start[event[refills]] + 1e-9 >= stored),
             (value[refills], start[event[refills]], stored))):
        for row in zip(*(column[mask].tolist() for column in columns)):
            violations.append(message.format(
                *(None if x != x else x for x in row)))
    if len(over):
        violations.append(f"scratchpad capacity exceeded: {peak} resident "
                          f"> {movement.capacity_rvecs}")
    elif (issued := int(timed[is_exec].sum())) != len(schedule.instr_id):
        violations.append(f"{len(schedule.instr_id)} instructions scheduled "
                          f"but {issued} of them issued by the event list")
    return peak
