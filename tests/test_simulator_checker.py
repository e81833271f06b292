"""The checker must catch corrupted schedules (repro.sim.simulator).

A corruption is a copy of one artifact with a few cells of its columns
overwritten (or rows appended / dropped); the originals are never touched.
"""

import dataclasses

import numpy as np
import pytest

from repro.bench.workloads import benchmark_suite
from repro.compiler.hecompiler import compile_to_instructions
from repro.compiler.data_scheduler import (
    EVICT, EXEC, LOAD, STORE, schedule_data_movement)
from repro.compiler.cycle_scheduler import schedule_cycles
from repro.compiler.pipeline import compile_program
from repro.core.config import F1Config
from repro.dsl.program import Program
from repro.sim.simulator import check_schedule
from schedule_oracles import check_schedule_loop


def _with_cells(artifact, **cells):
    """A copy of ``artifact`` with ``column={row: value, ...}`` overwritten."""
    columns = {}
    for name, updates in cells.items():
        columns[name] = getattr(artifact, name).copy()
        for row, value in updates.items():
            columns[name][row] = value
    return dataclasses.replace(artifact, **columns)


def _with_rows(artifact, keep=None, **appended):
    """A copy of ``artifact`` with rows dropped (``keep`` masks the columns
    named in ``appended``) and ``column=[values...]`` appended."""
    columns = {}
    for name, values in appended.items():
        column = getattr(artifact, name)
        if keep is not None:
            column = column[keep]
        columns[name] = np.append(column, np.array(values, column.dtype))
    return dataclasses.replace(artifact, **columns)


@pytest.fixture(scope="module")
def pieces():
    p = Program(n=2048, name="checker")
    x, y = p.input(3), p.input(3)
    p.output(p.rotate(p.mul(x, y), 1))
    cfg = F1Config()
    translation = compile_to_instructions(p)
    movement = schedule_data_movement(translation.graph, translation.outputs, cfg)
    schedule = schedule_cycles(translation.graph, movement, cfg)
    return translation, movement, schedule, cfg


def test_valid_schedule_passes(pieces):
    translation, movement, schedule, cfg = pieces
    report = check_schedule(translation.graph, movement, schedule, cfg)
    assert report.ok, report.violations[:3]
    assert report.peak_resident_rvecs > 0


def test_detects_dependence_violation(pieces):
    translation, movement, schedule, cfg = pieces
    # Yank a late instruction to cycle 0: its operands can't be ready.
    victim = len(schedule.instr_id) - 1
    hacked = _with_cells(schedule, start={victim: 0}, end={victim: 1})
    report = check_schedule(translation.graph, movement, hacked, cfg)
    assert not report.ok
    assert any("before operand" in v for v in report.violations)


def test_detects_structural_hazard(pieces):
    translation, movement, schedule, cfg = pieces
    # Force two instructions onto the same unit at the same cycle.
    clash = 1 + int(np.flatnonzero(schedule.fu[1:] == schedule.fu[0])[0])
    start = int(schedule.start[0])
    hacked = _with_cells(
        schedule, start={clash: start},
        end={clash: start + int(schedule.occupancy()[clash])},
        unit_index={clash: schedule.unit_index[0]})
    report = check_schedule(translation.graph, movement, hacked, cfg)
    assert not report.ok
    assert any("inside occupancy" in v for v in report.violations)


def test_detects_hbm_oversubscription(pieces):
    translation, movement, schedule, cfg = pieces
    assert len(schedule.transfer_kind) >= 2
    hacked = _with_cells(schedule,
                         transfer_start={1: schedule.transfer_start[0]},
                         transfer_end={1: schedule.transfer_end[0]})
    report = check_schedule(translation.graph, movement, hacked, cfg)
    assert any("HBM" in v for v in report.violations)


def test_store_durations_checked_from_recorded_end(pieces):
    """Stores must be serialized by their *recorded* end, not load_cycles.

    Regression: the checker used to size every transfer as load_cycles, so a
    store occupying the channel longer than that slipped past the HBM
    serialization check."""
    translation, movement, schedule, cfg = pieces
    load_cycles = cfg.load_cycles(translation.graph.n)
    # A store-heavy tail: store0 occupies [1000, 1000 + 3*load_cycles) but the
    # next store is issued as if it only took load_cycles — a real overlap
    # that the load_cycles-based check cannot see.
    hacked = _with_rows(
        schedule, transfer_kind=[STORE, STORE], transfer_value=[9001, 9002],
        transfer_start=[1000.0, 1000.0 + load_cycles],
        transfer_end=[1000.0 + 3 * load_cycles, 1000.0 + 2 * load_cycles])
    report = check_schedule(translation.graph, movement, hacked, cfg)
    assert any("HBM" in v for v in report.violations)


def test_store_heavy_schedule_with_correct_spacing_passes(pieces):
    translation, movement, schedule, cfg = pieces
    load_cycles = cfg.load_cycles(translation.graph.n)
    end = float(schedule.transfer_end.max(initial=0.0))
    # Two outputs written back once more, back to back for the recorded
    # duration: no overlap, no violation.
    again = sorted(movement.outputs)[:2]
    more_events = _with_rows(movement, kind=[STORE, STORE], target=again,
                             frees=[-1, -1])
    hacked = _with_rows(
        schedule, transfer_kind=[STORE, STORE], transfer_value=again,
        transfer_start=[end + 10, end + 10 + load_cycles],
        transfer_end=[end + 10 + load_cycles, end + 10 + 2 * load_cycles])
    report = check_schedule(translation.graph, more_events, hacked, cfg)
    assert report.ok, report.violations[:3]


def _without_loads(movement):
    return _with_rows(movement, keep=movement.kind != LOAD,
                      kind=[], target=[], frees=[])


def test_detects_clobber(pieces):
    translation, movement, schedule, cfg = pieces
    report = check_schedule(translation.graph, _without_loads(movement),
                            schedule, cfg)
    assert not report.ok
    assert any("clobber" in v for v in report.violations)


def test_raise_if_failed(pieces):
    translation, movement, schedule, cfg = pieces
    report = check_schedule(translation.graph, _without_loads(movement),
                            schedule, cfg)
    with pytest.raises(AssertionError):
        report.raise_if_failed()


# ------------------------------------------------------- refills and re-loads
@pytest.fixture(scope="module")
def refilling():
    """A schedule that spills and refills intermediates (130 refill loads,
    172 stores) and re-loads evicted key-switch hints."""
    compiled = compile_program(benchmark_suite(scale=0.05)["bgv_bootstrapping"])
    assert compiled.movement.traffic.intermediate_loads > 0
    assert compiled.movement.traffic.ksh_capacity > 0
    return compiled


def _delay_transfer(schedule, index):
    """The schedule with one transfer moved past the end of all others."""
    after = float(schedule.transfer_end.max()) + 1.0
    took = float(schedule.transfer_end[index] - schedule.transfer_start[index])
    return _with_cells(schedule, transfer_start={index: after},
                       transfer_end={index: after + took})


def _nth_transfer(schedule, kind, wanted, nth):
    """Row of the nth (0-based) ``kind`` transfer of the first value that has
    that many and satisfies ``wanted`` (a mask over value ids)."""
    rows = np.flatnonzero((schedule.transfer_kind == kind)
                          & wanted[schedule.transfer_value])
    seen: dict[int, int] = {}
    for row, value in zip(rows.tolist(), schedule.transfer_value[rows].tolist()):
        seen[value] = seen.get(value, 0) + 1
        if seen[value] == nth + 1:
            return row
    raise AssertionError("no such transfer in the schedule")


@pytest.mark.parametrize("case", ["refill", "hint_reload"])
def test_detects_consumer_before_its_refill_lands(refilling, case):
    """An operand is available from its *latest* load-or-produce event before
    the consumer, not from its producer's end or its first load.

    Regression: a spilled-and-refilled intermediate was held to its
    producer's completion and a re-loaded hint to its earliest load, so a
    consumer could start before the copy it actually reads had arrived."""
    graph, schedule = refilling.translation.graph, refilling.schedule
    if case == "refill":     # first load of a value an instruction produced
        index = _nth_transfer(schedule, LOAD, graph.producer >= 0, 0)
    else:                    # second load of a key-switch hint RVec
        index = _nth_transfer(schedule, LOAD, graph.hint >= 0, 1)
    moved = int(schedule.transfer_value[index])
    report = check_schedule(graph, refilling.movement,
                            _delay_transfer(schedule, index))
    assert not report.ok
    assert all(f"before operand {moved} " in v for v in report.violations), \
        report.violations[:3]


def test_valid_refilling_schedule_passes(refilling):
    report = check_schedule(refilling.translation.graph, refilling.movement,
                            refilling.schedule)
    assert report.ok, report.violations[:3]
    assert report.peak_resident_rvecs == refilling.movement.capacity_rvecs


def _without_transfer(schedule, index):
    keep = np.arange(len(schedule.transfer_kind)) != index
    return _with_rows(schedule, keep=keep, transfer_kind=[], transfer_value=[],
                      transfer_start=[], transfer_end=[])


def test_detects_load_event_without_its_transfer(refilling):
    """The k-th load event of a value is timed by its k-th load transfer; a
    schedule that drops one cannot be timed and is rejected."""
    schedule = refilling.schedule
    everything = np.ones(len(refilling.translation.graph.value_kind), bool)
    index = _nth_transfer(schedule, LOAD, everything, 0)
    report = check_schedule(refilling.translation.graph, refilling.movement,
                            _without_transfer(schedule, index))
    value = int(schedule.transfer_value[index])
    assert any(f"value {value}: a load event without a load transfer" in v
               for v in report.violations)


# --------------------------------------------------------------------- stores
# Each of the three passed the checker while a store event only meant "no
# longer resident".
def _first_spill(refilling):
    """Row of the first spill store (of a value that is refilled later) and
    the row of that refill."""
    graph, schedule = refilling.translation.graph, refilling.schedule
    refilled = np.zeros(len(graph.value_kind), bool)
    refilled[schedule.transfer_value[
        (schedule.transfer_kind == LOAD)
        & (graph.producer[schedule.transfer_value] >= 0)]] = True
    store = _nth_transfer(schedule, STORE, refilled, 0)
    only = np.arange(len(refilled)) == schedule.transfer_value[store]
    return store, _nth_transfer(schedule, LOAD, only, 0)


def test_detects_store_before_the_value_exists(refilling):
    """A spill writes back what the scratchpad holds, so it cannot start
    before the value's producer has finished."""
    graph, schedule = refilling.translation.graph, refilling.schedule
    store, _ = _first_spill(refilling)
    value = int(schedule.transfer_value[store])
    produced = float(schedule.end[schedule.instr_id == graph.producer[value]][0])
    assert schedule.transfer_start[store] >= produced > 0
    took = float(schedule.transfer_end[store] - schedule.transfer_start[store])
    hacked = _with_cells(schedule, transfer_start={store: -1000.0},
                         transfer_end={store: -1000.0 + took})
    report = check_schedule(graph, refilling.movement, hacked)
    assert not report.ok
    assert any(f"store of value {value} starts at -1000.0 before it is "
               f"available at {produced}" in v for v in report.violations), \
        report.violations[:3]


def test_detects_store_event_without_its_transfer(refilling):
    schedule = refilling.schedule
    store, _ = _first_spill(refilling)
    value = int(schedule.transfer_value[store])
    report = check_schedule(refilling.translation.graph, refilling.movement,
                            _without_transfer(schedule, store))
    assert any(f"value {value}: a store event without a store transfer" in v
               for v in report.violations), report.violations[:3]


def test_detects_refill_before_its_spill_is_written(refilling):
    """Swap a spill store's channel window with its refill's: no overlap on
    the channel, the consumer still waits for the load, but the load now
    reads a copy that has not been written yet."""
    schedule = refilling.schedule
    store, load = _first_spill(refilling)
    value = int(schedule.transfer_value[store])
    latency = schedule.config.hbm_latency_cycles
    store_start = float(schedule.transfer_start[store])
    load_start = float(schedule.transfer_start[load])
    took = float(schedule.transfer_end[store]) - store_start
    hacked = _with_cells(
        schedule,
        transfer_start={store: load_start, load: store_start},
        transfer_end={store: load_start + took,
                      load: store_start + took + latency})
    report = check_schedule(refilling.translation.graph, refilling.movement,
                            hacked)
    assert not report.ok
    assert all(f"refill of value {value} starts at {store_start} before its "
               f"store ends at {load_start + took}" in v
               for v in report.violations), report.violations[:3]


def test_detects_store_transfer_without_its_event(refilling):
    schedule = refilling.schedule
    end = float(schedule.transfer_end.max()) + 10.0
    hacked = _with_rows(schedule, transfer_kind=[STORE], transfer_value=[7],
                        transfer_start=[end], transfer_end=[end + 64.0])
    report = check_schedule(refilling.translation.graph, refilling.movement,
                            hacked)
    assert report.violations == [
        "value 7: 1 store transfer(s) without a store event"]


# ------------------------------------------------------------- the operand hop
def test_detects_start_inside_the_operand_hop():
    """The scheduler holds an issue to ``round(available + transfer_cycles)``
    for each operand; so does check 1.  Issue 16 of lola_mnist_uw reads
    value 32, available at 700 and delivered at 828.

    Regression: check 1 asked only for ``start >= available``, so moving the
    issue into its 128-cycle hop passed."""
    compiled = compile_program(benchmark_suite(scale=0.05)["lola_mnist_uw"])
    graph, schedule = compiled.translation.graph, compiled.schedule
    assert compiled.config.transfer_cycles(graph.n) == 128
    assert int(schedule.start[16]) == 828
    latency = int(schedule.end[16] - schedule.start[16])
    for start in (700, 827):
        hacked = _with_cells(schedule, start={16: start},
                             end={16: start + latency})
        report = check_schedule(graph, compiled.movement, hacked)
        assert report.violations == [
            f"instr 16 starts at {float(start)} before operand 32 is ready "
            f"at 828.0 (available at 700.0 + 128-cycle hop)"]


# ------------------------------------- one direct case per remaining violation
def test_detects_an_issue_the_schedule_never_made(pieces):
    """An exec event whose instruction has no issue row: it is reported, and
    so is every read of its result."""
    translation, movement, schedule, cfg = pieces
    graph = translation.graph
    dropped = int(graph.in0[np.flatnonzero(graph.producer[graph.in0] >= 0)[0]])
    producer = int(graph.producer[dropped])
    keep = schedule.instr_id != producer
    hacked = _with_rows(schedule, keep=keep, instr_id=[], start=[], end=[],
                        unit_index=[], fu=[])
    report = check_schedule(graph, movement, hacked, cfg)
    assert f"instr {producer} is issued but never scheduled" in report.violations
    readers = graph.users[graph.user_ptr[dropped]:graph.user_ptr[dropped + 1]]
    assert {f"instr {r}: operand {dropped} never made available"
            for r in readers.tolist()} <= set(report.violations)


def test_detects_a_scratchpad_overfill(pieces):
    translation, movement, schedule, cfg = pieces
    peak = check_schedule(translation.graph, movement, schedule,
                          cfg).peak_resident_rvecs
    hacked = dataclasses.replace(movement, capacity_rvecs=peak - 1)
    report = check_schedule(translation.graph, hacked, schedule, cfg)
    assert report.peak_resident_rvecs == peak
    assert (f"scratchpad capacity exceeded: {peak} resident > {peak - 1}"
            in report.violations)


def test_detects_an_issue_the_event_list_never_made(pieces):
    translation, movement, schedule, cfg = pieces
    last_exec = int(np.flatnonzero(movement.kind == EXEC)[-1])
    keep = np.arange(len(movement.kind)) != last_exec
    hacked = _with_rows(movement, keep=keep, kind=[], target=[], frees=[])
    report = check_schedule(translation.graph, hacked, schedule, cfg)
    issues = len(schedule.instr_id)
    assert (f"{issues} instructions scheduled but {issues - 1} of them "
            f"issued by the event list" in report.violations)


# ----------------------------------------------- the column checker vs the loop
def _corrupted(case, compiled, rng):
    """One seeded corruption of a compiled program's artifacts, or None."""
    graph, movement, schedule = (compiled.translation.graph, compiled.movement,
                                 compiled.schedule)
    pick = lambda count: int(rng.integers(count))     # noqa: E731
    if case == "shift_start":
        row, by = pick(len(schedule.start)), int(rng.integers(-400, 400))
        return graph, movement, _with_cells(
            schedule, start={row: schedule.start[row] + by},
            end={row: schedule.end[row] + by})
    if case == "delay_transfer":
        return graph, movement, _delay_transfer(
            schedule, pick(len(schedule.transfer_kind)))
    if case == "drop_transfer":
        return graph, movement, _without_transfer(
            schedule, pick(len(schedule.transfer_kind)))
    if case == "add_transfer":
        at = float(pick(int(schedule.transfer_end.max())))
        return graph, movement, _with_rows(
            schedule, transfer_kind=[int(rng.choice([LOAD, STORE]))],
            transfer_value=[pick(len(graph.value_kind))],
            transfer_start=[at], transfer_end=[at + 64.0])
    if case == "drop_repeat":    # a spill, a refill or a re-loaded hint
        again = np.flatnonzero(np.bincount(
            schedule.transfer_value)[schedule.transfer_value] > 1)
        return None if not len(again) else (graph, movement, _without_transfer(
            schedule, again[pick(len(again))]))
    if case == "drop_issue":
        keep = np.arange(len(schedule.instr_id)) != pick(len(schedule.instr_id))
        return graph, movement, _with_rows(
            schedule, keep=keep, instr_id=[], start=[], end=[], unit_index=[],
            fu=[])
    if case == "overfill":
        peak = check_schedule(graph, movement, schedule).peak_resident_rvecs
        return graph, dataclasses.replace(
            movement, capacity_rvecs=peak - 1 - pick(8)), schedule
    rows = np.flatnonzero(movement.kind == {
        "drop_load": LOAD, "drop_store": STORE, "drop_evict": EVICT,
        "drop_exec": EXEC}[case])
    if case in ("drop_store", "drop_evict"):
        # Where there is one, a value that is loaded again later: it stays
        # resident, and that load adds it a second time.
        last_load = np.full(len(graph.value_kind), -1)
        np.maximum.at(last_load, movement.target[movement.kind == LOAD],
                      np.flatnonzero(movement.kind == LOAD))
        back = rows[last_load[movement.target[rows]] > rows]
        rows = back if len(back) else rows
    if not len(rows):
        return None
    keep = np.arange(len(movement.kind)) != rows[pick(len(rows))]
    return graph, _with_rows(movement, keep=keep, kind=[], target=[],
                             frees=[]), schedule


CORRUPTIONS = ("shift_start", "delay_transfer", "drop_transfer",
               "drop_repeat", "add_transfer", "drop_issue", "overfill",
               "drop_load", "drop_store", "drop_evict", "drop_exec")


@pytest.fixture(scope="module")
def suite_compiled():
    suite = benchmark_suite(scale=0.05)
    compiled = {name: compile_program(p) for name, p in suite.items()}
    compiled["lola_mnist_ew/csr"] = compile_program(suite["lola_mnist_ew"],
                                                    scheduler="csr")
    return compiled


def _same_verdict(graph, movement, schedule):
    columns = check_schedule(graph, movement, schedule)
    loop = check_schedule_loop(graph, movement, schedule)
    assert (columns.ok, columns.peak_resident_rvecs) == (
        loop.ok, loop.peak_resident_rvecs)
    assert set(columns.violations) == set(loop.violations)
    return columns


def test_program_outputs_stay_resident_after_their_last_read():
    """An output read by a later instruction is not dropped at that read:
    it stays resident until it is written back, so every output counts
    toward the peak at the end."""
    p = Program(n=2048, name="outputs_read")
    x, y, z = p.input(3), p.input(3), p.input(3)
    both = p.add(x, y)
    p.output(both)
    p.output(p.add(both, z))
    for _ in range(4):
        p.output(p.add(p.input(3), p.input(3)))
    compiled = compile_program(p)
    report = _same_verdict(compiled.translation.graph, compiled.movement,
                           compiled.schedule)
    assert report.ok
    assert report.peak_resident_rvecs == len(compiled.movement.outputs) == 36


def test_column_checker_passes_what_the_loop_passes(suite_compiled):
    for compiled in suite_compiled.values():
        assert _same_verdict(compiled.translation.graph, compiled.movement,
                             compiled.schedule).ok


@pytest.mark.parametrize("case", CORRUPTIONS)
def test_column_checker_matches_the_loop_on_corruptions(suite_compiled, case):
    """Seeded corruptions of the suite's schedules and event lists: the column
    checker and the event-by-event replay agree on the verdict, on every
    violation and on the peak."""
    rng = np.random.default_rng(CORRUPTIONS.index(case))
    rejected = 0
    for compiled in suite_compiled.values():
        artifacts = _corrupted(case, compiled, rng)
        if artifacts is not None:
            rejected += not _same_verdict(*artifacts).ok
    assert rejected > 0
