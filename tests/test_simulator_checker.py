"""The checker must catch corrupted schedules (repro.sim.simulator).

A corruption is a copy of one artifact with a few cells of its columns
overwritten (or rows appended / dropped); the originals are never touched.
"""

import dataclasses

import numpy as np
import pytest

from repro.compiler.hecompiler import compile_to_instructions
from repro.compiler.data_scheduler import LOAD, STORE, schedule_data_movement
from repro.compiler.cycle_scheduler import schedule_cycles
from repro.core.config import F1Config
from repro.dsl.program import Program
from repro.sim.simulator import check_schedule


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
    from repro.bench.workloads import benchmark_suite
    from repro.compiler.pipeline import compile_program

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
