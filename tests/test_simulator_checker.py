"""The checker must catch corrupted schedules (repro.sim.simulator)."""

import dataclasses

import pytest

from repro.compiler.hecompiler import compile_to_instructions
from repro.compiler.data_scheduler import Event, schedule_data_movement
from repro.compiler.cycle_scheduler import schedule_cycles
from repro.core.config import F1Config
from repro.dsl.program import Program
from repro.sim.simulator import check_schedule


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
    hacked = dataclasses.replace(schedule)
    victim_idx = len(hacked.instrs) - 1
    victim = hacked.instrs[victim_idx]
    hacked.instrs = list(hacked.instrs)
    hacked.instrs[victim_idx] = dataclasses.replace(victim, start=0, end=1)
    report = check_schedule(translation.graph, movement, hacked, cfg)
    assert not report.ok
    assert any("before operand" in v for v in report.violations)


def test_detects_structural_hazard(pieces):
    translation, movement, schedule, cfg = pieces
    hacked = dataclasses.replace(schedule)
    hacked.instrs = list(hacked.instrs)
    # Force two instructions onto the same unit at the same cycle.
    first = hacked.instrs[0]
    clash = None
    for i, s in enumerate(hacked.instrs[1:], start=1):
        if s.fu == first.fu:
            clash = i
            break
    assert clash is not None
    hacked.instrs[clash] = dataclasses.replace(
        hacked.instrs[clash],
        start=first.start,
        end=first.start + hacked.instrs[clash].occupancy,
        cluster=first.cluster,
        unit=first.unit,
    )
    report = check_schedule(translation.graph, movement, hacked, cfg)
    assert not report.ok


def test_detects_hbm_oversubscription(pieces):
    translation, movement, schedule, cfg = pieces
    hacked = dataclasses.replace(schedule)
    hacked.transfers = list(hacked.transfers)
    if len(hacked.transfers) >= 2:
        a = hacked.transfers[0]
        hacked.transfers[1] = dataclasses.replace(
            hacked.transfers[1], start=a.start, end=a.end
        )
        report = check_schedule(translation.graph, movement, hacked, cfg)
        assert any("HBM" in v for v in report.violations)


def test_store_durations_checked_from_recorded_end(pieces):
    """Stores must be serialized by their *recorded* end, not load_cycles.

    Regression: the checker used to size every transfer as load_cycles, so a
    store occupying the channel longer than that slipped past the HBM
    serialization check."""
    translation, movement, schedule, cfg = pieces
    from repro.compiler.cycle_scheduler import ScheduledTransfer

    load_cycles = cfg.load_cycles(translation.graph.n)
    hacked = dataclasses.replace(schedule)
    # A store-heavy tail: store0 occupies [1000, 1000 + 3*load_cycles) but the
    # next store is issued as if it only took load_cycles — a real overlap
    # that the load_cycles-based check cannot see.
    hacked.transfers = list(schedule.transfers) + [
        ScheduledTransfer("store", 9001, 1000.0, 1000.0 + 3 * load_cycles),
        ScheduledTransfer("store", 9002, 1000.0 + load_cycles,
                          1000.0 + 2 * load_cycles),
    ]
    report = check_schedule(translation.graph, movement, hacked, cfg)
    assert any("HBM" in v for v in report.violations)


def test_store_heavy_schedule_with_correct_spacing_passes(pieces):
    translation, movement, schedule, cfg = pieces
    from repro.compiler.cycle_scheduler import ScheduledTransfer

    load_cycles = cfg.load_cycles(translation.graph.n)
    end = max((tr.end for tr in schedule.transfers), default=0.0)
    hacked = dataclasses.replace(schedule)
    # Back-to-back stores of the recorded duration: no overlap, no violation.
    hacked.transfers = list(schedule.transfers) + [
        ScheduledTransfer("store", 9001, end + 10, end + 10 + load_cycles),
        ScheduledTransfer("store", 9002, end + 10 + load_cycles,
                          end + 10 + 2 * load_cycles),
    ]
    report = check_schedule(translation.graph, movement, hacked, cfg)
    assert report.ok, report.violations[:3]


def test_detects_clobber(pieces):
    translation, movement, schedule, cfg = pieces
    hacked_movement = dataclasses.replace(movement)
    hacked_movement.events = [
        e for e in movement.events if e.kind != "load"
    ]
    report = check_schedule(translation.graph, hacked_movement, schedule, cfg)
    assert not report.ok
    assert any("clobber" in v for v in report.violations)


def test_raise_if_failed(pieces):
    translation, movement, schedule, cfg = pieces
    hacked_movement = dataclasses.replace(movement)
    hacked_movement.events = [e for e in movement.events if e.kind != "load"]
    report = check_schedule(translation.graph, hacked_movement, schedule, cfg)
    with pytest.raises(AssertionError):
        report.raise_if_failed()


# ------------------------------------------------------- refills and re-loads
@pytest.fixture(scope="module")
def refilling():
    """A schedule that spills and refills intermediates (130 refill loads)
    and re-loads evicted key-switch hints."""
    from repro.bench.workloads import benchmark_suite
    from repro.compiler.pipeline import compile_program

    compiled = compile_program(benchmark_suite(scale=0.05)["bgv_bootstrapping"])
    assert compiled.movement.traffic.intermediate_loads > 0
    assert compiled.movement.traffic.ksh_capacity > 0
    return compiled


def _delay_transfer(schedule, index):
    """The schedule with one transfer moved past the end of all others."""
    victim = schedule.transfers[index]
    after = max(tr.end for tr in schedule.transfers) + 1.0
    hacked = dataclasses.replace(schedule)
    hacked.transfers = list(schedule.transfers)
    hacked.transfers[index] = dataclasses.replace(
        victim, start=after, end=after + (victim.end - victim.start))
    return hacked


def _nth_load(schedule, wanted, nth):
    """Index of the nth (0-based) load transfer of the first value that has
    that many and satisfies ``wanted(value_id)``."""
    seen: dict[int, int] = {}
    for index, tr in enumerate(schedule.transfers):
        if tr.kind == "load" and wanted(tr.value_id):
            seen[tr.value_id] = seen.get(tr.value_id, 0) + 1
            if seen[tr.value_id] == nth + 1:
                return index
    raise AssertionError("no such load in the schedule")


@pytest.mark.parametrize("case", ["refill", "hint_reload"])
def test_detects_consumer_before_its_refill_lands(refilling, case):
    """An operand is available from its *latest* load-or-produce event before
    the consumer, not from its producer's end or its first load.

    Regression: a spilled-and-refilled intermediate was held to its
    producer's completion and a re-loaded hint to its earliest load, so a
    consumer could start before the copy it actually reads had arrived."""
    graph, schedule = refilling.translation.graph, refilling.schedule
    if case == "refill":     # first load of a value an instruction produced
        index = _nth_load(
            schedule, lambda vid: graph.values[vid].producer is not None, 0)
    else:                    # second load of a key-switch hint RVec
        index = _nth_load(
            schedule, lambda vid: graph.values[vid].hint_id is not None, 1)
    moved = schedule.transfers[index].value_id
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


def test_detects_load_event_without_its_transfer(refilling):
    """The k-th load event of a value is timed by its k-th load transfer; a
    schedule that drops one cannot be timed and is rejected."""
    schedule = refilling.schedule
    index = _nth_load(schedule, lambda vid: True, 0)
    hacked = dataclasses.replace(schedule)
    hacked.transfers = [tr for i, tr in enumerate(schedule.transfers)
                        if i != index]
    report = check_schedule(refilling.translation.graph, refilling.movement,
                            hacked)
    value = schedule.transfers[index].value_id
    assert any(f"value {value}: a load event without a load transfer" in v
               for v in report.violations)
