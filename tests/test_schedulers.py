"""Compiler phases 2-3 and the CSR baseline (repro.compiler.*)."""

import numpy as np
import pytest

from repro.compiler.csr_scheduler import csr_order
from repro.compiler.cycle_scheduler import (
    CycleSchedule, _wait_free_prefix, schedule_cycles)
from repro.compiler.data_scheduler import (
    EVICT, EXEC, LOAD, STORE, DataMovementSchedule, TrafficStats,
    schedule_data_movement)
from repro.compiler.hecompiler import compile_to_instructions
from repro.compiler.pipeline import compile_program
from repro.core.config import F1Config
from repro.core.isa import (
    INSTR_KINDS, VALUE_KINDS, InstrKind, InstructionGraph, ValueKind)
from repro.dsl.program import Program
from repro.sim.simulator import check_schedule
from schedule_oracles import schedule_cycles_loop


def _small_program(n=2048, level=4, rows=2):
    p = Program(n=n, name="small")
    hs = [p.input(level) for _ in range(rows)]
    v = p.input(level)
    for h in hs:
        acc = p.mul(h, v)
        acc = p.add(acc, p.rotate(acc, 1))
        p.output(acc)
    return p


@pytest.fixture(scope="module")
def compiled():
    p = _small_program()
    cfg = F1Config()
    translation = compile_to_instructions(p)
    movement = schedule_data_movement(translation.graph, translation.outputs, cfg)
    schedule = schedule_cycles(translation.graph, movement, cfg)
    return p, cfg, translation, movement, schedule


class TestDataMovement:
    def test_compulsory_loads_match_touched_values(self, compiled):
        _, cfg, translation, movement, _ = compiled
        t = movement.traffic
        graph = translation.graph
        operands = np.concatenate((graph.in0, graph.in1[graph.in1 >= 0]))
        offchip_used = np.unique(operands[graph.producer[operands] < 0])
        compulsory = (
            t.ksh_compulsory + t.input_compulsory + t.plain_compulsory
        )
        assert compulsory == len(offchip_used)

    def test_event_stream_shape(self, compiled):
        _, _, translation, movement, _ = compiled
        assert np.count_nonzero(movement.kind == EXEC) \
            == len(translation.graph.kind)
        # Every instruction once; whatever made room came earlier.
        assert np.array_equal(np.sort(movement.target[movement.kind == EXEC]),
                              np.arange(len(translation.graph.kind)))
        assert np.all(movement.frees < np.arange(len(movement.frees)))

    def test_every_exec_operand_loaded_before_use(self, compiled):
        _, _, translation, movement, _ = compiled
        graph = translation.graph
        in0, in1, out = graph.in0.tolist(), graph.in1.tolist(), graph.out.tolist()
        produced = (graph.producer >= 0).tolist()
        resident = set()
        for kind, target in zip(movement.kind.tolist(), movement.target.tolist()):
            if kind == LOAD:
                resident.add(target)
            elif kind in (STORE, EVICT):
                resident.discard(target)
            elif kind == EXEC:
                for vid in (in0[target], in1[target]):
                    assert vid < 0 or produced[vid] or vid in resident
                resident.add(out[target])

    def test_outputs_recorded(self, compiled):
        _, _, translation, movement, _ = compiled
        assert movement.outputs == translation.outputs

    def test_tiny_scratchpad_forces_spills(self):
        """Squeezing the scratchpad produces capacity misses and spills —
        the non-compulsory traffic of Fig. 9a."""
        p = _small_program(n=2048, level=6, rows=3)
        cfg = F1Config(scratchpad_mb=1)  # 128 RVecs at N=2048... tight
        cp = compile_program(p, cfg)
        t = cp.movement.traffic
        assert t.ksh_capacity + t.intermediate_loads + t.intermediate_stores > 0

    def test_big_scratchpad_is_compulsory_only(self, compiled):
        _, _, _, movement, _ = compiled
        t = movement.traffic
        assert t.ksh_capacity == 0
        assert t.intermediate_loads == 0

    def test_breakdown_sums_to_total(self, compiled):
        _, cfg, _, movement, _ = compiled
        rvec = cfg.rvec_bytes(2048)
        assert sum(movement.traffic.breakdown(rvec).values()) == \
            movement.traffic.total_rvecs() * rvec


class TestCycleScheduler:
    def test_makespan_at_least_traffic_bound(self, compiled):
        _, cfg, _, movement, schedule = compiled
        bytes_total = movement.traffic.total_rvecs() * cfg.rvec_bytes(2048)
        assert schedule.makespan >= bytes_total / cfg.hbm_bytes_per_cycle()

    def test_makespan_at_least_compute_bound(self, compiled):
        _, cfg, translation, _, schedule = compiled
        for fu, busy in schedule.fu_busy_cycles.items():
            assert schedule.makespan >= busy / cfg.fu_count(fu)

    def test_utilizations_within_unit_interval(self, compiled):
        _, _, _, _, schedule = compiled
        for util in schedule.fu_utilization().values():
            assert 0.0 <= util <= 1.0
        assert 0.0 <= schedule.hbm_utilization() <= 1.0

    def test_every_instruction_scheduled(self, compiled):
        _, _, translation, _, schedule = compiled
        assert np.array_equal(np.sort(schedule.instr_id),
                              np.arange(len(translation.graph.kind)))

    def test_checker_validates(self, compiled):
        _, cfg, translation, movement, schedule = compiled
        report = check_schedule(translation.graph, movement, schedule, cfg)
        report.raise_if_failed()
        assert report.instructions_checked == len(schedule.instr_id)

    def test_low_throughput_ntt_not_faster_on_serial_chain(self):
        """A serial NTT-heavy chain cannot speed up with 7x-slower NTT units."""
        p = Program(n=2048, name="chain")
        x = p.input(4)
        for _ in range(6):
            x = p.mul(x, x, rescale=False)
        p.output(x)
        base = compile_program(p, F1Config()).makespan
        lt = compile_program(p, F1Config().with_low_throughput_ntt()).makespan
        assert lt >= base

    def test_more_clusters_not_slower(self):
        p = _small_program(rows=4)
        small = compile_program(p, F1Config().scaled(clusters=2)).makespan
        big = compile_program(p, F1Config().scaled(clusters=16)).makespan
        assert big <= small * 1.05


class TestCsrScheduler:
    def test_topological_and_complete(self):
        p = _small_program()
        translation = compile_to_instructions(p)
        graph = translation.graph
        order = csr_order(graph)
        assert sorted(order) == list(range(len(graph.kind)))
        position = np.empty(len(order), np.int64)
        position[order] = np.arange(len(order))
        for operand in (graph.in0, graph.in1):
            reads = np.flatnonzero((operand >= 0) & (graph.producer[operand] >= 0))
            assert np.all(position[graph.producer[operand[reads]]]
                          < position[reads])

    def test_csr_pipeline_end_to_end(self):
        p = _small_program()
        cp = compile_program(p, scheduler="csr")
        report = check_schedule(cp.translation.graph, cp.movement, cp.schedule)
        report.raise_if_failed()

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError):
            compile_program(_small_program(), scheduler="magic")


# ------------------------------------------------- phase 3 against the loop
#: a 64-RVec scratchpad: six of the seven suite programs spill, evict and
#: wait for slots (lola_mnist_uw only stores its outputs)
SPILLING = F1Config().scaled(scratchpad_mb=4)


@pytest.fixture(scope="module")
def suite_schedules():
    """The seven suite programs under the F1 order and the CSR order, and
    under the F1 order on the 64-RVec scratchpad (compiled: phase 2 depends
    on the capacity, so a retime cannot give it)."""
    from repro.bench.workloads import benchmark_suite

    suite = benchmark_suite(scale=0.05)
    compiled = {(name, order): compile_program(program, scheduler=order)
                for name, program in suite.items() for order in ("f1", "csr")}
    compiled.update({(name, "spilling"): compile_program(program, SPILLING)
                     for name, program in suite.items()})
    return compiled


ARCHITECTURES = {"default": F1Config(),
                 "lt_ntt": F1Config().with_low_throughput_ntt(),
                 "lt_aut": F1Config().with_low_throughput_aut(),
                 # half the units, and loads of 42.67 cycles: off-integer ends
                 "c8_p3": F1Config().scaled(clusters=8, phys=3),
                 "spilling": SPILLING}
#: the compile each architecture retimes
ORDER = {"csr": "csr", "spilling": "spilling"}


@pytest.mark.parametrize("arch", [*ARCHITECTURES, "csr"])
def test_cycle_schedule_equals_the_min_scan_loop(suite_schedules, arch):
    """The running-minimum unit pick, the closed-form transfer stretch and
    the once-rounded operand delivery give the schedule, bit for bit, that
    a ``min()`` over the next-free list and a rounding on every read gave:
    other unit counts (the low-throughput variants have 7x the NTT or 8x
    the Aut units, ``c8_p3`` half of all), loads that land between cycles,
    the CSR order's tie patterns, and transfers that wait on evictions and
    spills (``spilling``) included."""
    for (name, order), compiled in suite_schedules.items():
        if order != ORDER.get(arch, "f1"):
            continue
        config = ARCHITECTURES.get(arch, F1Config())
        ours = compiled.retimed(config).schedule
        loop = schedule_cycles_loop(compiled.translation.graph,
                                    compiled.movement, config)
        for column in CycleSchedule.COLUMNS:
            got, want = getattr(ours, column), getattr(loop, column)
            assert got.dtype == want.dtype and np.array_equal(got, want), \
                (name, arch, column)
        assert (ours.makespan, ours.fu_busy_cycles, ours.hbm_busy_cycles) == (
            loop.makespan, loop.fu_busy_cycles, loop.hbm_busy_cycles), name


def test_most_transfers_are_timed_in_closed_form(suite_schedules):
    """Phase 3's speed, counted, not timed: at the default config every load
    of six Table-3 programs, and bgv_bootstrapping's up to its first store,
    eviction or waiting load, is timed before the loop starts."""
    closed, loads = {}, {}
    for (name, order), compiled in suite_schedules.items():
        if order == "f1":
            movement = compiled.movement
            cut = _wait_free_prefix(compiled.translation.graph, movement)
            closed[name] = np.count_nonzero(movement.kind[:cut] == LOAD)
            loads[name] = np.count_nonzero(movement.kind == LOAD)
    assert {name: count for name, count in closed.items()
            if count < loads[name]} == {"bgv_bootstrapping": 1_429}
    assert sum(closed.values()) == 20_561 and sum(loads.values()) == 22_263


# --------------------------- phase 3 against the loop, on hand-built events
def _hand_graph() -> InstructionGraph:
    """Four off-chip values (0-3) and six instructions, one per FU family
    and then some; instruction i produces value 4 + i."""
    ops = [(InstrKind.MUL, 0, 1), (InstrKind.NTT, 4, -1), (InstrKind.ADD, 5, 2),
           (InstrKind.AUT, 6, -1), (InstrKind.MUL, 7, 3), (InstrKind.SUB, 8, 4)]
    kind, a, b = zip(*ops)
    out = np.arange(4, 4 + len(ops), dtype=np.int32)
    producer = np.full(4 + len(ops), -1, np.int32)
    producer[out] = np.arange(len(ops))
    value_kind = [ValueKind.INPUT] * 2 + [ValueKind.KSH] * 2 \
        + [ValueKind.INTERMEDIATE] * len(ops)
    return InstructionGraph(
        2048, kind=np.array([INSTR_KINDS.index(k) for k in kind], np.int8),
        in0=np.array(a, np.int32), in1=np.array(b, np.int32), out=out,
        he_op=np.full(len(ops), -1, np.int32),
        rotate_exponent=np.zeros(len(ops), np.int32),
        value_kind=np.array([VALUE_KINDS.index(k) for k in value_kind], np.int8),
        producer=producer, hint=np.full(len(producer), -1, np.int32), hints=[])


def _events(*rows) -> DataMovementSchedule:
    """Rows of (kind, target[, frees])."""
    kind, target, frees = zip(*((*row, -1)[:3] for row in rows)) if rows \
        else ((), (), ())
    return DataMovementSchedule(
        kind=np.array(kind, np.int8), target=np.array(target, np.int32),
        frees=np.array(frees, np.int32), traffic=TrafficStats(),
        capacity_rvecs=8)


X = EXEC
HAND_EVENTS = {
    "all_closed_form": [(LOAD, 0), (LOAD, 1), (X, 0), (X, 1), (LOAD, 2),
                        (X, 2), (X, 3), (LOAD, 3), (X, 4), (X, 5)],
    "store_first": [(X, 0), (STORE, 4), (LOAD, 2), (X, 1), (X, 2), (X, 3),
                    (LOAD, 3), (X, 4), (X, 5), (STORE, 9)],
    # its slot is the first exec's, so that exec's end is kept
    "waiting_load_first": [(X, 0), (LOAD, 2, 0), (X, 1), (X, 2), (X, 3),
                           (LOAD, 3), (X, 4), (X, 5)],
    "refill": [(LOAD, 0), (LOAD, 1), (X, 0), (LOAD, 4), (X, 1), (LOAD, 2),
               (X, 2), (X, 3), (LOAD, 3), (X, 4), (X, 5)],
    "loaded_twice": [(LOAD, 0), (LOAD, 1), (X, 0), (LOAD, 0), (LOAD, 2),
                     (X, 1), (X, 2), (X, 3), (LOAD, 3), (X, 4), (X, 5)],
    "evict_then_wait": [(LOAD, 0), (LOAD, 1), (X, 0), (EVICT, 0), (STORE, 4),
                        (LOAD, 2, 3), (X, 1), (X, 2), (LOAD, 4, 4), (X, 3),
                        (EVICT, 2), (LOAD, 3, 10), (X, 4), (X, 5)],
    "no_transfers": [(X, i) for i in range(6)],
    "no_execs": [(LOAD, 0), (LOAD, 1), (STORE, 4), (EVICT, 0), (LOAD, 1, 3),
                 (LOAD, 2, 2)],
    "empty": [],
}


def _assert_same_schedule(ours, loop, case):
    for column in CycleSchedule.COLUMNS:
        got, want = getattr(ours, column), getattr(loop, column)
        assert got.dtype == want.dtype and np.array_equal(got, want), \
            (case, column)
    assert (ours.makespan, ours.fu_busy_cycles, ours.hbm_busy_cycles) == (
        loop.makespan, loop.fu_busy_cycles, loop.hbm_busy_cycles), case


@pytest.mark.parametrize("arch", ["default", "c8_p3"])
@pytest.mark.parametrize("case", HAND_EVENTS)
def test_hand_built_events_equal_the_loop(case, arch):
    """Each edge of the closed-form stretch: a store or a waiting load as
    the first transfer, a refilled result, an off-chip value loaded twice,
    no transfers, no execs, no events."""
    graph, movement = _hand_graph(), _events(*HAND_EVENTS[case])
    config = ARCHITECTURES[arch]
    _assert_same_schedule(schedule_cycles(graph, movement, config),
                          schedule_cycles_loop(graph, movement, config), case)


@pytest.mark.parametrize("seed", range(40))
def test_random_events_equal_the_loop(seed):
    """Seeded event lists: before each exec, a random run of loads (of
    off-chip or already produced values, each waiting on a random earlier
    event or on none), stores and evictions; every off-chip operand is
    loaded at least once before it is read."""
    rng = np.random.default_rng(seed)
    graph = _hand_graph()
    rows, loaded = [], set()

    def frees():
        return int(rng.integers(len(rows))) if rows and rng.random() < 0.4 \
            else -1

    for instr, (a, b, out) in enumerate(zip(graph.in0.tolist(),
                                            graph.in1.tolist(),
                                            graph.out.tolist())):
        seen = 4 + instr                        # values that exist so far
        while rng.random() < 0.6:
            event = int(rng.choice([LOAD, STORE, EVICT]))
            value = int(rng.integers(seen))
            rows.append((event, value, frees() if event == LOAD else -1))
            loaded.add(value)
        for operand in (a, b):
            if 0 <= operand < 4 and operand not in loaded:
                rows.append((LOAD, operand, frees()))
                loaded.add(operand)
        rows.append((EXEC, instr, frees()))
    rows += [(STORE, int(value), -1) for value in rng.integers(10, size=2)]
    movement = _events(*rows)
    config = ARCHITECTURES["c8_p3" if seed % 2 else "default"]
    _assert_same_schedule(schedule_cycles(graph, movement, config),
                          schedule_cycles_loop(graph, movement, config), seed)
