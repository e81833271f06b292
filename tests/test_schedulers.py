"""Compiler phases 2-3 and the CSR baseline (repro.compiler.*)."""

import numpy as np
import pytest

from repro.compiler.csr_scheduler import csr_order
from repro.compiler.cycle_scheduler import CycleSchedule, schedule_cycles
from repro.compiler.data_scheduler import (
    EVICT, EXEC, LOAD, STORE, schedule_data_movement)
from repro.compiler.hecompiler import compile_to_instructions
from repro.compiler.pipeline import compile_program
from repro.core.config import F1Config
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
@pytest.fixture(scope="module")
def suite_schedules():
    """The seven suite programs under the F1 order and the CSR order."""
    from repro.bench.workloads import benchmark_suite

    suite = benchmark_suite(scale=0.05)
    return {(name, order): compile_program(program, scheduler=order)
            for name, program in suite.items() for order in ("f1", "csr")}


ARCHITECTURES = {"default": F1Config(),
                 "lt_ntt": F1Config().with_low_throughput_ntt(),
                 "lt_aut": F1Config().with_low_throughput_aut(),
                 # half the units, and loads of 42.67 cycles: off-integer ends
                 "c8_p3": F1Config().scaled(clusters=8, phys=3)}


@pytest.mark.parametrize("arch", [*ARCHITECTURES, "csr"])
def test_cycle_schedule_equals_the_min_scan_loop(suite_schedules, arch):
    """The low-water-mark unit pick and the once-rounded operand delivery
    give the schedule, bit for bit, that a ``min()`` over the next-free list
    and a rounding on every read gave: other unit counts (the low-throughput
    variants have 7x the NTT or 8x the Aut units, ``c8_p3`` half of all),
    loads that land between cycles, and the CSR order's tie patterns
    included."""
    for (name, order), compiled in suite_schedules.items():
        if (order == "csr") != (arch == "csr"):
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
