"""The compiler's artifacts are columns (repro.core.isa, repro.compiler.*).

Deterministic counts, no wall-clock: the same program compiles to the same
columns; the record views agree with the columns and hand back Python
scalars; a compile leaves no per-instruction objects behind for the collector
and stays within a fixed number of bytes per instruction; and the data-
movement scheduler, closed-form until the scratchpad first fills and with an
eviction index only from there, emits exactly the events of the eager-heap
scheduler it replaced (kept below as the oracle).
"""

from __future__ import annotations

import dataclasses
import gc
import json
import random
import subprocess
import sys
import tracemalloc
from heapq import heappop, heappush

import numpy as np
import pytest

from repro.bench.workloads import benchmark_suite
from repro.compiler.csr_scheduler import csr_order
from repro.compiler.data_scheduler import (
    EVENT_KINDS, TrafficStats, _eviction_free_prefix, graph_capacity,
    schedule_data_movement)
from repro.compiler.hecompiler import KsChoice, compile_to_instructions
from repro.compiler.pipeline import compile_program
from repro.core.config import F1Config
from repro.core.isa import (
    INSTR_KINDS, VALUE_KINDS, InstrKind, InstructionGraph, ValueKind,
    stable_order)
from repro.dsl.program import Program
from repro.sim.simulator import check_schedule

SCALE = 0.05
CASES = {name: {} for name in benchmark_suite(scale=SCALE)}
CASES["lola_mnist_ew/csr"] = {"scheduler": "csr"}
CASES["db_lookup/ks_v2"] = {"ks_choice": KsChoice(force=2)}


def _compile(case: str):
    program = benchmark_suite(scale=SCALE)[case.split("/")[0]]
    return compile_program(program, **CASES[case])


def _artifacts(compiled):
    return (compiled.translation.graph, compiled.movement, compiled.schedule)


# ---------------------------------------------------------------- determinism
@pytest.mark.parametrize("case", sorted(CASES))
def test_two_compiles_give_equal_columns(case):
    first, second = _compile(case), _compile(case)
    for one, other in zip(_artifacts(first), _artifacts(second)):
        for column in one.COLUMNS:
            a, b = getattr(one, column), getattr(other, column)
            assert a.dtype == b.dtype and np.array_equal(a, b), column
    assert list(first.movement.order) == list(second.movement.order)
    assert first.movement.traffic == second.movement.traffic
    assert first.translation.graph.hints == second.translation.graph.hints


# ---------------------------------------------------------------------- views
@pytest.fixture(scope="module")
def spilling():
    """Every event kind, refills, a two-variant hint table."""
    return compile_program(benchmark_suite(scale=SCALE)["bgv_bootstrapping"])


def _exact(record, *types):
    """Fields are exactly these Python types (never numpy scalars)."""
    assert len(record) == len(types)
    for field, wanted in zip(record, types):
        assert type(field) in (wanted if isinstance(wanted, tuple)
                               else (wanted,)), (record, field)


def test_views_agree_with_columns_and_hand_back_python_scalars(spilling):
    graph, movement, schedule = _artifacts(spilling)
    none = type(None)

    instructions = list(graph.instructions)
    assert len(graph.instructions) == len(instructions) == len(graph.kind)
    for record in instructions[:50] + instructions[-50:]:
        _exact(record, int, InstrKind, tuple, int, int, int)
        assert all(type(vid) is int for vid in record.inputs)
    assert [i.instr_id for i in instructions] == list(range(len(graph.kind)))
    assert [i.output for i in instructions] == graph.out.tolist()
    assert [i.inputs[0] for i in instructions] == graph.in0.tolist()
    assert [i.inputs[1] if len(i.inputs) == 2 else -1
            for i in instructions] == graph.in1.tolist()
    assert {i.rotate_exponent for i in instructions
            if i.kind is not InstrKind.AUT} == {0}

    values = list(graph.values)
    assert len(graph.values) == len(values) == len(graph.value_kind)
    for record in values[:50] + values[-50:]:
        _exact(record, int, ValueKind, (int, none), tuple, (str, none))
        assert all(type(user) is int for user in record.users)
    assert [-1 if v.producer is None else v.producer
            for v in values] == graph.producer.tolist()
    assert sum(len(v.users) for v in values) == len(graph.users)
    assert {v.hint_id for v in values} - {None} == set(graph.hints)
    assert all((v.hint_id is not None) == (v.kind is ValueKind.KSH)
               for v in values)

    events = list(movement.events)
    assert len(movement.events) == len(events) == len(movement.kind)
    for record in events[:50] + events[-50:]:
        _exact(record, str, int, (int, none))
    assert {e.kind for e in events} == set(EVENT_KINDS)
    assert [e.target for e in events] == movement.target.tolist()
    assert [-1 if e.frees_slot_of is None else e.frees_slot_of
            for e in events] == movement.frees.tolist()

    instrs = list(schedule.instrs)
    assert len(schedule.instrs) == len(instrs) == len(schedule.instr_id)
    for record in instrs[:50] + instrs[-50:]:
        _exact(record, int, int, int, int, int, str, int)
    assert [s.start for s in instrs] == schedule.start.tolist()
    config = schedule.config
    assert all(s.cluster < config.clusters
               and s.unit < getattr(config, s.fu).count
               and s.occupancy == config.fu_occupancy(s.fu, schedule.n)
               for s in instrs)

    transfers = list(schedule.transfers)
    assert len(schedule.transfers) == len(transfers)
    for record in transfers[:50] + transfers[-50:]:
        _exact(record, str, int, float, float)
    assert [t.end for t in transfers] == schedule.transfer_end.tolist()


def test_views_index_like_sequences(spilling):
    graph, movement, schedule = _artifacts(spilling)
    for view in (graph.instructions, graph.values, movement.events,
                 schedule.instrs, schedule.transfers):
        records = list(view)
        assert view[0] == records[0] and view[-1] == records[-1]
        assert view[len(view) // 2] == records[len(view) // 2]
        assert view[3:9:2] == records[3:9:2]
        assert records[5] in view and view.index(records[5]) == 5
        with pytest.raises(IndexError):
            view[len(view)]
        with pytest.raises(TypeError):
            view[0] = records[1]


# ----------------------------------------------- what a compile leaves behind
def _compile_and_check(program):
    compiled = compile_program(program)
    report = check_schedule(*_artifacts(compiled))
    assert report.ok
    return compiled, report


@pytest.fixture(scope="module")
def warm():
    """Imports and lazy tables are paid before anything is counted."""
    _compile_and_check(benchmark_suite(scale=SCALE)["lola_mnist_uw"])


def test_a_compile_adds_no_per_instruction_objects(warm):
    """< 2 000 collector-tracked objects for 44 830 instructions (the record
    lists this replaced: 241 430), and not one full collection."""
    program = benchmark_suite(scale=SCALE)["db_lookup"]
    full_collections = []

    def watch(phase, info):
        if phase == "start" and info["generation"] == 2:
            full_collections.append(info)

    gc.collect()
    before = len(gc.get_objects())
    gc.callbacks.append(watch)
    try:
        kept = _compile_and_check(program)
    finally:
        gc.callbacks.remove(watch)
    added = len(gc.get_objects()) - before
    assert len(kept[0].translation.graph.kind) == 44_830
    assert added < 2_000
    assert not full_collections


def _traced_bytes_per_instruction(program) -> tuple[float, float]:
    """(retained, peak) bytes of a compile + check, per instruction."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        kept = _compile_and_check(program)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    instructions = len(kept[0].translation.graph.kind)
    return (current - base) / instructions, (peak - base) / instructions


@pytest.mark.parametrize("name", ["db_lookup", "bgv_bootstrapping"])
def test_bytes_per_instruction(name, warm):
    """The record lists held 705 B per instruction and peaked at 810
    (db_lookup).  bgv_bootstrapping fills the scratchpad, so its run also
    holds the eviction index."""
    retained, peak = _traced_bytes_per_instruction(
        benchmark_suite(scale=SCALE)[name])
    assert retained <= 250
    assert peak <= 400


# In a fresh interpreter: tracemalloc's per-allocation hook turns the 2 s of
# this compile into 48 s, so at this size the bound is put on what it can only
# under-read - the growth of the process's peak RSS.
_PAPER_SIZE_PROBE = """
import dataclasses, json, resource
import numpy as np
from repro.bench.workloads import benchmark_suite
from repro.compiler.pipeline import compile_program
from repro.sim.simulator import check_schedule

def run(program):
    compiled = compile_program(program)
    graph, movement, schedule = (
        compiled.translation.graph, compiled.movement, compiled.schedule)
    return graph, movement, schedule, check_schedule(graph, movement, schedule)

run(benchmark_suite(scale=0.05)["lola_mnist_uw"])    # imports, lazy tables
program = benchmark_suite(scale=1.0, n=16384)["lola_cifar"]
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
graph, movement, schedule, report = run(program)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({
    "he_ops": len(program.ops),
    "instructions": len(graph.kind), "values": len(graph.value_kind),
    "events": np.bincount(movement.kind).tolist(),
    "makespan": schedule.makespan,
    "traffic": dataclasses.asdict(movement.traffic),
    "fu_busy_cycles": schedule.fu_busy_cycles,
    "hbm_busy_cycles": schedule.hbm_busy_cycles,
    "check": dataclasses.asdict(report),
    "peak_rss_growth_bytes": (after - before) * 1024,
}))
"""


@pytest.mark.slow
def test_paper_size_lola_cifar():
    """Table 3's largest network at the paper's size (scale 1.0, N = 16K).
    Counts, makespan and traffic were read off the record-list compiler
    (e4c56c3, where this took 9.3 s and 373 MB)."""
    probe = subprocess.run([sys.executable, "-c", _PAPER_SIZE_PROBE],
                           capture_output=True, text=True, timeout=300)
    assert probe.returncode == 0, probe.stderr
    got = json.loads(probe.stdout)
    assert got["he_ops"] == 14_891
    assert (got["instructions"], got["values"]) == (301_224, 332_244)
    assert dict(zip(EVENT_KINDS, got["events"])) == {
        "load": 82_461, "exec": 301_224, "evict": 3_518, "store": 48_023}
    assert got["makespan"] == 14_201_720
    assert got["traffic"] == {
        "ksh_compulsory": 1660, "ksh_capacity": 3518, "input_compulsory": 48,
        "input_capacity": 0, "plain_compulsory": 29312, "plain_capacity": 0,
        "intermediate_loads": 47923, "intermediate_stores": 47923,
        "output_stores": 100}
    assert got["fu_busy_cycles"] == {
        "ntt": 4416512, "aut": 1158144, "mul": 16427520, "add": 16554496}
    assert got["hbm_busy_cycles"] == 8350976.0
    assert got["check"] == {
        "ok": True, "violations": [], "instructions_checked": 301_224,
        "transfers_checked": 130_484, "peak_resident_rvecs": 1024}
    assert got["peak_rss_growth_bytes"] / got["instructions"] <= 400


# ------------------------------------------- the eager-heap scheduler, oracle
def _eager_heap_schedule(graph, outputs, config, order=None):
    """``schedule_data_movement`` as it was on record lists: every load,
    result and retired use pushes a ``(-next use, value id)`` tuple onto the
    eviction heap from the first instruction on.  Returns the event rows and
    the traffic counters."""
    infinity = float("inf")
    instructions, values = list(graph.instructions), list(graph.values)
    if order is None:
        order = list(range(len(instructions)))
        uses = [list(v.users) for v in values]
    else:
        position_of = {instr_id: pos for pos, instr_id in enumerate(order)}
        uses = [sorted(position_of[u] for u in v.users) for v in values]
    cursor = [0] * len(values)
    capacity = graph_capacity(graph, config)
    resident: dict[int, bool] = {}
    touched: set[int] = set()
    spilled: set[int] = set()
    events: list[tuple] = []
    traffic = [0] * 9
    evict_heap: list[tuple[float, int]] = []
    ksh, inp, plain, fill, spill, out = 0, 2, 4, 6, 7, 8

    def make_space(pinned, output):
        while len(resident) >= capacity:
            while True:
                neg_use, vid = heappop(evict_heap)
                if vid not in resident or vid in pinned or vid == output:
                    continue
                at, users = cursor[vid], uses[vid]
                next_use = users[at] if at < len(users) else infinity
                if -neg_use != next_use:
                    heappush(evict_heap, (-next_use, vid))
                    continue
                break
            dirty = resident.pop(vid)
            live = at < len(users)
            if dirty and (live or vid in outputs):
                events.append(("store", vid, None))
                if live:
                    traffic[spill] += 1
                    spilled.add(vid)
                else:
                    traffic[out] += 1
            else:
                events.append(("evict", vid, None))
        return len(events) - 1

    for pos, instr_id in enumerate(order):
        instr = instructions[instr_id]
        inputs, output = instr.inputs, instr.output
        for vid in inputs:
            if vid in resident:
                continue
            kind = values[vid].kind
            if kind is ValueKind.KSH:
                slot = ksh
            elif kind is ValueKind.INPUT:
                slot = inp
            elif kind is ValueKind.PLAIN:
                slot = plain
            else:
                assert vid in spilled
                slot = fill
            free_evt = (None if len(resident) < capacity
                        else make_space(inputs, output))
            if slot != fill and vid in touched:
                slot += 1
            touched.add(vid)
            traffic[slot] += 1
            events.append(("load", vid, free_evt))
            resident[vid] = False
            at, users = cursor[vid], uses[vid]
            heappush(evict_heap,
                     (-users[at] if at < len(users) else -infinity, vid))
        free_evt = (None if len(resident) < capacity
                    else make_space(inputs, output))
        events.append(("exec", instr_id, free_evt))
        resident[output] = True
        at, users = cursor[output], uses[output]
        heappush(evict_heap,
                 (-users[at] if at < len(users) else -infinity, output))
        for vid in dict.fromkeys(inputs):
            at, users = cursor[vid], uses[vid]
            while at < len(users) and users[at] == pos:
                at += 1
            cursor[vid] = at
            if vid not in resident:
                continue
            if at < len(users):
                heappush(evict_heap, (-users[at], vid))
            elif vid in outputs:
                heappush(evict_heap, (-infinity, vid))
            else:
                del resident[vid]
    for vid in sorted(outputs):
        if resident.get(vid):
            events.append(("store", vid, None))
            traffic[out] += 1
    return events, TrafficStats(*traffic)


def _random_program(rng: random.Random, depth: int, width: int,
                    rotation_density: float) -> Program:
    """``depth`` layers of ``width`` ciphertexts; each layer mixes the one
    below with multiplies, rotations (``rotation_density`` of the ops),
    plaintext ops and adds, squaring a ciphertext now and then."""
    p = Program(n=32768, name="random")       # 128 KB RVecs: 8 per MB
    layer = [p.input(depth + 1) for _ in range(width)]
    for _ in range(depth):
        above = []
        for _ in range(width):
            x, y = rng.choice(layer), rng.choice(layer)
            roll = rng.random()
            if roll < rotation_density:
                above.append(p.add(x, p.rotate(y, rng.choice((1, 2, 4)))))
            elif roll < rotation_density + 0.15:
                above.append(p.add_plain(p.mul_plain(x)))
            elif roll < rotation_density + 0.3:
                above.append(p.sub(x, y))
            else:
                above.append(p.mul(x, y, rescale=False))
        layer = above
        if rng.random() < 0.5 and layer[0].level > 1:
            layer[0] = p.mod_switch(layer[0])
    for x in layer:
        p.output(x)
    return p


@pytest.mark.parametrize("seed", range(6))
def test_on_demand_eviction_index_equals_the_eager_heap(seed):
    rng = random.Random(1000 + seed)
    depth, width = rng.randint(2, 4), rng.randint(2, 6)
    program = _random_program(rng, depth, width, rng.choice((0.1, 0.3, 0.6)))
    variant = 1 + seed % 2
    pressured = 0
    for scratchpad_mb in (1, 2, 4, 8, 16, 32):           # 8 ... 256 RVecs
        config = dataclasses.replace(F1Config(), scratchpad_mb=scratchpad_mb)
        capacity = config.scratchpad_capacity_rvecs(program.n)
        assert capacity == 8 * scratchpad_mb
        translation = compile_to_instructions(
            program, ks_choice=KsChoice(force=variant),
            capacity_rvecs=capacity)
        graph = translation.graph
        orders = [None]
        if scratchpad_mb in (2, 16):
            orders.append(csr_order(graph))
        for order in orders:
            movement = schedule_data_movement(
                graph, translation.outputs, config, order=order)
            events, traffic = _eager_heap_schedule(
                graph, translation.outputs, config, order=order)
            assert [tuple(e) for e in movement.events] == events
            assert movement.traffic == traffic
            pressured += "evict" in {kind for kind, _, _ in events} \
                or traffic.intermediate_stores > 0
    assert pressured >= 3          # the index was built, not just skipped


# --------------------------------- the eviction-free prefix and its handoff
class _Hand:
    """A hand-built instruction graph at N = 32768, where a 1 MB scratchpad
    holds 8 RVecs: ``offchip()`` names an off-chip value, ``op(a, b)``
    appends an instruction (``b = -1``: unary) and returns its result."""

    def __init__(self):
        self.kinds, self.rows = [], []

    def offchip(self, kind=ValueKind.INPUT) -> int:
        self.kinds.append(VALUE_KINDS.index(kind))
        return len(self.kinds) - 1

    def op(self, a: int, b: int = -1) -> int:
        out = self.offchip(ValueKind.INTERMEDIATE)
        self.rows.append((a, b, out))
        return out

    def graph(self) -> InstructionGraph:
        a, b, out = (np.array(column, np.int32) for column in zip(*self.rows))
        producer = np.full(len(self.kinds), -1, np.int32)
        producer[out] = np.arange(len(out))
        kind = np.where(b < 0, INSTR_KINDS.index(InstrKind.NTT),
                        INSTR_KINDS.index(InstrKind.ADD)).astype(np.int8)
        return InstructionGraph(
            32768, kind=kind, in0=a, in1=b, out=out,
            he_op=np.full(len(out), -1, np.int32),
            rotate_exponent=np.zeros(len(out), np.int32),
            value_kind=np.array(self.kinds, np.int8), producer=producer,
            hint=np.full(len(self.kinds), -1, np.int32), hints=[])

    def held(self, count: int) -> list[int]:
        """``count`` steps, each leaving one result resident (read later)."""
        return [self.op(self.offchip()) for _ in range(count)]

    def consume(self, acc: int, values: list[int]) -> int:
        for vid in values:
            acc = self.op(acc, vid)
        return acc


def _b_load_does_not_fit():
    """7 resident: ``a``'s load takes the last slot, ``b``'s evicts."""
    h = _Hand()
    held = h.held(7)
    last = h.consume(h.op(h.offchip(), h.offchip()), held)
    return h.graph(), {last}, 7


def _result_does_not_fit():
    """6 resident: both loads fit, the result evicts."""
    h = _Hand()
    held = h.held(6)
    last = h.consume(h.op(h.offchip(), h.offchip()), held)
    return h.graph(), {last}, 6


def _double_read_at_the_stop():
    """``y * y`` at step 0 and ``x * x`` at the stop load once each; the
    handed-over cursor counts ``y``'s two reads, so ``y``, read again last,
    is the first victim; ``x`` is read again too."""
    h = _Hand()
    y = h.offchip(ValueKind.PLAIN)
    square = h.op(y, y)
    held = h.held(5)
    x = h.offchip(ValueKind.PLAIN)
    last = h.consume(h.op(x, x), [square, *held, x, y])
    return h.graph(), {last}, 6


def _unread_result_holds_a_slot():
    """Seven results nothing reads (not outputs) fill the scratchpad and
    are evicted clean-dead, never stored."""
    h = _Hand()
    hint = h.offchip(ValueKind.KSH)
    for _ in range(7):
        h.op(hint)
    last = h.consume(h.op(h.offchip()), h.held(3))
    return h.graph(), {last}, 7


def _output_read_again():
    """An output read again at step 1 stays resident past its last read;
    it is the first victim, stored once."""
    h = _Hand()
    out = h.op(h.offchip(), h.offchip())
    reread = h.op(out, h.offchip())
    held = h.held(5)
    last = h.consume(h.op(h.offchip(), h.offchip()), [reread, *held])
    return h.graph(), {out, last}, 7


HAND_CASES = {case.__name__.strip("_"): case for case in (
    _b_load_does_not_fit, _result_does_not_fit, _double_read_at_the_stop,
    _unread_result_holds_a_slot, _output_read_again)}
ONE_MB = dataclasses.replace(F1Config(), scratchpad_mb=1)


def _assert_equals_the_eager_heap(graph, outputs, config, order=None):
    movement = schedule_data_movement(graph, outputs, config, order=order)
    events, traffic = _eager_heap_schedule(graph, outputs, config, order=order)
    assert [tuple(e) for e in movement.events] == events
    assert movement.traffic == traffic
    return movement


@pytest.mark.parametrize("case", sorted(HAND_CASES))
def test_prefix_hands_the_loop_its_state_where_it_stops(case):
    graph, outputs, stop = HAND_CASES[case]()
    graph.validate()
    capacity = graph_capacity(graph, ONE_MB)
    assert capacity == 8
    assert _eviction_free_prefix(graph, outputs, capacity, None).steps == stop
    movement = _assert_equals_the_eager_heap(graph, outputs, ONE_MB)
    assert {EVENT_KINDS[k] for k in movement.kind[stop:]} & {"evict", "store"}


def test_a_non_topological_order_raises_the_loops_error():
    """Read before it is made: inside the prefix, the closed form raises;
    after the first fill, the loop does; both name the same instruction
    and value."""
    graph, outputs, stop = _output_read_again()
    steps, out = len(graph.kind), graph.out.tolist()
    for late in (1, stop + 3):      # each reads the value made at late - 1
        order = list(range(steps))
        order[late - 1], order[late] = late, late - 1
        with pytest.raises(RuntimeError, match=(
                rf"^instr {late} needs value {out[late - 1]} which is "
                r"neither resident nor recoverable \(order not topological")):
            schedule_data_movement(graph, outputs, ONE_MB, order=order)
        if late > stop:
            prefix = _eviction_free_prefix(graph, outputs, 8, order)
            assert prefix.steps == stop
        else:
            with pytest.raises(RuntimeError, match=rf"^instr {late} "):
                _eviction_free_prefix(graph, outputs, 8, order)


@pytest.mark.parametrize("scratchpad_mb", [64, 3])   # 1024, 48 RVecs
@pytest.mark.parametrize("name", ["lola_mnist_uw", "bgv_bootstrapping"])
def test_suite_handoff_equals_the_eager_heap(name, scratchpad_mb):
    """lola_mnist_uw never fills the scratchpad at 1024 RVecs;
    bgv_bootstrapping fills it midway; at 48 both fill early."""
    config = dataclasses.replace(F1Config(), scratchpad_mb=scratchpad_mb)
    program = benchmark_suite(scale=SCALE)[name]
    translation = compile_to_instructions(
        program, capacity_rvecs=config.scratchpad_capacity_rvecs(program.n))
    graph = translation.graph
    for order in (None, csr_order(graph)):
        _assert_equals_the_eager_heap(graph, translation.outputs, config,
                                      order)


def test_most_of_the_suite_skips_the_eviction_loop():
    """Phase 2's speed, counted, not timed: at the default scratchpad the
    closed form covers six Table-3 programs whole and bgv_bootstrapping up
    to its first fill, so only 11 916 of 147 617 instructions go through
    the per-instruction loop."""
    lengths = {}
    for name, program in benchmark_suite(scale=SCALE).items():
        capacity = F1Config().scratchpad_capacity_rvecs(program.n)
        translation = compile_to_instructions(program, capacity_rvecs=capacity)
        graph = translation.graph
        prefix = _eviction_free_prefix(graph, translation.outputs, capacity,
                                       None)
        lengths[name] = (prefix.steps, len(graph.kind))
    assert {name: steps for name, (steps, total) in lengths.items()
            if steps < total} == {"bgv_bootstrapping": 10_922}
    assert sum(total for _, total in lengths.values()) == 147_617


# ------------------------------------------- the radix group-by-value order
EDGE_KEYS = (0, (1 << 16) - 1, 1 << 16, (1 << 32) - 1)


@pytest.mark.parametrize("seed", range(20))
def test_stable_order_is_the_stable_argsort(seed):
    """Two 16-bit radix passes order keys as numpy's stable sort does: the
    edges of each pass, runs of equal keys, both key widths the compiler
    and the checker sort, and empty and all-equal arrays."""
    rng = np.random.default_rng(seed)
    size = int(rng.integers(0, 3_000))
    pool = np.array(EDGE_KEYS + tuple(rng.integers(0, 1 << 32, 8).tolist()),
                    np.int64)
    keys = pool[rng.integers(len(pool), size=size)]
    low = rng.integers(0, 1 << 16, size)          # one pass suffices
    for case in (keys, keys.astype(np.uint32), low.astype(np.int32),
                 keys[:0], np.full(size, keys[0] if size else 7, np.int64)):
        assert np.array_equal(stable_order(case),
                              np.argsort(case, kind="stable")), case.dtype
