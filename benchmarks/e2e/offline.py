"""The two workloads with no server: ``engine_solo`` and ``f1_compile_suite``.

``engine_solo`` times passes over four programs on cached contexts through
``FunctionalBackend(validate=False).run``; ``f1_compile_suite`` times
``compile_program`` + ``check_schedule`` over the Table-3 suite and reads the
*simulated* results, which are deterministic and must not drift.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field

from repro.backends import FunctionalBackend
from repro.bench.workloads import benchmark_suite
from repro.compiler.pipeline import compile_program
from repro.serve import ProgramRegistry
from repro.sim.simulator import check_schedule

from metrics import good_quartile
from serving import same_outputs
from workloads import Workload, engine_inputs


def _pass_stats(times: dict[str, list[float]], wrong: int,
                own_metric: str, own_scale: float) -> dict:
    """End-to-end numbers of a pass-based workload.

    ``times[name]`` holds one wall time per pass for each program.  The pass
    time reported is the sum over programs of each program's good quartile
    across passes (see ``metrics.good_quartile``): a slow phase of the box
    that hits one program in one pass does not move it, which a median over
    whole passes (three, for the compile suite) would not survive.
    Throughput is programs per such pass.  The pass time is reported twice:
    as ``latency_p50_ms`` (the name every workload shares) and under the
    workload's own name and unit (``own_metric``, seconds * ``own_scale``).
    """
    names = list(times)
    passes = [sum(per_pass) for per_pass in zip(*times.values())]
    per_program = {name: good_quartile(times[name], "lower") for name in names}
    robust = sum(per_program.values())
    items = len(passes) * len(names)

    def pass_time(scale: float) -> dict:
        return {"value": robust * scale,
                "median": statistics.median(passes) * scale,
                "min": min(passes) * scale, "max": max(passes) * scale,
                "windows": len(passes), "samples": len(passes),
                "per_window": [p * scale for p in passes]}

    return {
        "attempted": items, "failed": wrong,
        "end_to_end": {
            "throughput_rps": {
                "value": len(names) / robust, "samples": items,
                "median": len(names) / statistics.median(passes),
                "min": len(names) / max(passes),
                "max": len(names) / min(passes), "windows": len(passes)},
            "latency_p50_ms": pass_time(1e3),
            own_metric: pass_time(own_scale),
            "failed_frac": {"value": wrong / items, "samples": items},
        },
        "per_program_s": per_program,
        "per_program_median_s": {name: statistics.median(times[name])
                                 for name in names},
        "diagnostics": {}, "batch_mix": {},
    }


# ---------------------------------------------------------------- engine_solo
@dataclass
class EngineStack:
    spec: Workload
    backends: list
    entries: list
    values: list                       # (inputs, plains) per program
    setup: dict = field(default_factory=dict)


def engine_setup(spec: Workload, seed: int) -> EngineStack:
    t0 = time.perf_counter()
    registry = ProgramRegistry()
    backends = [FunctionalBackend(validate=False,
                                  plaintext_modulus=sp.plaintext_modulus)
                for sp in spec.programs]
    entries = [registry.context_for(
        sp.program, seed=seed, plaintext_modulus=sp.plaintext_modulus)[0]
        for sp in spec.programs]
    t1 = time.perf_counter()
    eng = EngineStack(spec, backends, entries, engine_inputs(spec, seed))
    engine_pass(eng)                   # warm hint caches and NTT plans
    t2 = time.perf_counter()
    eng.setup = {"cold_build_s": t1 - t0, "warmup_s": t2 - t1,
                 "setup_s": t2 - t0}
    return eng


def engine_pass(eng: EngineStack, run=None) -> tuple[list[dict], list[float]]:
    """One pass: every program once; returns the decrypted outputs and the
    wall time of each run.  ``run(backend, program, **kw)`` lets the traced
    replay wrap the call."""
    outputs, times = [], []
    for sp, backend, entry, (inputs, plains) in zip(
            eng.spec.programs, eng.backends, eng.entries, eng.values):
        kw = dict(inputs=inputs, plains=plains, context=entry.context)
        t0 = time.perf_counter()
        result = (run(backend, sp.program, **kw) if run
                  else backend.run(sp.program, **kw))
        times.append(time.perf_counter() - t0)
        outputs.append(result.outputs)
    return outputs, times


def engine_measure(eng: EngineStack, seconds: float,
                   corrupt: bool = False) -> dict:
    names = [sp.program.name for sp in eng.spec.programs]
    times: dict[str, list[float]] = {name: [] for name in names}
    outputs = []
    begin = time.perf_counter()
    while not outputs or time.perf_counter() - begin < seconds:
        one_pass, run_times = engine_pass(eng)
        outputs.append(one_pass)
        for name, t in zip(names, run_times):
            times[name].append(t)
    # Untimed check: one validate=True run per program (decrypted outputs
    # against the plaintext reference), then every timed pass against it.
    reference = []
    for sp, entry, (inputs, plains) in zip(eng.spec.programs, eng.entries,
                                           eng.values):
        checker = FunctionalBackend(validate=True,
                                    plaintext_modulus=sp.plaintext_modulus)
        try:
            reference.append(checker.run(sp.program, inputs=inputs,
                                         plains=plains,
                                         context=entry.context).outputs)
        except AssertionError:
            reference.append(None)
    if corrupt:
        outputs[0][0] = {k: v + 1 for k, v in outputs[0][0].items()}
    wrong = sum(
        want is None or not same_outputs(sp.program, got, want,
                                         sp.plaintext_modulus)
        for one_pass in outputs
        for sp, got, want in zip(eng.spec.programs, one_pass, reference))
    return _pass_stats(times, wrong, "engine_pass_ms", 1e3)


# ----------------------------------------------------------- f1_compile_suite
@dataclass
class CompileStack:
    spec: Workload
    suite: dict
    setup: dict = field(default_factory=dict)


def compile_setup(spec: Workload) -> CompileStack:
    t0 = time.perf_counter()
    suite = benchmark_suite(scale=spec.suite_scale, n=spec.suite_n)
    if spec.suite_only:
        suite = {name: suite[name] for name in spec.suite_only}
    # Warm the compiler's lazy tables on the smallest program.
    smallest = min(suite.values(), key=lambda program: len(program.ops))
    compile_and_check(smallest)
    return CompileStack(spec, suite, {"setup_s": time.perf_counter() - t0})


def compile_and_check(program):
    compiled = compile_program(program)
    report = check_schedule(compiled.translation.graph, compiled.movement,
                            compiled.schedule)
    report.raise_if_failed()
    return compiled, report


def compile_measure(comp: CompileStack, seconds: float,
                    corrupt: bool = False) -> dict:
    """Timed passes over the suite.  Each program is timed on its own and
    its CompiledProgram dropped before the next one starts: keeping a whole
    suite of instruction graphs alive slows the collector, and with it the
    very compiles being timed."""
    times: dict[str, list[float]] = {name: [] for name in comp.suite}
    simulated, wrong = {}, 0
    begin = time.perf_counter()
    first = next(iter(times.values()))
    while not first or time.perf_counter() - begin < seconds:
        for name, program in comp.suite.items():
            t0 = time.perf_counter()
            try:
                compiled = compile_and_check(program)[0]
            except AssertionError:     # the checker rejected the schedule
                compiled = None
            times[name].append(time.perf_counter() - t0)
            if compiled is None:
                wrong += 1
            else:
                simulated[name] = (
                    compiled.time_ms, compiled.makespan,
                    sum(compiled.traffic_breakdown_bytes().values()))
            del compiled
    wrong += bool(corrupt)
    measured = _pass_stats(times, wrong, "compile_pass_s", 1.0)
    done = list(simulated.values())
    exact = {"samples": len(done)}
    measured["end_to_end"].update({
        "f1_modeled_ms_gmean": {"value": (
            math.exp(sum(math.log(ms) for ms, _, _ in done) / len(done))
            if done else 0.0), **exact},
        "f1_offchip_bytes_total": {
            "value": sum(traffic for _, _, traffic in done), **exact},
        "f1_makespan_cycles_total": {
            "value": sum(cycles for _, cycles, _ in done), **exact},
    })
    return measured
