"""Golden equivalence of the three compiler phases and the checker.

``compiler_golden.json`` pins, per case, the counts, the simulated results
and a sha256 over every record stream the compiler produces, so that a
change to the compiler's *host* cost cannot move a schedule by one cycle or
one event.  The JSON is the reference implementation: it is written by
running this module (``PYTHONPATH=src python tests/test_compiler_golden.py``)
on the commit whose schedules are to be preserved, and is not edited by hand.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench.workloads import benchmark_suite
from repro.compiler.hecompiler import KsChoice
from repro.compiler.pipeline import compile_program
from repro.core.config import F1Config
from repro.sim.simulator import check_schedule

GOLDEN = Path(__file__).with_name("compiler_golden.json")
SCALE = 0.05

_SPILLING = ("logistic_regression", "db_lookup", "bgv_bootstrapping")


def _cases() -> dict[str, tuple]:
    """case id -> (program name, config, compile_program keywords)."""
    base = F1Config()
    cases: dict[str, tuple] = {
        f"{name}@F1": (name, base, {}) for name in benchmark_suite(scale=SCALE)
    }
    small = {"128rvec": base.scaled(clusters=4, banks=2, phys=1),
             "64rvec": base.scaled(banks=1)}
    for tag, cfg in small.items():
        for name in _SPILLING:
            cases[f"{name}@{tag}"] = (name, cfg, {})
    for name in ("lola_cifar", "logistic_regression"):
        cases[f"{name}@lt_ntt"] = (name, base.with_low_throughput_ntt(), {})
        cases[f"{name}@lt_aut"] = (name, base.with_low_throughput_aut(), {})
    for name in ("lola_mnist_uw", "lola_mnist_ew"):
        cases[f"{name}@csr"] = (name, base, {"scheduler": "csr"})
    cases["db_lookup@ks_v2"] = ("db_lookup", base,
                                {"ks_choice": KsChoice(force=2)})
    return cases


CASES = _cases()


def _digest(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode())
        h.update(b"\n")
    return h.hexdigest()


def fingerprint(case: str) -> dict:
    name, config, kwargs = CASES[case]
    program = benchmark_suite(scale=SCALE)[name]
    compiled = compile_program(program, config, **kwargs)
    graph = compiled.translation.graph
    movement, schedule = compiled.movement, compiled.schedule
    report = check_schedule(graph, movement, schedule)
    return {
        "capacity_rvecs": movement.capacity_rvecs,
        "instructions": len(graph.instructions),
        "values": len(graph.values),
        "events": len(movement.events),
        "transfers": len(schedule.transfers),
        "makespan": schedule.makespan,
        "time_ms": compiled.time_ms,
        "traffic": dataclasses.asdict(movement.traffic),
        "fu_busy_cycles": schedule.fu_busy_cycles,
        "hbm_busy_cycles": float(schedule.hbm_busy_cycles).hex(),
        "outputs": sorted(compiled.translation.outputs),
        "check": {
            "ok": report.ok,
            "instructions_checked": report.instructions_checked,
            "transfers_checked": report.transfers_checked,
            "peak_resident_rvecs": report.peak_resident_rvecs,
        },
        "sha256": {
            "instructions": _digest(
                (i.instr_id, i.kind.value, tuple(i.inputs), i.output, i.he_op,
                 i.rotate_exponent) for i in graph.instructions),
            "values": _digest(
                (v.value_id, v.kind.value, v.producer, tuple(v.users),
                 v.hint_id) for v in graph.values),
            "order": _digest(movement.order),
            "events": _digest(
                (e.kind, e.target, e.frees_slot_of) for e in movement.events),
            "instrs": _digest(
                (s.instr_id, s.start, s.end, s.cluster, s.unit, s.fu,
                 s.occupancy) for s in schedule.instrs),
            "transfers": _digest(
                (t.kind, t.value_id, float(t.start).hex(), float(t.end).hex())
                for t in schedule.transfers),
        },
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden["cases"]) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_compiler_matches_golden(case, golden):
    got = fingerprint(case)
    want = golden["cases"][case]
    # Scalars first, so a drift reads as "makespan 1234 != 1230", not as a hash.
    for key in want:
        if key != "sha256":
            assert got[key] == want[key], (case, key)
    assert got["sha256"] == want["sha256"], case
    assert got["check"]["ok"]


def test_golden_exercises_spills_and_refills(golden):
    """The small-scratchpad cases exist to pin refills and capacity reloads."""
    for tag in ("128rvec", "64rvec"):
        traffic = golden["cases"][f"bgv_bootstrapping@{tag}"]["traffic"]
        assert traffic["intermediate_loads"] > 0
        assert traffic["ksh_capacity"] > 0


# ------------------------------------------------------- phase 3 on its own
@pytest.mark.parametrize("config", [
    F1Config().with_low_throughput_ntt(),
    F1Config().scaled(clusters=8),
], ids=lambda cfg: cfg.name)
def test_retimed_equals_a_full_compile(config):
    """Same scratchpad => same phases 1-2, so phase 3 alone must reproduce
    what compiling for ``config`` from scratch gives."""
    program = benchmark_suite(scale=SCALE)["lola_cifar"]
    base = compile_program(program)
    full = compile_program(program, config)
    retimed = base.retimed(config)
    assert retimed.config is config
    assert retimed.translation is base.translation
    assert retimed.movement is base.movement
    for column in retimed.schedule.COLUMNS:
        assert np.array_equal(getattr(retimed.schedule, column),
                              getattr(full.schedule, column)), column
    assert retimed.makespan == full.makespan
    assert retimed.makespan != base.makespan      # the config does matter
    assert base.schedule.config == F1Config()     # and the base is untouched


def test_retimed_refuses_another_scratchpad_size():
    program = benchmark_suite(scale=SCALE)["lola_mnist_uw"]
    with pytest.raises(ValueError, match="residue vectors"):
        compile_program(program).retimed(F1Config().scaled(banks=8))


if __name__ == "__main__":
    import subprocess

    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=Path(__file__).parent,
        capture_output=True, text=True, check=True).stdout.strip()
    GOLDEN.write_text(json.dumps(
        {"generated_from_commit": commit, "scale": SCALE,
         "cases": {case: fingerprint(case) for case in sorted(CASES)}},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(CASES)} cases) from {commit}")
