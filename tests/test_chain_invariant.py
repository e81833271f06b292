"""The premise of one hint and one plan per chain, checked on real traffic.

Slicing the top hint for a lower level and running a basis on a longer
tuple's transform tables are valid only when every basis is a prefix of one
prime chain.  Here the four ``engine_solo`` programs and ``deep_ckks`` (at
the ring the smoke run uses as well) run through the serving registry's
contexts and ``FunctionalBackend(validate=True)``, with every key-switch
basis recorded and a private transform cache:

- every key-switch basis, and for the raised-modulus switch its extension
  ``Q ∪ P``, is a prefix of its context's chain ``Q_L ∪ P_L``;
- every transformed tuple is a prefix of a chain of its ring;
- the cache holds one distinct plan per N.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from repro.backends import FunctionalBackend
from repro.fhe.bgv import BgvContext
from repro.poly import ntt
from repro.serve import ProgramRegistry

WORKLOADS = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "workloads.py"


def _workloads(monkeypatch):
    """``benchmarks/e2e/workloads.py`` (not a package) under its own name."""
    spec = importlib.util.spec_from_file_location("e2e_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)   # for dataclasses
    spec.loader.exec_module(module)
    return module


def _chain(ctx) -> tuple[int, ...]:
    top = ctx.params.basis
    return top.moduli + ctx._special_basis_for(top).moduli


def test_every_basis_is_a_prefix_of_its_chain(monkeypatch):
    monkeypatch.setattr(ntt, "_rns_contexts", {})
    seen: list[tuple] = []
    for name in ("hint_v1", "hint_v2"):
        original = getattr(BgvContext, name)

        def recorded(self, target, basis, _original=original):
            hint = _original(self, target, basis)
            seen.append((self, basis.moduli))
            if hasattr(hint, "extended"):
                seen.append((self, hint.extended.moduli))
            return hint

        monkeypatch.setattr(BgvContext, name, recorded)
    wl = _workloads(monkeypatch)
    spec = wl.workload("engine_solo")
    served = list(zip(spec.programs, wl.engine_inputs(spec, 1)))
    deep = wl.ServedProgram(wl.deep_ckks(256), 128)
    served.append((deep, wl.engine_inputs(
        wl.Workload("deep", "engine", "", (deep,)), 1)[0]))
    registry, chains = ProgramRegistry(), {}
    for sp, (inputs, plains) in served:
        ctx = registry.context_for(sp.program, seed=1,
                                   plaintext_modulus=sp.plaintext_modulus
                                   )[0].context
        FunctionalBackend(validate=True, plaintext_modulus=sp.plaintext_modulus
                          ).run(sp.program, inputs=inputs, plains=plains,
                                context=ctx)
        chains.setdefault(ctx.params.n, []).append(_chain(ctx))
    assert {ctx.scheme for ctx, _ in seen} == {"bgv", "ckks"}
    assert any(len(m) > ctx.params.level for ctx, m in seen)  # a Q ∪ P
    for ctx, moduli in seen:
        assert _chain(ctx)[:len(moduli)] == moduli
    cache = ntt._rns_contexts
    assert {n for n, _ in cache} == set(chains) == {256, 1024}
    for (n, moduli), ctx in cache.items():
        assert any(c[:len(moduli)] == moduli for c in chains[n]), moduli
    for n in chains:
        plans = {id(c._tables[0]) for (m, _), c in cache.items() if m == n}
        assert len(plans) == 1, (n, len(plans))

