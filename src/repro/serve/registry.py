"""Program registry: compile-once / keygen-once caching for repeat traffic.

F1 is a server-class accelerator: the same handful of programs (an
inference network, a database lookup circuit) is executed over and over
for different clients.  Before this layer every ``repro.run`` call paid
the full setup cost again — parameter generation, secret-key and
key-switch-hint generation for the functional path, the three-phase
compile plus schedule check for the accelerator model.  The registry
amortizes all of it:

- artifacts are keyed by ``(Program.signature(), parameter fingerprint)``
  — the *structural* identity of the computation, so clients that rebuild
  an identical program each request still hit the cache;
- :meth:`ProgramRegistry.context_for` caches the
  :class:`~repro.fhe.context.FheContext` (keys + hints + params) the
  functional backend needs;
- :meth:`ProgramRegistry.compiled_for` caches the checked
  :class:`~repro.compiler.pipeline.CompiledProgram` the F1 backend needs.

Both are thread-safe with per-key build locks, so concurrent workers
racing on a cold entry perform exactly one keygen/compile.  Execution
serialization is *not* this layer's concern: a cached context is shared
mutable state (one RNG, one hint cache), and whichever
:class:`~repro.serve.executor.Executor` runs batches decides how to keep
that safe — :class:`~repro.serve.executor.ThreadExecutor` runs one batch
at a time per process behind its execution gate, while
:class:`~repro.net.remote.ProcessExecutor` gives each worker process
its own context replica.

**Cross-process convergence rule**: registry entries for the same
``(signature, params)`` must converge even when worker *processes* are
involved.  Keygen happens exactly once, in the parent registry; worker
replicas are restored from the parent entry's serialized keys
(``context.to_state()`` ships the secret-key coefficients), so every
replica decrypts identically — there is no silent per-worker keygen.
Workers regenerate *hints* locally with fresh randomness, which is
semantically irrelevant: hints re-encrypt the same secret, so decrypted
values stay bit-identical (BGV) / tolerance-equal (CKKS) across
replicas.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.backends import F1Backend, FunctionalBackend, params_for_program
from repro.obs.metrics import MetricsRegistry
from repro.compiler.pipeline import CompiledProgram, compile_program
from repro.serve.batcher import level_alignment_plan
from repro.core.config import F1Config
from repro.dsl.program import Program
from repro.fhe.bgv import BgvContext
from repro.fhe.ckks import CkksContext
from repro.fhe.context import FheContext
from repro.fhe.params import FheParams
from repro.sim.simulator import check_schedule


@dataclass
class ContextEntry:
    """A cached functional-execution artifact: params + keys + hints.

    Entries carry no execution lock — serializing access to the shared
    context (or avoiding the sharing entirely, via per-process replicas)
    is the executor's job, not the cache's.
    """

    signature: str
    scheme: str
    params: FheParams
    context: FheContext
    hits: int = 0
    # Lazily cached cross-level batching envelope for this (signature,
    # params) pair; see ProgramRegistry.level_plan_for.
    level_plan: dict | None = None


@dataclass
class CompiledEntry:
    """A cached accelerator artifact: the checked static schedule."""

    signature: str
    compiled: CompiledProgram
    checked: bool
    hits: int = 0


class ProgramRegistry:
    """Caches per-(signature, params) execution artifacts across requests.

    ``context_for`` / ``compiled_for`` return ``(entry, cache_hit)`` so
    callers (the serving layer) can report hit rates per request.
    """

    def __init__(self):
        self._guard = threading.Lock()
        self._building: dict[tuple, threading.Lock] = {}
        self._contexts: dict[tuple, ContextEntry] = {}
        self._compiled: dict[tuple, CompiledEntry] = {}
        # Hit/miss counters live in a mergeable obs registry so the
        # registry reports through the same schema as every other layer.
        self.metrics = MetricsRegistry()
        self._hits = self.metrics.counter("registry.hits")
        self._misses = self.metrics.counter("registry.misses")

    # ------------------------------------------------------------- internals
    def _build_lock(self, key: tuple) -> threading.Lock:
        with self._guard:
            return self._building.setdefault(key, threading.Lock())

    def _lookup(self, cache: dict, key: tuple):
        with self._guard:
            entry = cache.get(key)
            if entry is not None:
                entry.hits += 1
                self._hits.inc()
            return entry

    # ------------------------------------------------------------ functional
    def context_for(self, program: Program, *, scheme: str | None = None,
                    prime_bits: int = 28, plaintext_modulus: int | None = None,
                    seed: int = 0, ks_variant: int | None = None,
                    params: FheParams | None = None,
                    ) -> tuple[ContextEntry, bool]:
        """The cached (or freshly keygenned) FheContext for this program.

        The parameter fingerprint mirrors what a fresh
        :class:`~repro.backends.FunctionalBackend` would build, so cached
        and uncached runs decrypt identical values.  An explicit ``params``
        overrides the derived set and becomes part of the cache key.
        """
        scheme = scheme or ("ckks" if program.scheme == "ckks" else "bgv")
        key = ("ctx", program.signature(), scheme, prime_bits,
               plaintext_modulus, seed, ks_variant, params)
        entry = self._lookup(self._contexts, key)
        if entry is not None:
            return entry, True
        with self._build_lock(key):
            # Double-checked: a racing worker may have built it meanwhile.
            entry = self._lookup(self._contexts, key)
            if entry is not None:
                return entry, True
            if params is None:
                params = params_for_program(
                    program, scheme, prime_bits=prime_bits,
                    plaintext_modulus=plaintext_modulus,
                )
            if scheme == "ckks":
                kw = {"ks_variant": ks_variant} if ks_variant else {}
                context: FheContext = CkksContext(params, seed=seed, **kw)
            else:
                context = BgvContext(params, seed=seed,
                                     ks_variant=ks_variant or 1)
            entry = ContextEntry(
                signature=program.signature(), scheme=scheme,
                params=params, context=context,
            )
            with self._guard:
                self._contexts[key] = entry
                self._misses.inc()
            return entry, False

    def level_plan_for(self, program: Program, entry: ContextEntry) -> dict:
        """The level-alignment plan for this (signature, params) entry.

        Computed once per entry and cached on it, so admission-time level
        validation for repeat traffic is a dict lookup, not a graph walk.
        The plan also records how many limbs the entry's params actually
        provide, which bounds how deep an arrival the context can serve.
        """
        plan = entry.level_plan
        if plan is None:
            plan = dict(level_alignment_plan(program))
            plan["params_level"] = entry.params.level
            with self._guard:
                if entry.level_plan is None:
                    entry.level_plan = plan
                plan = entry.level_plan
        return plan

    def entries_for(self, program: Program, backend, *, seed: int = 0
                    ) -> tuple[ContextEntry | None, CompiledEntry | None, bool]:
        """What ``backend`` needs cached to run ``program``: ``(context
        entry, compiled entry, cache hit)``.  A functional backend's
        scheme/params/ks settings pick the context, whose cross-level plan
        is cached on it too; an F1 backend's config and scheduler pick the
        schedule; the analytic backends need neither."""
        if isinstance(backend, FunctionalBackend):
            entry, hit = self.context_for(
                program, scheme=backend.scheme, prime_bits=backend.prime_bits,
                plaintext_modulus=backend.plaintext_modulus, seed=seed,
                ks_variant=backend.ks_variant, params=backend.params)
            self.level_plan_for(program, entry)
            return entry, None, hit
        if isinstance(backend, F1Backend):
            entry, hit = self.compiled_for(
                program, backend.config, scheduler=backend.scheduler,
                ks_choice=backend.ks_choice, check=backend.check)
            return None, entry, hit
        return None, None, False

    # ----------------------------------------------------------- accelerator
    def compiled_for(self, program: Program, config: F1Config | None = None,
                     *, scheduler: str = "f1", ks_choice=None,
                     check: bool = True) -> tuple[CompiledEntry, bool]:
        """The cached (or freshly compiled + checked) F1 schedule."""
        config = config or F1Config()
        key = ("f1", program.signature(), config, scheduler, ks_choice)
        entry = self._lookup(self._compiled, key)
        if entry is not None:
            self._ensure_checked(entry, check, key)
            return entry, True
        with self._build_lock(key):
            entry = self._lookup(self._compiled, key)
            if entry is not None:
                self._ensure_checked(entry, check, key)
                return entry, True
            compiled = compile_program(
                program, config, scheduler=scheduler, ks_choice=ks_choice,
            )
            if check:
                check_schedule(
                    compiled.translation.graph, compiled.movement,
                    compiled.schedule,
                ).raise_if_failed()
            entry = CompiledEntry(
                signature=program.signature(), compiled=compiled, checked=check,
            )
            with self._guard:
                self._compiled[key] = entry
                self._misses.inc()
            return entry, False

    def _ensure_checked(self, entry: CompiledEntry, check: bool,
                        key: tuple) -> None:
        """Upgrade a cache hit built with check=False when a caller now
        requires a validated schedule — check once, never re-compile."""
        if not check or entry.checked:
            return
        with self._build_lock(("check",) + key):
            if entry.checked:
                return
            compiled = entry.compiled
            check_schedule(
                compiled.translation.graph, compiled.movement,
                compiled.schedule,
            ).raise_if_failed()
            entry.checked = True

    # -------------------------------------------------------------- telemetry
    def stats(self) -> dict:
        with self._guard:
            hits, misses = self._hits.value, self._misses.value
            total = hits + misses
            return {
                "entries": len(self._contexts) + len(self._compiled),
                "contexts": len(self._contexts),
                "compiled": len(self._compiled),
                "hits": hits,
                "misses": misses,
                "hit_rate": hits / total if total else 0.0,
            }
