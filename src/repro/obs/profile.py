"""Opt-in named-kernel timers attributing hot-kernel time to requests.

The hot kernels (NTT, key switch, CRT, mod switch) are instrumented
with :func:`instrument`, a decorator whose disabled path is one module
attribute read — no timer, no dict lookup.  Enable with the
``REPRO_OBS_KERNELS=1`` environment variable (inherited by forked pool
replicas and exported worker hosts) or the :func:`profiled` context
manager (current process only).

When enabled, each call records its duration into the process-global
metrics registry as a ``kernel.<name>.ms`` histogram (the transforms also
count the rows they cover, ``kernel.ntt_forward.rows``) — and, when an
executor has declared the serving signature it is running via
:func:`attributed`, also as ``kernel.<name>.ms|sig=<signature>``.
Because these are ordinary mergeable histograms, worker-side kernel
time folds into the coordinator's view through the same piggybacked
metrics blobs as everything else, and ``FheServer.stats()["kernels"]``
can break kernel time out per signature across the whole fleet.

Nested kernels both record (``key_switch`` spans include the
``modmul_mac`` calls inside them) — the breakdown is attributable time
per kernel *name*, not a partition of wall clock.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from contextlib import contextmanager

from .metrics import global_metrics

# One-branch fast path: instrumented kernels check this module global.
ENABLED = os.environ.get("REPRO_OBS_KERNELS", "").strip() in ("1", "true", "yes")

_local = threading.local()
_depth_lock = threading.Lock()
_profiled_depth = 0


@contextmanager
def profiled():
    """Enable kernel timers for the duration of the block (re-entrant)."""
    global ENABLED, _profiled_depth
    with _depth_lock:
        _profiled_depth += 1
        ENABLED = True
    try:
        yield
    finally:
        with _depth_lock:
            _profiled_depth -= 1
            if _profiled_depth == 0 and os.environ.get(
                "REPRO_OBS_KERNELS", ""
            ).strip() not in ("1", "true", "yes"):
                ENABLED = False


@contextmanager
def attributed(signature: str | None):
    """Attribute kernel time on this thread to a serving signature.

    Executors wrap backend runs in this so kernel histograms gain a
    per-signature variant joinable with the serving-layer metrics.
    """
    prev = getattr(_local, "signature", None)
    _local.signature = signature
    try:
        yield
    finally:
        _local.signature = prev


def record_kernel(name: str, duration_s: float) -> None:
    ms = duration_s * 1e3
    reg = global_metrics()
    reg.histogram(f"kernel.{name}.ms").observe(ms)
    sig = getattr(_local, "signature", None)
    if sig is not None:
        reg.histogram(f"kernel.{name}.ms|sig={sig}").observe(ms)


def count_kernel(name: str, unit: str, n: int) -> None:
    """Add ``n`` to the ``kernel.<name>.<unit>`` counter (e.g. the rows a
    transform call covered) — only while kernel timers are enabled."""
    if ENABLED:
        global_metrics().counter(f"kernel.{name}.{unit}").inc(n)


def instrument(name: str):
    """Decorator: time calls into ``kernel.<name>.ms`` when enabled."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not ENABLED:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record_kernel(name, time.perf_counter() - t0)
        return wrapper
    return deco


def kernel_breakdown(blob) -> dict:
    """Per-signature kernel table from a merged metrics blob.

    Returns ``{signature: {kernel: summary}}``: the ``kernel.<name>.ms``
    histogram's summary plus, in the ``"all"`` row, one key per
    ``kernel.<name>.<unit>`` counter (``"rows"`` for the transforms).  The
    ``"all"`` row is the total across every call, attributed or not (the
    base histogram records unconditionally; the ``|sig=`` variants only
    under :func:`attributed`).
    """
    from .metrics import summarize_state

    out: dict = {}
    for name, state in blob.items():
        if not name.startswith("kernel."):
            continue
        base, _, sig = name.partition("|sig=")
        kern, _, unit = base[len("kernel."):].rpartition(".")
        row = out.setdefault(sig or "all", {}).setdefault(kern, {})
        if state.get("type") == "counter":
            row[unit] = state["value"]
        elif state.get("type") == "hist" and unit == "ms":
            row.update(summarize_state(state))
    return out
