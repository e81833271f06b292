"""GIL-released limb-stack thread fan, sized by ``REPRO_NUM_THREADS``.

The batched engine's hot kernels are numpy ufuncs and integer matmuls over
``(L, N)`` uint64 limb stacks; numpy releases the GIL inside those C loops,
so independent limb ranges (or independent stacks in a ``(B, L, N)`` batch)
can run on real cores from plain threads — reaching the parallelism a
single large request can't get from :class:`~repro.serve.executor`'s
process pool (which parallelizes only *across* requests).

Contract:

- ``REPRO_NUM_THREADS`` unset or ``1`` (the default) keeps every caller on
  the exact serial code path — bit-identical to a build without this module.
- Threaded runs split work along axes whose chunks are computed by the very
  same kernels on the very same values (the NTT block driver's blocks,
  per-column base conversions), so outputs are bit-identical to the serial
  path at any thread count.
- Fans never nest: a worker task that reaches another fan point runs it
  serially (:func:`active_threads` reports 1 inside a worker), which also
  makes pool starvation impossible.

:func:`set_num_threads` overrides the environment for tests and tools;
pools are created lazily per size and reused for the process lifetime.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

#: Minimum number of array elements before a fan is worth the thread
#: hand-off (~10us per task dispatch vs ~1ns/element kernels).
MIN_PARALLEL_ELEMS = 1 << 13

_override: int | None = None
_pools: dict[int, ThreadPoolExecutor] = {}
_pool_lock = threading.Lock()
_in_worker = threading.local()


def num_threads() -> int:
    """Configured thread count: the :func:`set_num_threads` override if any,
    else ``REPRO_NUM_THREADS``, else 1."""
    if _override is not None:
        return _override
    raw = os.environ.get("REPRO_NUM_THREADS", "")
    try:
        n = int(raw) if raw else 1
    except ValueError:
        n = 1
    return max(1, n)


def set_num_threads(n: int | None) -> int | None:
    """Override the thread count (``None`` restores the environment setting).

    Returns the previous override so callers can restore it::

        prev = parallel.set_num_threads(2)
        try: ...
        finally: parallel.set_num_threads(prev)
    """
    global _override
    prev = _override
    _override = None if n is None else max(1, int(n))
    return prev


def active_threads() -> int:
    """Threads available to a new fan point: 1 inside a worker (no nesting)."""
    if getattr(_in_worker, "busy", False):
        return 1
    return num_threads()


def split_ranges(total: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into at most ``parts`` contiguous near-equal
    ``(lo, hi)`` spans (never an empty span)."""
    parts = max(1, min(int(parts), int(total)))
    base, extra = divmod(int(total), parts)
    spans, lo = [], 0
    for i in range(parts):
        hi = lo + base + (1 if i < extra else 0)
        spans.append((lo, hi))
        lo = hi
    return spans


def _get_pool(n: int) -> ThreadPoolExecutor:
    with _pool_lock:
        pool = _pools.get(n)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=n, thread_name_prefix="repro-limb"
            )
            _pools[n] = pool
        return pool


def run_tasks(fns) -> None:
    """Run thunks, on the pool when threading is active, else in-line.

    All tasks are always completed (or observed to fail) before returning;
    the first exception *in submission order* is re-raised so threaded error
    behavior matches the serial loop deterministically.
    """
    fns = list(fns)
    nt = active_threads() if len(fns) > 1 else 1
    if nt <= 1:
        for fn in fns:
            fn()
        return
    pool = _get_pool(nt)

    def _worker(fn):
        _in_worker.busy = True
        try:
            return fn()
        finally:
            _in_worker.busy = False

    futures = [pool.submit(_worker, fn) for fn in fns]
    first_err = None
    for fut in futures:
        try:
            fut.result()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            if first_err is None:
                first_err = exc
    if first_err is not None:
        raise first_err
