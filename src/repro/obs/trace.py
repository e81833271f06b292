"""Per-request span tracing with Chrome trace-event export.

A span is a plain picklable dict::

    {"name": "execute", "ts": <wall-clock us>, "dur": <us>,
     "pid": <os pid>, "tid": <thread id>, "proc": "worker 127.0.0.1:7100",
     "args": {"trace": "1f3a.7", ...}}

Spans are recorded into a bounded ring buffer (oldest spans drop first)
on the process-wide :func:`tracer`.  The ``trace`` arg is the join key:
the coordinator mints one id per request at ``submit`` time, the id
rides ``Request.trace`` through the batcher and the ``EXECUTE`` wire
payload (forked pool replicas and worker hosts alike), and workers
ship the spans they captured back on the reply — so one request yields
one stitched timeline spanning every process that touched it.

Timestamps are wall-clock microseconds (``time.time`` epoch), derived
from ``time.perf_counter`` plus a per-process epoch offset captured at
import: monotonic *within* a process, aligned *across* processes on the
same machine to wall-clock accuracy — good enough to nest a worker's
``execute`` span inside the coordinator's ``dispatch`` span in the
Perfetto UI.

The disabled fast path is a single attribute read (``tracer().enabled``
is a plain bool unless a thread-local capture is active); the perf gate
(``obs_span_overhead`` in ``benchmarks/check_perf.py``) holds it there.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterable, List, Optional

from collections import deque

RING_CAPACITY = 65536

# Wall-clock epoch offset: span timestamps are perf_counter readings
# shifted into the time.time() epoch, so spans from different processes
# on one machine share a timeline.
_EPOCH_OFFSET = time.time() - time.perf_counter()


def _now_us() -> float:
    return (time.perf_counter() + _EPOCH_OFFSET) * 1e6


def perf_to_us(perf_t: float) -> float:
    """A ``time.perf_counter()`` reading as a span timestamp (wall us)."""
    return (perf_t + _EPOCH_OFFSET) * 1e6


class Tracer:
    """Bounded ring buffer of spans with an explicit on/off switch."""

    def __init__(self, capacity: int = RING_CAPACITY) -> None:
        self._ring: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._local = threading.local()
        self.enabled = False
        self.proc_label = f"pid {os.getpid()}"

    # -- switches ---------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def set_label(self, label: str) -> None:
        """Human-readable process label shown as the Perfetto track name."""
        self.proc_label = label

    @property
    def active(self) -> bool:
        """True when recording: globally enabled or a capture is open."""
        return self.enabled or getattr(self._local, "capture", None) is not None

    # -- recording --------------------------------------------------------

    def record(self, name: str, start_us: float, dur_us: float,
               **args: Any) -> None:
        span = {
            "name": name,
            "ts": start_us,
            "dur": dur_us,
            "pid": os.getpid(),
            "tid": threading.get_ident() & 0x7FFFFFFF,
            "proc": self.proc_label,
            "args": args,
        }
        capture = getattr(self._local, "capture", None)
        if capture is not None:
            capture.append(span)
        if self.enabled:
            with self._lock:
                self._ring.append(span)

    def event(self, name: str, **args: Any) -> None:
        """Record an instantaneous (zero-duration) span at "now".

        The resilience tier marks its state transitions this way —
        ``retry``, ``breaker_open``/``breaker_close``,
        ``shed``, ``degrade`` — so a chaos run's timeline shows *when*
        each recovery action fired between the request spans.  No-op
        unless recording.
        """
        if self.active:
            self.record(name, _now_us(), 0.0, **args)

    @contextmanager
    def span(self, name: str, **args: Any):
        """Record ``name`` around the block; no-op when not recording."""
        if not self.active:
            yield
            return
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.record(name, (t0 + _EPOCH_OFFSET) * 1e6, (t1 - t0) * 1e6,
                        **args)

    @contextmanager
    def capture(self):
        """Collect spans recorded on this thread into a returned list.

        Used worker-side: the worker opens a capture around executing a
        traced batch and ships the captured spans back on the reply,
        whether or not the worker's own ring is enabled.
        """
        spans: List[Dict[str, Any]] = []
        prev = getattr(self._local, "capture", None)
        self._local.capture = spans
        try:
            yield spans
        finally:
            self._local.capture = prev

    def ingest(self, spans: Optional[Iterable[Dict[str, Any]]]) -> None:
        """Fold spans shipped from another process into this tracer.

        Ingested spans join an open capture on this thread (so a worker
        host forwards its inner pool replicas' spans upstream) and land
        in the ring only when this process's tracing is enabled.
        """
        if not spans:
            return
        spans = list(spans)
        capture = getattr(self._local, "capture", None)
        if capture is not None:
            capture.extend(spans)
        if self.enabled:
            with self._lock:
                self._ring.extend(spans)

    # -- reading ----------------------------------------------------------

    def spans(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._ring)

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()

    def trace_events(self) -> List[Dict[str, Any]]:
        """Chrome trace-event list: "X" complete events + process names."""
        spans = self.spans()
        events: List[Dict[str, Any]] = []
        seen_procs: Dict[int, str] = {}
        for s in spans:
            pid = s.get("pid", 0)
            if pid not in seen_procs:
                seen_procs[pid] = s.get("proc", f"pid {pid}")
        for pid, label in sorted(seen_procs.items()):
            events.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": label},
            })
        for s in spans:
            events.append({
                "name": s["name"], "ph": "X", "cat": "repro",
                "ts": s["ts"], "dur": s["dur"],
                "pid": s.get("pid", 0), "tid": s.get("tid", 0),
                "args": s.get("args", {}),
            })
        return events

    def dump(self, path: str) -> int:
        """Write Perfetto-loadable trace JSON; returns the span count."""
        events = self.trace_events()
        with open(path, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
        return sum(1 for e in events if e["ph"] == "X")


_TRACER = Tracer()
_TRACE_SEQ = itertools.count(1)


def tracer() -> Tracer:
    """The process-wide tracer."""
    return _TRACER


def new_trace_id() -> str:
    """Mint a process-unique trace id (coordinator-side, at submit)."""
    return f"{os.getpid():x}.{next(_TRACE_SEQ)}"
