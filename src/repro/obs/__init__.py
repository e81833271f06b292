"""Cross-layer observability: tracing, mergeable metrics, kernel timers.

Three parts, one join key:

- :mod:`repro.obs.trace` — per-request spans (``admit -> queue -> pack
  -> dispatch -> execute -> unpack -> demux``) in a bounded ring,
  exportable as Chrome trace-event JSON (Perfetto-viewable).  The trace
  id rides ``Request`` over the replica wire so coordinator and
  worker spans stitch into one timeline.
- :mod:`repro.obs.metrics` — counters/gauges/fixed-log-bucket
  histograms whose snapshots merge across processes; worker hosts and
  pool replicas piggyback blobs on their replies so fleet-wide
  p50/p99 are computed from the combined distribution.
- :mod:`repro.obs.profile` — opt-in named-kernel timers
  (``REPRO_OBS_KERNELS=1`` or ``obs.profiled()``) attributing
  NTT/key-switch/CRT/mod-switch time to serving signatures.

:mod:`repro.obs.log` is the structured logger (``REPRO_LOG=json|text``)
used by the network tier.
"""

from .log import get_logger
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_metrics,
    merge_snapshots,
    summarize_state,
)
from .profile import attributed, instrument, kernel_breakdown, profiled
from .trace import Tracer, new_trace_id, tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "attributed",
    "get_logger",
    "global_metrics",
    "instrument",
    "kernel_breakdown",
    "merge_snapshots",
    "new_trace_id",
    "profiled",
    "summarize_state",
    "tracer",
]
