"""Replica tier: one replicate/execute protocol for process pools and hosts.

The F1 paper scales by replicating many identical compute clusters
behind one dispatch point with one explicitly managed data-movement
protocol.  This package is that shape in software: one coordinator, one
replica-side handler set and one framed wire, whether the replicas are
forked children on this box or worker hosts across machines.

- :mod:`repro.net.framing` — the **wire layer**: length-prefixed binary
  frames with a versioned, checksummed header and a small message-type
  vocabulary (HELLO/REPLICATE/EXECUTE/RESULT/HEARTBEAT/ERROR).  Payloads
  ride the existing ``to_state()`` pickles; the frame layer rejects
  oversized/garbage/truncated input *before* any byte is unpickled.
- :mod:`repro.net.worker` — :class:`~repro.net.worker.WorkerHost`, the
  **replica side**: accepts replicated registry entries (keygen happens
  once, on the coordinator — workers never keygen), executes
  :class:`~repro.serve.executor.BatchJob` traffic through the executor
  seam, and answers heartbeats.  Served over TCP by ``python -m
  repro.net.worker --port N``, or over an inherited ``socketpair`` by a
  forked pool replica.
- :mod:`repro.net.remote` — the **coordinator**:
  :class:`RemoteExecutor` fronts worker hosts (same-signature traffic
  sharded by consistent hash of ``(signature, params)`` with
  least-inflight tie-breaking) and :class:`ProcessExecutor` is the same
  coordinator over forked replicas.  Both are self-healing (a dead
  replica fails over its in-flight batches, is routed around, and
  re-replicates once redialed / re-forked) and share retry, breakers
  and the deadline watchdog.
- :mod:`repro.net.cluster` — :class:`LocalCluster`, a harness that
  spawns N local worker subprocesses so ``FheServer(executor="remote")``
  and the tests/benchmarks work out of the box.
- :mod:`repro.net.chaos` — the **fault-injection harness**: a seeded
  :class:`ChaosPolicy` (connection drops, frame corruption, truncation,
  fixed/heavy-tailed delays, stalled reads, worker crashes/hangs)
  applied via :class:`ChaosSocket` and the worker's ``--chaos`` flag /
  ``LocalCluster(chaos=...)``, plus the :func:`chaos_soak` invariant
  check (zero lost futures, batched == solo on every success).
"""

from repro.net.chaos import (
    ChaosEngine,
    ChaosPolicy,
    ChaosSocket,
    chaos_soak,
)
from repro.net.framing import (
    FRAME_VERSION,
    MAX_FRAME_BYTES,
    BadChecksum,
    BadMagic,
    FrameError,
    FrameTooLarge,
    MsgType,
    PeerClosed,
    Truncated,
    decode_frame,
    encode_frame,
    recv_msg,
    send_msg,
)
from repro.net.cluster import LocalCluster, remote_executor
from repro.net.remote import ProcessExecutor, RemoteExecutor, shard_key

__all__ = [
    "BadChecksum",
    "BadMagic",
    "ChaosEngine",
    "ChaosPolicy",
    "ChaosSocket",
    "FRAME_VERSION",
    "FrameError",
    "FrameTooLarge",
    "LocalCluster",
    "MAX_FRAME_BYTES",
    "MsgType",
    "PeerClosed",
    "ProcessExecutor",
    "RemoteExecutor",
    "Truncated",
    "chaos_soak",
    "decode_frame",
    "encode_frame",
    "recv_msg",
    "remote_executor",
    "send_msg",
    "shard_key",
]
