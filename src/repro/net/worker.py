"""Worker host: the replica side of the replicate/execute protocol.

:class:`WorkerHost` is the one replica-side implementation: a TCP worker
(:func:`serve`) and a forked pool replica (:func:`serve_socketpair`, what
:class:`~repro.net.remote.ProcessExecutor` forks) run the same handlers
over the same frames.  Run one TCP worker per machine (or several per
machine — each is an independent process, the F1
many-independent-clusters shape)::

    PYTHONPATH=src python -m repro.net.worker --port 7100
    PYTHONPATH=src python -m repro.net.worker --port 0        # pick a port

On startup the worker prints ``repro.net.worker listening on HOST:PORT``
(the :class:`~repro.net.cluster.LocalCluster` harness reads this line to
discover auto-assigned ports) and then serves frames forever.

Protocol (see :mod:`repro.net.framing` for the frame format):

- ``HELLO {version}`` — handshake; replies ``HELLO {version, pid}``.
  Version mismatches are answered with ``ERROR`` and the connection
  closes, so incompatible peers part cleanly.
- ``REPLICATE {kind, ...}`` — registry state arriving from the
  coordinator: ``context`` (a ``to_state()`` dict plus an RNG reseed —
  **workers never keygen**; every context is restored from the
  coordinator's serialized secret, and replicas are reseeded apart so no
  two nodes share an encryption-randomness stream), ``program`` (the
  :class:`~repro.dsl.program.Program`, keyed by ``(signature, width,
  plain_width, capacity)`` — the coordinator's batch layout), ``backend``,
  the ``drop_context`` / ``drop_backend`` evictions, and ``probe`` (the
  replication-invariant diagnostic).  Replies ``RESULT {ok: True}``.
- ``EXECUTE {ctx, program, backend, requests}`` — one flushed batch,
  executed through the executor seam (an in-process
  :class:`~repro.serve.executor.ThreadExecutor` by default, or a
  ``--processes N`` :class:`~repro.net.remote.ProcessExecutor` for
  multi-core hosts); replies ``RESULT {outputs, result, pid, spans,
  metrics}`` — captured trace spans for traced requests, plus this
  host's cumulative :mod:`repro.obs.metrics` blob, which the
  coordinator merges into its own registry.
- ``HEARTBEAT`` — replies ``HEARTBEAT {pid, inflight, served,
  metrics}``; the coordinator's monitor uses it for liveness, load
  telemetry, and metrics merging between batches.

Execution failures are answered with ``ERROR {error, traceback}`` and
the connection stays usable; malformed *frames* are answered with a
best-effort ``ERROR`` and the connection closes (the stream may be
desynchronized past a framing violation).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import socket
import threading
import traceback
from contextlib import nullcontext

import numpy as np

from repro.obs.log import get_logger
from repro.obs.metrics import global_metrics, merge_snapshots
from repro.obs.trace import tracer
from repro.net.framing import (
    FRAME_VERSION,
    MAX_FRAME_BYTES,
    FrameError,
    MsgType,
    PeerClosed,
    recv_msg,
    send_msg,
)
from repro.fhe.context import context_from_state
from repro.net.remote import ProcessExecutor
from repro.serve.batcher import Request, SlotBatcher
from repro.serve.executor import BatchJob, ThreadExecutor
from repro.serve.registry import ContextEntry


class WorkerHost:
    """Shared state and frame handlers for one worker process.

    Replicated state (contexts/programs/backends) is process-wide and
    shared across connections; programs, the twiddle/Shoup caches and
    key-switch hints populate lazily in this process as batches execute.
    The inner executor provides the execution-safety story
    (:class:`ThreadExecutor` runs one batch at a time per process, so
    concurrent connections serialize instead of corrupting a shared
    RNG/hint cache).
    """

    def __init__(self, *, processes: int = 0,
                 max_frame: int = MAX_FRAME_BYTES,
                 log=None, chaos=None):
        self.max_frame = max_frame
        self.executor = (ProcessExecutor(processes) if processes
                         else ThreadExecutor())
        self.log = log if log is not None else get_logger("repro.net.worker")
        #: fault-injection engine (repro.net.chaos) or None; EXECUTE
        #: handlers consult it for crash/hang faults, serve() wraps
        #: accepted connections for the byte-level ones.
        self.chaos = chaos
        self._guard = threading.Lock()
        self._entries: dict[int, ContextEntry] = {}
        #: (signature, width, plain_width, capacity) -> (program, batcher
        #: or None for unbatched traffic, which ships zeros)
        self._programs: dict[tuple, tuple] = {}
        self._backends: dict[int, object] = {}
        self._inflight = 0
        self._served = 0

    # ------------------------------------------------------------- handlers
    def _handle_replicate(self, msg: dict) -> tuple[MsgType, dict]:
        kind, key = msg["kind"], msg["key"]
        if kind == "context":
            ctx = context_from_state(msg["state"])
            if msg.get("reseed") is not None:
                # Replicas must not share the coordinator's (or each
                # other's) randomness stream: identical (a, e) draws
                # across replicas would leak plaintext differences.  The
                # secret key — the part that must converge — is untouched.
                ctx.rng = np.random.default_rng(
                    np.random.SeedSequence(msg["reseed"])
                )
            entry = ContextEntry(
                signature=msg["signature"], scheme=ctx.scheme,
                params=ctx.params, context=ctx,
            )
            with self._guard:
                self._entries[key] = entry
        elif kind == "program":
            # The key is the coordinator's batch layout, so the batcher
            # rebuilt here is the coordinator's batcher — whatever other
            # layouts this signature has been served under.
            _signature, width, plain_width, capacity = key
            program = msg["program"]
            batcher = (SlotBatcher(program, width=width,
                                   plain_width=plain_width,
                                   max_batch=capacity) if width else None)
            with self._guard:
                self._programs[key] = (program, batcher)
        elif kind == "backend":
            with self._guard:
                self._backends[key] = msg["backend"]
        elif kind in ("drop_context", "drop_backend"):
            table, release = ((self._entries, "release")
                              if kind == "drop_context"
                              else (self._backends, "release_backend"))
            with self._guard:
                dropped = table.pop(key, None)
            # An inner process pool pinned (and replicated) it too.
            if dropped is not None and hasattr(self.executor, release):
                getattr(self.executor, release)(dropped)
        elif kind == "probe":
            with self._guard:
                entry = self._entries[key]
            return MsgType.RESULT, {
                "ok": True,
                "pid": os.getpid(),
                "secret_sha": hashlib.sha256(
                    entry.context.secret.coeffs.tobytes()
                ).hexdigest(),
                "moduli": entry.params.basis.moduli,
                # Diagnostic draw (advances this replica's stream): lets
                # tests verify replicas were reseeded apart.
                "rng_fingerprint": entry.context.rng.integers(
                    0, 2**63, 4
                ).tolist(),
                "replicated": self.state_counts(),
            }
        else:
            raise ValueError(f"unknown REPLICATE kind {kind!r}")
        return MsgType.RESULT, {"ok": True}

    def _handle_execute(self, msg: dict) -> tuple[MsgType, dict]:
        if self.chaos is not None:
            # Worker-level chaos: crash (hard exit — the kill-a-worker
            # scenario) or hang (sleep past the coordinator's watchdog).
            self.chaos.apply_execute_fault()
        with self._guard:
            entry = self._entries[msg["ctx"]]
            program, batcher = self._programs[msg["program"]]
            backend = self._backends[msg["backend"]]
            self._inflight += 1
        try:
            requests = [Request(inputs=i, plains=p, seed=s, level=lv, trace=t)
                        for i, p, s, lv, t in msg["requests"]]
            job = BatchJob(
                program=program, signature=msg["program"][0],
                requests=requests, batcher=batcher,
                backend=backend, context_entry=entry,
            )
            # Traced batches capture this replica's spans (including any
            # forwarded by an inner process pool) and ship them on the
            # reply; every reply piggybacks the replica's merged metrics
            # blob so coordinator percentiles cover worker-side time.
            tr = tracer()
            cap = (tr.capture() if any(r.trace for r in requests)
                   else nullcontext([]))
            with cap as spans:
                outputs, result = self.executor.execute(job)
            return MsgType.RESULT, {"ok": True, "outputs": outputs,
                                    "result": result, "pid": os.getpid(),
                                    "spans": spans,
                                    "metrics": self.metrics_blob()}
        finally:
            with self._guard:
                self._inflight -= 1
                self._served += 1

    def _handle_one(self, msg_type: MsgType, msg) -> tuple[MsgType, object]:
        if msg_type is MsgType.HELLO:
            version = msg.get("version")
            if version != FRAME_VERSION:
                return MsgType.ERROR, {
                    "error": f"protocol version {version} != {FRAME_VERSION}",
                    "fatal": True,
                }
            return MsgType.HELLO, {"version": FRAME_VERSION,
                                   "pid": os.getpid()}
        if msg_type is MsgType.HEARTBEAT:
            with self._guard:
                return MsgType.HEARTBEAT, {
                    "pid": os.getpid(),
                    "inflight": self._inflight,
                    "served": self._served,
                    "metrics": self.metrics_blob(),
                }
        if msg_type is MsgType.REPLICATE:
            return self._handle_replicate(msg)
        if msg_type is MsgType.EXECUTE:
            return self._handle_execute(msg)
        return MsgType.ERROR, {"error": f"unexpected message type {msg_type!r}"}

    # ----------------------------------------------------------- connection
    def serve_connection(self, conn: socket.socket) -> None:
        """One request/response loop; returns when the peer hangs up.

        Execution errors are reported as ``ERROR`` replies and the
        connection continues; framing violations get a best-effort
        ``ERROR`` reply and the connection closes, because the byte
        stream cannot be trusted to resynchronize.
        """
        try:
            peer = "%s:%s" % conn.getpeername()[:2]
        except (OSError, TypeError):   # TypeError: an unnamed socketpair end
            peer = "unknown"
        with conn:
            while True:
                try:
                    msg_type, msg = recv_msg(conn, max_frame=self.max_frame)
                except PeerClosed:
                    return
                except FrameError as exc:
                    # Peer address + typed fault class make chaos runs
                    # diagnosable from stderr alone: which link misbehaved
                    # and how (BadChecksum vs Truncated vs ...).
                    self.log.error("framing_violation", peer=peer,
                                   fault=type(exc).__name__,
                                   error=f"{type(exc).__name__}: {exc}")
                    try:
                        send_msg(conn, MsgType.ERROR, {
                            "error": f"{type(exc).__name__}: {exc}",
                            "fatal": True,
                        }, max_frame=self.max_frame)
                    except OSError:
                        pass
                    return
                except OSError:
                    return
                try:
                    reply_type, reply = self._handle_one(msg_type, msg)
                except BaseException as exc:  # noqa: BLE001 — shipped back
                    entry = (msg.get("ctx") if isinstance(msg, dict)
                             else None)
                    self.log.error("handler_failed",
                                   msg_type=msg_type.name, entry=entry,
                                   error=f"{type(exc).__name__}: {exc}")
                    reply_type, reply = MsgType.ERROR, {
                        "error": f"{type(exc).__name__}: {exc}",
                        "traceback": traceback.format_exc(),
                    }
                try:
                    send_msg(conn, reply_type, reply,
                             max_frame=self.max_frame)
                except OSError:
                    return
                if reply_type is MsgType.ERROR and reply.get("fatal"):
                    return

    def state_counts(self) -> dict:
        with self._guard:
            return {"contexts": len(self._entries),
                    "programs": len(self._programs),
                    "backends": len(self._backends)}

    def metrics_blob(self) -> dict:
        """This host's cumulative metrics: the process-global registry
        merged with any inner pool replicas' snapshots."""
        blobs = getattr(self.executor, "metrics_blobs", lambda: [])()
        snapshot = global_metrics().snapshot()
        return merge_snapshots(snapshot, *blobs) if blobs else snapshot

    def close(self) -> None:
        self.executor.close()


def serve_socketpair(conn: socket.socket, peer: socket.socket,
                     index: int) -> None:
    """Child-process entry point of one forked pool replica: serve frames
    on ``conn`` until the coordinator hangs up.

    ``peer`` is the coordinator's end, inherited through the fork; it is
    closed here so the coordinator dying reads as EOF instead of leaving
    an orphan blocked on a socket it itself keeps open.
    """
    peer.close()
    tracer().set_label(f"replica {index}")
    WorkerHost().serve_connection(conn)


def serve(host: str = "127.0.0.1", port: int = 0, *, processes: int = 0,
          max_frame: int = MAX_FRAME_BYTES, ready=None, chaos=None) -> None:
    """Bind, announce, and serve connections until interrupted.

    ``ready``, if given, is called with the bound ``(host, port)`` once
    the socket is listening (test hook).  ``chaos`` is an optional
    fault-injection spec — a :class:`~repro.net.chaos.ChaosPolicy`, a
    ``ChaosPolicy.parse`` string, or a prebuilt engine — applied to every
    accepted connection (byte-level faults) and to EXECUTE handling
    (crash/hang faults); the same seed replays the same fault schedule.
    """
    engine = None
    if chaos is not None:
        from repro.net.chaos import ChaosEngine, ChaosPolicy, ChaosSocket

        if isinstance(chaos, ChaosEngine):
            engine = chaos
        elif isinstance(chaos, str):
            engine = ChaosEngine(ChaosPolicy.parse(chaos))
        else:
            engine = ChaosEngine(chaos)
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind((host, port))
    listener.listen(32)
    bound = listener.getsockname()
    log = get_logger("repro.net.worker", host=bound[0], port=bound[1])
    worker = WorkerHost(processes=processes, max_frame=max_frame, log=log,
                        chaos=engine)
    tracer().set_label(f"worker {bound[0]}:{bound[1]}")
    # This stdout banner is machine-read by LocalCluster to discover
    # auto-assigned ports — it must stay on stdout, exactly this shape.
    print(f"repro.net.worker listening on {bound[0]}:{bound[1]}", flush=True)
    log.info("listening", pid=os.getpid(), processes=processes,
             chaos=engine.policy.spec() if engine is not None else None)
    if ready is not None:
        ready(bound)
    try:
        while True:
            conn, _ = listener.accept()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if engine is not None:
                conn = ChaosSocket(conn, engine)
            threading.Thread(
                target=worker.serve_connection, args=(conn,),
                name="net-worker-conn", daemon=True,
            ).start()
    except KeyboardInterrupt:
        pass
    finally:
        listener.close()
        worker.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.net.worker",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (0 picks a free one; the bound "
                             "address is printed on startup)")
    parser.add_argument("--processes", type=int, default=0,
                        help="run batches on an inner ProcessExecutor with "
                             "this many worker processes (0 = in-process)")
    parser.add_argument("--max-frame", type=int, default=MAX_FRAME_BYTES,
                        help="per-frame payload cap in bytes")
    parser.add_argument("--chaos", default=None, metavar="SPEC",
                        help="fault-injection spec, e.g. "
                             "'seed=7,drop=0.05,delay=0.2' (see "
                             "repro.net.chaos.ChaosPolicy.parse)")
    args = parser.parse_args(argv)
    serve(args.host, args.port, processes=args.processes,
          max_frame=args.max_frame, chaos=args.chaos)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
