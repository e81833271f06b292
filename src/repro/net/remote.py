"""The replica coordinator: shard flushed batches across worker replicas.

One coordinator-side implementation of the replicate/execute protocol
serves both pool kinds.  :class:`RemoteExecutor` fronts
:mod:`repro.net.worker` hosts over TCP; :class:`ProcessExecutor` is the
same coordinator over forked children, each running the same
:class:`~repro.net.worker.WorkerHost` on its end of a
``socket.socketpair()``.  The two differ only in how a connection is
(re)made — dial + HELLO vs (re)fork + socketpair — and in the
least-inflight tie-break (ring rank vs fewest dispatched).  The
invariants both inherit:

- **keygen once, converge everywhere** — every replica restores its
  context from the coordinator entry's serialized secret (workers never
  keygen), and each replica's RNG is reseeded with fresh entropy at
  replication time so no two share an encryption-randomness stream;
- **pinned replication** — entries and backends are keyed by identity
  and pinned (a strong reference) until released, so a freed entry's
  ``id()`` can never be reused and silently resolve to the wrong
  replica-side context;
- **requests carry their own seeds** — ``repro.run(..., seed=)``
  determinism holds regardless of which replica serves a request.

Routing: same-signature traffic is sharded by **consistent hash** of
``(signature, params)`` over the host ring (so one signature's hint
caches warm on a stable primary host and adding/removing a host only
remaps ``1/hosts`` of the traffic), with **least-inflight
tie-breaking** along the ring walk — an overloaded primary spills onto
the next hosts instead of queueing behind itself.  An address-less
local pool has no ring: least in-flight, then fewest dispatched.

Self-healing: a monitor thread heartbeats every host.  A host that
misses its heartbeat (or fails a send mid-batch) is marked dead: its
sockets are shut down so in-flight batches fail immediately with a
distinct error instead of hanging, new traffic routes around it, and
the monitor keeps reconnecting (redialing a host, re-forking a local
replica) until it returns — at which point its replication sets start
empty (and its inflight/latency stats reset, so least-inflight routing
is not skewed by the bounced process), and everything it needs
re-replicates on first use.

Resilience (PR 9): a failed batch does not poison its futures.
``execute`` retries transport-level failures on surviving replicas with
capped, deadline-aware exponential backoff + jitter — safe because
execution is pure and seeds ride the requests, so a re-executed batch
is bit-identical and *batched == solo* is preserved.  Each EXECUTE
exchange runs under a watchdog timeout derived from the batch's
earliest request deadline (a hung worker times out and the batch moves
on instead of stranding futures); per-host circuit breakers (closed →
open on consecutive failures → half-open probe via the heartbeat) feed
the ring walk so routing skips sick hosts before paying a timeout.  When
the retry budget is spent the typed error chain surfaces as
:class:`~repro.serve.resilience.RetriesExhausted` (the server resolves
futures with ``status == "failed"``); when no host is routable at all,
:class:`~repro.serve.resilience.ExecutorUnavailable` (the server
degrades to its embedded local fallback).
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import multiprocessing
import random
import socket
import threading
import time

import numpy as np

from repro.backends import FunctionalBackend, RunResult
from repro.obs.metrics import Histogram, global_metrics
from repro.obs.trace import tracer
from repro.net.framing import (
    FRAME_VERSION,
    MAX_FRAME_BYTES,
    FrameError,
    MsgType,
    recv_msg,
    send_msg,
    socket_timeout,
)
from repro.serve.executor import (
    BatchJob,
    ThreadExecutor,
    pick_least_inflight,
)
from repro.serve.registry import ContextEntry
from repro.serve.resilience import (
    CircuitBreaker,
    ExecutorUnavailable,
    HostFailure,
    RetriesExhausted,
    RetryPolicy,
)

#: virtual nodes per host on the consistent-hash ring; enough that the
#: load split stays near-uniform for small pools.
VNODES = 64


def shard_key(signature: str, params) -> int:
    """The consistent-hash shard key for one ``(signature, params)`` pair.

    Hashes the structural identity only (signature, scheme-independent
    parameter fingerprint) — two coordinators serving the same traffic
    shard it identically.
    """
    material = (
        f"{signature}|{params.n}|{params.plaintext_modulus}|"
        f"{','.join(map(str, params.basis.moduli))}"
    )
    return int.from_bytes(
        hashlib.sha256(material.encode()).digest()[:8], "big"
    )


def _ring_point(token: str) -> int:
    return int.from_bytes(hashlib.sha256(token.encode()).digest()[:8], "big")


class _Channel:
    """One command connection to a host; ``lock`` serializes its
    request/response exchanges (the per-host parallelism unit)."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.lock = threading.Lock()


class _Host:
    """Coordinator-side handle for one replica: a worker host at ``addr``,
    or an address-less local replica (a forked child) when ``addr`` is
    ``None``."""

    def __init__(self, addr: tuple[str, int] | None, index: int):
        self.addr = addr
        self.index = index
        self.label = f"{addr[0]}:{addr[1]}" if addr else f"local:{index}"
        self.channels: list[_Channel] = []
        self.hb_sock: socket.socket | None = None
        self.hb_lock = threading.Lock()
        self.state_lock = threading.Lock()
        #: ("context"|"program"|"backend", key) -> Event set once
        #: replication completed; waiters on other channels block until
        #: the owner's RESULT lands.
        self.replicated: dict[tuple, threading.Event] = {}
        self.dead = True          # comes alive on first successful connect
        self.inflight = 0
        self.dispatched = 0
        self.failed = 0
        self.reconnects = -1      # first connect is not a *re*connect
        #: bumped on every (re)connect; slots picked against an older
        #: epoch do not decrement the fresh inflight counter on release
        self.epoch = 0
        #: per-host circuit breaker (assigned by the executor, which owns
        #: the transition telemetry)
        self.breaker: CircuitBreaker | None = None
        #: round-trip latency distribution (mergeable obs histogram —
        #: the same bucket layout every other layer reports through)
        self.latencies_ms = Histogram()
        self.remote: dict = {}    # last heartbeat reply (pid, load)
        #: latest metrics blob piggybacked on a HEARTBEAT or RESULT
        #: reply (cumulative per replica process, so latest-wins folds)
        self.metrics: dict | None = None
        self._rr = itertools.count()

    def next_channel(self) -> _Channel:
        channels = self.channels
        if not channels:
            raise HostFailure(
                f"worker host {self.label} has no live connection",
                self.index)
        return channels[next(self._rr) % len(channels)]


def _dial(addr: tuple[str, int], *, timeout: float,
          max_frame: int) -> socket.socket:
    """Connect and complete the HELLO handshake; returns a blocking socket."""
    sock = socket.create_connection(addr, timeout=timeout)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        send_msg(sock, MsgType.HELLO, {"version": FRAME_VERSION},
                 max_frame=max_frame)
        msg_type, reply = recv_msg(sock, max_frame=max_frame)
        if msg_type is not MsgType.HELLO:
            raise ConnectionError(
                f"worker {addr} rejected the handshake: "
                f"{reply.get('error') if isinstance(reply, dict) else reply}"
            )
        sock.settimeout(None)
        return sock
    except BaseException:
        sock.close()
        raise


def _parse_addr(host) -> tuple[str, int] | None:
    if host is None:   # an address-less local replica
        return None
    if isinstance(host, tuple):
        return (host[0], int(host[1]))
    name, _, port = str(host).rpartition(":")
    return (name or "127.0.0.1", int(port))


class RemoteExecutor:
    """Runs functional batches on a pool of remote worker hosts.

    ``hosts`` is a list of ``"host:port"`` strings or ``(host, port)``
    tuples (``None`` entries are address-less local replicas — see
    :class:`ProcessExecutor`); ``channels`` command connections are
    opened per host, so a host can execute that many batches
    concurrently (pair with worker ``--processes``).  Backends that do
    not execute encrypted values (f1/cpu/heax models, the plaintext
    reference) have no per-replica state worth replicating and fall back
    to an inner :class:`ThreadExecutor`.

    Failure policy knobs: ``retry`` is the
    :class:`~repro.serve.resilience.RetryPolicy` for transport-level
    batch failures (pass ``RetryPolicy(max_attempts=1)`` to restore the
    PR 7 fail-fast behavior); ``execute_timeout_s`` is the watchdog for
    deadline-free batches (deadline-carrying batches derive theirs from
    the deadline plus ``watchdog_grace_s``).  ``breaker_failures``
    consecutive transport failures open a host's circuit breaker for
    ``breaker_reset_s``; a successful heartbeat then closes it (the
    half-open probe).
    """

    name = "remote"

    def __init__(self, hosts, *, channels: int = 2,
                 heartbeat_s: float = 0.25, heartbeat_timeout: float = 2.0,
                 connect_timeout: float = 10.0,
                 max_frame: int = MAX_FRAME_BYTES,
                 retry: RetryPolicy | None = None,
                 execute_timeout_s: float | None = 120.0,
                 watchdog_grace_s: float = 2.0,
                 breaker_failures: int = 3, breaker_reset_s: float = 1.0):
        addrs = [_parse_addr(h) for h in hosts]
        if not addrs:
            raise ValueError("at least one worker host is required")
        self.channels = max(1, channels)
        self.heartbeat_s = heartbeat_s
        self.heartbeat_timeout = heartbeat_timeout
        self.connect_timeout = connect_timeout
        self.max_frame = max_frame
        self.retry = retry if retry is not None else RetryPolicy()
        self.execute_timeout_s = execute_timeout_s
        self.watchdog_grace_s = watchdog_grace_s
        self._jitter_rng = random.Random()
        #: resilience transition counters (also mirrored into the
        #: process-global metrics registry as net.* counters)
        self._events_lock = threading.Lock()
        self._events = {"retries": 0, "retry_exhausted": 0,
                        "breaker_opens": 0, "breaker_closes": 0}
        self._fallback = ThreadExecutor()
        self._guard = threading.Lock()
        # ("context"|"backend", id(obj)) -> (replication key, strong
        # reference).  The reference pins the entry/backend alive until
        # release() or close(), so a freed object's id can never be
        # reused by a different one and silently resolve to the wrong
        # replica-side state.  Backends are pinned like entries: shipped
        # once, then referenced by key on every EXECUTE (a context-bound
        # backend would otherwise re-serialize its context per batch).
        self._pinned: dict[tuple[str, int], tuple[int, object]] = {}
        self._key_counter = itertools.count()
        self._closed = False
        self._owned_cluster = None   # set by cluster.remote_executor
        self._hosts = [_Host(addr, i) for i, addr in enumerate(addrs)]
        for host in self._hosts:
            host.breaker = CircuitBreaker(
                failure_threshold=breaker_failures,
                reset_after_s=breaker_reset_s,
                on_transition=(lambda old, new, h=host:
                               self._breaker_transition(h, old, new)),
            )
        # Only addressed hosts sit on the ring; a local pool has none.
        ring = sorted((_ring_point(f"{host.label}#{v}"), host.index)
                      for host in self._hosts if host.addr
                      for v in range(VNODES))
        self._ring_points = [p for p, _ in ring]
        self._ring_hosts = [i for _, i in ring]
        errors = []
        for host in self._hosts:
            try:
                self._connect_host(host)
            except OSError as exc:
                errors.append(f"{host.label}: {exc}")
        if all(h.dead for h in self._hosts):
            raise ConnectionError(
                "could not reach any worker host: " + "; ".join(errors)
            )
        self._monitor_stop = threading.Event()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="remote-executor-monitor",
            daemon=True,
        )
        self._monitor.start()

    # --------------------------------------------------------------- events
    def _note_event(self, name: str, n: int = 1) -> None:
        with self._events_lock:
            self._events[name] += n
        global_metrics().counter(f"net.{name}").inc(n)

    def _breaker_transition(self, host: _Host, old: str, new: str) -> None:
        """Breaker state changes feed telemetry: counters + trace events
        (called from inside the breaker; must not re-enter it)."""
        if new == CircuitBreaker.OPEN:
            self._note_event("breaker_opens")
        elif old == CircuitBreaker.OPEN or new == CircuitBreaker.CLOSED:
            self._note_event("breaker_closes")
        tracer().event("breaker", addr=host.label, old=old, new=new)

    # ----------------------------------------------------------- connections
    def _open(self, host: _Host) -> tuple[list[socket.socket],
                                          socket.socket | None]:
        """Make the connections to one replica: ``(command sockets,
        heartbeat socket or None)``.  This is the one thing a worker
        host and a forked replica differ in — here, dial + HELLO."""
        socks = [_dial(host.addr, timeout=self.connect_timeout,
                       max_frame=self.max_frame)
                 for _ in range(self.channels + 1)]
        hb = socks.pop()
        hb.settimeout(self.heartbeat_timeout)
        return socks, hb

    def _connect_host(self, host: _Host) -> None:
        """(Re)establish every connection to one host; resets its
        replication sets, so state re-replicates on first use."""
        socks, hb = self._open(host)
        with host.state_lock:
            host.channels = [_Channel(sock) for sock in socks]
            host.hb_sock = hb
            host.replicated = {}
            host.dead = False
            host.reconnects += 1
        with self._guard:
            # A bounced host is a fresh process: stale inflight counts
            # and the old process's latency distribution must not skew
            # least-inflight routing against (or toward) it.  The epoch
            # bump makes slots picked before the bounce release as
            # no-ops instead of driving the fresh counter negative.
            host.epoch += 1
            host.inflight = 0
            host.latencies_ms.reset()

    def _mark_dead(self, host: _Host) -> None:
        """Route around a host and fail whatever is in flight on it.

        Shutting the sockets down unblocks any thread mid-``recv`` with
        an immediate error — an unreachable host fails its batches with
        a distinct error instead of hanging them.
        """
        with host.state_lock:
            if host.dead:
                return
            host.dead = True
            socks = [c.sock for c in host.channels]
            if host.hb_sock is not None:
                socks.append(host.hb_sock)
            host.channels = []
            host.hb_sock = None
            host.replicated = {}
        for sock in socks:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()

    def _monitor_loop(self) -> None:
        while not self._monitor_stop.wait(self.heartbeat_s):
            for host in self._hosts:
                if self._monitor_stop.is_set():
                    return
                if host.dead:
                    try:
                        self._connect_host(host)
                    except OSError:
                        continue
                try:
                    with host.hb_lock:
                        sock = host.hb_sock
                        if sock is None:
                            continue
                        send_msg(sock, MsgType.HEARTBEAT, {},
                                 max_frame=self.max_frame)
                        msg_type, reply = recv_msg(sock,
                                                   max_frame=self.max_frame)
                    if msg_type is MsgType.HEARTBEAT:
                        metrics = (reply.pop("metrics", None)
                                   if isinstance(reply, dict) else None)
                        if metrics is not None:
                            host.metrics = metrics
                        host.remote = reply
                        # The heartbeat doubles as the breaker's
                        # half-open probe: once an OPEN breaker ages
                        # into half-open, the next heartbeat success
                        # closes it and readmits the host to routing.
                        # (Execute successes reset the failure count in
                        # the closed state; heartbeats do not, so they
                        # cannot mask a host that fails every batch.)
                        if host.breaker.state == CircuitBreaker.HALF_OPEN:
                            host.breaker.record_success()
                except (OSError, FrameError, ConnectionError):
                    self._mark_dead(host)
                    host.breaker.record_failure()

    # -------------------------------------------------------------- routing
    def _candidates(self, key: int) -> list[tuple[int, _Host]]:
        """Routable hosts in ring-walk order from ``key``: (rank, host).

        A host is routable when it is alive *and* its circuit breaker
        admits traffic (closed or half-open) — an open breaker takes a
        sick-but-connected host out of rotation before anyone pays a
        timeout on it.  A ring-less local pool walks in index order.
        """
        n = len(self._ring_hosts)
        start = bisect.bisect_left(self._ring_points, key)
        walk = ((self._ring_hosts[(start + step) % n] for step in range(n))
                if n else range(len(self._hosts)))
        seen: set[int] = set()
        ordered: list[tuple[int, _Host]] = []
        for idx in walk:
            if idx in seen:
                continue
            seen.add(idx)
            host = self._hosts[idx]
            if not host.dead and host.breaker.would_allow():
                ordered.append((len(ordered), host))
            if len(seen) == len(self._hosts):
                break
        return ordered

    def _pick(self, signature: str, entry: ContextEntry,
              exclude: frozenset | set = frozenset(),
              ) -> tuple[_Host, int, int]:
        """Pick ``(host, ring rank, epoch)``; ``exclude`` holds indices of
        hosts that just failed this batch — honored when any other host
        is routable, ignored otherwise (a lone recovered host is better
        than none)."""
        with self._guard:
            if self._closed:
                raise RuntimeError("executor is closed")
            candidates = self._candidates(shard_key(signature, entry.params))
            if not candidates:
                raise ExecutorUnavailable(
                    "no routable worker hosts (dead or breaker-open); "
                    "batches fail over or degrade rather than hang"
                )
            preferred = [(r, h) for r, h in candidates
                         if h.index not in exclude]
            if preferred:
                candidates = preferred
            rank = {id(host): r for r, host in candidates}
            # Ties break by ring rank (an idle cluster keeps a signature
            # on its stable primary) or, without a ring, by fewest
            # dispatched (an idle local pool round-robins).
            host = pick_least_inflight(
                [host for _, host in candidates],
                tiebreak=((lambda h: rank[id(h)]) if self._ring_hosts
                          else None),
            )
            host.inflight += 1
            host.dispatched += 1
            return host, rank[id(host)], host.epoch

    def _release_slot(self, host: _Host, epoch: int) -> None:
        with self._guard:
            # Slots from before a reconnect are stale: the fresh process
            # started with inflight == 0 and owes them nothing.
            if host.epoch == epoch and host.inflight > 0:
                host.inflight -= 1

    # ---------------------------------------------------------- replication
    def _key(self, tag: str, obj) -> int:
        """The replication key of an entry (``"context"``) or backend
        (``"backend"``), pinning the object on first sight."""
        with self._guard:
            known = self._pinned.get((tag, id(obj)))
            if known is None:
                known = (next(self._key_counter), obj)
                self._pinned[(tag, id(obj))] = known
            return known[0]

    def _fail(self, host: _Host, why: str) -> HostFailure:
        """A transport-level failure on ``host`` (death, watchdog
        timeout, stream desync): route around it and type the error as
        retryable — the batch fails over to a survivor instead of
        failing its futures."""
        self._mark_dead(host)
        host.breaker.record_failure()
        with self._guard:
            host.failed += 1
        return HostFailure(f"worker host {host.label} {why}", host.index)

    def _call(self, host: _Host, channel: _Channel, msg_type: MsgType,
              message: dict) -> dict:
        """One request/response exchange (caller holds ``channel.lock``)."""
        try:
            send_msg(channel.sock, msg_type, message,
                     max_frame=self.max_frame)
            reply_type, reply = recv_msg(channel.sock,
                                         max_frame=self.max_frame)
        except (OSError, FrameError, ConnectionError) as exc:
            raise self._fail(
                host, f"died mid-call ({type(exc).__name__}: {exc}); the "
                      f"batch fails over and the host will be reconnected"
            ) from None
        if reply_type is MsgType.ERROR:
            if reply.get("fatal"):
                # Framing violations desynchronize the stream — the
                # host is healthy-ish but this connection set is not;
                # treat like a transport failure so the batch retries.
                raise self._fail(
                    host, f"rejected the stream: {reply.get('error')}")
            # Non-fatal ERROR = remote execution error: deterministic
            # (execution is pure), so retrying elsewhere would fail
            # identically — surface it without retry.
            raise RuntimeError(
                f"worker host {host.label} failed: "
                f"{reply.get('error')}\n{reply.get('traceback', '')}"
            )
        return reply

    def _ship_once(self, host: _Host, channel: _Channel, tag: str, key,
                   payload: dict) -> None:
        """Replicate one piece of state to ``host`` exactly once.

        The first channel to need it ships it (holding its own channel
        lock); concurrent channels wait on the completion event rather
        than shipping duplicates — and, crucially, rather than sending an
        EXECUTE that references a key the worker has not seen yet.
        """
        with host.state_lock:
            if host.dead:
                raise HostFailure(f"worker host {host.label} is down",
                                  host.index)
            event = host.replicated.get((tag, key))
            owner = event is None
            if owner:
                event = threading.Event()
                host.replicated[(tag, key)] = event
        if owner:
            try:
                self._call(host, channel, MsgType.REPLICATE,
                           {"kind": tag, "key": key, **payload})
            except BaseException:
                with host.state_lock:
                    if host.replicated.get((tag, key)) is event:
                        del host.replicated[(tag, key)]
                event.set()   # wake waiters; they re-check and re-ship
                raise
            event.set()
        elif not event.wait(timeout=60.0):
            raise HostFailure(
                f"timed out waiting for replication to {host.label}",
                host.index)
        elif (tag, key) not in host.replicated:
            # The owner failed after we started waiting; one retry ships
            # it ourselves (recursion depth is bounded by the retry).
            self._ship_once(host, channel, tag, key, payload)

    def _ship_context(self, host: _Host, channel: _Channel,
                      entry: ContextEntry, key: int) -> int:
        """Ship one entry's serialized state (``to_state()``: params,
        secret coefficients, RNG state — derived caches are rebuilt
        replica-side, never shipped); returns the authoritative key."""
        with self._guard:
            # Re-pin under the guard (a concurrent release may have
            # unpinned the entry between key capture and now), keeping
            # any newer key, so whatever ships below stays reachable —
            # and therefore evictable — from the pin map.
            key = self._pinned.setdefault(("context", id(entry)),
                                          (key, entry))[0]
        self._ship_once(host, channel, "context", key, {
            "state": entry.context.to_state(),
            "signature": entry.signature,
            # Fresh entropy per (replica, entry): no two replicas (nor
            # the coordinator) share an encryption-randomness stream.
            "reseed": np.random.SeedSequence().entropy,
        })
        return key

    def _ensure_replicated(self, host: _Host, channel: _Channel,
                           job: BatchJob, key: int,
                           backend_key: int) -> tuple[int, tuple]:
        """Ship context/program/backend state to ``host`` once; returns
        the authoritative ``(context key, program key)``.

        The program key carries the batch layout — ``(signature, width,
        plain_width, capacity)``, zeros for unbatched traffic — so the
        replica rebuilds exactly the coordinator's batcher even when one
        signature is served under several layouts.
        """
        key = self._ship_context(host, channel, job.context_entry, key)
        b = job.batcher
        program_key = (job.signature,) + (
            (b.width, b.plain_width, b.capacity) if b is not None
            else (0, 0, 0))
        self._ship_once(host, channel, "program", program_key,
                        {"program": job.program})
        self._ship_once(host, channel, "backend", backend_key,
                        {"backend": job.backend})
        return key, program_key

    # ---------------------------------------------------------------- public
    def _watchdog_s(self, deadline: float | None) -> float | None:
        """Per-exchange timeout: the batch's remaining deadline budget
        plus grace, or the flat ``execute_timeout_s`` with no deadline.
        A hung worker times out (an ``OSError``, so the normal mark-dead
        + retry path runs) instead of stranding the batch's futures."""
        if deadline is None:
            return self.execute_timeout_s
        return max(deadline - time.perf_counter(), 0.05) + self.watchdog_grace_s

    def _attempt(self, job: BatchJob, key: int, backend_key: int,
                 deadline: float | None,
                 exclude: frozenset | set = frozenset(),
                 ) -> tuple[list[dict], RunResult]:
        """One dispatch attempt on one host (raises HostFailure /
        ExecutorUnavailable for retryable conditions)."""
        host, _rank, epoch = self._pick(job.signature, job.context_entry,
                                        exclude=exclude)
        start = time.perf_counter()
        try:
            channel = host.next_channel()
            with channel.lock:
                with socket_timeout(channel.sock, self._watchdog_s(deadline)):
                    key, program_key = self._ensure_replicated(
                        host, channel, job, key, backend_key)
                    reply = self._call(host, channel, MsgType.EXECUTE, {
                        "ctx": key, "program": program_key,
                        "backend": backend_key,
                        "requests": [(r.inputs, r.plains, r.seed, r.level,
                                      getattr(r, "trace", None))
                                     for r in job.requests],
                    })
            host.breaker.record_success()
            host.latencies_ms.observe((time.perf_counter() - start) * 1e3)
            # Fold the replica's observability payload into the
            # coordinator: spans it captured for traced requests, its
            # cumulative metrics blob, and which replica served the batch.
            tracer().ingest(reply.get("spans"))
            if reply.get("metrics") is not None:
                host.metrics = reply["metrics"]
            result = reply["result"]
            if isinstance(result.stats, dict):
                inner = result.stats.get("executed_on") or {}
                result.stats["executed_on"] = {
                    "executor": self.name,
                    "replica": host.index,
                    "addr": host.label,
                    "pid": reply.get("pid"),
                    "via": inner.get("executor"),
                }
            return reply["outputs"], result
        except OSError as exc:
            # Another dispatch (or the monitor) marked the host dead and
            # closed this channel after next_channel() handed it out: the
            # watchdog's settimeout then raises EBADF outside _call.  The
            # same transport failure, so it takes the same retry path.
            raise self._fail(
                host, f"closed the connection under a dispatch "
                      f"({type(exc).__name__}: {exc})") from None
        finally:
            self._release_slot(host, epoch)

    def execute(self, job: BatchJob) -> tuple[list[dict], RunResult]:
        backend = job.backend
        if not isinstance(backend, FunctionalBackend) or job.context_entry is None:
            return self._fallback.execute(job)
        key = self._key("context", job.context_entry)
        backend_key = self._key("backend", backend)
        deadline = job.deadline
        failures = 0
        causes: list[BaseException] = []
        exclude: set[int] = set()
        while True:
            try:
                return self._attempt(job, key, backend_key, deadline,
                                     exclude=exclude)
            except (HostFailure, ExecutorUnavailable) as exc:
                causes.append(exc)
                failures += 1
                failed_host = getattr(exc, "host_index", None)
                if failed_host is not None:
                    # Prefer a different host on the next attempt (soft:
                    # _pick ignores the exclusion when it would leave no
                    # candidate, so a lone restarted host still serves).
                    exclude = {failed_host}
                remaining = (None if deadline is None
                             else deadline - time.perf_counter())
                delay = self.retry.backoff_s(failures, rng=self._jitter_rng,
                                             remaining_s=remaining)
                if delay is None:
                    self._note_event("retry_exhausted")
                    if isinstance(exc, ExecutorUnavailable):
                        # Nothing routable at all: let the server degrade
                        # to its embedded local fallback.
                        raise
                    raise RetriesExhausted(
                        f"batch for {job.signature[:16]} failed "
                        f"{failures} attempt(s); last: {exc}",
                        causes=causes,
                    ) from exc
                self._note_event("retries")
                tracer().event("retry", signature=job.signature[:16],
                               attempt=failures, delay_ms=delay * 1e3,
                               error=type(exc).__name__)
                time.sleep(delay)

    def release(self, entry: ContextEntry) -> None:
        """Unpin a replicated entry and evict it from every live replica.

        Replication pins each entry (and its growing hint caches) for
        the pool's lifetime — the right default for steady traffic, but
        a long-lived pool cycling through many ``(signature, params)``
        combinations should release retired entries, or memory grows
        without bound on both sides of the wire.  Releasing an entry
        that was never replicated is a no-op; a later batch for it
        simply replicates again.  Backends follow the same pinning
        scheme (a context-bound backend can be as heavy as an entry) —
        retire one with :meth:`release_backend`.
        """
        self._unpin("context", entry)

    def release_backend(self, backend) -> None:
        """Unpin a shipped backend and evict it from every live replica
        (see :meth:`release`)."""
        self._unpin("backend", backend)

    def _unpin(self, tag: str, obj) -> None:
        with self._guard:
            known = self._pinned.pop((tag, id(obj)), None)
        if known is None:
            return
        key = known[0]
        for host in self._hosts:
            with host.state_lock:
                held = not host.dead and (tag, key) in host.replicated
                if held:
                    del host.replicated[(tag, key)]
            if not held:
                continue
            try:
                channel = host.next_channel()
                with channel.lock:
                    self._call(host, channel, MsgType.REPLICATE,
                               {"kind": f"drop_{tag}", "key": key})
            except RuntimeError:
                pass   # a dead host forgot everything anyway

    def probe(self, entry: ContextEntry) -> list[dict]:
        """Replicate ``entry`` to every live replica and report each
        one's view.

        Diagnostic/test hook for the replication invariant: every
        replica must hold the coordinator's secret (same ``secret_sha``)
        in a distinct process (different ``pid``) with its RNG seeded
        apart — workers never keygen on their own.
        """
        key = self._key("context", entry)
        out = []
        for host in self._hosts:
            if host.dead:
                continue
            channel = host.next_channel()
            with channel.lock:
                key = self._ship_context(host, channel, entry, key)
                out.append(self._call(host, channel, MsgType.REPLICATE,
                                      {"kind": "probe", "key": key}))
        return out

    def stats(self) -> dict:
        """Per-replica observability: inflight/dispatched/latency/reconnects.

        Surfaces through ``FheServer.stats()["executor"]`` — the README's
        telemetry section documents the schema.
        """
        with self._guard:
            hosts = [{
                "addr": host.label,
                "alive": not host.dead,
                "breaker": host.breaker.state,
                "inflight": host.inflight,
                "dispatched": host.dispatched,
                "failed": host.failed,
                "reconnects": max(host.reconnects, 0),
                "latency_ms": host.latencies_ms.summary(),
                "remote": dict(host.remote),
            } for host in self._hosts]
            out = {
                "executor": self.name,
                "hosts": hosts,
                "dispatched": sum(h["dispatched"] for h in hosts),
                "dispatched_per_replica": [h["dispatched"] for h in hosts],
                "inflight_per_replica": [h["inflight"] for h in hosts],
                "replicated_contexts": [
                    sum(tag == "context" for tag, _ in list(host.replicated))
                    for host in self._hosts],
                "reconnects": sum(h["reconnects"] for h in hosts),
                "fallback": self._fallback.stats(),
            }
        with self._events_lock:
            out["resilience"] = dict(self._events)
        return out

    def healthy(self) -> bool:
        """True when at least one host is routable (alive with a closed
        or half-open breaker).  The server consults this while degraded
        to decide when to hand traffic back to the pool."""
        return any(not h.dead and h.breaker.would_allow()
                   for h in self._hosts)

    def metrics_blobs(self) -> list[dict]:
        """Latest metrics snapshot from each replica (piggybacked on
        HEARTBEAT and RESULT replies; cumulative per replica process),
        for the server to merge into its registry."""
        with self._guard:
            return [h.metrics for h in self._hosts if h.metrics]

    def close(self) -> None:
        with self._guard:
            if self._closed:
                return
            self._closed = True
        self._monitor_stop.set()
        self._monitor.join(timeout=5)
        for host in self._hosts:
            host.dead = False   # force the socket teardown below
            self._mark_dead(host)
        with self._guard:
            self._pinned.clear()
        self._fallback.close()
        if self._owned_cluster is not None:
            self._owned_cluster.close()
            self._owned_cluster = None

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: Local replicas are forked where the platform can (children inherit
#: the warmed interpreter: no re-import, copy-on-write pages); elsewhere
#: the platform's default start method applies.
_MP = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else None)


class ProcessExecutor(RemoteExecutor):
    """Runs functional batches on a pool of forked worker processes.

    The same coordinator as :class:`RemoteExecutor`, over ``processes``
    address-less local replicas: each is a child process running a
    :class:`~repro.net.worker.WorkerHost` on its end of a
    ``socket.socketpair()``.  Replicas are forked at construction (create
    the executor *before* starting server threads).  The first batch of
    each ``(signature, params)`` replicates the registry entry's context
    into the chosen replica from its serialized keys — amortized exactly
    like the registry's keygen — and later batches of that signature
    shard across replicas by least-in-flight.  Each replica
    owns its context copy (and its own execution gate) outright, so
    traffic runs in true parallel on multi-core hosts.

    What differs from a TCP host is only how a connection is (re)made: a
    dead replica (killed, hung past the watchdog, or desynchronized) is
    re-forked by the monitor with an empty replication set.  Retry,
    breakers and the deadline watchdog apply unchanged.
    """

    name = "process"

    def __init__(self, processes: int = 2):
        if processes < 1:
            raise ValueError("processes must be >= 1")
        self.processes = processes
        self._procs: list = [None] * processes
        # One command channel per replica (a replica runs one batch at a
        # time) and no heartbeat socket: a dead child is seen as EOF on
        # the next exchange, so the monitor period only bounds how long
        # a dead replica waits for its re-fork.
        super().__init__([None] * processes, channels=1, heartbeat_s=0.05)

    def _open(self, host: _Host):
        """(Re)fork replica ``host.index`` onto a fresh socketpair."""
        from repro.net.worker import serve_socketpair  # imports this module

        old = self._procs[host.index]
        if old is not None:
            old.kill()   # no-op when it already exited
            old.join(timeout=5)
        ours, theirs = socket.socketpair()
        proc = _MP.Process(
            target=serve_socketpair, args=(theirs, ours, host.index),
            name=f"fhe-executor-{host.index}", daemon=True,
        )
        proc.start()
        theirs.close()
        self._procs[host.index] = proc
        return [ours], None

    def stats(self) -> dict:
        return {**super().stats(), "processes": self.processes}

    def close(self) -> None:
        super().close()   # shuts the socketpairs down: children see EOF
        for proc in filter(None, self._procs):
            proc.join(timeout=5)
            if proc.is_alive():
                proc.kill()
