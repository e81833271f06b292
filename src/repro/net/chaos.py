"""Seeded, deterministic fault injection for the network serving tier.

A :class:`ChaosPolicy` is a frozen bundle of fault rates; a
:class:`ChaosEngine` turns it into an actual schedule of faults, every
decision drawn from one seeded generator — so a chaos run replays from
its seed (given the same connection/frame order, which single-threaded
tests control exactly and concurrent soaks approximate).  The injection
point is :class:`ChaosSocket`, a transparent socket wrapper the worker
installs around every accepted connection when started with
``--chaos SPEC`` (or ``LocalCluster(chaos=...)``); tests can also wrap
coordinator-side sockets directly.

Faults injected at the byte level (all surface as the typed
:class:`~repro.net.framing.FrameError` / ``OSError`` family the
transport already speaks, so chaos exercises exactly the production
failure paths):

- **drop** — the connection dies mid-exchange (reset before a send);
- **corrupt** — one byte of an outgoing frame is flipped; the peer's
  header/payload CRC rejects it before anything reaches the unpickler;
- **truncate** — only a prefix of the frame is sent, then the
  connection closes (``Truncated`` at the peer);
- **delay** — a fixed delay plus an optional heavy-tailed (Pareto)
  component before a send, modeling congested links;
- **stall** — a read stalls for ``stall_ms`` before data flows,
  modeling a wedged-but-connected peer (what execute watchdogs catch).

Faults injected at the worker level (consulted in the EXECUTE handler):

- **crash** — the worker process exits hard (``os._exit``), the
  kill-a-worker scenario without a harness;
- **hang** — the handler sleeps ``hang_s`` mid-execute, the scenario
  only a deadline-derived watchdog can unstick.

:func:`chaos_soak` is the end-to-end harness (the tier-1 soak in
``tests/test_resilience.py``; ``python -m repro.net.chaos SEED`` replays
one seed): :mod:`repro.serve.traffic` requests through a chaos-wrapped
cluster with a worker kill (and restart) mid-run, asserting that
**every** future resolves with a status in ``{ok, expired, failed,
shed}`` — zero lost futures — and that every ``ok`` result is
bit-identical (BGV) / tolerance-equal (CKKS) to a solo run.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from repro.serve.outcome import STATUSES

__all__ = [
    "ChaosPolicy",
    "ChaosEngine",
    "ChaosSocket",
    "chaos_soak",
]


@dataclass(frozen=True)
class ChaosPolicy:
    """Fault rates for one chaos schedule; all probabilities per event.

    ``parse``/``spec`` round-trip the policy through the compact
    ``key=value,...`` form the worker ``--chaos`` flag takes (rate keys
    accept short aliases: ``drop``, ``corrupt``, ``truncate``,
    ``delay``, ``stall``, ``crash``, ``hang``).
    """

    seed: int = 0
    drop_rate: float = 0.0        # connection reset before a send
    corrupt_rate: float = 0.0     # one byte of an outgoing frame flipped
    truncate_rate: float = 0.0    # frame cut short, then connection closed
    delay_rate: float = 0.0       # probability a send is delayed
    delay_ms: float = 1.0         # fixed component of an injected delay
    heavy_tail_ms: float = 0.0    # Pareto-tail component scale (0 = off)
    stall_rate: float = 0.0       # probability a read stalls
    stall_ms: float = 100.0
    crash_rate: float = 0.0       # worker exits hard during EXECUTE
    hang_rate: float = 0.0        # worker sleeps hang_s during EXECUTE
    hang_s: float = 30.0

    _ALIASES = {
        "drop": "drop_rate", "corrupt": "corrupt_rate",
        "truncate": "truncate_rate", "delay": "delay_rate",
        "stall": "stall_rate", "crash": "crash_rate", "hang": "hang_rate",
    }

    @classmethod
    def parse(cls, spec: str) -> "ChaosPolicy":
        """Parse ``"seed=7,drop=0.05,delay=0.2,delay_ms=5"`` and friends."""
        if not spec:
            return cls()
        kw: dict = {}
        valid = {f.name for f in fields(cls)}
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            key, _, value = item.partition("=")
            key = cls._ALIASES.get(key.strip(), key.strip())
            if key not in valid:
                raise ValueError(f"unknown chaos field {key!r} in {spec!r}")
            kw[key] = int(value) if key == "seed" else float(value)
        return cls(**kw)

    def spec(self) -> str:
        """The inverse of :meth:`parse` (for forwarding over a CLI)."""
        parts = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value != f.default or f.name == "seed":
                parts.append(f"{f.name}={value}")
        return ",".join(parts)

    def with_seed(self, seed: int) -> "ChaosPolicy":
        return replace(self, seed=seed)


class ChaosEngine:
    """Draws one policy's fault schedule; deterministic from the seed.

    All randomness comes from a single seeded generator guarded by a
    lock, so the decision sequence is a pure function of the seed and
    the order in which injection sites consult it.  ``fault_counts()``
    reports what actually fired, for soak diagnostics.
    """

    def __init__(self, policy: ChaosPolicy):
        self.policy = policy
        self._rng = np.random.default_rng(policy.seed)
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}

    def _count(self, name: str) -> None:
        self._counts[name] = self._counts.get(name, 0) + 1

    def fault_counts(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def _hit(self, rate: float, name: str) -> bool:
        if rate <= 0.0:
            return False
        fired = float(self._rng.random()) < rate
        if fired:
            self._count(name)
        return fired

    # -- decision draws (each consumes generator state under the lock) --
    def send_fault(self) -> str | None:
        """Which byte-level fault (if any) hits the next send."""
        with self._lock:
            for rate, name in ((self.policy.drop_rate, "drop"),
                               (self.policy.truncate_rate, "truncate"),
                               (self.policy.corrupt_rate, "corrupt")):
                if self._hit(rate, name):
                    return name
            return None

    def corrupt_offset(self, length: int) -> int:
        with self._lock:
            return int(self._rng.integers(0, max(1, length)))

    def send_delay_s(self) -> float:
        with self._lock:
            if not self._hit(self.policy.delay_rate, "delay"):
                return 0.0
            delay_ms = self.policy.delay_ms
            if self.policy.heavy_tail_ms > 0.0:
                delay_ms += float(self._rng.pareto(1.5)) \
                    * self.policy.heavy_tail_ms
            return delay_ms / 1e3

    def recv_stall_s(self) -> float:
        with self._lock:
            if self._hit(self.policy.stall_rate, "stall"):
                return self.policy.stall_ms / 1e3
            return 0.0

    def execute_fault(self) -> str | None:
        """Worker-level fault for the next EXECUTE: crash, hang, or None."""
        with self._lock:
            if self._hit(self.policy.crash_rate, "crash"):
                return "crash"
            if self._hit(self.policy.hang_rate, "hang"):
                return "hang"
            return None

    def apply_execute_fault(self) -> None:
        """Inject the drawn worker-level fault (called in the worker's
        EXECUTE handler)."""
        fault = self.execute_fault()
        if fault == "crash":
            os._exit(137)
        elif fault == "hang":
            time.sleep(self.policy.hang_s)


class ChaosSocket:
    """A socket wrapper that injects the engine's byte-level faults.

    Exposes the subset of the socket API the framing layer uses
    (``recv``/``sendall``/``settimeout``/``close``/...); everything else
    delegates to the wrapped socket.  Faults on send are raised as
    ``ConnectionResetError`` after closing the underlying socket, so
    both peers observe the failure the way a real network fault would
    present it.
    """

    def __init__(self, sock: socket.socket, engine: ChaosEngine):
        self._sock = sock
        self._engine = engine

    # -- fault-injected I/O ------------------------------------------------
    def sendall(self, data) -> None:
        delay = self._engine.send_delay_s()
        if delay > 0.0:
            time.sleep(delay)
        fault = self._engine.send_fault()
        if fault is None:
            self._sock.sendall(data)
            return
        if fault == "corrupt":
            buf = bytearray(data)
            if buf:
                buf[self._engine.corrupt_offset(len(buf))] ^= 0x5A
            self._sock.sendall(bytes(buf))
            return
        if fault == "truncate" and len(data) > 1:
            self._sock.sendall(bytes(data)[: max(1, len(data) // 2)])
        # drop (and the tail of truncate): kill the connection so the
        # peer sees a reset/short stream, and fail this side's exchange too.
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        raise ConnectionResetError(f"chaos: injected {fault}")

    def recv(self, bufsize: int) -> bytes:
        stall = self._engine.recv_stall_s()
        if stall > 0.0:
            time.sleep(stall)
        return self._sock.recv(bufsize)

    # -- passthrough -------------------------------------------------------
    def settimeout(self, timeout) -> None:
        self._sock.settimeout(timeout)

    def gettimeout(self):
        return self._sock.gettimeout()

    def setsockopt(self, *args) -> None:
        self._sock.setsockopt(*args)

    def getpeername(self):
        return self._sock.getpeername()

    def getsockname(self):
        return self._sock.getsockname()

    def shutdown(self, how) -> None:
        self._sock.shutdown(how)

    def close(self) -> None:
        self._sock.close()

    def fileno(self) -> int:
        return self._sock.fileno()

    def __enter__(self) -> "ChaosSocket":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# --------------------------------------------------------------------- soak
#: statuses a resolved future may legally carry after a chaos run
ALLOWED_STATUSES = frozenset(STATUSES)


def chaos_soak(seed: int = 0, *, hosts: int = 2, requests: int = 32,
               policy: ChaosPolicy | None = None, verbose: bool = True) -> int:
    """Synthetic traffic through a chaos-wrapped cluster; returns 0 on pass.

    The invariant under test is the resilience tier's contract: under a
    seeded schedule of drops, corrupt frames, delays and a worker
    kill + restart mid-run, **no future is ever lost** — every one
    resolves within the deadline + watchdog budget with a status in
    ``{ok, expired, failed, shed}`` — and every ``ok`` result matches a
    solo run of the same request (bit-identical BGV, tolerance CKKS).

    Requests are submitted back-to-back (no pacing); a quarter of them
    carry deadlines so the expiry/shed paths stay exercised.
    """
    import repro
    from repro.backends import FunctionalBackend
    from repro.net.cluster import LocalCluster
    from repro.serve import FheServer
    from repro.serve.traffic import (
        compare_to_solo,
        linear_bgv_program,
        poly_ckks_program,
        synthetic_requests,
    )

    if policy is None:
        policy = ChaosPolicy(seed=seed, drop_rate=0.03, corrupt_rate=0.02,
                             delay_rate=0.2, delay_ms=1.0, heavy_tail_ms=5.0)
    else:
        policy = policy.with_seed(seed)
    width = 8
    programs = [linear_bgv_program(256), poly_ckks_program(256)]
    per_program = max(2, requests // len(programs))
    traffic = [(prog, synthetic_requests(prog, per_program, width=width,
                                         seed=seed + i))
               for i, prog in enumerate(programs)]
    plan = [(prog, req) for prog, reqs in traffic for req in reqs]
    total = len(plan)
    kill_at = total // 3
    restart_at = 2 * total // 3

    futures: list = []
    with LocalCluster(hosts, chaos=policy) as cluster:
        with cluster.executor(heartbeat_s=0.1,
                              execute_timeout_s=60.0) as pool:
            with FheServer(executor=pool, workers=2, max_batch=4,
                           max_wait_ms=5.0, seed=seed) as server:
                for i, (prog, req) in enumerate(plan):
                    if i == kill_at:
                        cluster.kill(0)
                    if i == restart_at:
                        cluster.restart(0)
                    # A quarter of the traffic carries a latency budget
                    # so the expired/shed paths stay reachable; the
                    # budget is generous enough that most still serve.
                    deadline_ms = 5_000.0 if i % 4 == 0 else None
                    futures.append(server.submit(
                        prog, inputs=req.inputs, plains=req.plains,
                        width=width, deadline_ms=deadline_ms,
                    ))
                server.flush()
                lost = 0
                violations: list[str] = []
                results = []
                for i, future in enumerate(futures):
                    try:
                        results.append(future.result(timeout=180.0))
                    except Exception as exc:  # noqa: BLE001 — tallied
                        results.append(None)
                        if future.done():
                            violations.append(
                                f"request {i} raised "
                                f"{type(exc).__name__}: {exc}")
                        else:
                            lost += 1
                stats = server.stats()

    statuses: dict[str, int] = {}
    max_err = 0.0
    checked = 0
    for (prog, req), result in zip(plan, results):
        if result is None:
            continue
        statuses[result.status] = statuses.get(result.status, 0) + 1
        if result.status not in ALLOWED_STATUSES:
            violations.append(f"illegal status {result.status!r}")
            continue
        if result.status != "ok":
            continue
        # batched == solo under retries/degradation: every ok result
        # must match an isolated run of the same request.
        solo = repro.run(prog, backend=FunctionalBackend(validate=False),
                         inputs=req.inputs, plains=req.plains or None,
                         seed=seed)
        max_err = max(max_err,
                      compare_to_solo(prog, result.values, solo.outputs))
        checked += 1

    ok = lost == 0 and not violations
    if verbose:
        resilience = dict(stats.get("executor", {}).get("resilience", {}))
        resilience.update({k: stats[k] for k in
                           ("failed", "shed", "degradations")
                           if stats.get(k)})
        print(f"chaos soak {'OK' if ok else 'FAILED'}: seed={seed}, "
              f"{total} requests over {hosts} hosts")
        print(f"  statuses: {dict(sorted(statuses.items()))}, "
              f"lost={lost}, ok cross-checked={checked}, "
              f"max ckks err={max_err:.2e}")
        print(f"  resilience: {resilience}")
        for line in violations[:8]:
            print(f"  VIOLATION: {line}")
    return 0 if ok else 1


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.net.chaos",
        description="Replay one seeded chaos soak; exits non-zero on a "
                    "lost future or an ok result that differs from solo.")
    parser.add_argument("seed", type=int)
    parser.add_argument("--hosts", type=int, default=2)
    parser.add_argument("--requests", type=int, default=32)
    args = parser.parse_args()
    raise SystemExit(chaos_soak(args.seed, hosts=args.hosts,
                                requests=args.requests))
