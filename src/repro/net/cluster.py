"""LocalCluster: spawn N worker-host subprocesses for tests and benchmarks.

The production topology is one :mod:`repro.net.worker` per machine; this
harness reproduces it on one box by spawning N worker subprocesses on
loopback ports, so the whole network tier — framing, replication,
sharding, failover — is exercisable out of the box::

    from repro.net import LocalCluster, RemoteExecutor

    with LocalCluster(2) as cluster:
        with RemoteExecutor(cluster.addresses) as pool:
            with FheServer(executor=pool) as server:
                ...

or, all of the above in one string::

    with FheServer(executor="remote") as server:   # spawns a local cluster
        ...

Each worker is a real OS process with its own interpreter (and GIL), so
an N-host local cluster gives genuine multi-core parallelism — the same
resource the process executor taps, but reached through the wire
protocol a real multi-machine deployment would use.
"""

from __future__ import annotations

import atexit
import os
import subprocess
import sys
import time
from pathlib import Path

from repro.obs.log import get_logger

_SRC_ROOT = str(Path(__file__).resolve().parents[2])
_log = get_logger("repro.net.cluster")


def _worker_env() -> dict:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (f"{_SRC_ROOT}{os.pathsep}{existing}"
                         if existing else _SRC_ROOT)
    return env


def _start_worker(port: int, *, processes: int = 0, chaos: str | None = None):
    """Start one worker subprocess (``chaos`` is a ``ChaosPolicy.parse``
    spec string forwarded as ``--chaos``); :func:`_announced` waits for it."""
    cmd = [sys.executable, "-m", "repro.net.worker", "--port", str(port)]
    if processes:
        cmd += ["--processes", str(processes)]
    if chaos:
        cmd += ["--chaos", chaos]
    return subprocess.Popen(
        cmd, env=_worker_env(), stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True,
    )


def _announced(proc, *, processes: int = 0, startup_timeout: float = 30.0):
    """The ``(host, port)`` a started worker announces on stdout (``--port
    0`` makes the OS pick), read line by line, so callers always get a
    dialable address back."""
    deadline = time.monotonic() + startup_timeout
    lines = []
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        lines.append(line)
        if "listening on" in line:
            addr = line.rsplit(" ", 1)[-1].strip()
            host, _, bound_port = addr.rpartition(":")
            _log.info("worker_spawned", pid=proc.pid, host=host,
                      port=int(bound_port), processes=processes)
            return host, int(bound_port)
    proc.kill()
    _log.error("worker_spawn_failed", pid=proc.pid,
               output="".join(lines).strip())
    raise RuntimeError(
        "worker subprocess failed to start:\n" + "".join(lines)
    )


class LocalCluster:
    """N local worker-host subprocesses, ready to front a RemoteExecutor.

    ``processes_per_host`` forwards ``--processes`` to each worker (an
    inner process pool per host); the default keeps each host
    single-process — cross-host parallelism then comes from the cluster
    itself, one interpreter per host.

    The harness is also the failover test rig: :meth:`kill` hard-kills
    one worker (its in-flight batches fail and traffic routes around
    it), and :meth:`restart` brings a worker back *on the same port*, so
    the executor's reconnect path can be exercised deterministically.
    """

    def __init__(self, hosts: int = 2, *, processes_per_host: int = 0,
                 startup_timeout: float = 30.0, chaos=None):
        if hosts < 1:
            raise ValueError("hosts must be >= 1")
        self.processes_per_host = processes_per_host
        self.startup_timeout = startup_timeout
        #: base fault-injection policy (repro.net.chaos.ChaosPolicy) or
        #: None.  Worker ``i`` runs with seed ``base.seed + i`` so hosts
        #: fault independently yet the whole cluster's schedule replays
        #: from the single base seed — including across restart(), which
        #: re-derives the same per-index seed.
        self.chaos = None
        if chaos is not None:
            from repro.net.chaos import ChaosPolicy

            self.chaos = (ChaosPolicy.parse(chaos) if isinstance(chaos, str)
                          else chaos)
        self._procs = []
        try:
            # Every interpreter starts before any announcement is read, so
            # the hosts pay their imports side by side.
            for i in range(hosts):
                self._procs.append(_start_worker(
                    0, processes=processes_per_host, chaos=self._chaos_spec(i)))
            self._addrs = [_announced(proc, processes=processes_per_host,
                                      startup_timeout=startup_timeout)
                           for proc in self._procs]
        except BaseException:
            self.close()
            raise
        # Belt and braces: worker subprocesses must never outlive the
        # parent, even when close() is skipped (e.g. a timing harness).
        atexit.register(self.close)

    def _chaos_spec(self, index: int) -> str | None:
        if self.chaos is None:
            return None
        return self.chaos.with_seed(self.chaos.seed + index).spec()

    @property
    def addresses(self) -> list[str]:
        return [f"{host}:{port}" for host, port in self._addrs]

    def executor(self, **kw) -> "RemoteExecutor":
        """A :class:`~repro.net.remote.RemoteExecutor` over this cluster."""
        from repro.net.remote import RemoteExecutor

        return RemoteExecutor(self.addresses, **kw)

    def kill(self, index: int) -> None:
        """Hard-kill one worker (SIGKILL): the failover scenario."""
        host, port = self._addrs[index]
        _log.warning("worker_killed", index=index, host=host, port=port,
                     pid=self._procs[index].pid)
        self._procs[index].kill()
        self._procs[index].wait()

    def restart(self, index: int) -> None:
        """Respawn a (killed) worker on its original port, so an executor
        monitoring that address reconnects and re-replicates."""
        proc = self._procs[index]
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        port = self._addrs[index][1]
        deadline = time.monotonic() + self.startup_timeout
        while True:
            # The freed port can linger briefly after a SIGKILL; retry
            # until the bind succeeds or the startup budget runs out.
            new_proc = _start_worker(port, processes=self.processes_per_host,
                                     chaos=self._chaos_spec(index))
            try:
                addr = _announced(new_proc, processes=self.processes_per_host,
                                  startup_timeout=self.startup_timeout)
                break
            except RuntimeError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.2)
        self._procs[index] = new_proc
        self._addrs[index] = addr
        _log.info("worker_restarted", index=index, host=addr[0],
                  port=addr[1], pid=new_proc.pid)

    def close(self) -> None:
        for proc in self._procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self._procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()
        atexit.unregister(self.close)

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def remote_executor(hosts: int = 2, *, processes_per_host: int = 0,
                    **executor_kw) -> "RemoteExecutor":
    """A RemoteExecutor over a freshly spawned local cluster it owns.

    This is what ``FheServer(executor="remote")`` and
    ``resolve_executor("remote")`` construct: closing the executor tears
    the cluster down too, so nothing leaks worker subprocesses.
    """
    cluster = LocalCluster(hosts, processes_per_host=processes_per_host)
    try:
        executor = cluster.executor(**executor_kw)
    except BaseException:
        cluster.close()
        raise
    executor._owned_cluster = cluster
    return executor
