"""Network tier: framing, remote execution, failover, and eviction.

The wire invariants:

- frames round-trip exactly; oversized/garbage/truncated/corrupted input
  is rejected with a typed ``FrameError`` *before* anything is unpickled,
  and a live worker — a TCP host or a forked socketpair replica —
  answers such input with a clean ``ERROR`` reply;
- the replica-side batcher is the coordinator's batcher: one pool serves
  one signature under several batch layouts, bit-identically;
- a ``RemoteExecutor``-served batch is bit-identical (BGV) /
  tolerance-equal (CKKS) to in-process execution, whichever host serves
  it — hosts restore the coordinator's secret and never keygen;
- killing a worker mid-load loses no request: every in-flight batch is
  retried transparently on a surviving host (execution is pure and
  seeded, so the re-run is bit-identical), never hangs, and the dead
  host is routed around until it reconnects (at which point state
  re-replicates);
- released entries are evicted host-side, so long-lived pools do not
  accumulate contexts without bound.
"""

import pickle
import socket
import time
import zlib
from contextlib import ExitStack, contextmanager

import numpy as np
import pytest

from repro.backends import FunctionalBackend
from repro.dsl.program import Program
from repro.net import (
    FrameError,
    FrameTooLarge,
    LocalCluster,
    MsgType,
    RemoteExecutor,
    decode_frame,
    encode_frame,
    recv_msg,
    send_msg,
    shard_key,
)
from repro.net import framing
from repro.net.framing import FRAME_VERSION, HEADER_BYTES, Truncated
from repro.net.remote import _MP
from repro.net.worker import serve_socketpair
from repro.serve import (
    BatchJob,
    FheServer,
    ProcessExecutor,
    ProgramRegistry,
    Request,
    RetryPolicy,
    SlotBatcher,
    ThreadExecutor,
    resolve_executor,
)

N = 256
WIDTH = 8


def linear_bgv(n=N, level=3):
    p = Program(n=n, scheme="bgv", name="net_linear")
    x = p.input(level, name="x")
    w = p.input_plain(level, name="w")
    p.output(p.mul_plain(x, w))
    return p


def poly_ckks(n=N, level=4):
    p = Program(n=n, scheme="ckks", name="net_poly")
    x, y = p.input(level), p.input(level)
    p.output(p.add(p.mul(x, y), x))
    return p


def rotate_bgv(n=N, level=2):
    """BGV rotation: unbatchable, exercises the singly execution mode."""
    p = Program(n=n, scheme="bgv", name="net_rotator")
    x = p.input(level, name="x")
    p.output(p.rotate(x, 1))
    return p


def bgv_job(registry, count=4, *, seed=0):
    program = linear_bgv()
    x, w = (op.op_id for op in program.ops[:2])
    rng = np.random.default_rng(seed)
    shared_w = rng.integers(0, 256, WIDTH)
    requests = [Request(inputs={x: rng.integers(0, 256, WIDTH)},
                        plains={w: shared_w}) for _ in range(count)]
    entry, _ = registry.context_for(program, seed=11)
    return BatchJob(
        program=program, signature=program.signature(), requests=requests,
        batcher=SlotBatcher(program, width=WIDTH),
        backend=FunctionalBackend(validate=False), context_entry=entry,
    ), entry


@pytest.fixture(scope="module")
def cluster():
    """One 2-host local cluster shared by the non-destructive tests."""
    with LocalCluster(2) as c:
        yield c


@pytest.fixture(scope="module")
def pool(cluster):
    with cluster.executor() as executor:
        yield executor


# ------------------------------------------------------------------- framing
class TestFraming:
    def test_roundtrip_property(self):
        rng = np.random.default_rng(7)
        types = list(MsgType)
        for size in (0, 1, 13, 255, 4096, 1 << 17):
            payload = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
            msg_type = types[int(rng.integers(len(types)))]
            got_type, got = decode_frame(encode_frame(msg_type, payload))
            assert got_type is msg_type
            assert got == payload

    def test_oversized_rejected_both_ends(self):
        with pytest.raises(FrameTooLarge):
            encode_frame(MsgType.EXECUTE, b"x" * 1024, max_frame=512)
        frame = encode_frame(MsgType.EXECUTE, b"x" * 1024)
        with pytest.raises(FrameTooLarge):
            decode_frame(frame, max_frame=512)

    def test_corruption_rejected(self):
        frame = bytearray(encode_frame(MsgType.RESULT, b"payload bytes"))
        for index in (0, 3, 5, HEADER_BYTES - 1, HEADER_BYTES + 2):
            bad = bytearray(frame)
            bad[index] ^= 0xFF
            with pytest.raises(FrameError):
                decode_frame(bytes(bad))

    def test_truncation_rejected(self):
        frame = encode_frame(MsgType.RESULT, b"payload bytes")
        with pytest.raises(Truncated):
            decode_frame(frame[:-3])
        with pytest.raises(FrameError):
            decode_frame(frame[: HEADER_BYTES - 2])

    def test_garbage_fuzz_never_reaches_pickle(self):
        """Random byte soup must always raise the typed FrameError family
        (the gate that keeps attacker bytes away from the unpickler)."""
        rng = np.random.default_rng(1234)
        for _ in range(200):
            size = int(rng.integers(0, 200))
            junk = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
            with pytest.raises((FrameError, ValueError)):
                decode_frame(junk)

    def test_shard_key_is_stable_and_params_sensitive(self):
        registry = ProgramRegistry()
        program = linear_bgv()
        entry, _ = registry.context_for(program, seed=11)
        other, _ = registry.context_for(poly_ckks(), seed=11)
        key = shard_key(program.signature(), entry.params)
        assert key == shard_key(program.signature(), entry.params)
        assert key != shard_key(poly_ckks().signature(), other.params)


# ------------------------------------------------------ live-worker robustness
class TestWorkerRobustness:
    """Both transports of the one replica protocol: a TCP worker host and
    a forked socketpair replica (what ``ProcessExecutor`` forks)."""

    TRANSPORTS = ("tcp", "socketpair")

    @contextmanager
    def _raw(self, cluster, transport):
        """A raw socket to a live replica.  A forked replica lives as
        long as its one connection, and must exit cleanly when it ends —
        malformed input never crashes it."""
        if transport == "tcp":
            with socket.create_connection(cluster._addrs[0],
                                          timeout=10) as sock:
                sock.settimeout(10)
                yield sock
            return
        sock, theirs = socket.socketpair()
        proc = _MP.Process(
            target=serve_socketpair, args=(theirs, sock, 0), daemon=True)
        proc.start()
        theirs.close()
        with sock:
            sock.settimeout(10)
            yield sock
        proc.join(timeout=10)
        assert proc.exitcode == 0, f"forked replica exit {proc.exitcode}"

    def test_malformed_frames_get_clean_error(self, cluster):
        """Garbage on the wire draws an ERROR reply (or a clean close),
        never a worker crash; the worker keeps serving afterwards."""
        for transport in self.TRANSPORTS:
            rng = np.random.default_rng(99)
            for _ in range(20):
                size = int(rng.integers(1, 400))
                junk = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
                with self._raw(cluster, transport) as sock:
                    sock.sendall(junk)
                    try:
                        # EOF our half so short junk reads as a truncated
                        # frame; the worker may have already hung up on
                        # longer junk, which is equally acceptable.
                        sock.shutdown(socket.SHUT_WR)
                    except OSError:
                        continue
                    try:
                        msg_type, reply = recv_msg(sock)
                    except (ConnectionError, FrameError, OSError):
                        continue   # clean close is acceptable too
                    assert msg_type is MsgType.ERROR, transport
                    assert "error" in reply, transport
                    # ... and the desynchronized connection is closed.
                    with pytest.raises((ConnectionError, OSError)):
                        recv_msg(sock)
            # Oversized and bad-CRC frames are typed, answered, closed.
            header = framing._HEADER.pack(framing.MAGIC, FRAME_VERSION,
                                          int(MsgType.EXECUTE), 1 << 31, 0)
            oversized = header + framing._HEADER_CRC.pack(zlib.crc32(header))
            flipped = bytearray(encode_frame(MsgType.EXECUTE, b"payload"))
            flipped[-1] ^= 0xFF
            for frame, fault in ((oversized, "FrameTooLarge"),
                                 (bytes(flipped), "BadChecksum")):
                with self._raw(cluster, transport) as sock:
                    sock.sendall(frame)
                    msg_type, reply = recv_msg(sock)
                    assert msg_type is MsgType.ERROR and reply["fatal"]
                    assert fault in reply["error"], transport
            # The worker survived the fuzz and still answers the handshake.
            with self._raw(cluster, transport) as sock:
                send_msg(sock, MsgType.HELLO, {"version": FRAME_VERSION})
                msg_type, reply = recv_msg(sock)
                assert msg_type is MsgType.HELLO, transport
                assert reply["pid"] > 0

    def test_version_mismatch_parts_cleanly(self, cluster):
        for transport in self.TRANSPORTS:
            with self._raw(cluster, transport) as sock:
                send_msg(sock, MsgType.HELLO, {"version": 999})
                msg_type, reply = recv_msg(sock)
                assert msg_type is MsgType.ERROR, transport
                assert "version" in reply["error"]

    def test_execution_error_ships_remote_traceback(self, pool):
        registry = ProgramRegistry()
        job, _ = bgv_job(registry)
        # Poison one request: a missing input fails inside the worker.
        job.requests[1] = Request(inputs={}, plains={})
        with pytest.raises(RuntimeError, match="worker host"):
            pool.execute(job)
        # The pool is still healthy: the same traffic, unpoisoned, runs.
        job2, _ = bgv_job(registry)
        outputs, _ = pool.execute(job2)
        assert len(outputs) == len(job2.requests)


# ------------------------------------------------------------ remote execution
class TestRemoteExecution:
    def test_bgv_batched_bit_identical_to_local(self, pool):
        job, _ = bgv_job(ProgramRegistry())
        remote_outputs, _ = pool.execute(job)
        local_outputs, _ = ThreadExecutor().execute(job)
        for got, want in zip(remote_outputs, local_outputs):
            for out_id in want:
                assert np.array_equal(got[out_id], want[out_id])

    def test_ckks_batched_within_tolerance(self, pool):
        program = poly_ckks()
        x, y = (op.op_id for op in program.ops[:2])
        rng = np.random.default_rng(3)
        requests = [Request(inputs={x: rng.uniform(-1, 1, WIDTH),
                                    y: rng.uniform(-1, 1, WIDTH)})
                    for _ in range(4)]
        entry, _ = ProgramRegistry().context_for(program, seed=5)
        job = BatchJob(
            program=program, signature=program.signature(),
            requests=requests, batcher=SlotBatcher(program, width=WIDTH),
            backend=FunctionalBackend(validate=False), context_entry=entry,
        )
        remote_outputs, _ = pool.execute(job)
        local_outputs, _ = ThreadExecutor().execute(job)
        for got, want in zip(remote_outputs, local_outputs):
            for out_id in want:
                assert np.max(np.abs(got[out_id] - want[out_id])) < 1e-2

    def test_unbatchable_served_singly_remote(self, pool):
        program = rotate_bgv()
        x = program.ops[0].op_id
        rng = np.random.default_rng(8)
        requests = [Request(inputs={x: rng.integers(0, 256, WIDTH)})
                    for _ in range(3)]
        entry, _ = ProgramRegistry().context_for(program, seed=5)
        job = BatchJob(
            program=program, signature=program.signature(),
            requests=requests, batcher=None,
            backend=FunctionalBackend(validate=False), context_entry=entry,
        )
        remote_outputs, _ = pool.execute(job)
        local_outputs, _ = ThreadExecutor().execute(job)
        for got, want in zip(remote_outputs, local_outputs):
            for out_id in want:
                assert np.array_equal(got[out_id], want[out_id])

    @pytest.mark.parametrize("kind", ["process", "remote"])
    @pytest.mark.parametrize("first", [8, 4])
    def test_one_signature_many_batch_layouts(self, cluster, kind, first):
        """The replica-side batcher is the coordinator's batcher: one pool
        serves one program at width 8 and 4 (either order), then with
        ``plain_width`` 2 and 8, bit-identically to in-process execution
        (a replica keyed by signature alone kept the first layout)."""
        program = linear_bgv()
        x, w = (op.op_id for op in program.ops[:2])
        entry, _ = ProgramRegistry().context_for(program, seed=11)
        rng = np.random.default_rng(first)
        layouts = [(first, None), (12 - first, None), (4, 2), (4, 8)]
        with ExitStack() as stack:
            executor = stack.enter_context(
                ProcessExecutor(2) if kind == "process"
                else cluster.executor())
            for width, plain_width in layouts:
                batcher = SlotBatcher(program, width=width,
                                      plain_width=plain_width)
                shared_w = rng.integers(0, 256, batcher.plain_width)
                job = BatchJob(
                    program=program, signature=program.signature(),
                    requests=[Request(
                        inputs={x: rng.integers(0, 256, width)},
                        plains={w: shared_w}) for _ in range(3)],
                    batcher=batcher,
                    backend=FunctionalBackend(validate=False),
                    context_entry=entry,
                )
                want, _ = ThreadExecutor().execute(job)
                # Twice: a local pool round-robins, so both replicas
                # serve every layout.
                for _ in range(2):
                    got, _ = executor.execute(job)
                    for g, t in zip(got, want):
                        for out_id in t:
                            assert g[out_id].shape == t[out_id].shape
                            assert np.array_equal(g[out_id], t[out_id])

    def test_replication_invariant(self, pool):
        """Same secret on every host, distinct processes, RNGs apart —
        keygen happened exactly once, on the coordinator."""
        _, entry = bgv_job(ProgramRegistry())
        probes = pool.probe(entry)
        assert len(probes) == 2
        assert len({p["secret_sha"] for p in probes}) == 1
        assert len({p["pid"] for p in probes}) == 2
        assert len({tuple(p["rng_fingerprint"]) for p in probes}) == 2

    def test_release_evicts_host_side(self, pool):
        registry = ProgramRegistry()
        job, entry = bgv_job(registry)
        pool.execute(job)
        before = max(p["replicated"]["contexts"]
                     for p in pool.probe(entry))
        pool.release(entry)
        assert ("context", id(entry)) not in pool._pinned   # pin dropped
        # probe() re-replicates the entry it probes, so compare counts:
        # after release every host dropped it (and re-gained exactly it).
        after = max(p["replicated"]["contexts"] for p in pool.probe(entry))
        assert after <= before
        # Releasing twice is a no-op, and the entry still serves (it
        # simply re-replicates on the next batch).
        pool.release(entry)
        outputs, _ = pool.execute(job)
        assert len(outputs) == len(job.requests)

    def test_stats_schema(self, pool):
        stats = pool.stats()
        assert stats["executor"] == "remote"
        assert len(stats["hosts"]) == 2
        for host in stats["hosts"]:
            assert {"addr", "alive", "inflight", "dispatched", "failed",
                    "reconnects", "latency_ms", "remote"} <= set(host)
        assert stats["dispatched"] >= 1


# --------------------------------------------------------------- server + name
class TestServerIntegration:
    def test_server_over_cluster_with_stats(self, cluster):
        program = linear_bgv()
        x, w = (op.op_id for op in program.ops[:2])
        rng = np.random.default_rng(0)
        shared = rng.integers(0, 256, WIDTH)
        with cluster.executor() as pool:
            with FheServer(executor=pool, workers=2,
                           max_wait_ms=5.0) as server:
                futures = [
                    server.submit(program,
                                  inputs={x: rng.integers(0, 256, WIDTH)},
                                  plains={w: shared}, width=WIDTH)
                    for _ in range(12)
                ]
                server.flush()
                results = [f.result(timeout=60) for f in futures]
                stats = server.stats()
        assert all(r.status == "ok" for r in results)
        assert stats["executor"]["executor"] == "remote"
        assert sum(h["dispatched"] for h in stats["executor"]["hosts"]) >= 1
        assert stats["dispatch_ms"]["p50"] > 0

    def test_resolve_executor_lists_remote(self):
        with pytest.raises(ValueError, match="'remote'"):
            resolve_executor("bogus")

    def test_resolve_remote_spawns_and_reaps_cluster(self):
        executor = resolve_executor("remote")
        try:
            assert isinstance(executor, RemoteExecutor)
            cluster = executor._owned_cluster
            assert cluster is not None
            procs = list(cluster._procs)
            job, _ = bgv_job(ProgramRegistry())
            outputs, _ = executor.execute(job)
            assert len(outputs) == len(job.requests)
        finally:
            executor.close()
        assert executor._owned_cluster is None
        assert all(proc.poll() is not None for proc in procs)


# ------------------------------------------------------------------- failover
class TestFailover:
    def test_kill_worker_mid_load_retries_transparently(self):
        """The acceptance scenario: SIGKILL one of two hosts under load.
        Every submitted request resolves ``ok`` — in-flight batches on
        the dead host are re-dispatched to the survivor by the retry
        loop (execution is pure and seeded, so the re-run is identical)
        — and nothing hangs."""
        program = poly_ckks()
        x, y = (op.op_id for op in program.ops[:2])
        rng = np.random.default_rng(1)
        with LocalCluster(2) as cluster:
            with cluster.executor(heartbeat_s=0.1) as pool:
                with FheServer(executor=pool, workers=2, max_batch=2,
                               max_wait_ms=2.0) as server:
                    futures = [
                        server.submit(program,
                                      inputs={x: rng.uniform(-1, 1, WIDTH),
                                              y: rng.uniform(-1, 1, WIDTH)},
                                      width=WIDTH)
                        for _ in range(24)
                    ]
                    server.flush()
                    cluster.kill(0)
                    # Retries are transparent: every future resolves ok,
                    # nothing hangs, nothing is silently dropped.
                    for future in futures:
                        assert future.result(timeout=120).status == "ok"
                    # The surviving host keeps serving new traffic.
                    late = server.submit(
                        program,
                        inputs={x: rng.uniform(-1, 1, WIDTH),
                                y: rng.uniform(-1, 1, WIDTH)},
                        width=WIDTH,
                    )
                    server.flush()
                    assert late.result(timeout=120).status == "ok"
                    stats = pool.stats()
                alive = [h for h in stats["hosts"] if h["alive"]]
                assert len(alive) >= 1

    def test_midstream_truncation_recovers_after_redial(self):
        """A frame truncated mid-stream desynchronizes the connection:
        the worker answers the garbage with a fatal ERROR and hangs up,
        the executor marks the host dead, the heartbeat monitor redials
        it, replication state re-ships (the reconnect cleared the
        shipped-set), and the next EXECUTE succeeds transparently."""
        registry = ProgramRegistry()
        with LocalCluster(1) as cluster:
            with cluster.executor(
                heartbeat_s=0.05, channels=1,
                retry=RetryPolicy(max_attempts=8, base_delay_s=0.05,
                                  max_delay_s=0.2),
            ) as pool:
                job, entry = bgv_job(registry)
                outputs, _ = pool.execute(job)
                assert len(outputs) == len(job.requests)
                # Inject: half a REPLICATE frame straight onto the live
                # command channel.  The worker reads its header, blocks
                # for the missing payload bytes, and will consume the
                # next EXECUTE's bytes as that remainder — a checksum
                # violation, so the stream past this point is dead.
                host = pool._hosts[0]
                frame = encode_frame(MsgType.REPLICATE,
                                     pickle.dumps({"kind": "context"}))
                channel = host.next_channel()
                with channel.lock:
                    channel.sock.sendall(frame[: len(frame) // 2])
                # The next batch rides the retry loop: fatal ERROR ->
                # host marked dead -> heartbeat redial -> re-ship ->
                # EXECUTE succeeds, all inside one execute() call.
                job2, _ = bgv_job(registry, seed=1)
                outputs, _ = pool.execute(job2)
                local, _ = ThreadExecutor().execute(job2)
                for got, want in zip(outputs, local):
                    for out_id in want:
                        assert np.array_equal(got[out_id], want[out_id])
                stats = pool.stats()
                assert stats["reconnects"] >= 1
                assert stats["resilience"]["retries"] >= 1
                # The reconnect re-shipped the entry (fresh shipped-set).
                assert len(host.replicated) >= 3

    def test_channel_closed_under_a_dispatch_retries(self):
        """A dispatch can hold a channel that another thread has just
        closed (it marked the host dead after ``next_channel()`` handed
        the channel out).  The watchdog's ``settimeout`` then fails with
        EBADF before ``_call`` is reached; that must ride the retry loop
        like any transport failure, not escape as a raw ``OSError``."""
        with LocalCluster(1) as cluster:
            with cluster.executor(
                heartbeat_s=0.05, channels=1, execute_timeout_s=60.0,
                retry=RetryPolicy(max_attempts=8, base_delay_s=0.05,
                                  max_delay_s=0.2),
            ) as pool:
                job, _ = bgv_job(ProgramRegistry())
                pool.execute(job)
                pool._hosts[0].channels[0].sock.close()
                outputs, _ = pool.execute(job)
                assert len(outputs) == len(job.requests)
                assert pool.stats()["resilience"]["retries"] >= 1

    def test_dead_host_reconnects_and_rereplicates(self):
        with LocalCluster(2) as cluster:
            with cluster.executor(heartbeat_s=0.1) as pool:
                job, entry = bgv_job(ProgramRegistry())
                pool.execute(job)
                cluster.kill(1)
                # The monitor must notice within a few heartbeats.
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    if not all(h["alive"] for h in pool.stats()["hosts"]):
                        break
                    time.sleep(0.05)
                else:
                    pytest.fail("dead host never detected")
                # Traffic keeps flowing around the hole.
                outputs, _ = pool.execute(job)
                assert len(outputs) == len(job.requests)
                # Bring the host back on the same port; the monitor
                # redials it and replication state starts empty.
                cluster.restart(1)
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    stats = pool.stats()
                    if all(h["alive"] for h in stats["hosts"]):
                        break
                    time.sleep(0.05)
                else:
                    pytest.fail("restarted host never reconnected")
                assert stats["reconnects"] >= 1
                # Both hosts hold the entry again after a full probe —
                # the keygen-once invariant survived the bounce.
                probes = pool.probe(entry)
                assert len(probes) == 2
                assert len({p["secret_sha"] for p in probes}) == 1


def test_cluster_hosts_start_before_any_announcement_is_read(monkeypatch):
    """Every worker interpreter is started before the first "listening on"
    line is read, so hosts import side by side (no timing: the order of
    events on fake processes)."""
    from repro.net import cluster as cluster_mod

    events = []

    class FakeStdout:
        def __init__(self, index):
            self.index = index

        def readline(self):
            events.append(("read", self.index))
            return f"worker listening on 127.0.0.1:{5000 + self.index}\n"

        def close(self):
            pass

    class FakePopen:
        started = 0

        def __init__(self, cmd, **kw):
            self.index = FakePopen.started
            FakePopen.started += 1
            self.pid = 100 + self.index
            self.stdout = FakeStdout(self.index)
            events.append(("start", self.index))

        def poll(self):
            return 0

        def wait(self, timeout=None):
            return 0

    monkeypatch.setattr(cluster_mod.subprocess, "Popen", FakePopen)
    with LocalCluster(3) as fake:
        assert fake.addresses == [f"127.0.0.1:{5000 + i}" for i in range(3)]
    assert events == [("start", i) for i in range(3)] + [
        ("read", i) for i in range(3)]
