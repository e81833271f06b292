"""Observability tier: mergeable metrics, tracing, kernel timers, logging.

Covers the cross-process contracts the serving stack now leans on:

- histogram states merge into the same distribution the union of
  observations would produce (counts exact, percentiles within one
  log-bucket), counters add, gauges take the max, schema drift raises;
- ``FheServer.stats()`` keeps one golden schema across the thread,
  process, and remote executors — dropped or retyped keys fail here
  before any dashboard notices;
- trace spans stitch across process boundaries on shared trace ids and
  the dumped file is valid Chrome trace-event JSON;
- kernel timers are off by default, on under ``profiled()``, and
  attribute per-signature time under ``attributed()``;
- the structured logger emits parseable JSON when ``REPRO_LOG=json``.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.dsl.program import Program
from repro.obs import profile
from repro.obs.log import get_logger
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    GROWTH,
    global_metrics,
    merge_snapshots,
    summarize_state,
)
from repro.obs.trace import Tracer, new_trace_id, tracer
from repro.serve.server import FheServer

N = 256
WIDTH = 8


def linear_bgv(n=N, name="linear", level=3):
    p = Program(n=n, scheme="bgv", name=name)
    x = p.input(level, name="x")
    w = p.input_plain(level, name="w")
    b = p.input_plain(level, name="b")
    p.output(p.add_plain(p.mul_plain(x, w), b))
    return p


def submit_all(server, program, count, *, seed=0):
    rng = np.random.default_rng(seed)
    x, w, b = (op.op_id for op in program.ops[:3])
    shared_w = rng.integers(0, 256, WIDTH)
    futures = [
        server.submit(program,
                      inputs={x: rng.integers(0, 256, WIDTH)},
                      plains={w: shared_w, b: rng.integers(0, 256, WIDTH)},
                      width=WIDTH)
        for _ in range(count)
    ]
    server.flush()
    return [f.result(timeout=60) for f in futures]


# ------------------------------------------------------------------- metrics
class TestHistogram:
    def test_percentiles_within_one_bucket(self):
        h = Histogram()
        values = np.random.default_rng(0).lognormal(2.0, 1.0, 5000)
        for v in values:
            h.observe(float(v))
        for q in (50, 90, 99):
            exact = float(np.percentile(values, q))
            got = h.percentile(q)
            assert exact / GROWTH <= got <= exact * GROWTH

    def test_min_max_mean_count_exact(self):
        h = Histogram()
        for v in (0.5, 3.0, 7.5, 100.0):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 4
        assert s["max"] == 100.0
        assert s["mean"] == pytest.approx((0.5 + 3.0 + 7.5 + 100.0) / 4)
        # extremes stay within one bucket of the exact observed min/max
        assert 0.5 <= h.percentile(0) <= 0.5 * GROWTH
        assert 100.0 / GROWTH <= h.percentile(100) <= 100.0

    def test_merge_equals_union_of_observations(self):
        rng = np.random.default_rng(1)
        a_vals = rng.lognormal(1.0, 1.0, 400)
        b_vals = rng.lognormal(3.0, 0.5, 600)
        a, b, union = Histogram(), Histogram(), Histogram()
        for v in a_vals:
            a.observe(float(v)); union.observe(float(v))
        for v in b_vals:
            b.observe(float(v)); union.observe(float(v))
        merged = Histogram()
        merged.merge_state(a.to_state())
        merged.merge_state(b.to_state())
        m, u = merged.summary(), union.summary()
        assert (m["count"], m["max"]) == (u["count"], u["max"])
        assert (m["p50"], m["p99"]) == (u["p50"], u["p99"])
        assert m["mean"] == pytest.approx(u["mean"])

    def test_merge_rejects_schema_drift(self):
        bad = dict(Histogram().to_state(), schema=99)
        with pytest.raises(ValueError, match="schema"):
            Histogram().merge_state(bad)

    def test_counter_adds_and_gauge_maxes(self):
        c1, c2 = Counter(), Counter()
        c1.inc(3), c2.inc(4)
        g1, g2 = Gauge(), Gauge()
        g1.set(2.0), g2.set(9.0)
        merged = merge_snapshots({"c": c1.to_state(), "g": g1.to_state()},
                                 {"c": c2.to_state(), "g": g2.to_state()})
        assert merged["c"]["value"] == 7
        assert merged["g"]["value"] == 9.0


class TestMergeSnapshots:
    def test_merges_across_blobs_and_skips_none(self):
        r1, r2 = MetricsRegistry(), MetricsRegistry()
        r1.counter("reqs").inc(2)
        r2.counter("reqs").inc(5)
        r1.histogram("lat").observe(1.0)
        r2.histogram("lat").observe(100.0)
        r2.counter("only_b").inc(1)
        merged = merge_snapshots(r1.snapshot(), None, r2.snapshot())
        assert merged["reqs"]["value"] == 7
        assert merged["only_b"]["value"] == 1
        s = summarize_state(merged["lat"])
        assert s["count"] == 2 and s["max"] == 100.0


# -------------------------------------------------------------------- tracer
class TestTracer:
    def test_disabled_span_records_nothing(self):
        t = Tracer()
        with t.span("x"):
            pass
        assert t.spans() == []
        assert not t.active

    def test_enabled_span_records(self):
        t = Tracer()
        t.enable()
        with t.span("x", trace="1.1"):
            pass
        (span,) = t.spans()
        assert span["name"] == "x"
        assert span["args"]["trace"] == "1.1"
        assert span["pid"] == os.getpid()

    def test_capture_collects_without_enabling(self):
        t = Tracer()
        with t.capture() as spans:
            with t.span("inner"):
                pass
            t.ingest([{"name": "forwarded", "ts": 0, "dur": 1,
                       "pid": 1, "args": {}}])
        assert [s["name"] for s in spans] == ["inner", "forwarded"]
        assert t.spans() == []   # ring untouched: tracing was never enabled

    def test_dump_is_chrome_trace_json(self, tmp_path):
        t = Tracer()
        t.enable()
        t.set_label("test proc")
        with t.span("work", trace=new_trace_id()):
            pass
        path = tmp_path / "trace.json"
        assert t.dump(str(path)) == 1
        doc = json.loads(path.read_text())
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases == {"M", "X"}
        (x,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert x["name"] == "work" and x["dur"] >= 0

    def test_server_restores_tracing_on_close(self, tmp_path):
        """FheServer(trace=True) turns the process-wide tracer on; close()
        puts it back as found and keeps the ring for dump_trace()."""
        tr = tracer()
        tr.clear()
        assert not tr.enabled
        program = linear_bgv()
        with FheServer(max_batch=4, max_wait_ms=5.0, trace=True) as server:
            assert tr.enabled
            traced = submit_all(server, program, 2)
        assert not tr.enabled
        assert all(r.stats["trace"] for r in traced)
        n_spans = server.dump_trace(str(tmp_path / "trace.json"))
        assert n_spans == len(tr.spans()) > 0
        tr.clear()
        # A later untraced server mints no ids and records nothing ...
        with FheServer(max_batch=4, max_wait_ms=5.0) as server:
            untraced = submit_all(server, program, 2)
        assert all(r.stats["trace"] is None for r in untraced)
        assert tr.spans() == []
        # ... and tracing someone else switched on is not switched off.
        tr.enable()
        try:
            FheServer(trace=True).close()
            assert tr.enabled
        finally:
            tr.disable()
            tr.clear()


# ------------------------------------------------------------ kernel timers
class TestKernelProfiling:
    def _crt_count(self):
        state = global_metrics().snapshot().get("kernel.crt_to_rns.ms")
        return state["count"] if state else 0

    def _run_kernel(self):
        from repro.rns.crt import RnsBasis
        from repro.rns.primes import ntt_friendly_primes

        basis = RnsBasis(ntt_friendly_primes(64, 28, 2))
        basis.to_rns(np.arange(64, dtype=np.int64))

    def test_off_by_default_on_under_profiled(self):
        assert not profile.ENABLED
        before = self._crt_count()
        self._run_kernel()
        assert self._crt_count() == before   # disabled: no observation
        with profile.profiled():
            self._run_kernel()
        assert self._crt_count() == before + 1
        self._run_kernel()
        assert self._crt_count() == before + 1   # disabled again on exit

    def test_attribution_and_breakdown(self):
        with profile.profiled(), profile.attributed("sig_test"):
            self._run_kernel()
        blob = global_metrics().snapshot()
        assert "kernel.crt_to_rns.ms|sig=sig_test" in blob
        breakdown = profile.kernel_breakdown(blob)
        assert breakdown["sig_test"]["crt_to_rns"]["count"] >= 1
        assert breakdown["all"]["crt_to_rns"]["count"] >= 1


# ------------------------------------------------------------------- logging
class TestStructLog:
    def test_json_mode_emits_parseable_lines(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LOG", "json")
        log = get_logger("repro.test", host="h1").bind(port=7)
        log.info("listening", pid=123)
        line = capsys.readouterr().err.strip().splitlines()[-1]
        record = json.loads(line)
        assert record["event"] == "listening"
        assert record["logger"] == "repro.test"
        assert (record["host"], record["port"], record["pid"]) == ("h1", 7, 123)
        assert record["level"] == "INFO"

    def test_text_mode_is_one_line(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_LOG", "text")
        get_logger("repro.test").warning("odd_state", detail="x")
        err = capsys.readouterr().err.strip()
        assert "odd_state" in err and "detail=x" in err
        assert "\n" not in err


# --------------------------------------------------- stats() golden schema
SUMMARY_KEYS = {"p50": float, "p99": float, "mean": float, "max": float,
                "count": int}

TOP_LEVEL = {
    "requests": int, "batches": int, "errors": int, "expired": int,
    "requests_per_s": float, "mean_batch_size": float,
    "mean_occupancy": float,
    "latency_ms": dict, "queue_ms": dict, "dispatch_ms": dict,
    "execute_ms": dict,
    "per_signature": dict, "metrics": dict, "kernels": dict,
    "registry": dict, "executor": dict,
}

PER_SIGNATURE = {
    "program": str, "requests": int, "batches": int, "capacity": int,
    "batchable": bool, "mean_occupancy": float, "latency_ms": dict,
    "queue_ms": dict, "batch_size_histogram": dict,
    "batch_ms": float, "partner_share": float, "ready": dict,
}
READY_REASONS = {"full", "quiet", "max_wait", "deadline", "flush"}

REGISTRY_KEYS = {"entries", "contexts", "compiled", "hits", "misses",
                 "hit_rate"}


def assert_summary(d, where):
    missing = set(SUMMARY_KEYS) - set(d)
    assert not missing, f"{where}: summary lost keys {missing}"
    for key, typ in SUMMARY_KEYS.items():
        assert isinstance(d[key], typ), f"{where}.{key} is {type(d[key])}"


def assert_stats_schema(stats, *, executor_name):
    for key, typ in TOP_LEVEL.items():
        assert key in stats, f"stats() lost key {key!r}"
        assert isinstance(stats[key], typ), \
            f"stats()[{key!r}] retyped to {type(stats[key])}"
    for key in ("latency_ms", "queue_ms", "dispatch_ms", "execute_ms"):
        assert_summary(stats[key], key)
    assert stats["per_signature"], "no per-signature rows"
    for sig, row in stats["per_signature"].items():
        for key, typ in PER_SIGNATURE.items():
            assert key in row, f"per_signature[{sig}] lost {key!r}"
            assert isinstance(row[key], typ)
        assert_summary(row["latency_ms"], f"per_signature[{sig}].latency_ms")
        assert set(row["ready"]) == READY_REASONS
        assert sum(row["ready"].values()) == row["batches"]
    for name, state in stats["metrics"].items():
        assert state["type"] in ("counter", "gauge", "hist"), name
    assert set(stats["registry"]) == REGISTRY_KEYS
    assert stats["executor"]["executor"] == executor_name
    # The numbers themselves must be live, not zeroed by the rebase.
    assert stats["requests"] >= 1
    assert stats["latency_ms"]["p50"] > 0
    assert stats["execute_ms"]["count"] >= 1


class TestStatsGoldenSchema:
    def test_thread_executor(self):
        program = linear_bgv()
        with FheServer(max_batch=4, max_wait_ms=5.0) as server:
            results = submit_all(server, program, 6)
            stats = server.stats()
        assert all(r.status == "ok" for r in results)
        assert_stats_schema(stats, executor_name="thread")
        for r in results:
            where = r.stats["executed_on"]
            assert where["executor"] == "thread"
            assert where["pid"] == os.getpid()

    def test_process_executor(self):
        program = linear_bgv()
        with FheServer(executor="process", workers=2,
                       max_batch=4, max_wait_ms=5.0) as server:
            results = submit_all(server, program, 6)
            stats = server.stats()
        assert all(r.status == "ok" for r in results)
        assert_stats_schema(stats, executor_name="process")
        pids = set()
        for r in results:
            where = r.stats["executed_on"]
            assert where["executor"] == "process"
            assert "replica" in where
            pids.add(where["pid"])
        assert pids and os.getpid() not in pids

    def test_remote_executor_with_trace_stitch(self, tmp_path):
        from repro.net.cluster import LocalCluster

        program = linear_bgv()
        tr = tracer()
        tr.clear()
        with LocalCluster(2) as cluster:
            with cluster.executor() as pool:
                with FheServer(executor=pool, workers=2, max_batch=4,
                               max_wait_ms=5.0, trace=True) as server:
                    results = submit_all(server, program, 6)
                    stats = server.stats()
                    path = tmp_path / "trace.json"
                    n_spans = server.dump_trace(str(path))
        spans = tr.spans()
        tr.clear()
        assert all(r.status == "ok" for r in results)
        assert_stats_schema(stats, executor_name="remote")
        for r in results:
            where = r.stats["executed_on"]
            assert where["executor"] == "remote"
            assert ":" in where["addr"]
            assert r.stats["trace"]

        # Stitching: a worker-pid execute span carries an id the
        # coordinator minted at admit time.  Clock skew across processes
        # may reorder timestamps slightly, so assert on ids, not order.
        coord_pid = os.getpid()
        minted = {s["args"]["trace"] for s in spans
                  if s["name"] == "admit" and s["pid"] == coord_pid}
        assert minted
        worker_execs = [s for s in spans
                        if s["name"] == "execute" and s["pid"] != coord_pid]
        assert any(set(s["args"].get("traces", [])) & minted
                   for s in worker_execs)

        # The dump is a valid Chrome trace with both sides present.
        assert n_spans == len(spans)
        doc = json.loads(path.read_text())
        x_pids = {e["pid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert coord_pid in x_pids and len(x_pids) >= 2
        named = {e["pid"] for e in doc["traceEvents"] if e["ph"] == "M"}
        assert named == x_pids   # every track carries its process name

        # Merged-histogram criterion: under a remote executor the
        # coordinator never runs batches, so a populated execute_ms
        # proves worker blobs merged into the percentile source; latency
        # is observed coordinator-side, once per request.
        assert stats["metrics"]["serve.execute_ms"]["count"] >= 1
        assert stats["metrics"]["serve.latency_ms"]["count"] == len(results)
