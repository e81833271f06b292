"""Metric vocabulary of the benchmark and the small statistics it needs.

Two views of the same names live here:

- the harness's own end-to-end table (11 metrics, each applying to the
  workloads it is meaningful on) — what ``run.py`` prints, calibrates and
  compares;
- the driver's view in ``BENCHMARK.json``: its ``end_to_end`` list may only
  hold metrics that every workload reports, that are never 0 and that are
  measured (not deterministic), so it is the subset ``DRIVER_END_TO_END``;
  the remaining end-to-end names ride in ``per_layer`` beside the 67 layer
  metrics and read 0 on workloads they do not apply to.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import numpy as np

SERVE = ("serve_mixed_open", "serve_mixed_saturated", "serve_mixed_burst",
         "serve_deep_thread", "serve_deep_process", "serve_deep_remote")
ALL = SERVE + ("engine_solo", "f1_compile_suite")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                  # "lower" | "higher"
    bound: float | None = None   # share of the parent's median; None = diagnostic
    workloads: tuple[str, ...] = ALL
    exact: bool = False          # deterministic: compared exactly, bound 0
    meaning: str = ""


#: the harness's 11 end-to-end metrics (ISSUE 11's table).  "item" is one
#: request (serve_*), one program run (engine_solo) or one program compiled
#: and checked (f1_compile_suite); on the two offline workloads
#: ``latency_p50_ms`` is the median *pass* time, i.e. ``engine_pass_ms`` /
#: ``compile_pass_s`` under the name every workload shares.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25, meaning=
           "everything before the first timed item, cold process: contexts "
           "(keygen), pool fork / cluster spawn, replication, warm-up"),
    Metric("throughput_rps", "1/s", "higher", 0.10, meaning=
           "correct items completed per second"),
    Metric("latency_p50_ms", "ms", "lower", 0.15, meaning=
           "median submit->result as the client sees it (open loop: from the "
           "due time); offline workloads: median pass time"),
    Metric("latency_p95_ms", "ms", "lower", 0.15, SERVE, meaning=
           "95th percentile on the same clock"),
    Metric("failed_frac", "ratio", "lower", 0.0, exact=True, meaning=
           "(attempted - ok-and-correct) / attempted"),
    Metric("engine_pass_ms", "ms", "lower", 0.10, ("engine_solo",), meaning=
           "one pass over the engine_solo program set on cached contexts"),
    Metric("compile_pass_s", "s", "lower", 0.10, ("f1_compile_suite",),
           meaning="host time to compile + check the Table-3 suite once"),
    Metric("f1_modeled_ms_gmean", "ms_sim", "lower", 0.0,
           ("f1_compile_suite",), exact=True, meaning=
           "geometric mean of CompiledProgram.time_ms (simulated time)"),
    Metric("f1_offchip_bytes_total", "bytes_sim", "lower", 0.0,
           ("f1_compile_suite",), exact=True, meaning=
           "sum of off-chip traffic over the suite (simulated)"),
    Metric("f1_makespan_cycles_total", "cycles_sim", "lower", 0.0,
           ("f1_compile_suite",), exact=True, meaning=
           "sum of CompiledProgram.makespan (simulated)"),
    Metric("peak_rss_mb", "MB", "lower", 0.10, meaning=
           "max RSS of the measuring process plus its largest child"),
)

#: what BENCHMARK.json may gate: reported by all seven workloads, never 0,
#: measured.  See the module docstring.
DRIVER_END_TO_END = ("setup_s", "throughput_rps", "latency_p50_ms",
                     "peak_rss_mb")


def _layer(name, unit, better="lower"):
    return Metric(name, unit, better)


#: the 67 per-layer metrics; layer names are this repo's modules
PER_LAYER = (
    # the harness itself: is the run trustworthy?
    _layer("loadgen.offered_rps", "1/s", "higher"),
    _layer("loadgen.lateness_p99_ms", "ms"),
    _layer("loadgen.slo_miss_frac", "ratio"),
    _layer("loadgen.window_spread", "ratio"),
    _layer("serve.server.queue_ms_p50", "ms"),
    _layer("serve.server.queue_ms_p95", "ms"),
    _layer("serve.server.batch_size_mean", "count", "higher"),
    _layer("serve.server.occupancy_mean", "ratio", "higher"),
    _layer("serve.server.batches", "count"),
    _layer("serve.server.overhead_ms_p50", "ms"),
    _layer("serve.server.shed", "count"),
    _layer("serve.server.expired", "count"),
    _layer("serve.server.failed", "count"),
    _layer("serve.registry.cold_build_s", "s"),
    _layer("serve.registry.lookup_us", "us"),
    _layer("serve.registry.hit_rate", "ratio", "higher"),
    _layer("serve.batcher.pack_ms", "ms"),
    _layer("serve.batcher.unpack_ms", "ms"),
    _layer("serve.batcher.layout_ms", "ms"),
    _layer("serve.batcher.pack_us_per_request", "us"),
    _layer("serve.executor.execute_ms_p50", "ms"),
    _layer("serve.executor.execute_ms_p95", "ms"),
    _layer("serve.executor.dispatch_overhead_ms_p50", "ms"),
    _layer("serve.executor.replicate_s", "s"),
    _layer("serve.executor.replica_balance", "ratio"),
    _layer("net.framing.roundtrip_us", "us"),
    _layer("net.framing.payload_bytes", "bytes"),
    _layer("net.remote.dispatch_overhead_ms_p50", "ms"),
    _layer("net.remote.retries", "count"),
    _layer("net.remote.reconnects", "count"),
    _layer("net.remote.breaker_opens", "count"),
    _layer("net.cluster.spawn_s", "s"),
    _layer("backends.functional.run_ms", "ms"),
    _layer("backends.f1.run_ms", "ms"),
    _layer("sim.functional.self_s", "s"),
    _layer("sim.functional.calls", "count"),
    _layer("fhe.encrypt_ms", "ms"),
    _layer("fhe.decrypt_ms", "ms"),
    _layer("fhe.mul_ms", "ms"),
    _layer("fhe.rotate_ms", "ms"),
    _layer("fhe.rotate_many_ms", "ms"),
    _layer("fhe.mod_switch_ms", "ms"),
    _layer("fhe.keyswitch.self_s", "s"),
    _layer("fhe.scheme.self_s", "s"),
    _layer("fhe.encoding.self_s", "s"),
    _layer("fhe.sampling.self_s", "s"),
    _layer("poly.ntt.self_s", "s"),
    _layer("poly.ntt.calls", "count"),
    _layer("poly.kernels.self_s", "s"),
    _layer("poly.automorphism.self_s", "s"),
    _layer("poly.parallel.self_s", "s"),
    _layer("poly.polynomial.self_s", "s"),
    _layer("rns.convert.self_s", "s"),
    _layer("rns.crt.self_s", "s"),
    _layer("rns.convert.calls", "count"),
    _layer("compiler.translate_s", "s"),
    _layer("compiler.data_schedule_s", "s"),
    _layer("compiler.cycle_schedule_s", "s"),
    _layer("compiler.instructions", "count"),
    _layer("sim.simulator.check_s", "s"),
    _layer("sim.simulator.instructions_checked", "count"),
    _layer("sim.simulator.transfers_checked", "count"),
    _layer("sim.fu_utilization_mean", "ratio", "higher"),
    _layer("sim.hbm_utilization_mean", "ratio", "higher"),
    _layer("obs.trace_overhead_frac", "ratio"),
    _layer("trace.unattributed_frac", "ratio"),
    _layer("trace.stage_sum_frac", "ratio", "higher"),
)

BY_NAME = {m.name: m for m in END_TO_END + PER_LAYER}


def driver_per_layer() -> tuple[Metric, ...]:
    """``per_layer`` of BENCHMARK.json: the end-to-end names the driver
    cannot gate, then the layer metrics."""
    rest = tuple(m for m in END_TO_END if m.name not in DRIVER_END_TO_END)
    return rest + PER_LAYER


# ---------------------------------------------------------------- statistics
def pct(values, q: float) -> float:
    """The q-th percentile (linear interpolation); 0.0 for no samples."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def window_medians(times, values, start: float, seconds: float,
                   windows: int) -> list[float]:
    """Cut ``[start, start+seconds)`` into equal windows, assign each sample
    to the window of its time, and take the median of each non-empty one."""
    width = seconds / windows
    buckets: list[list[float]] = [[] for _ in range(windows)]
    for t, v in zip(times, values):
        w = int((t - start) / width)
        if 0 <= w < windows:
            buckets[w].append(v)
    return [statistics.median(b) for b in buckets if b]


def good_quartile(values, better: str) -> float:
    """The quartile on the *good* side of repeated samples: the 25th
    percentile of times, the 75th of rates.

    The box this benchmark was calibrated on runs 20-30% slower for phases of
    4-12 s about a third of the time (a neighbour, not this program).  A
    median over the windows of a 10 s run flips whenever most of the run
    falls into such a phase, which is one run in four; the good quartile
    flips only when more than three quarters of the windows are slow.  A
    real regression slows every window, so it moves this statistic as much
    as it moves the median.
    """
    return float(np.percentile(values, 25 if better == "lower" else 75))


def window_stat(per_window: list[float], samples: int, better: str) -> dict:
    """The good quartile across windows (the reported value), with the
    median, min and max across windows and the sample count beside it."""
    if not per_window:
        return {"value": 0.0, "median": 0.0, "min": 0.0, "max": 0.0,
                "windows": 0, "samples": samples}
    return {"value": good_quartile(per_window, better),
            "median": float(statistics.median(per_window)),
            "min": float(min(per_window)), "max": float(max(per_window)),
            "windows": len(per_window), "samples": samples,
            "per_window": [float(v) for v in per_window]}


def quartile_spread(values: list[float]) -> dict:
    """Median, quartiles, max deviation and IQR/median of repeated runs."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {
        "median": med, "q1": q1, "q3": q3, "n": len(values),
        "min": min(values), "max": max(values),
        "max_dev": max(abs(v - med) for v in values) / med if med else 0.0,
        "spread": (q3 - q1) / med if med else 0.0,
    }
