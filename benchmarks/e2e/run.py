"""The repo's end-to-end benchmark: 7 workloads, one command.

Suite (every workload, tracing off, outputs checked, metrics by name)::

    PYTHONPATH=src python benchmarks/e2e/run.py --seed 7
    PYTHONPATH=src python benchmarks/e2e/run.py --seed 7 --traced
    PYTHONPATH=src python benchmarks/e2e/run.py --calibrate 5 --json out.json
    PYTHONPATH=src python benchmarks/e2e/run.py --compare A.json B.json

Driver contract (one workload, one JSON object as the last stdout line)::

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1

Every measurement runs in a child process of this orchestrator, in its own
session: set-up is timed cold (NTT tables, CKKS encoder tables and key
material are process-wide caches), peak RSS belongs to one workload, and a
failed run cannot leak worker processes — the whole group is reaped.
``setup_s`` is taken over several cold set-ups: set-up-only children, then
the measuring child's own.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import ExitStack
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
sys.path[:0] = [str(HERE), str(ROOT / "src")]

try:
    import compare
    from metrics import BY_NAME, DRIVER_END_TO_END, good_quartile
    from workloads import WORKLOAD_NAMES, fingerprint, workload
except ModuleNotFoundError as exc:
    # a checkout without src/: nothing to measure, and no result line
    raise SystemExit(f"cannot import the system under test: {exc}")

#: share of --seconds the traced run spends observing before it replays
OBSERVE_SHARE = 0.35
QUICK_SECONDS = 0.3
CHILD_TIMEOUT_S = 170


# ---------------------------------------------------------------------- child
def child_main(args) -> int:
    """Set up one workload cold, optionally measure and replay it, and
    write the record to ``--out``.  Exit code 1 means a wrong output."""
    import numpy

    import layers
    import offline
    import serving

    spec = workload(args.workload, quick=args.quick)
    record = {
        "workload": spec.name, "seed": args.seed, "seconds": args.seconds,
        "quick": args.quick, "machine": machine_fingerprint(numpy),
    }
    measured = None
    with ExitStack() as stack:
        if spec.kind == "serve":
            target = serving.setup(spec, args.seed, stack)
            record["worker_pids"] = target.worker_pids
        elif spec.kind == "engine":
            target = offline.engine_setup(spec, args.seed)
        else:
            target = offline.compile_setup(spec)
        record["setup"] = target.setup
        if args.child == "measure":
            programs = [sp.program for sp in spec.programs]
            if spec.kind == "serve":
                measured = serving.measure(target, args.seed, args.seconds,
                                           args.corrupt)
                stream = measured.pop("stream")
                record["fingerprint"] = fingerprint(
                    programs, [stream], measured.pop("schedule"))
            elif spec.kind == "engine":
                measured = offline.engine_measure(target, args.seconds,
                                                  args.corrupt)
                record["fingerprint"] = fingerprint(
                    programs, value_pairs=target.values)
            else:
                measured = offline.compile_measure(target, args.seconds,
                                                   args.corrupt)
                record["fingerprint"] = fingerprint(target.suite.values())
        # before the replay, which is not part of what a user's run holds
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if measured is not None and args.replay:
            spans = layers.Spans()
            if spec.kind == "serve":
                per_layer = layers.serve_layers(
                    target, measured, stream, args.seed, spans,
                    8 if args.quick else layers.REPLAY_BATCHES)
            elif spec.kind == "engine":
                per_layer = layers.engine_layers(target, measured, args.seed,
                                                 spans)
            else:
                per_layer = layers.compile_layers(target, measured, spans)
            record["per_layer"] = {
                name: {"value": value, "unit": BY_NAME[name].unit}
                for name, value in per_layer.items()}
            OUT.mkdir(exist_ok=True)
            trace_file = OUT / f"trace_{spec.name}.json"
            trace_file.write_text(json.dumps(spans.chrome_trace()))
            record["trace_file"] = str(trace_file.relative_to(ROOT))
            record["spans"] = len(spans.rows)
    # Executors and clusters are closed (children waited for) by now.
    rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if measured is not None:
        end_to_end = measured["end_to_end"]
        end_to_end["setup_s"] = {"value": target.setup["setup_s"], "samples": 1}
        end_to_end["peak_rss_mb"] = {"value": rss_kb / 1024.0, "samples": 1}
        for name, stat in end_to_end.items():
            stat["unit"] = BY_NAME[name].unit
        record.update(
            end_to_end=end_to_end, diagnostics=measured["diagnostics"],
            batch_mix=measured["batch_mix"],
            per_program_s=measured.get("per_program_s", {}),
            attempted=measured["attempted"],
            failed=measured["failed"], correct=measured["failed"] == 0,
        )
    Path(args.out).write_text(json.dumps(record))
    return 0 if measured is None or measured["failed"] == 0 else 1


def machine_fingerprint(numpy) -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
        "python": platform.python_version(), "numpy": numpy.__version__,
        # thread settings that change what is measured (numpy's BLAS helper
        # threads compete with worker replicas for the cores)
        **{name: os.environ.get(name, "") for name in (
            "REPRO_NUM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "loadavg_at_start": os.getloadavg()[0],
    }


# --------------------------------------------------------------- orchestrator
def spawn_child(mode: str, name: str, seed: int, seconds: float, *,
                quick=False, replay=False, corrupt=False) -> tuple[int, dict | None]:
    """Run one child in its own session; reap the whole group afterwards.
    Returns (exit code, record or None)."""
    OUT.mkdir(exist_ok=True)
    out = OUT / f"record_{os.getpid()}_{name}_{mode}.json"
    cmd = [sys.executable, str(HERE / "run.py"), "--child", mode,
           "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
           "--out", str(out)]
    cmd += ["--quick"] * quick + ["--replay"] * replay + ["--corrupt"] * corrupt
    # The child's stdout joins our stderr: stdout carries results only.
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = -signal.SIGKILL
    finally:
        try:    # workers of a crashed or hung child die with its group
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    record = None
    if out.exists():
        record = json.loads(out.read_text())
        out.unlink()
    return code, record


def run_workload(name: str, seed: int, seconds: float, *, traced: bool,
                 observe_only: bool = False, quick: bool = False,
                 corrupt: bool = False) -> tuple[int, dict | None]:
    """Set-up probes plus the measuring child for one workload.

    ``observe_only`` (the driver's ``--trace 1``) skips the probes and
    shortens the untraced phase: its end-to-end numbers are not reported.
    """
    probes = []
    if not observe_only and not quick:
        for _ in range(workload(name).setup_reps - 1):
            code, record = spawn_child("probe", name, seed, seconds)
            if code != 0 or record is None:
                return code or 2, None
            probes.append(record["setup"]["setup_s"])
    if observe_only:
        seconds = seconds * OBSERVE_SHARE
    code, record = spawn_child("measure", name, seed, seconds, quick=quick,
                               replay=traced, corrupt=corrupt)
    if record is None or "end_to_end" not in record:
        return code or 2, None
    setup = record["end_to_end"]["setup_s"]
    values = probes + [setup["value"]]
    setup.update(value=good_quartile(values, "lower"),
                 median=statistics.median(values), min=min(values),
                 max=max(values), samples=len(values), per_window=values)
    return code, record


def print_record(record: dict) -> None:
    name = record["workload"]
    for metric, stat in record["end_to_end"].items():
        extra = ""
        if "median" in stat:
            extra = (f"  [median {stat['median']:.6g} min {stat['min']:.6g} "
                     f"max {stat['max']:.6g} over "
                     f"{stat.get('windows', stat['samples'])} windows, "
                     f"{stat['samples']} samples]")
        elif stat.get("samples", 1) > 1:
            extra = f"  [{stat['samples']} samples]"
        print(f"{name:22s} {metric:26s} {stat['value']:14.6g} "
              f"{stat['unit']}{extra}")
    layers = record.get("per_layer") or {
        metric: {"value": value, "unit": BY_NAME[metric].unit}
        for metric, value in record.get("diagnostics", {}).items()}
    for metric, stat in layers.items():
        print(f"{name:22s} {metric:42s} {stat['value']:14.6g} {stat['unit']}")
    diag = record.get("diagnostics", {})
    late = diag.get("loadgen.lateness_p99_ms", 0.0)
    if late > record["end_to_end"]["latency_p50_ms"]["value"]:
        print(f"{name:22s} FLAG: generator lateness p99 {late:.2f} ms exceeds "
              f"latency p50 - this run's latencies are not trustworthy")
    print(f"{name:22s} attempted {record['attempted']} failed "
          f"{record['failed']} fingerprint {record['fingerprint']}"
          + (f" trace {record['trace_file']} ({record['spans']} spans)"
             if "trace_file" in record else ""))


def driver_main(args) -> int:
    """One workload under the driver's contract."""
    traced = bool(args.trace)
    code, record = run_workload(
        args.workload, args.seed,
        QUICK_SECONDS if args.quick else args.seconds, traced=traced,
        observe_only=traced, quick=args.quick, corrupt=args.corrupt)
    if record is None:
        print(f"benchmark child failed with exit code {code}", file=sys.stderr)
        return code or 2
    print_record(record)
    if traced:
        names = [m["name"] for m in compare.benchmark_json()["per_layer"]]
        source = {**record["end_to_end"], **record["per_layer"]}
    else:
        names, source = DRIVER_END_TO_END, record["end_to_end"]
    metrics = {name: {"value": source.get(name, {"value": 0.0})["value"],
                      "unit": BY_NAME[name].unit} for name in names}
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if record["correct"] else 1


def git_commit() -> str:
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
            capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def suite_run(seed: int, seconds: float, *, traced: bool, quick: bool,
              only=None, corrupt: bool = False) -> tuple[int, dict]:
    run = {"seed": seed, "workloads": {}}
    worst = 0
    for name in only or WORKLOAD_NAMES:
        started = time.perf_counter()
        code, record = run_workload(name, seed, seconds, traced=traced,
                                    quick=quick, corrupt=corrupt)
        if record is None:
            print(f"{name}: child failed with exit code {code}",
                  file=sys.stderr)
            worst = worst or code or 2
            continue
        record["wall_s"] = time.perf_counter() - started
        print_record(record)
        run["workloads"][name] = record
        worst = worst or code
    return worst, run


def suite_main(args) -> int:
    seconds = QUICK_SECONDS if args.quick else args.seconds
    reps = args.calibrate or 1
    if args.calibrate and args.calibrate < 5:
        print("--calibrate needs at least 5 runs", file=sys.stderr)
        return 2
    doc = {"schema": 1, "commit": git_commit(), "seed": args.seed,
           "seconds": seconds, "quick": args.quick, "runs": []}
    worst = 0
    for rep in range(reps):
        # Per-layer numbers are taken once; calibration repeats the
        # untraced suite on fresh seeds, as the driver does.
        code, run = suite_run(args.seed + rep, seconds,
                              traced=args.traced and rep == 0,
                              quick=args.quick, only=args.only,
                              corrupt=args.corrupt)
        doc["runs"].append(run)
        worst = worst or code
    first = next(iter(doc["runs"][0]["workloads"].values()), None)
    doc["machine"] = first["machine"] if first else {}
    doc["summary"] = compare.summarise(doc["runs"])
    if args.calibrate:
        compare.print_summary(doc["summary"])
        if worst == 0:
            written = compare.write_benchmark_json(ROOT, doc["summary"],
                                                   int(args.seconds))
            print("BENCHMARK.json bounds:", {
                m["name"]: m["bound"] for m in written["end_to_end"]})
    if args.json:
        Path(args.json).write_text(json.dumps(doc, indent=1) + "\n")
    failed = sum(r["failed"] for run in doc["runs"]
                 for r in run["workloads"].values())
    print(f"suite: {len(doc['runs'])} run(s), failed items {failed}, "
          f"exit {worst}")
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload under the "
                        "driver contract (default: the whole suite)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of each measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="driver mode: 1 = per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="suite: add the staged replay (per-layer metrics)")
    parser.add_argument("--quick", action="store_true",
                        help="small rings, sub-second phases, one set-up "
                        "(what the smoke test runs)")
    parser.add_argument("--only", nargs="+", metavar="WORKLOAD",
                        help="suite: restrict to these workloads")
    parser.add_argument("--calibrate", type=int, metavar="R", default=0,
                        help="run the suite R (>= 5) times, print the noise "
                        "table and write the bounds into BENCHMARK.json")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--json", metavar="PATH", help="write the results here")
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test: corrupt one output before checking")
    parser.add_argument("--child", choices=("probe", "measure"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--replay", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)
    if args.compare:
        bounds = {m["name"]: m["bound"] for m in json.loads(
            (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
        return compare.compare(*args.compare, bounds)
    if args.workload and not (args.traced or args.calibrate):
        return driver_main(args)
    if args.workload:
        args.only = [args.workload]
    return suite_main(args)


if __name__ == "__main__":
    raise SystemExit(main())
