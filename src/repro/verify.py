"""One-command verification: tier-1 tests + perf gate + examples smoke.

Usage (any checkout, no PYTHONPATH fiddling needed)::

    python -m repro.verify               # everything
    python -m repro.verify --fast        # quick gate: unit tests minus @slow
    python -m repro.verify --skip-perf   # e.g. on machines without a baseline

Steps, in order:

1. **tier-1** — ``pytest -x -q tests benchmarks`` (unit + table/figure
   regeneration suites, including the backend-equivalence properties and
   the serving-runtime stress tests);
2. **perf gate** — ``benchmarks/check_perf.py`` times the batched-engine hot
   kernels against ``BENCH_engine.json`` (non-zero past 2.5x baseline);
3. **examples smoke** — the ``examples/*.py`` mains at reduced sizes
   (``tests/test_examples.py``), re-run standalone so an example regression
   is attributed even when tier-1 stopped early on an unrelated failure.

``--fast`` is the inner-loop / pre-merge gate: it runs only ``tests/`` with
``-m "not slow"`` (deselecting the bootstrapping/GSW functional suites, see
``pytest.ini``) and skips the perf gate and examples smoke, so fast checks
— including the multi-threaded serving stress tests — finish in seconds
instead of minutes.  Both modes additionally run a 2-replica smoke over
both pool kinds (forked socketpair replicas, then worker-host
subprocesses over TCP: context replication from serialized keys over
the one framed protocol), a 2-host observability smoke (traced requests: span stitching across the
wire, worker metrics blobs merged into coordinator percentiles, Chrome
trace-event export), a 2-host chaos smoke (seeded drop/corrupt/delay
injection with a worker kill mid-run: zero lost futures, every ok result
solo-identical), and a 2-thread limb-fan smoke (every
``REPRO_NUM_THREADS`` fan point run serial-vs-threaded, asserting
bit-identical outputs) so CI always exercises the process-pool, network,
observability, resilience, and threaded-kernel serving paths.

Exits non-zero if any step fails, so CI can gate on this single command.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def _env() -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    return env


def _step(title: str, cmd: list[str]) -> tuple[str, bool, float]:
    print(f"\n=== {title}: {' '.join(cmd)}", flush=True)
    start = time.perf_counter()
    code = subprocess.call(cmd, cwd=REPO_ROOT, env=_env())
    elapsed = time.perf_counter() - start
    return title, code == 0, elapsed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--fast", action="store_true",
                        help="quick gate: tests/ minus @slow; skip perf gate "
                             "and examples smoke")
    parser.add_argument("--skip-perf", action="store_true",
                        help="skip the hot-kernel perf regression gate")
    parser.add_argument("--skip-examples", action="store_true",
                        help="skip the examples smoke step")
    args = parser.parse_args(argv)

    py = sys.executable
    if args.fast:
        tier1 = _step("tier-1 (fast)", [py, "-m", "pytest", "-x", "-q",
                                        "-m", "not slow", "tests"])
    else:
        tier1 = _step("tier-1", [py, "-m", "pytest", "-x", "-q",
                                 "tests", "benchmarks"])
    results = [tier1]
    # One replica smoke over both pool kinds, in a fresh interpreter: two
    # forked socketpair replicas, then two repro.net.worker subprocesses
    # over TCP.  Each replicates a registry entry over the framed
    # protocol, checks the keygen-once invariant replica-side (same
    # secret, distinct pids, RNGs reseeded apart), and verifies pool
    # outputs are bit-identical to in-process execution.
    results.append(_step(
        "replica smoke",
        [py, "-c", "import sys; from repro.net.cluster import replica_smoke; "
                   "sys.exit(replica_smoke('process', 2) "
                   "or replica_smoke('remote', 2))"],
    ))
    # A 2-host observability smoke: traced requests over the socket
    # transport, asserting coordinator/worker span stitching, worker
    # metrics-blob merging into stats() percentiles, and a re-parsable
    # Chrome trace-event dump.
    results.append(_step(
        "obs smoke",
        [py, "-c", "import sys; from repro.obs import "
                   "obs_smoke; sys.exit(obs_smoke(2))"],
    ))
    # A 2-host chaos smoke: seeded drop/corrupt/delay injection plus one
    # worker kill mid-run; asserts the resilience contract — zero lost
    # futures, every status in {ok, expired, failed, shed}, and every ok
    # result matching an isolated solo run.
    results.append(_step(
        "chaos smoke",
        [py, "-c", "import sys; from repro.net.chaos import "
                   "chaos_smoke; sys.exit(chaos_smoke(2))"],
    ))
    # A 2-thread limb-fan smoke: every REPRO_NUM_THREADS fan point (stacked
    # and flat NTT, batched base extension, scale-down, serve slot
    # pack/unpack) run serial-vs-threaded, asserting bit-identical outputs.
    results.append(_step(
        "threads smoke",
        [py, "-c", "import sys; from repro.poly.parallel import "
                   "thread_smoke; sys.exit(thread_smoke(2))"],
    ))
    if not (args.fast or args.skip_perf):
        results.append(
            _step("perf gate", [py, str(REPO_ROOT / "benchmarks" / "check_perf.py")])
        )
    if not (args.fast or args.skip_examples):
        results.append(
            _step("examples smoke",
                  [py, "-m", "pytest", "-q", "tests/test_examples.py"])
        )

    print("\n=== verification summary ===")
    failed_gates = []
    for title, ok, elapsed in results:
        print(f"  {'PASS' if ok else 'FAIL'}  {title:16s} ({elapsed:.1f}s)")
        if not ok:
            failed_gates.append(title)
    if failed_gates:
        print(f"\nFAILED gates: {', '.join(failed_gates)}")
        return 1
    print("\nall gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
