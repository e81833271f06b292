"""One-command verification: tier-1 tests + perf gate + examples smoke.

Usage (any checkout, no PYTHONPATH fiddling needed)::

    python -m repro.verify               # everything
    python -m repro.verify --fast        # quick gate: unit tests minus @slow
    python -m repro.verify --skip-perf   # e.g. on machines without a baseline

Steps, in order:

1. **tier-1** — ``pytest -x -q tests benchmarks`` minus
   ``tests/test_examples.py`` (unit + table/figure regeneration suites,
   including the backend-equivalence properties, the serving-runtime
   stress tests, the replica pools, the remote trace stitch and the chaos
   soak);
2. **perf gate** — ``benchmarks/check_perf.py`` times the batched-engine hot
   kernels against ``BENCH_engine.json`` (non-zero past 2.5x baseline);
3. **examples smoke** — the ``examples/*.py`` mains at reduced sizes
   (``tests/test_examples.py``), run as their own step so an example
   regression is attributed even when tier-1 stopped early on an
   unrelated failure.

``--fast`` is the inner-loop / pre-merge gate: it runs only ``tests/`` with
``-m "not slow"`` (deselecting the bootstrapping/GSW functional suites, see
``pytest.ini``; the examples run inside it) and skips the perf gate, so
fast checks finish in about a minute.

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
    # Relative, as in ROADMAP's tier-1 command (steps run from REPO_ROOT):
    # benchmarks/e2e's driver-contract test expects a bare directory
    # elsewhere *not* to find the package.
    src = "src"
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
                        help="quick gate: tests/ minus @slow, no perf gate")
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
                                 "--ignore=tests/test_examples.py",
                                 "tests", "benchmarks"])
    results = [tier1]
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
