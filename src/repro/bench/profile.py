"""cProfile-based hot-kernel breakdown for the functional engine.

The perf gate (``benchmarks/check_perf.py``) tells you *whether* a kernel got
slower; this tool tells you *where the next bottleneck is*.  It runs a
workload program on the real-encryption functional backend under cProfile
and reports two views:

- a **kernel-bucket summary**: cumulative time attributed to the engine's
  hot layers (NTT stage loops, modular kernels, key switching, the RNS base
  conversions — ``base_extend`` / ``scale_down`` / ``crt_from_rns`` each get
  their own bucket — automorphisms, sampling, and raw numpy), so a perf PR
  can see at a glance which layer dominates;
- the raw **top functions by self time**, for drilling past the buckets.

Usage (any checkout)::

    PYTHONPATH=src python -m repro.bench.profile lola_mnist_uw
    PYTHONPATH=src python -m repro.bench.profile db_lookup --n 1024 --scale 0.1
    PYTHONPATH=src python -m repro.bench.profile serve_linear_bgv --json

``--json`` emits one machine-readable object (workload metadata, bucket
self-times, top functions) on stdout instead of the tables, for scripted
before/after comparisons across perf PRs.

Workloads are the Table-3 DSL generators (:mod:`repro.bench.workloads`) plus
the small serving circuits from :mod:`repro.bench.loadgen`; sizes default to
functional-simulator-friendly N=1024, scale=0.1.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys

#: function-name -> kernel bucket, checked before the path buckets so the
#: base-conversion pipeline is split out of the files that host it.
FUNCTION_BUCKETS = {
    "base_extend": "base-extend",
    "base_extend_reference": "base-extend",
    "scale_down": "scale-down",
    "scale_down_stack": "scale-down",
    "_scale_down_correction": "scale-down",
    "scale_down_reference": "scale-down",
    "from_rns": "crt-from-rns",
    "_from_rns_exact": "crt-from-rns",
    "reconstruct": "crt-from-rns",
}

#: path substring -> kernel bucket (first match wins, top to bottom).
KERNEL_BUCKETS = [
    ("repro/poly/ntt.py", "ntt"),
    ("repro/poly/parallel.py", "thread-fan"),
    ("repro/poly/kernels.py", "modular-kernels"),
    ("repro/rns/convert.py", "base-extend"),
    ("repro/fhe/keyswitch.py", "key-switch"),
    ("repro/rns/crt.py", "crt"),
    ("repro/poly/automorphism.py", "automorphism"),
    ("repro/poly/polynomial.py", "poly-elementwise"),
    ("repro/fhe/sampling.py", "sampling"),
    ("repro/fhe/encoding.py", "encoding"),
    ("repro/fhe/", "scheme-ops"),
    ("repro/sim/", "interpreter"),
]


def available_workloads(n: int, scale: float) -> dict:
    from repro.bench.loadgen import linear_bgv_program, poly_ckks_program
    from repro.bench.workloads import benchmark_suite

    progs = dict(benchmark_suite(scale=scale, n=n))
    progs["serve_linear_bgv"] = linear_bgv_program(n)
    progs["serve_poly_ckks"] = poly_ckks_program(n)
    return progs


def _bucket_of(path: str, func: str) -> str | None:
    path = path.replace("\\", "/")
    if "repro/" in path and func in FUNCTION_BUCKETS:
        return FUNCTION_BUCKETS[func]
    for needle, bucket in KERNEL_BUCKETS:
        if needle in path:
            return bucket
    return None


def profile_workload(name: str, *, n: int = 1024, scale: float = 0.1,
                     top: int = 20, seed: int = 0,
                     as_json: bool = False) -> pstats.Stats:
    """Run ``name`` under cProfile and print the kernel breakdown."""
    progs = available_workloads(n, scale)
    if name not in progs:
        raise SystemExit(
            f"unknown workload {name!r}; available: {', '.join(sorted(progs))}"
        )
    program = progs[name]
    from repro.backends import FunctionalBackend

    # validate=False: the plaintext reference evaluation would dominate the
    # profile, and several Table-3 workloads only meet the CKKS tolerance at
    # full-size parameters anyway — this tool measures engine time, not
    # numerical accuracy (the tier-1 suites own that).
    backend = FunctionalBackend(validate=False)
    backend.run(program, seed=seed)  # warm NTT plans / hint caches / lru tables

    profiler = cProfile.Profile()
    profiler.enable()
    backend.run(program, seed=seed)
    profiler.disable()

    stats = pstats.Stats(profiler)
    total = stats.total_tt

    # Bucket self-time (tottime) by engine layer.
    buckets: dict[str, float] = {}
    numpy_time = 0.0
    for (path, _line, func), (_cc, _nc, tt, _ct, _callers) in stats.stats.items():
        bucket = _bucket_of(path, func)
        if bucket is None and ("numpy" in path or path == "~"):
            numpy_time += tt
            continue
        if bucket is not None:
            buckets[bucket] = buckets.get(bucket, 0.0) + tt
    buckets["numpy-builtin"] = numpy_time

    if as_json:
        top_funcs = sorted(
            (
                {"file": path, "line": line, "function": func,
                 "self_s": round(tt, 6), "cumulative_s": round(ct, 6),
                 "calls": nc}
                for (path, line, func), (_cc, nc, tt, ct, _callers)
                in stats.stats.items()
            ),
            key=lambda d: -d["self_s"],
        )[:top]
        print(json.dumps({
            "workload": name,
            "n": program.n,
            "scheme": program.scheme,
            "ops": len(program.ops),
            "seed": seed,
            "total_s": round(total, 6),
            "buckets": {
                b: round(tt, 6)
                for b, tt in sorted(buckets.items(), key=lambda kv: -kv[1])
                if tt > 0
            },
            "top": top_funcs,
        }, indent=2))
        return stats

    print(f"\nworkload {name}: N={program.n}, scheme={program.scheme}, "
          f"{len(program.ops)} ops — total {total:.3f}s")
    print(f"\n{'kernel bucket':20s} {'self-time':>10s} {'share':>7s}")
    for bucket, tt in sorted(buckets.items(), key=lambda kv: -kv[1]):
        if tt > 0:
            print(f"{bucket:20s} {tt:9.3f}s {100 * tt / total:6.1f}%")

    print(f"\ntop {top} functions by self time:")
    stats.sort_stats("tottime").print_stats(top)
    return stats


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.profile",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("workload", help="workload name (see module docstring)")
    parser.add_argument("--n", type=int, default=1024)
    parser.add_argument("--scale", type=float, default=0.1)
    parser.add_argument("--top", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", action="store_true",
                        help="emit one machine-readable JSON object instead "
                             "of the tables")
    args = parser.parse_args(argv)
    profile_workload(args.workload, n=args.n, scale=args.scale,
                     top=args.top, seed=args.seed, as_json=args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
