"""Alternating parent/change pairs of end-to-end workloads.

``python benchmarks/ab_pairs.py W1 [W2 ...] [--pairs 10] [--ref HEAD~1]``
archives ``--ref`` and the work tree into a temp dir (one pair of archives
for all workloads) and runs the unchanged driver command
(``benchmarks/e2e/run.py --workload W --seconds 10 --trace 0``) on each,
``--pairs`` times: the workloads are interleaved inside each pair, the side
that goes first alternates and each pair gets a fresh seed.  Prints every
run, then one row per (workload, end-to-end metric): each side's median and
quartiles, pairs won, and ``failed`` -- the numbers the claim rule (nine of
ten pairs, medians apart by more than the parent's quartile distance) asks
for.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LOWER_IS_BETTER = ("setup_s", "latency_p50_ms", "peak_rss_mb")


def run(tree, workload: str, seed: int) -> dict:
    """One driver-contract run in ``tree``: its last stdout line, parsed."""
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "10", "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    record = json.loads(done.stdout.strip().splitlines()[-1])
    return {**{k: m["value"] for k, m in record["metrics"].items()},
            "failed": record["failed"]}


def checkout(ref: str, dest: Path) -> Path:
    archive = subprocess.run(["git", "archive", ref], cwd=ROOT, check=True,
                             stdout=subprocess.PIPE)
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)
    return dest


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="+", metavar="workload")
    ap.add_argument("--pairs", type=int, default=10, help="at least 2")
    ap.add_argument("--ref", default="HEAD~1")
    args = ap.parse_args()
    if args.pairs < 2:      # the quartiles below need two runs a side
        ap.error("--pairs must be at least 2")
    # The change is the work tree as `git stash create` sees it (tracked and
    # staged files), or HEAD when nothing is uncommitted: fresh like the parent.
    # It leaves untracked files out, so a new module or test would be missing.
    status = subprocess.run(
        ["git", "status", "--porcelain", "--untracked-files=all", "--",
         "src", "tests"], cwd=ROOT, check=True, stdout=subprocess.PIPE,
        text=True).stdout.splitlines()
    untracked = [line[3:] for line in status if line.startswith("??")]
    if untracked:
        sys.exit("untracked files would be left out of the change "
                 "(`git add` them):\n  " + "\n  ".join(untracked))
    work = subprocess.run(["git", "stash", "create"], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": checkout(args.ref, Path(tmp, "parent")),
                 "change": checkout(work or "HEAD", Path(tmp, "change"))}
        runs = {(w, side): [] for w in args.workloads for side in trees}
        seed = int(time.time()) % 100_000      # fresh per invocation and pair
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for workload in args.workloads:
                for side in order:
                    runs[workload, side].append(
                        run(trees[side], workload, seed + pair))
                print(f"pair {pair} {workload}:",
                      *(f"{side} {runs[workload, side][-1]}" for side in order),
                      flush=True)

    def spread(values) -> str:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
        return f"{med:.4g} ({q1:.4g} .. {q3:.4g})"

    print("| workload | metric | parent median (quartiles) "
          "| change median (quartiles) | change better | failed p / c |")
    print("|---|---|---|---|---|---|")
    for workload in args.workloads:
        parent, change = runs[workload, "parent"], runs[workload, "change"]
        failed = " / ".join(str(sum(r["failed"] for r in side))
                            for side in (parent, change))
        for metric in list(parent[0])[:-1]:        # "failed" is last
            sign = -1 if metric in LOWER_IS_BETTER else 1
            won = sum(sign * c[metric] > sign * p[metric]
                      for p, c in zip(parent, change))
            print(f"| {workload} | {metric} "
                  f"| {spread([r[metric] for r in parent])} "
                  f"| {spread([r[metric] for r in change])} "
                  f"| {won} of {args.pairs} | {failed} |")


if __name__ == "__main__":
    main()
