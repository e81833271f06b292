"""Noise calibration and comparison of result files.

A result file holds one or more suite runs (``runs``) and, once summarised,
per (workload, metric) the median, quartiles, max deviation and spread
(IQR / median) of the repeated runs.  ``calibrate`` turns spreads into the
bounds of ``BENCHMARK.json`` and applies the demotion rule; ``compare``
reports every (workload, metric) in its own row, every ratio with its base.
"""

from __future__ import annotations

import json
from pathlib import Path

from metrics import (
    BY_NAME, DRIVER_END_TO_END, END_TO_END, driver_per_layer, quartile_spread,
)
from workloads import WORKLOAD_NAMES, workload

#: a timed metric whose quartiles lie further apart than this share of its
#: median on some workload is demoted there to a diagnostic
DEMOTE_SPREAD = 0.10
#: no bound is ever wider than the driver allows
MAX_BOUND = 0.25


def summarise(runs: list[dict]) -> dict:
    """Per (workload, end-to-end metric): statistics over the runs."""
    summary: dict[str, dict] = {}
    for name in WORKLOAD_NAMES:
        rows = [run["workloads"][name] for run in runs
                if name in run["workloads"]]
        if not rows:
            continue
        summary[name] = {}
        for metric in END_TO_END:
            values = [row["end_to_end"][metric.name]["value"] for row in rows
                      if metric.name in row["end_to_end"]]
            if not values:
                continue
            stat = quartile_spread(values)
            stat["unit"] = metric.unit
            stat["demoted"] = (not metric.exact and len(values) >= 5
                               and stat["spread"] > DEMOTE_SPREAD)
            summary[name][metric.name] = stat
    return summary


def bounds_from(summary: dict) -> dict[str, float]:
    """Bounds for BENCHMARK.json: the metric's floor from the table, widened
    to three times the widest spread any gated workload showed, and never
    above the MAX_BOUND the driver allows."""
    bounds = {}
    for name in DRIVER_END_TO_END:
        widest = max((rows[name]["spread"] for wl, rows in summary.items()
                      if workload(wl).gated and name in rows), default=0.0)
        bounds[name] = round(
            min(MAX_BOUND, max(BY_NAME[name].bound, 3 * widest)), 3)
        if widest > MAX_BOUND:
            print(f"WARNING: {name} spread {widest:.1%} exceeds the widest "
                  f"bound the driver accepts ({MAX_BOUND:.0%})")
    return bounds


def benchmark_json(bounds: dict[str, float] | None = None,
                   run_seconds: int = 10) -> dict:
    """The driver's contract file, generated from the metric tables."""
    bounds = bounds or {}
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": run_seconds,
        "workloads": [{"name": name, "why": workload(name).why}
                      for name in WORKLOAD_NAMES if workload(name).gated],
        "end_to_end": [
            {"name": name, "unit": BY_NAME[name].unit,
             "better": BY_NAME[name].better,
             "bound": bounds.get(name, BY_NAME[name].bound)}
            for name in DRIVER_END_TO_END],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in driver_per_layer()],
    }


def write_benchmark_json(root: Path, summary: dict, run_seconds: int) -> dict:
    doc = benchmark_json(bounds_from(summary), run_seconds)
    (root / "BENCHMARK.json").write_text(json.dumps(doc, indent=2) + "\n")
    return doc


def print_summary(summary: dict) -> None:
    print(f"{'workload':24s} {'metric':26s} {'median':>14s} {'q1':>14s} "
          f"{'q3':>14s} {'max dev':>8s} {'spread':>7s}  n")
    for name, rows in summary.items():
        for metric, s in rows.items():
            note = "  DEMOTED (diagnostic on this workload)" if s["demoted"] else ""
            print(f"{name:24s} {metric:26s} {s['median']:14.6g} "
                  f"{s['q1']:14.6g} {s['q3']:14.6g} {s['max_dev']:8.1%} "
                  f"{s['spread']:7.1%} {s['n']:2d} {s['unit']}{note}")


# ------------------------------------------------------------------- compare
def _values(doc: dict, name: str, metric: str) -> list[float]:
    return [run["workloads"][name]["end_to_end"][metric]["value"]
            for run in doc["runs"]
            if metric in run["workloads"].get(name, {}).get("end_to_end", {})]


def verdict(metric, base: list[float], new: list[float], bound: float,
            demoted: bool) -> str:
    """improved / within bound / regressed / unresolved, for one row."""
    b, n = quartile_spread(base), quartile_spread(new)
    if metric.exact:
        return "equal" if set(base) == set(new) else "CHANGED"
    if demoted:
        return "diagnostic"
    lower = metric.better == "lower"
    worse = (n["median"] - b["median"]) / b["median"] * (1 if lower else -1)
    every_run_better = (max(new) < min(base) if lower
                        else min(new) > max(base))
    # Spread wider than the bound: the runs cannot resolve a change that
    # small, unless every run of B reads better than every run of A.
    noisy = max(b["spread"], n["spread"]) > bound
    if worse > bound:
        return "unresolved" if noisy else "REGRESSED"
    if noisy and not every_run_better:
        return "unresolved"
    # A gain must exceed the spread between the base's own runs.
    return "improved" if -worse > b["spread"] and worse < 0 else "within bound"


def compare(path_a: str, path_b: str, bounds: dict[str, float]) -> int:
    """Print one row per (workload, metric); returns 1 on any regression."""
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    demotions = a.get("summary", {})
    print(f"base A = {path_a} (commit {a.get('commit')}, "
          f"{len(a['runs'])} run(s));  new B = {path_b} "
          f"(commit {b.get('commit')}, {len(b['runs'])} run(s))")
    print(f"{'workload':24s} {'metric':26s} {'A median':>14s} {'B median':>14s} "
          f"{'B/A':>8s} {'bound':>6s}  verdict")
    bad = 0
    for name in WORKLOAD_NAMES:
        for metric in END_TO_END:
            base, new = _values(a, name, metric.name), _values(b, name, metric.name)
            if not base or not new:
                continue
            bound = bounds.get(metric.name, metric.bound)
            demoted = demotions.get(name, {}).get(metric.name, {}).get(
                "demoted", False)
            word = verdict(metric, base, new, bound, demoted)
            bad += word in ("REGRESSED", "CHANGED")
            ma = quartile_spread(base)["median"]
            mb = quartile_spread(new)["median"]
            ratio = f"{mb / ma:8.3f}" if ma else "     n/a"
            print(f"{name:24s} {metric.name:26s} {ma:14.6g} {mb:14.6g} "
                  f"{ratio} {bound:6.2f}  {word}")
    return 1 if bad else 0
