"""Table 5: sensitivity to F1's design choices — low-throughput NTT and
automorphism FUs (HEAX-style, same aggregate throughput) and the CSR
register-pressure scheduler baseline."""

from repro.bench.runner import table5_rows

SCALE = 0.2


def test_table5(benchmark, once):
    rows = once(benchmark, lambda: table5_rows(scale=SCALE))
    print(f"\nTable 5 — slowdowns of F1 variants at scale {SCALE} (measured | paper):")
    for row in rows:
        def fmt(key):
            val = row.get(key)
            ref = row.get(f"paper_{key}")
            if val is None:
                return "   (csr intractable)"
            return f"{val:5.2f}x | {ref if ref is not None else ' -- '}"
        print(
            f"  {row['benchmark']:22s} LT-NTT {fmt('lt_ntt')}   "
            f"LT-Aut {fmt('lt_aut')}   CSR {fmt('csr')}"
        )
    # Directional shape: variants are slower-or-equal at compute-leaning
    # benchmarks; at this scale some memory-bound benchmarks are insensitive
    # (the paper reports 1.1-12.1x; both columns are in ROADMAP.md's "Where
    # the evidence points now" table).
    mnist = next(r for r in rows if r["benchmark"] == "lola_mnist_uw")
    assert mnist["lt_ntt"] >= 1.0
    assert mnist["lt_aut"] >= 0.95
    for row in rows:
        for key in ("lt_ntt", "lt_aut"):
            assert row[key] is None or row[key] > 0.7
