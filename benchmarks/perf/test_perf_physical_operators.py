"""P8 (added) — the physical operator layer vs its pre-refactor baselines.

The acceptance bar: over a ≥50k-node synthetic graph, at least one of the
three physical-operator comparisons must be ≥5x — and the two robust ones
(range seek vs label scan, hash join vs nested loop) are each held to that
bar individually, with identical rows in every comparison.  The top-k
ratio is reported only: its win is bounded by the per-row projection cost
both routes pay.
"""

from experiments import perf_physical_operators


def test_perf_physical_operators(benchmark, assert_result):
    result = benchmark.pedantic(
        lambda: perf_physical_operators(nodes=50_000, join_side=400, limit=10, repeats=2),
        rounds=2,
        warmup_rounds=1,
        iterations=1,
    )
    assert_result(result, "P8", min_rows=6)
    by_route = {row["route"]: row for row in result.rows}

    scan = by_route["label scan (no ordered index)"]
    seek = by_route["IndexRangeSeek (ordered index)"]
    assert seek["rows"] == scan["rows"] == 20
    assert seek["best_ms"] * 5 <= scan["best_ms"], (
        f"range seek {seek['best_ms']:.3f}ms vs scan {scan['best_ms']:.3f}ms"
    )

    nested = by_route["nested loop (join_ordering=False)"]
    hashed = by_route["HashJoin"]
    assert hashed["rows"] == nested["rows"] > 0
    assert hashed["best_ms"] * 5 <= nested["best_ms"], (
        f"hash join {hashed['best_ms']:.3f}ms vs nested loop {nested['best_ms']:.3f}ms"
    )

    sort = by_route["eager full sort"]
    topk = by_route["streaming TopK"]
    assert topk["rows"] == sort["rows"] == 10
    # top-k must at least never regress; its speedup is workload-bound
    assert topk["best_ms"] <= sort["best_ms"] * 1.2, (
        f"top-k {topk['best_ms']:.3f}ms vs full sort {sort['best_ms']:.3f}ms"
    )
