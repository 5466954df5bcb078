"""P11 (added) — path queries: bidirectional-BFS vs naive shortestPath.

The acceptance bar: over a 50k-node containment hierarchy, the
bidirectional-BFS shortestPath between a bound (root, leaf) pair must be
≥5x faster than the naive enumerator, with identical rows.
"""

from experiments import perf_paths


def test_perf_paths(benchmark, assert_result):
    result = benchmark.pedantic(
        lambda: perf_paths(nodes=50_000, branching=3, repeats=2),
        rounds=2,
        warmup_rounds=1,
        iterations=1,
    )
    assert_result(result, "P11", min_rows=2)
    rows = {(row["route"], row["comparison"]): row for row in result.rows}

    naive = rows[("naive enumeration", "shortestPath (bound pair)")]
    bfs = rows[("bidirectional BFS", "shortestPath (bound pair)")]
    assert bfs["rows"] == naive["rows"] == 1
    assert bfs["best_ms"] * 5 <= naive["best_ms"], (
        f"bidirectional BFS {bfs['best_ms']:.3f}ms vs naive {naive['best_ms']:.3f}ms"
    )
