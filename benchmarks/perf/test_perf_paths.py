"""P11 (added) — path queries: reachability accelerator vs DFS, shortestPath.

The acceptance bar: over a 50k-node containment hierarchy, answering a
bound-pair ``(root)-[:PART_OF*]->(leaf)`` query through the reachability
index must be ≥5x faster than the DFS expansion route, with identical
rows.  The unbound subtree-enumeration ratio is reported only (both
routes touch every descendant), and the bidirectional-BFS shortestPath
must beat the naive enumerator.
"""

from experiments import perf_paths


def test_perf_paths(benchmark, assert_result):
    result = benchmark.pedantic(
        lambda: perf_paths(nodes=50_000, branching=3, repeats=2),
        rounds=2,
        warmup_rounds=1,
        iterations=1,
    )
    assert_result(result, "P11", min_rows=6)
    rows = {(row["route"], row["comparison"]): row for row in result.rows}

    dfs = rows[("VarLengthExpand (dfs)", "bound-pair reachability")]
    probe = rows[("ReachabilityIndex probe", "bound-pair reachability")]
    assert probe["rows"] == dfs["rows"] == 1
    assert probe["best_ms"] * 5 <= dfs["best_ms"], (
        f"reachability probe {probe['best_ms']:.3f}ms vs dfs {dfs['best_ms']:.3f}ms"
    )

    scan_dfs = rows[("VarLengthExpand (dfs)", "subtree enumeration")]
    scan_accel = rows[("ReachabilityIndex scan", "subtree enumeration")]
    assert scan_accel["rows"] == scan_dfs["rows"] > 0
    # interval scan must at least never regress; both routes are O(subtree)
    assert scan_accel["best_ms"] <= scan_dfs["best_ms"] * 1.2, (
        f"interval scan {scan_accel['best_ms']:.3f}ms vs dfs {scan_dfs['best_ms']:.3f}ms"
    )

    naive = rows[("naive enumeration", "shortestPath (bound pair)")]
    bfs = rows[("bidirectional BFS", "shortestPath (bound pair)")]
    assert bfs["rows"] == naive["rows"] == 1
    assert bfs["best_ms"] * 5 <= naive["best_ms"], (
        f"bidirectional BFS {bfs['best_ms']:.3f}ms vs naive {naive['best_ms']:.3f}ms"
    )
