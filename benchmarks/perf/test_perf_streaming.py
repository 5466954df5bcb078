"""P6 (added) — streaming vs eager ``MATCH … LIMIT`` point-query latency.

The acceptance bar for the streaming pipeline: over a ≥50k-node synthetic
graph, a MATCH-with-LIMIT point query must be at least 10x faster through
the streaming executor than through the eager (materialise-everything)
baseline, with identical rows.
"""

from experiments import perf_streaming_limit


def test_perf_streaming_limit(benchmark, assert_result):
    result = benchmark.pedantic(
        lambda: perf_streaming_limit(nodes=50_000, limit=10, repeats=3),
        rounds=2,
        warmup_rounds=1,
        iterations=1,
    )
    assert_result(result, "P6", min_rows=2)
    by_route = {row["route"]: row for row in result.rows}
    eager = by_route["eager (materialise every clause)"]
    streaming = by_route["streaming pipeline"]
    assert streaming["rows"] == eager["rows"] == 10
    # the tentpole acceptance criterion: ≥10x faster when streaming
    assert streaming["best_ms"] * 10 <= eager["best_ms"], (
        f"streaming {streaming['best_ms']:.3f}ms vs eager {eager['best_ms']:.3f}ms"
    )
