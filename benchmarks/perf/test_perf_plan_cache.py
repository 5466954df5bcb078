"""P5 (added) — index-aware planning and the global parse+plan cache."""

from experiments import perf_plan_cache


def test_perf_plan_cache(benchmark, assert_result):
    result = benchmark.pedantic(
        lambda: perf_plan_cache(nodes=1000, queries=100),
        rounds=3,
        warmup_rounds=1,
        iterations=1,
    )
    assert_result(result, "P5", min_rows=2)
    by_route = {row["route"]: row for row in result.rows}
    scan = by_route["label scan (no index)"]
    indexed = by_route["property index"]
    # the planner must actually choose the PropertyIndex access path …
    assert "IndexSeek(Patient.mrn = $mrn)" in indexed["plan"]
    assert "IndexSeek" not in scan["plan"]
    # … and the indexed route must beat the label scan decisively
    assert indexed["seconds"] < scan["seconds"] / 5
