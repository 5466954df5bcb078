"""P1 (added) — trigger matching overhead vs number of installed triggers."""

from experiments import perf_trigger_overhead


def test_perf_trigger_overhead(benchmark, assert_result):
    # One unmeasured warmup round fills the global parse+plan cache, so the
    # measured rounds reflect steady-state trigger processing cost.
    result = benchmark.pedantic(
        lambda: perf_trigger_overhead(trigger_counts=(0, 4, 16, 64), statements=60),
        rounds=3,
        warmup_rounds=1,
        iterations=1,
    )
    assert_result(result, "P1", min_rows=4)
    by_count = {row["installed_triggers"]: row for row in result.rows}
    # more installed triggers cost more per statement, but the growth stays
    # roughly linear (not explosive) because matching is label-indexed
    assert by_count[64]["mean_ms_per_statement"] >= by_count[0]["mean_ms_per_statement"]
    assert by_count[64]["mean_ms_per_statement"] < 200 * max(
        by_count[0]["mean_ms_per_statement"], 0.001
    )
