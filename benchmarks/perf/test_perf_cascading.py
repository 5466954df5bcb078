"""P2 (added) — cascading depth cost and static termination verdicts."""

from experiments import perf_cascading


def test_perf_cascading(benchmark, assert_result):
    result = benchmark.pedantic(
        lambda: perf_cascading(depths=(1, 2, 4, 8)), rounds=1, iterations=1
    )
    assert_result(result, "P2", min_rows=4)
    rows = {row["chain_length"]: row for row in result.rows}
    # each trigger in the chain fires exactly once and the cascade reaches the
    # expected depth (depth d fires at cascade level d-1)
    for depth in (1, 2, 4, 8):
        assert rows[depth]["triggers_fired"] == depth
        assert rows[depth]["max_depth_reached"] == depth - 1
        assert rows[depth]["termination_guaranteed"] is True
    # cost grows with depth
    assert rows[8]["seconds"] >= rows[1]["seconds"]
