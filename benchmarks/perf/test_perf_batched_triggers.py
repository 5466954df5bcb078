"""P7 (added) — batched vs per-activation trigger condition evaluation.

The acceptance bar for batched trigger evaluation: over a 50k-node delta
cascading through an N-trigger set, the batched engine must be at least
5x faster than the per-activation engine while producing the identical
Spike/Audit populations (the experiment itself asserts the equivalence).
"""

from experiments import perf_batched_triggers


def test_perf_batched_trigger_evaluation(benchmark, assert_result):
    result = benchmark.pedantic(
        lambda: perf_batched_triggers(nodes=50_000, gate_triggers=2, configs=96),
        rounds=1,
        warmup_rounds=0,
        iterations=1,
    )
    assert_result(result, "P7", min_rows=2)
    by_route = {row["route"]: row for row in result.rows}
    per_activation = by_route["per-activation"]
    batched = by_route["batched"]
    # identical trigger semantics: same firings, same cascade output
    assert batched["spikes"] == per_activation["spikes"] == 5
    assert batched["audits"] == per_activation["audits"] == 5
    # the batched path actually ran (one batch per Reading-trigger, 50k each)
    assert batched["batched_activations"] == 3 * 50_000
    assert per_activation["batched_activations"] == 0
    # the tentpole acceptance criterion: ≥5x faster when batched
    assert batched["seconds"] * 5 <= per_activation["seconds"], (
        f"batched {batched['seconds']:.2f}s vs "
        f"per-activation {per_activation['seconds']:.2f}s"
    )
