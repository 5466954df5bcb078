"""P12 (added) — optimizer torture: q-error and plan-regret regression gate.

The acceptance bar: over the seeded randomized workload of :mod:`torture`
(skewed value distributions, composite predicates, connected joins,
narrow hop windows), the median q-error of EXPLAIN's ``est~rows`` against
the rows actually produced must stay ≤ 2, the equi-depth histogram must
beat the one-third range heuristic on the same skewed range queries, and
at least one narrow-hop query must route through the accelerator's DFS
walk.

On top of the absolute bars, a regression gate compares the run against
the committed ``benchmarks/optimizer_baseline.json``: the estimation
aggregates (deterministic for a fixed seed) must not drift past a 1.25x
slack, and the timing-based median regret gets a generous 2x slack for
CI noise.  The full scored workload is dumped to
``BENCH_optimizer_qerror.json`` at the repository root (uploaded as a CI
artifact) so a failing gate names the exact queries that regressed.
"""

import json
from pathlib import Path

from experiments import perf_optimizer
from torture import run_torture

HERE = Path(__file__).resolve().parent
BASELINE_PATH = HERE.parent / "optimizer_baseline.json"
ARTIFACT_PATH = HERE.parent.parent / "BENCH_optimizer_qerror.json"


def test_perf_optimizer(benchmark, assert_result):
    baseline = json.loads(BASELINE_PATH.read_text())
    report = benchmark.pedantic(
        lambda: run_torture(
            seed=baseline["seed"], cases_per_kind=baseline["cases_per_kind"], repeats=2
        ),
        rounds=2,
        warmup_rounds=1,
        iterations=1,
    )
    ARTIFACT_PATH.write_text(json.dumps(report.to_dict(), indent=2) + "\n")

    # perf_optimizer scores the report and enforces the absolute bars:
    # median q-error ≤ 2, histogram < one-third heuristic, dfs_walks > 0.
    result = perf_optimizer(report=report)
    assert_result(result, "P12", min_rows=7)
    assert {row["kind"] for row in result.rows} >= {
        "equality",
        "range",
        "empty-range",
        "composite",
        "residual-where",
        "join",
        "narrow-hop",
    }

    # Regression gate vs the committed baseline.  Estimation quality is
    # deterministic for a fixed seed, so the slack only needs to absorb
    # actual-rows jitter from timing-based tie-breaks (there is none
    # today, but keep the gate from being byte-exact).
    median = report.median_q_error()
    assert median <= baseline["median_q_error"] * 1.25, (
        f"median q-error regressed: {median:.2f} vs "
        f"baseline {baseline['median_q_error']:.2f} (see {ARTIFACT_PATH.name})"
    )
    assert report.max_q_error() <= baseline["max_q_error"] * 1.25, (
        f"worst q-error regressed: {report.max_q_error():.2f} vs "
        f"baseline {baseline['max_q_error']:.2f} (see {ARTIFACT_PATH.name})"
    )
    assert report.histogram_range_q_error <= baseline["histogram_range_q_error"] * 1.25, (
        f"histogram range estimates regressed: {report.histogram_range_q_error:.2f} "
        f"vs baseline {baseline['histogram_range_q_error']:.2f}"
    )
    # Plan regret is wall-clock based; give CI noise a wide berth while
    # still catching a planner that starts picking dominated plans.
    regret = report.median_regret()
    assert regret <= max(baseline["median_regret"] * 2.0, 2.0), (
        f"median plan regret regressed: {regret:.2f} vs "
        f"baseline {baseline['median_regret']:.2f} (see {ARTIFACT_PATH.name})"
    )
