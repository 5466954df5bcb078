"""Optimizer torture harness: estimate scoring and plan-regret measurement.

The optimizer's estimates (histograms, composite selectivities, WHERE
corrections) and its plan choices (join order, hash joins, ordered scans,
path routing) are all advisory — a bad one can never change results, only
performance.  That safety also means nothing *fails* when an estimate is
off by 1000x; misestimates silently rot.  This harness turns them into
measurable regressions:

* **q-error** — for every query of a seeded randomized workload, the
  plan's estimated rows are compared against the actually produced rows:
  ``q = max(est/actual, actual/est)`` (with both sides clamped to ≥1, the
  standard convention so empty results do not divide by zero).  A perfect
  estimator scores 1.0 everywhere; the *median* over the workload is the
  gated headline number.
* **plan regret** — every query is also executed in clause order (the
  join order the planner could have kept) and the planned execution's
  best-of time is divided by that alternative's: regret 1.0 means the
  planner picked (at least tied with) the better plan, 2.0 means it left
  a 2x faster plan on the table.  Naive path enumeration and the eager
  materialising executor run once, untimed, only to check they return
  the same rows: the planner can never choose them.

Both metrics come from one seeded workload over one seeded graph, so runs
are reproducible and regressions attributable.  The graph deliberately
mixes distributions the heuristics get wrong — a quadratically skewed
property where the one-third range heuristic misses by an order of
magnitude (the histogram fixes it), low-cardinality pairs where only the
composite index is selective, and a deep containment tree where narrow
hop windows reward DFS routing over interval scans.

Used by the P12 experiment (:func:`experiments.perf_optimizer`), the
``test_perf_optimizer.py`` regression gate next to this file and ``make
optimizer-demo``.
"""

from __future__ import annotations

import random
import statistics as _statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.cypher.executor import QueryExecutor
from repro.cypher.planner import PLAN_CACHE
from repro.graph.statistics import CardinalityEstimator
from repro.graph.store import PropertyGraph

#: The timed plan alternative: the planned configuration must beat (or
#: tie) it for its regret to stay at 1.0.
REGRET_BASELINE = "clause-order"
#: Executor configurations whose rows must equal the planned execution's.
BASELINES: dict[str, dict[str, Any]] = {
    REGRET_BASELINE: {"join_ordering": False},
    "naive-paths": {"naive_paths": True},
    "eager": {"eager": True},
}


@dataclass
class TortureCase:
    """One workload query's scored outcome."""

    kind: str
    query: str
    estimated_rows: float
    actual_rows: int
    q_error: float
    planned_ms: float
    best_baseline: str
    best_baseline_ms: float
    regret: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "query": self.query,
            "estimated_rows": self.estimated_rows,
            "actual_rows": self.actual_rows,
            "q_error": self.q_error,
            "planned_ms": self.planned_ms,
            "best_baseline": self.best_baseline,
            "best_baseline_ms": self.best_baseline_ms,
            "regret": self.regret,
        }


@dataclass
class TortureReport:
    """The scored workload plus the headline aggregates the gate reads."""

    seed: int
    cases: list[TortureCase] = field(default_factory=list)
    #: Median q-error of the one-third heuristic on the same range
    #: queries the histogram answered (histogram vs heuristic).
    heuristic_range_q_error: float = 0.0
    histogram_range_q_error: float = 0.0
    #: Accelerator routing counters after the narrow-hop segment.
    dfs_walks: int = 0
    interval_scans: int = 0

    def median_q_error(self) -> float:
        return _statistics.median(case.q_error for case in self.cases)

    def max_q_error(self) -> float:
        return max(case.q_error for case in self.cases)

    def median_regret(self) -> float:
        return _statistics.median(case.regret for case in self.cases)

    def worst_cases(self, count: int = 5) -> list[TortureCase]:
        """The most misestimated queries — the bug-report queue."""
        return sorted(self.cases, key=lambda case: -case.q_error)[:count]

    def by_kind(self) -> dict[str, list[TortureCase]]:
        grouped: dict[str, list[TortureCase]] = {}
        for case in self.cases:
            grouped.setdefault(case.kind, []).append(case)
        return grouped

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "median_q_error": self.median_q_error(),
            "max_q_error": self.max_q_error(),
            "median_regret": self.median_regret(),
            "heuristic_range_q_error": self.heuristic_range_q_error,
            "histogram_range_q_error": self.histogram_range_q_error,
            "dfs_walks": self.dfs_walks,
            "interval_scans": self.interval_scans,
            "cases": [case.to_dict() for case in self.cases],
        }


def q_error(estimated: float, actual: float) -> float:
    """The standard multiplicative estimation error, clamped at ≥1 sides."""
    est = max(float(estimated), 1.0)
    act = max(float(actual), 1.0)
    return max(est / act, act / est)


def build_torture_graph(seed: int = 0) -> PropertyGraph:
    """A seeded graph mixing distributions the naive heuristics get wrong.

    * ``Person`` — ``grp`` uniform over 8 values, ``tier`` uniform over 5,
      ``score`` *quadratically skewed* toward 0 (the one-third heuristic
      overestimates high ranges by ~an order of magnitude), ``uid``
      unique.  Indexes: range on ``score`` and ``uid``, equality via the
      same, composite on ``(grp, tier)``.
    * ``Item`` — ``cat`` uniform over 6 values with an equality index;
      ``Person -BOUGHT-> Item`` edges concentrate on a popular minority
      of items (skewed expansion factors).
    * ``Part`` — a 3-ary containment tree (``CHILD``) with a reachability
      index, deep enough that narrow hop windows reward DFS routing.
    """
    rng = random.Random(seed)
    graph = PropertyGraph(name=f"torture-{seed}")

    people = []
    for i in range(600):
        people.append(
            graph.create_node(
                ["Person"],
                {
                    "uid": i,
                    "grp": rng.randrange(8),
                    "tier": rng.randrange(5),
                    # Quadratic skew: ~0.81 of mass below 100, yet the
                    # value domain runs to 1000 — range heuristics that
                    # ignore the distribution misestimate badly.
                    "score": int(1000 * rng.random() ** 4),
                },
            )
        )
    items = [
        graph.create_node(["Item"], {"iid": i, "cat": rng.randrange(6)})
        for i in range(120)
    ]
    for person in people:
        for _ in range(rng.randrange(4)):
            # 80% of purchases hit the popular first 10 items.
            item = items[rng.randrange(10) if rng.random() < 0.8 else rng.randrange(120)]
            graph.create_relationship("BOUGHT", person.id, item.id)

    parts = [graph.create_node(["Part"], {"pid": 0, "depth": 0})]
    while len(parts) < 1200:
        index = len(parts)
        parent = parts[(index - 1) // 3]
        node = graph.create_node(
            ["Part"], {"pid": index, "depth": parent.properties["depth"] + 1}
        )
        graph.create_relationship("CHILD", parent.id, node.id)
        parts.append(node)

    graph.create_range_index("Person", "score")
    graph.create_range_index("Person", "uid")
    graph.create_property_index("Person", "grp")
    graph.create_composite_index("Person", ("grp", "tier"))
    graph.create_property_index("Item", "cat")
    graph.create_property_index("Part", "pid")
    graph.create_reachability_index("CHILD")
    return graph


def torture_workload(seed: int = 0, cases_per_kind: int = 6) -> list[tuple[str, str]]:
    """A seeded ``(kind, query)`` workload covering every estimator tier."""
    rng = random.Random(seed + 1)
    workload: list[tuple[str, str]] = []
    for _ in range(cases_per_kind):
        # Equality through the property index.
        grp = rng.randrange(8)
        workload.append(
            ("equality", f"MATCH (p:Person) WHERE p.grp = {grp} RETURN p.uid")
        )
        # Skewed range: the histogram tier answers, the heuristic misses.
        low = rng.randrange(100, 900)
        workload.append(
            ("range", f"MATCH (p:Person) WHERE p.score >= {low} RETURN p.uid")
        )
        # Provably empty / inverted range: the clamp tier answers.
        floor = rng.randrange(2000, 3000)
        workload.append(
            ("empty-range", f"MATCH (p:Person) WHERE p.uid > {floor} RETURN p.uid")
        )
        # Composite pair: only the combined selectivity is sharp.
        pair_grp, tier = rng.randrange(8), rng.randrange(5)
        workload.append(
            (
                "composite",
                "MATCH (p:Person) "
                f"WHERE p.grp = {pair_grp} AND p.tier = {tier} RETURN p.uid",
            )
        )
        # Non-sargable residual conjunct: the filtered-rows correction.
        residual_grp = rng.randrange(8)
        workload.append(
            (
                "residual-where",
                f"MATCH (p:Person) WHERE p.grp = {residual_grp} "
                "AND p.tier <> 0 RETURN p.uid",
            )
        )
        # Expansion joined across patterns (shared variable).
        cat = rng.randrange(6)
        workload.append(
            (
                "join",
                f"MATCH (p:Person)-[:BOUGHT]->(i:Item), (q:Person)-[:BOUGHT]->(i) "
                f"WHERE i.cat = {cat} AND p.grp = {rng.randrange(8)} "
                "RETURN count(*) AS n",
            )
        )
        # Narrow hop window over the containment tree (DFS routing).
        start = rng.randrange(1, 40)
        workload.append(
            (
                "narrow-hop",
                f"MATCH (a:Part {{pid: {start}}})-[:CHILD*1..2]->(x) "
                "RETURN count(x) AS n",
            )
        )
    return workload


def _timed_rows(
    run: Callable[[], list], repeats: int
) -> tuple[float, list]:
    timings, rows = [], []
    for _ in range(repeats):
        started = time.perf_counter()
        rows = run()
        timings.append(time.perf_counter() - started)
    return min(timings), rows


def _plan_estimate(graph, query: str) -> Optional[float]:
    """The plan's final row estimate for a single-MATCH workload query.

    The WHERE-corrected ``filtered_rows`` when the planner computed one,
    the raw pattern estimate otherwise; multi-pattern clauses multiply a
    join step's estimate into the running product the way the join-order
    cost model does.  ``None`` when the query has no planned pattern.
    """
    _, plan = PLAN_CACHE.get(query, graph)
    plans = plan.pattern_plans()
    if not plans:
        return None
    estimate = 1.0
    for pattern_plan in plans:
        rows = (
            pattern_plan.filtered_rows
            if pattern_plan.filtered_rows is not None
            else pattern_plan.estimated_rows
        )
        estimate *= max(rows, 1.0)
    return estimate


def run_torture(
    seed: int = 0, cases_per_kind: int = 6, repeats: int = 2
) -> TortureReport:
    """Score the seeded workload: q-error per query, regret vs baselines."""
    graph = build_torture_graph(seed)
    graph.reachability_index("CHILD").ensure(graph)  # build outside timers
    report = TortureReport(seed=seed)
    heuristic_errors: list[float] = []
    histogram_errors: list[float] = []
    estimator = CardinalityEstimator(graph)
    total_people = float(graph.count_nodes_with_label("Person"))

    for kind, query in torture_workload(seed, cases_per_kind):
        estimate = _plan_estimate(graph, query)
        planned_seconds, rows = _timed_rows(
            lambda: QueryExecutor(graph).execute(query).rows, repeats
        )
        # Aggregated queries return one row; score the aggregated count.
        if rows and set(rows[0]) == {"n"}:
            actual = int(rows[0]["n"])
        else:
            actual = len(rows)
        error = q_error(estimate if estimate is not None else 1.0, actual)

        for name, kwargs in BASELINES.items():
            baseline_seconds, baseline_rows = _timed_rows(
                lambda: QueryExecutor(graph, **kwargs).execute(query).rows,
                repeats if name == REGRET_BASELINE else 1,
            )
            assert sorted(map(_row_key, baseline_rows)) == sorted(
                map(_row_key, rows)
            ), f"baseline {name} disagrees on {query!r}"
            if name == REGRET_BASELINE:
                best_seconds = baseline_seconds
        regret = (
            planned_seconds / best_seconds
            if planned_seconds > best_seconds and best_seconds > 0
            else 1.0
        )
        report.cases.append(
            TortureCase(
                kind=kind,
                query=query,
                estimated_rows=estimate if estimate is not None else 1.0,
                actual_rows=actual,
                q_error=error,
                planned_ms=1000 * planned_seconds,
                best_baseline=REGRET_BASELINE,
                best_baseline_ms=1000 * best_seconds,
                regret=regret,
            )
        )
        if kind == "range":
            heuristic_errors.append(q_error(total_people / 3.0, actual))
            histogram_errors.append(error)

    report.heuristic_range_q_error = _statistics.median(heuristic_errors)
    report.histogram_range_q_error = _statistics.median(histogram_errors)
    accelerator = graph.reachability_index("CHILD")
    report.dfs_walks = accelerator.dfs_walks
    report.interval_scans = accelerator.interval_scans
    return report


def _row_key(row: dict) -> tuple:
    """A sortable, graph-entity-insensitive key for row-set comparison."""
    return tuple(sorted((name, repr(value)) for name, value in row.items()))
