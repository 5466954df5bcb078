"""Wall-clock performance experiments, one function per experiment.

Each function builds its own graph, times the engine against an in-repo
baseline, and returns an :class:`ExperimentResult` whose rows the
``test_perf_*.py`` gates next to this file assert on.  The gates run in
``make bench-smoke``, not in the Tier-1 suite: a ratio of two wall-clock
times is not a correctness property.  Print one experiment with the
matching ``make *-demo`` target.

* :func:`perf_trigger_overhead`  — P1: cost per statement vs number of installed triggers
* :func:`perf_cascading`         — P2: cascade depth sweep + termination analysis verdicts
* :func:`perf_plan_cache`        — P5: index-aware planning and the global plan cache
* :func:`perf_streaming_limit`   — P6: streaming vs eager MATCH … LIMIT latency
* :func:`perf_batched_triggers`  — P7: batched vs per-activation trigger evaluation
* :func:`perf_physical_operators` — P8: range seek / hash join / top-k vs baselines
* :func:`perf_paths`             — P11: bidirectional-BFS vs naive shortestPath
* :func:`perf_optimizer`         — P12: optimizer torture: q-error distribution + plan regret
"""

from __future__ import annotations

import datetime as _dt
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.cypher.executor import QueryExecutor
from repro.cypher.planner import PLAN_CACHE
from repro.graph.store import PropertyGraph
from repro.triggers.engine import TriggerEngine
from repro.triggers.registry import TriggerRegistry
from repro.triggers.session import GraphSession
from repro.tx.manager import TransactionManager
from torture import run_torture

_CLOCK = lambda: _dt.datetime(2021, 3, 14, 12, 0, 0)  # noqa: E731 - deterministic clock


@dataclass
class ExperimentResult:
    """The rows and notes one experiment produced."""

    experiment_id: str
    title: str
    columns: list[str] = field(default_factory=list)
    rows: list[dict[str, Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, **values: Any) -> None:
        """Append one row, extending the column list as needed."""
        for key in values:
            if key not in self.columns:
                self.columns.append(key)
        self.rows.append(values)

    def note(self, text: str) -> None:
        """Attach a free-text note (rendered under the table)."""
        self.notes.append(text)

    def to_text(self) -> str:
        """Render the result as a fixed-width table with a header."""
        lines = [f"== {self.experiment_id}: {self.title} =="]
        if self.rows:
            widths = {
                column: max(len(column), *(len(_cell(row.get(column))) for row in self.rows))
                for column in self.columns
            }
            lines.append(" | ".join(column.ljust(widths[column]) for column in self.columns))
            lines.append("-+-".join("-" * widths[column] for column in self.columns))
            for row in self.rows:
                lines.append(
                    " | ".join(_cell(row.get(column)).ljust(widths[column]) for column in self.columns)
                )
        lines.extend(f"note: {note}" for note in self.notes)
        return "\n".join(lines)


def _cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, Mapping):
        return "{" + ", ".join(f"{k}: {_cell(v)}" for k, v in value.items()) + "}"
    return str(value)


def perf_trigger_overhead(trigger_counts=(0, 1, 4, 16, 64), statements: int = 150) -> ExperimentResult:
    """P1 — per-statement overhead as a function of installed (non-matching + matching) triggers."""
    result = ExperimentResult("P1", "P1 — trigger matching overhead vs installed triggers")
    for count in trigger_counts:
        session = GraphSession(clock=_CLOCK)
        for index in range(count):
            # half the triggers target the created label, half target others
            label = "Entity" if index % 2 == 0 else f"Other{index}"
            session.create_trigger(
                f"CREATE TRIGGER T{index} AFTER CREATE ON '{label}' FOR EACH NODE "
                f"WHEN NEW.value > 1000000 BEGIN CREATE (:Never) END"
            )
        started = time.perf_counter()
        for index in range(statements):
            session.run("CREATE (:Entity {value: $v})", {"v": index})
        elapsed = time.perf_counter() - started
        result.add_row(
            installed_triggers=count,
            statements=statements,
            total_seconds=elapsed,
            mean_ms_per_statement=1000 * elapsed / statements,
        )
    result.note("conditions are never satisfied, so the cost measured is matching + condition evaluation")
    return result


def perf_cascading(depths=(1, 2, 4, 8, 12)) -> ExperimentResult:
    """P2 — cascading chains of increasing length, with the static analysis verdict.

    Each depth's time is the median of five runs, each in a fresh session,
    after one untimed warm-up run: the work is sub-millisecond, so a
    single timing can be flipped by one pause.
    """
    result = ExperimentResult("P2", "P2 — cascading depth: runtime cost and termination analysis")
    for depth in depths:
        timings = []
        for attempt in range(6):  # the first run warms up
            session = GraphSession(clock=_CLOCK, max_cascade_depth=depth + 2)
            for level in range(depth):
                session.create_trigger(
                    f"CREATE TRIGGER Chain{level} AFTER CREATE ON 'Level{level}' FOR EACH NODE "
                    f"BEGIN CREATE (:Level{level + 1} {{step: {level + 1}}}) END"
                )
            started = time.perf_counter()
            session.run("CREATE (:Level0 {step: 0})")
            if attempt:
                timings.append(time.perf_counter() - started)
        report = session.analyse_termination()
        summary = session.engine.firing_summary().values()
        result.add_row(
            chain_length=depth,
            triggers_fired=sum(entry["executed"] for entry in summary),
            max_depth_reached=max((entry["max_depth"] for entry in summary), default=0),
            seconds=statistics.median(timings),
            termination_guaranteed=report.guaranteed_termination,
        )
    return result


def perf_plan_cache(nodes: int = 2000, queries: int = 200) -> ExperimentResult:
    """P5 — the planner's index access path and the shared parse+plan cache.

    Runs the same parameterised point lookup with and without a property
    index; the EXPLAIN output shows the chosen access path flipping from a
    label scan to a ``PropertyIndex`` lookup, and the cache statistics show
    that re-executions hit the plan cache instead of re-parsing.
    """
    result = ExperimentResult("P5", "P5 — index-aware planning and plan-cache behaviour")
    graph = PropertyGraph()
    for index in range(nodes):
        graph.create_node(["Patient"], {"mrn": index, "severity": index % 5})
    query = "MATCH (p:Patient) WHERE p.mrn = $mrn RETURN p.severity AS severity"

    def run_queries() -> float:
        executor = QueryExecutor(graph)
        started = time.perf_counter()
        for index in range(queries):
            executor.execute(query, parameters={"mrn": index % nodes})
        return time.perf_counter() - started

    probe = QueryExecutor(graph)
    before_stats = PLAN_CACHE.stats.snapshot()
    scan_seconds = run_queries()
    scan_plan = probe.plan_description(query)
    graph.create_property_index("Patient", "mrn")
    index_seconds = run_queries()
    index_plan = probe.plan_description(query)
    after_stats = PLAN_CACHE.stats.snapshot()

    result.add_row(
        route="label scan (no index)",
        queries=queries,
        seconds=scan_seconds,
        mean_us_per_query=1_000_000 * scan_seconds / queries,
        plan=scan_plan,
    )
    result.add_row(
        route="property index",
        queries=queries,
        seconds=index_seconds,
        mean_us_per_query=1_000_000 * index_seconds / queries,
        plan=index_plan,
    )
    plan_hits = after_stats["plan_hits"] - before_stats["plan_hits"]
    parse_misses = after_stats["parse_misses"] - before_stats["parse_misses"]
    result.note(f"plan cache hits during the run: {plan_hits}; query parses: {parse_misses}")
    result.note("index DDL bumps the graph's index epoch, re-planning the cached query")
    return result


def perf_streaming_limit(
    nodes: int = 50_000, limit: int = 10, repeats: int = 5
) -> ExperimentResult:
    """P6 — ``MATCH … LIMIT k`` latency: streaming pipeline vs eager baseline.

    Builds a synthetic graph of ``nodes`` people (half matching the
    predicate) and runs the same point query through two executors: the
    streaming pipeline (pulls rows lazily, so LIMIT stops the scan after a
    handful of candidates) and the ``eager=True`` baseline that
    materialises every clause fully — the pre-pipeline behaviour, which
    scanned all ``nodes`` before slicing off ``limit`` rows.
    """
    result = ExperimentResult(
        "P6", "P6 — streaming vs eager MATCH … LIMIT over a synthetic graph"
    )
    graph = PropertyGraph()
    for index in range(nodes):
        graph.create_node(["Person"], {"seq": index, "flag": index % 2})
    query = f"MATCH (p:Person) WHERE p.flag = 1 RETURN p.seq AS seq LIMIT {limit}"

    def best_of(eager: bool) -> tuple[float, list[dict]]:
        timings = []
        rows: list[dict] = []
        for _ in range(repeats):
            executor = QueryExecutor(graph, eager=eager)
            started = time.perf_counter()
            _, records = executor.stream(query)
            rows = list(records)
            timings.append(time.perf_counter() - started)
        return min(timings), rows

    eager_seconds, eager_rows = best_of(eager=True)
    stream_seconds, stream_rows = best_of(eager=False)
    assert stream_rows == eager_rows, "streaming and eager rows must agree"
    speedup = eager_seconds / stream_seconds if stream_seconds else float("inf")

    result.add_row(
        route="eager (materialise every clause)",
        nodes=nodes,
        limit=limit,
        best_ms=1000 * eager_seconds,
        rows=len(eager_rows),
    )
    result.add_row(
        route="streaming pipeline",
        nodes=nodes,
        limit=limit,
        best_ms=1000 * stream_seconds,
        rows=len(stream_rows),
    )
    result.note(f"speedup (eager / streaming): {speedup:.1f}x")
    result.note("both executions returned identical rows")
    return result


def perf_batched_triggers(
    nodes: int = 50_000, gate_triggers: int = 2, configs: int = 96
) -> ExperimentResult:
    """P7 — batched vs per-activation trigger evaluation over a 50k-node delta.

    One statement creates ``nodes`` Reading nodes, producing a delta with
    ``nodes`` activations for each installed FOR EACH trigger:

    * ``gate_triggers`` config-gated triggers whose condition matches a
      feature-flag node out of a ``configs``-node Config catalog (the flag
      is disabled, so they never fire) — the condition is activation-
      invariant, so the batched engine matches it once per delta while the
      per-activation engine re-scans the catalog ``nodes`` times;
    * one Escalate trigger whose condition correlates with ``NEW`` against
      the catalog's threshold entry, firing for the five highest readings
      (creating Spike nodes);
    * one Cascade trigger reacting to the produced Spikes — so the run
      also exercises a cascade seeded from inside the batch.

    The timed section is exactly the engine's processing of that delta,
    through two engines differing only in ``batched_conditions``.  Both
    routes must produce identical Spike/Audit populations; the batched
    route must be ≥5x faster.
    """
    result = ExperimentResult(
        "P7", "P7 — batched vs per-activation trigger condition evaluation"
    )
    outcomes: dict[str, tuple[int, int]] = {}
    timings: dict[str, float] = {}
    for route, batched in (("per-activation", False), ("batched", True)):
        graph = PropertyGraph()
        manager = TransactionManager(graph)
        registry = TriggerRegistry()
        # The incremental tier is disabled on both routes: P7 isolates the
        # batched-vs-sequential comparison (the spine's firehose-triggers
        # workload measures the incremental tier).
        engine = TriggerEngine(
            graph,
            registry,
            manager,
            clock=_CLOCK,
            batched_conditions=batched,
            incremental_conditions=False,
        )
        # A config catalog: one threshold entry, one (disabled) flag per
        # gate trigger, and filler entries that make the catalog scan cost
        # visible — the invariant work batching hoists out of the loop.
        graph.create_node(["Config"], {"name": "threshold", "cutoff": nodes - 5})
        for index in range(gate_triggers):
            graph.create_node(["Config"], {"name": f"gate{index}", "enabled": False})
        for index in range(configs):
            graph.create_node(["Config"], {"name": f"entry{index}", "payload": index})
        for index in range(gate_triggers):
            registry.install(
                f"CREATE TRIGGER Gate{index} AFTER CREATE ON 'Reading' FOR EACH NODE "
                f"WHEN MATCH (c:Config {{name: 'gate{index}', enabled: true}}) "
                "BEGIN CREATE (:NeverFired) END"
            )
        registry.install(
            "CREATE TRIGGER Escalate AFTER CREATE ON 'Reading' FOR EACH NODE "
            "WHEN MATCH (c:Config {name: 'threshold'}) WHERE NEW.value > c.cutoff "
            "BEGIN CREATE (:Spike {value: NEW.value}) END"
        )
        registry.install(
            "CREATE TRIGGER CascadeAudit AFTER CREATE ON 'Spike' FOR EACH NODE "
            "BEGIN CREATE (:Audit {value: NEW.value}) END"
        )
        tx = manager.begin()
        for index in range(nodes):
            tx.create_node(["Reading"], {"value": index + 1})
        delta = tx.end_statement()
        started = time.perf_counter()
        engine.run_statement_triggers(tx, delta)
        elapsed = time.perf_counter() - started
        manager.commit(tx)

        spikes = graph.count_nodes_with_label("Spike")
        audits = graph.count_nodes_with_label("Audit")
        outcomes[route] = (spikes, audits)
        timings[route] = elapsed
        evaluations = nodes * (gate_triggers + 1)
        result.add_row(
            route=route,
            nodes=nodes,
            triggers=gate_triggers + 2,
            seconds=elapsed,
            mean_us_per_evaluation=1_000_000 * elapsed / evaluations,
            spikes=spikes,
            audits=audits,
            batched_activations=engine.batch_stats["batched_activations"],
        )
    assert outcomes["per-activation"] == outcomes["batched"], (
        "batched evaluation changed trigger results"
    )
    speedup = timings["per-activation"] / timings["batched"] if timings["batched"] else float("inf")
    result.note(f"speedup (per-activation / batched): {speedup:.1f}x")
    result.note("both routes produced identical Spike and Audit populations")
    return result


def perf_physical_operators(
    nodes: int = 50_000, join_side: int = 400, limit: int = 10, repeats: int = 3
) -> ExperimentResult:
    """P8 — the physical operator layer over a 50k-node graph.

    Three head-to-head comparisons, each between a physical operator and
    the plan the engine was previously forced into:

    * **range seek vs label scan** — ``MATCH (n:Item) WHERE n.v >= lo AND
      n.v < hi`` through the ordered index (``IndexRangeSeek``) vs the
      same query before ``create_range_index`` (full label scan);
    * **hash join vs nested loop** — a disconnected pattern pair joined by
      a WHERE equality: the planner's ``HashJoin`` (default executor) vs
      the nested-loop cartesian (``join_ordering=False`` baseline);
    * **top-k vs full sort** — ``ORDER BY … LIMIT k`` through the
      streaming ``TopK`` heap vs the eager full-sort baseline.

    Every comparison asserts identical rows; the range-seek and hash-join
    routes must be ≥5x faster (the top-k ratio is reported — its win is
    bounded by per-row projection cost, which both routes pay).
    """
    result = ExperimentResult("P8", "P8 — physical operators: range seek, hash join, top-k")
    graph = PropertyGraph()
    for index in range(nodes):
        graph.create_node(["Item"], {"v": index})
    for index in range(join_side):
        graph.create_node(["L"], {"k": index % (join_side // 4), "i": index})
        graph.create_node(["R"], {"k": index % (join_side // 4), "i": index})

    def best_of(run) -> tuple[float, list[dict]]:
        timings, rows = [], []
        for _ in range(repeats):
            started = time.perf_counter()
            rows = run()
            timings.append(time.perf_counter() - started)
        return min(timings), rows

    def timed_query(query: str, **executor_kwargs):
        return best_of(lambda: QueryExecutor(graph, **executor_kwargs).execute(query).rows)

    # -- range seek vs label scan ---------------------------------------
    lo, hi = nodes // 2, nodes // 2 + 20
    range_query = f"MATCH (n:Item) WHERE n.v >= {lo} AND n.v < {hi} RETURN n.v AS v"
    scan_seconds, scan_rows = timed_query(range_query)
    graph.create_range_index("Item", "v")
    seek_seconds, seek_rows = timed_query(range_query)
    assert seek_rows == scan_rows and len(seek_rows) == 20
    range_speedup = scan_seconds / seek_seconds if seek_seconds else float("inf")
    probe = QueryExecutor(graph)
    assert "IndexRangeSeek" in probe.plan_description(range_query)
    result.add_row(route="label scan (no ordered index)", comparison="range predicate",
                   best_ms=1000 * scan_seconds, rows=len(scan_rows))
    result.add_row(route="IndexRangeSeek (ordered index)", comparison="range predicate",
                   best_ms=1000 * seek_seconds, rows=len(seek_rows))

    # -- hash join vs nested-loop cartesian -----------------------------
    join_query = (
        "MATCH (a:L), (b:R) WHERE a.k = b.k RETURN a.i AS ai, b.i AS bi"
    )
    nested_seconds, nested_rows = timed_query(join_query, join_ordering=False)
    hash_seconds, hash_rows = timed_query(join_query)
    assert sorted((r["ai"], r["bi"]) for r in hash_rows) == sorted(
        (r["ai"], r["bi"]) for r in nested_rows
    )
    join_speedup = nested_seconds / hash_seconds if hash_seconds else float("inf")
    assert "HashJoin" in probe.plan_description(join_query)
    result.add_row(route="nested loop (join_ordering=False)", comparison="disconnected join",
                   best_ms=1000 * nested_seconds, rows=len(nested_rows))
    result.add_row(route="HashJoin", comparison="disconnected join",
                   best_ms=1000 * hash_seconds, rows=len(hash_rows))

    # -- streaming top-k vs eager full sort -----------------------------
    topk_query = f"MATCH (n:Item) RETURN n.v AS v ORDER BY v DESC LIMIT {limit}"
    sort_seconds, sort_rows = timed_query(topk_query, eager=True)
    topk_seconds, topk_rows = timed_query(topk_query)
    assert topk_rows == sort_rows and len(topk_rows) == limit
    topk_speedup = sort_seconds / topk_seconds if topk_seconds else float("inf")
    assert "TopK" in probe.plan_description(topk_query)
    result.add_row(route="eager full sort", comparison="ORDER BY + LIMIT",
                   best_ms=1000 * sort_seconds, rows=len(sort_rows))
    result.add_row(route="streaming TopK", comparison="ORDER BY + LIMIT",
                   best_ms=1000 * topk_seconds, rows=len(topk_rows))

    assert range_speedup >= 5.0, f"range seek speedup only {range_speedup:.1f}x"
    assert join_speedup >= 5.0, f"hash join speedup only {join_speedup:.1f}x"
    result.note(f"range seek speedup (scan / seek): {range_speedup:.1f}x")
    result.note(f"hash join speedup (nested loop / hash): {join_speedup:.1f}x")
    result.note(f"top-k speedup (full sort / heap): {topk_speedup:.1f}x")
    result.note("every comparison returned identical rows")
    return result


def perf_paths(nodes: int = 50_000, branching: int = 3, repeats: int = 3) -> ExperimentResult:
    """P11 — shortestPath over a 50k-node containment hierarchy.

    The graph is a complete ``branching``-ary PART_OF tree (depth ~9 at
    50k nodes) with a property index on ``pid`` so start/target lookup
    never dominates the traversal being measured.  One comparison:
    **shortestPath latency** — bidirectional BFS vs the naive enumerator
    (``naive_paths=True``) on a bound (root, leaf) pair; the backward
    frontier is the parent chain, so the fast route explores ~depth nodes
    instead of every rel-unique walk.  Both routes must return identical
    rows.
    """
    result = ExperimentResult("P11", "P11 — path queries: shortestPath")
    graph = PropertyGraph()
    created = [graph.create_node(["Part"], {"pid": 0})]
    while len(created) < nodes:
        index = len(created)
        parent = created[(index - 1) // branching]
        node = graph.create_node(["Part"], {"pid": index})
        graph.create_relationship("PART_OF", parent.id, node.id)
        created.append(node)
    graph.create_property_index("Part", "pid")
    leaf_pid = nodes - 1
    depth = 0
    probe_index = leaf_pid
    while probe_index > 0:
        probe_index = (probe_index - 1) // branching
        depth += 1

    def timed_query(query: str, **executor_kwargs) -> tuple[float, list[dict]]:
        timings, rows = [], []
        for _ in range(repeats):
            started = time.perf_counter()
            rows = QueryExecutor(graph, **executor_kwargs).execute(query).rows
            timings.append(time.perf_counter() - started)
        return min(timings), rows

    # -- shortestPath: bidirectional BFS vs naive enumeration -----------
    shortest_query = (
        f"MATCH (b:Part {{pid: {leaf_pid}}}) "
        "MATCH p = shortestPath((a:Part {pid: 0})-[:PART_OF*..15]->(b)) "
        "RETURN length(p) AS len"
    )
    naive_seconds, naive_rows = timed_query(shortest_query, naive_paths=True)
    bfs_seconds, bfs_rows = timed_query(shortest_query)
    assert bfs_rows == naive_rows and bfs_rows == [{"len": depth}]
    assert "ShortestPath(" in QueryExecutor(graph).plan_description(shortest_query)
    shortest_speedup = naive_seconds / bfs_seconds if bfs_seconds else float("inf")
    result.add_row(route="naive enumeration", comparison="shortestPath (bound pair)",
                   best_ms=1000 * naive_seconds, rows=len(naive_rows))
    result.add_row(route="bidirectional BFS", comparison="shortestPath (bound pair)",
                   best_ms=1000 * bfs_seconds, rows=len(bfs_rows))

    result.note(f"shortestPath speedup (naive / bidirectional): {shortest_speedup:.1f}x")
    result.note(f"tree: {nodes} nodes, branching {branching}, target depth {depth}")
    result.note("both routes returned identical rows")
    return result


def perf_optimizer(
    seed: int = 0, cases_per_kind: int = 6, repeats: int = 2, report=None
) -> ExperimentResult:
    """P12 — optimizer torture: q-error distribution and plan regret.

    Runs the seeded randomized workload of :mod:`torture`
    over its skewed-distribution graph and reports, per query kind, the
    median/worst multiplicative estimation error (``est~rows`` vs rows
    actually produced) and the median plan regret (planned execution
    time vs clause-order joins; naive paths and eager only check rows).
    One further comparison is reported: the equi-depth histogram vs the
    one-third range heuristic on the same skewed range queries.

    Pass a precomputed ``TortureReport`` via ``report`` to score an
    existing run (the benchmark gate times ``run_torture`` separately
    and reuses the report for the assertions here).
    """
    result = ExperimentResult(
        "P12", "P12 — optimizer torture: q-error and plan regret"
    )
    if report is None:
        report = run_torture(seed=seed, cases_per_kind=cases_per_kind, repeats=repeats)
    for kind, cases in sorted(report.by_kind().items()):
        errors = sorted(case.q_error for case in cases)
        regrets = sorted(case.regret for case in cases)
        result.add_row(
            kind=kind,
            queries=len(cases),
            median_q_error=round(errors[len(errors) // 2], 2),
            worst_q_error=round(errors[-1], 2),
            median_regret=round(regrets[len(regrets) // 2], 2),
        )
    median = report.median_q_error()
    assert median <= 2.0, f"median q-error {median:.2f} exceeds 2.0"
    assert report.histogram_range_q_error < report.heuristic_range_q_error, (
        "histogram estimates did not beat the one-third heuristic"
    )
    result.note(f"median q-error over {len(report.cases)} queries: {median:.2f}")
    result.note(f"median plan regret: {report.median_regret():.2f}")
    result.note(
        "skewed range estimates, median q-error: histogram "
        f"{report.histogram_range_q_error:.2f} vs one-third heuristic "
        f"{report.heuristic_range_q_error:.2f}"
    )
    worst = report.worst_cases(3)
    for case in worst:
        result.note(
            f"worst estimate [{case.kind}]: est~{case.estimated_rows:.1f} vs "
            f"{case.actual_rows} actual (q={case.q_error:.1f}): {case.query}"
        )
    result.note(f"seed {report.seed}, {cases_per_kind} cases/kind, best of {repeats} runs")
    return result
