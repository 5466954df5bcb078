"""Result checks of the wall-clock experiments, at small sizes and untimed.

``benchmarks/perf/experiments.py`` times each engine route against an
in-repo baseline and gates the ratio in ``make bench-smoke``.  Every
experiment also checks that the two routes agree; those checks are
correctness properties, so they run here on the same workloads, shrunk
to a few hundred nodes.  P2's termination verdicts are
``tests/triggers/test_termination.py::TestCascadeChains``; P12's row-set
checks are the join-ordering, path and streaming differentials.
"""

import datetime as dt

import pytest

from repro.cypher.executor import QueryExecutor
from repro.cypher.planner import PLAN_CACHE
from repro.graph.store import PropertyGraph
from repro.triggers.engine import TriggerEngine
from repro.triggers.registry import TriggerRegistry
from repro.triggers.session import GraphSession
from repro.tx.manager import TransactionManager

CLOCK = lambda: dt.datetime(2021, 3, 14, 12, 0, 0)  # noqa: E731 - deterministic clock


def rows(graph: PropertyGraph, query: str, **executor_kwargs) -> list[dict]:
    return QueryExecutor(graph, **executor_kwargs).execute(query).rows


# -- P1: trigger matching overhead --------------------------------------------


@pytest.mark.parametrize("installed", [0, 1, 4, 16, 64])
def test_p1_unsatisfied_triggers_are_evaluated_and_change_nothing(installed):
    statements = 20
    session = GraphSession(clock=CLOCK)
    for index in range(installed):
        label = "Entity" if index % 2 == 0 else f"Other{index}"
        session.create_trigger(
            f"CREATE TRIGGER T{index} AFTER CREATE ON '{label}' FOR EACH NODE "
            f"WHEN NEW.value > 1000000 BEGIN CREATE (:Never) END"
        )
    for index in range(statements):
        session.run("CREATE (:Entity {value: $v})", {"v": index})

    assert session.run("MATCH (e:Entity) RETURN count(e) AS n").single("n") == statements
    assert session.run("MATCH (n:Never) RETURN count(n) AS n").single("n") == 0
    summary = session.engine.firing_summary()
    matching = {f"T{index}" for index in range(0, installed, 2)}
    assert sum(entry["executed"] for entry in summary.values()) == 0
    assert {name for name, entry in summary.items() if entry["suppressed"]} == matching
    assert all(summary[name]["suppressed"] == statements for name in matching)


# -- P5: index-aware planning and the plan cache -------------------------------


def test_p5_index_flips_the_cached_plan_to_a_seek_with_the_same_rows():
    graph = PropertyGraph()
    for index in range(200):
        graph.create_node(["Patient"], {"mrn": index, "severity": index % 5})
    query = "MATCH (p:Patient) WHERE p.mrn = $mrn RETURN p.severity AS severity"
    probe = QueryExecutor(graph)

    def run_all() -> list[list[dict]]:
        executor = QueryExecutor(graph)
        return [executor.execute(query, parameters={"mrn": mrn}).rows for mrn in range(0, 200, 7)]

    assert "IndexSeek" not in probe.plan_description(query)
    scanned = run_all()
    before = PLAN_CACHE.stats.snapshot()
    graph.create_property_index("Patient", "mrn")
    seeked = run_all()
    after = PLAN_CACHE.stats.snapshot()

    assert "IndexSeek" in probe.plan_description(query)
    assert seeked == scanned == [[{"severity": mrn % 5}] for mrn in range(0, 200, 7)]
    assert after["plan_hits"] - before["plan_hits"] >= len(seeked) - 1
    assert after["parse_misses"] == before["parse_misses"]


# -- P6: streaming vs eager MATCH ... LIMIT -----------------------------------


def test_p6_streaming_limit_returns_the_eager_rows():
    graph = PropertyGraph()
    for index in range(500):
        graph.create_node(["Person"], {"seq": index, "flag": index % 2})
    query = "MATCH (p:Person) WHERE p.flag = 1 RETURN p.seq AS seq LIMIT 10"

    results = []
    for eager in (True, False):
        _, records = QueryExecutor(graph, eager=eager).stream(query)
        results.append(list(records))

    assert results[0] == results[1]
    assert len(results[1]) == 10


# -- P7: batched vs per-activation trigger evaluation --------------------------


def test_p7_batched_and_per_activation_routes_create_the_same_populations():
    nodes, gates, configs = 300, 2, 16
    outcomes = {}
    for batched in (False, True):
        graph = PropertyGraph()
        manager = TransactionManager(graph)
        registry = TriggerRegistry()
        engine = TriggerEngine(
            graph, registry, manager, clock=CLOCK,
            batched_conditions=batched, incremental_conditions=False,
        )
        graph.create_node(["Config"], {"name": "threshold", "cutoff": nodes - 5})
        for index in range(gates):
            graph.create_node(["Config"], {"name": f"gate{index}", "enabled": False})
        for index in range(configs):
            graph.create_node(["Config"], {"name": f"entry{index}", "payload": index})
        for index in range(gates):
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
        engine.run_statement_triggers(tx, tx.end_statement())
        manager.commit(tx)
        outcomes[batched] = (
            sorted(node.properties["value"] for node in graph.nodes_with_label("Spike")),
            sorted(node.properties["value"] for node in graph.nodes_with_label("Audit")),
            graph.count_nodes_with_label("NeverFired"),
        )
        if batched:
            assert engine.batch_stats["batched_activations"] > 0

    top_five = list(range(nodes - 4, nodes + 1))
    assert outcomes[False] == outcomes[True] == (top_five, top_five, 0)


# -- P8: physical operators ----------------------------------------------------


def test_p8_range_seek_returns_the_label_scan_rows():
    graph = PropertyGraph()
    for index in range(500):
        graph.create_node(["Item"], {"v": index})
    query = "MATCH (n:Item) WHERE n.v >= 250 AND n.v < 270 RETURN n.v AS v"
    scanned = rows(graph, query)
    graph.create_range_index("Item", "v")

    assert "IndexRangeSeek" in QueryExecutor(graph).plan_description(query)
    assert rows(graph, query) == scanned == [{"v": v} for v in range(250, 270)]


def test_p8_hash_join_returns_the_nested_loop_rows():
    graph = PropertyGraph()
    for index in range(40):
        graph.create_node(["L"], {"k": index % 10, "i": index})
        graph.create_node(["R"], {"k": index % 10, "i": index})
    query = "MATCH (a:L), (b:R) WHERE a.k = b.k RETURN a.i AS ai, b.i AS bi"

    def pairs(**executor_kwargs):
        return sorted((row["ai"], row["bi"]) for row in rows(graph, query, **executor_kwargs))

    assert "HashJoin" in QueryExecutor(graph).plan_description(query)
    assert pairs() == pairs(join_ordering=False)
    assert len(pairs()) == 40 * 4


def test_p8_top_k_returns_the_full_sort_rows():
    graph = PropertyGraph()
    for index in range(500):
        graph.create_node(["Item"], {"v": index})
    query = "MATCH (n:Item) RETURN n.v AS v ORDER BY v DESC LIMIT 10"

    assert "TopK" in QueryExecutor(graph).plan_description(query)
    assert rows(graph, query) == rows(graph, query, eager=True)
    assert rows(graph, query) == [{"v": v} for v in range(499, 489, -1)]


# -- P11: path queries ---------------------------------------------------------


def part_tree(nodes: int = 364, branching: int = 3) -> PropertyGraph:
    """A complete ``branching``-ary PART_OF tree, depth 5 at 364 nodes."""
    graph = PropertyGraph()
    created = [graph.create_node(["Part"], {"pid": 0})]
    while len(created) < nodes:
        index = len(created)
        node = graph.create_node(["Part"], {"pid": index})
        graph.create_relationship("PART_OF", created[(index - 1) // branching].id, node.id)
        created.append(node)
    graph.create_property_index("Part", "pid")
    return graph


def test_p11_reachability_probe_returns_the_dfs_rows():
    graph = part_tree()
    query = (
        "MATCH (b:Part {pid: 363}) "
        "MATCH (a:Part {pid: 0})-[:PART_OF*]->(b) RETURN b.pid AS pid"
    )
    walked = rows(graph, query)
    graph.create_reachability_index("PART_OF")

    assert "reachability" in QueryExecutor(graph).plan_description(query)
    assert rows(graph, query) == walked == [{"pid": 363}]


def test_p11_interval_scan_counts_the_dfs_subtree():
    graph = part_tree()
    query = "MATCH (a:Part {pid: 3})-[:PART_OF*]->(x) RETURN count(x) AS n"
    walked = rows(graph, query)
    graph.create_reachability_index("PART_OF")

    # pid 3 heads a depth-1 subtree of a depth-5 ternary tree: 3 + 9 + 27 + 81 below it
    assert rows(graph, query) == walked == [{"n": 120}]


def test_p11_bidirectional_shortest_path_returns_the_naive_rows():
    graph = part_tree()
    query = (
        "MATCH (b:Part {pid: 363}) "
        "MATCH p = shortestPath((a:Part {pid: 0})-[:PART_OF*..15]->(b)) "
        "RETURN length(p) AS len"
    )

    assert "ShortestPath(" in QueryExecutor(graph).plan_description(query)
    assert rows(graph, query) == rows(graph, query, naive_paths=True) == [{"len": 5}]
