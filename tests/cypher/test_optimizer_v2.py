"""Optimizer v2 tests: composite indexes, histogram estimates, ordered
ORDER BY, connected hash joins and var-length hop windows over a tree.

Everything the v2 planner adds is advisory — a seek, ordered scan or join
strategy can only change *how* rows are found, never *which* rows — so the
backbone of this suite is differential: every query runs under the planned
executor and under the baselines (eager, clause-order joins, naive paths)
and must produce identical rows.  EXPLAIN assertions then pin that the
interesting operator was actually chosen, so the differential is not
vacuously comparing two scans.
"""

from __future__ import annotations

import pytest

from repro.cypher import QueryExecutor, execute, explain
from repro.graph.model import Node, Relationship
from repro.graph.store import PropertyGraph
from repro.storage import MemoryIO
from repro.triggers.session import GraphSession

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

#: Executor configurations whose rows must always agree.
MODES = {
    "planned": {},
    "eager": {"eager": True},
    "clause-order": {"join_ordering": False},
    "naive-paths": {"naive_paths": True},
}


def canonical(value):
    if isinstance(value, Node):
        return ("node", value.id)
    if isinstance(value, Relationship):
        return ("rel", value.id)
    if isinstance(value, list):
        return tuple(canonical(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, canonical(v)) for k, v in value.items()))
    return value


def rows_in_mode(graph, query, **options):
    result = QueryExecutor(graph, **options).execute(query)
    return [
        tuple(sorted((k, canonical(v)) for k, v in row.items())) for row in result.rows
    ]


def assert_modes_agree(graph, query, ordered=False):
    """All executor modes return the same rows (same order when ``ordered``)."""
    results = {
        name: rows_in_mode(graph, query, **options) for name, options in MODES.items()
    }
    reference = results["planned"]
    for name, rows in results.items():
        if ordered:
            assert rows == reference, f"mode {name} disagrees on {query}"
        else:
            assert sorted(rows, key=repr) == sorted(reference, key=repr), (
                f"mode {name} disagrees on {query}"
            )
    return reference


def build_graph() -> PropertyGraph:
    """60 people in 6 groups / 3 tiers, hub-skewed KNOWS edges.

    ``score = (i * i) % 23`` gives duplicates (ORDER BY tie-breaks) and a
    non-uniform distribution (histogram vs heuristic); person 57 has no
    score at all (nulls sort last).  80% of KNOWS edges land on hub 0, so
    expanding to ``h`` is badly skewed — the connected-join scenario.
    """
    graph = PropertyGraph()
    people = []
    for i in range(60):
        properties = {"uid": i, "grp": i % 6, "tier": i % 3}
        if i != 57:
            properties["score"] = (i * i) % 23
        people.append(graph.create_node(["Person"], properties))
    hubs = [graph.create_node(["Hub"], {"hid": i}) for i in range(6)]
    for i, person in enumerate(people):
        hub = hubs[0 if i % 5 else i % 6]
        graph.create_relationship("KNOWS", person.id, hub.id)
    return graph


# ---------------------------------------------------------------------------
# composite indexes
# ---------------------------------------------------------------------------

COMPOSITE_CORPUS = [
    "MATCH (p:Person {grp: 2, tier: 1}) RETURN p.uid AS uid",
    "MATCH (p:Person {tier: 1, grp: 2}) RETURN p.uid AS uid",  # map order free
    "MATCH (p:Person {grp: 99, tier: 1}) RETURN p.uid AS uid",  # no match
    "MATCH (p:Person {grp: 2}) RETURN p.uid AS uid",  # prefix only: no seek
    "MATCH (p:Person {grp: 2, tier: null}) RETURN p.uid AS uid",  # null matches missing
    "MATCH (p:Person) WHERE p.grp = 2 AND p.tier = 1 RETURN p.uid AS uid",
    "MATCH (p:Person {grp: 2, tier: 1})-[:KNOWS]->(h) RETURN p.uid AS uid, h.hid AS hub",
]


class TestCompositeIndex:
    @pytest.mark.parametrize("query", COMPOSITE_CORPUS)
    def test_results_identical_with_and_without_composite(self, query):
        plain = build_graph()
        indexed = build_graph()
        indexed.create_composite_index("Person", ("grp", "tier"))
        plain_rows = sorted(rows_in_mode(plain, query), key=repr)
        indexed_rows = sorted(rows_in_mode(indexed, query), key=repr)
        assert plain_rows == indexed_rows

    def test_explain_shows_composite_seek_with_combined_estimate(self):
        graph = build_graph()
        graph.create_composite_index("Person", ("grp", "tier"))
        text = explain("MATCH (p:Person {grp: 2, tier: 1}) RETURN p.uid", graph)
        assert "CompositeIndexSeek(Person(grp = 2, tier = 1))" in text
        # 60 people / (6 groups * 3 tiers) — the combined selectivity, not
        # the 10 rows a single-property grp index would estimate.
        assert "est~10 rows" in text

    def test_inline_null_never_becomes_a_composite_probe(self):
        graph = build_graph()
        graph.create_composite_index("Person", ("grp", "tier"))
        # {tier: null} matches nodes *missing* tier; every person has one.
        rows = execute(graph, "MATCH (p:Person {grp: 2, tier: null}) RETURN p.uid AS uid").rows
        assert rows == []

    def test_drop_falls_back_to_scan(self):
        graph = build_graph()
        graph.create_composite_index("Person", ("grp", "tier"))
        query = "MATCH (p:Person {grp: 2, tier: 1}) RETURN count(*) AS n"
        before = execute(graph, query).rows
        graph.drop_composite_index("Person", ("grp", "tier"))
        assert execute(graph, query).rows == before
        assert "CompositeIndexSeek" not in explain(query, graph)

    def test_composite_ddl_survives_restart(self):
        io = MemoryIO()
        session = GraphSession(path="/db", storage_io=io)
        for i in range(12):
            session.run(f"CREATE (:Person {{uid: {i}, grp: {i % 3}, tier: {i % 2}}})")
        session.graph.create_composite_index("Person", ("grp", "tier"))
        expected = execute(
            session.graph, "MATCH (p:Person {grp: 1, tier: 0}) RETURN p.uid AS uid"
        ).rows
        session.close()

        recovered = GraphSession(path="/db", storage_io=io)
        assert recovered.graph.composite_indexes() == [("Person", ("grp", "tier"))]
        text = explain("MATCH (p:Person {grp: 1, tier: 0}) RETURN p.uid", recovered.graph)
        assert "CompositeIndexSeek" in text
        rows = execute(
            recovered.graph, "MATCH (p:Person {grp: 1, tier: 0}) RETURN p.uid AS uid"
        ).rows
        assert sorted(r["uid"] for r in rows) == sorted(r["uid"] for r in expected)
        recovered.close()


# ---------------------------------------------------------------------------
# histogram estimates and the empty-range clamp
# ---------------------------------------------------------------------------

class TestRangeEstimates:
    def test_provably_empty_range_estimates_zero(self):
        graph = build_graph()
        graph.create_range_index("Person", "score")
        text = explain("MATCH (p:Person) WHERE p.score > 1000 RETURN p.uid", graph)
        assert "IndexRangeSeek(Person.score > 1000) est~0 rows" in text
        assert execute(graph, "MATCH (p:Person) WHERE p.score > 1000 RETURN p.uid").rows == []

    def test_inverted_range_estimates_zero_rows(self):
        graph = build_graph()
        graph.create_range_index("Person", "score")
        query = "MATCH (p:Person) WHERE p.score > 50 AND p.score < 10 RETURN p.uid"
        assert "est~0 rows" in explain(query, graph)
        assert execute(graph, query).rows == []

    def test_histogram_estimate_tracks_skewed_range(self):
        # score = (i*i) % 23 is far from uniform; the histogram estimate
        # must land within a bucket-width of the true count while the
        # one-third heuristic (~20 rows here) would not.
        graph = build_graph()
        graph.create_range_index("Person", "score")
        actual = len(execute(graph, "MATCH (p:Person) WHERE p.score >= 18 RETURN p.uid").rows)
        text = explain("MATCH (p:Person) WHERE p.score >= 18 RETURN p.uid", graph)
        import re

        match = re.search(r"IndexRangeSeek\(Person\.score >= 18\) est~(\d+)", text)
        assert match, text
        estimate = int(match.group(1))
        assert abs(estimate - actual) <= 3, (estimate, actual)

    def test_non_sargable_conjuncts_shrink_the_estimate(self):
        graph = build_graph()
        graph.create_property_index("Person", "grp")
        text = explain("MATCH (p:Person) WHERE p.grp = 1 AND p.tier <> 0 RETURN p.uid", graph)
        assert "IndexSeek(Person.grp = 1) est~10 rows" in text
        # both numbers surface: the access path's and the post-WHERE one
        assert "rows after WHERE" in text


# ---------------------------------------------------------------------------
# index-backed ORDER BY
# ---------------------------------------------------------------------------

ORDERED_CORPUS = [
    "MATCH (p:Person) RETURN p.uid AS uid, p.score AS score ORDER BY p.score LIMIT 7",
    "MATCH (p:Person) RETURN p.uid AS uid, p.score AS score ORDER BY p.score DESC LIMIT 7",
    "MATCH (p:Person) RETURN p.uid AS uid ORDER BY p.score DESC SKIP 3 LIMIT 5",
    "MATCH (p:Person) RETURN p.uid AS uid, p.score AS s ORDER BY s LIMIT 6",  # alias key
    "MATCH (p:Person) RETURN p.uid AS uid ORDER BY p.score",  # no LIMIT: Sort route
    "MATCH (p:Person) RETURN p.uid AS uid ORDER BY p.score DESC LIMIT 100",  # over-long
]


class TestOrderedScan:
    @pytest.mark.parametrize("query", ORDERED_CORPUS)
    def test_ordered_rows_identical_to_sorted_baselines(self, query):
        graph = build_graph()
        graph.create_range_index("Person", "score")
        assert "OrderedIndexScan(Person.score" in explain(query, graph)
        assert_modes_agree(graph, query, ordered=True)

    def test_rows_identical_with_and_without_ordered_index(self):
        query = ORDERED_CORPUS[1]
        plain = build_graph()
        indexed = build_graph()
        indexed.create_range_index("Person", "score")
        assert rows_in_mode(plain, query) == rows_in_mode(indexed, query)

    def test_missing_property_sorts_last_both_directions(self):
        graph = build_graph()  # person 57 has no score
        graph.create_range_index("Person", "score")
        for direction in ("", " DESC"):
            query = f"MATCH (p:Person) RETURN p.uid AS uid ORDER BY p.score{direction}"
            rows = rows_in_mode(graph, query, eager=True)
            assert rows_in_mode(graph, query) == rows
            assert rows[-1] == (("uid", 57),)

    def test_runtime_fallback_when_scan_cannot_answer(self):
        # A string score splits the index into two type classes *without*
        # any DDL (no epoch bump, plans stay cached): the ordered scan
        # declines at run time and the executor must fall back to the heap.
        graph = build_graph()
        graph.create_range_index("Person", "score")
        query = "MATCH (p:Person) WHERE p.uid < 20 RETURN p.uid AS uid"
        executor = QueryExecutor(graph)
        ordered = "MATCH (p:Person) RETURN p.uid AS uid ORDER BY p.score LIMIT 4"
        first = executor.execute(ordered).rows
        graph.create_node(["Person"], {"uid": 1000, "score": "poison"})
        with pytest.raises(Exception):
            # the sort itself must now raise, exactly like the eager route
            QueryExecutor(graph, eager=True).execute(ordered)
        with pytest.raises(Exception):
            executor.execute(ordered)
        assert first  # the pre-poison run produced rows


# ---------------------------------------------------------------------------
# connected hash joins
# ---------------------------------------------------------------------------

JOIN_QUERY = (
    "MATCH (a:Person)-[:KNOWS]->(h), (b:Person)-[:KNOWS]->(h) "
    "WHERE a.uid < b.uid RETURN count(*) AS n"
)


class TestConnectedHashJoin:
    def test_planner_picks_hash_join_for_skewed_shared_expansion(self):
        graph = build_graph()
        text = explain(JOIN_QUERY, graph)
        assert "HashJoin(pattern[1], shared: h)" in text

    def test_rows_identical_across_all_modes(self):
        graph = build_graph()
        assert_modes_agree(graph, JOIN_QUERY)
        assert_modes_agree(
            graph,
            "MATCH (a:Person)-[:KNOWS]->(h), (b:Person)-[:KNOWS]->(h) "
            "RETURN a.uid AS a, b.uid AS b, h.hid AS h",
        )

    def test_optional_null_padding_falls_back_per_row(self):
        # Lonely people bind h to null in the OPTIONAL clause; the second
        # MATCH's connected join sees a non-node join variable and must
        # take the nested-loop route for those rows instead of probing.
        graph = build_graph()
        lonely = graph.create_node(["Person"], {"uid": 999})
        query = (
            "MATCH (x:Person) WHERE x.uid IN [0, 999] "
            "OPTIONAL MATCH (x)-[:KNOWS]->(h) "
            "OPTIONAL MATCH (a:Person)-[:KNOWS]->(h), (b:Person)-[:KNOWS]->(h) "
            "RETURN x.uid AS x, count(*) AS n"
        )
        assert_modes_agree(graph, query)
        assert lonely.id is not None

    def test_anchored_patterns_keep_the_nested_loop(self):
        # When the build pattern's own (possibly reversed) start *is* the
        # shared variable, the anchored expansion is cheap and no hash
        # join should appear.
        graph = build_graph()
        query = (
            "MATCH (a:Hub {hid: 0}), (b:Person)-[:KNOWS]->(a:Hub) "
            "RETURN count(*) AS n"
        )
        assert "shared:" not in explain(query, graph)
        assert_modes_agree(graph, query)


# ---------------------------------------------------------------------------
# var-length hop windows over a deep tree
# ---------------------------------------------------------------------------

def build_tree(depth: int = 6) -> PropertyGraph:
    """A binary Part/CHILD tree, deep enough that a 2-hop window is narrow."""
    graph = PropertyGraph()
    root = graph.create_node(["Part"], {"pid": 0})
    frontier = [root]
    pid = 1
    for _ in range(depth):
        next_frontier = []
        for parent in frontier:
            for _child in range(2):
                node = graph.create_node(["Part"], {"pid": pid})
                pid += 1
                graph.create_relationship("CHILD", parent.id, node.id)
                next_frontier.append(node)
        frontier = next_frontier
    graph.create_property_index("Part", "pid")
    return graph


class TestTreeHopWindows:
    def test_explain_shows_the_dfs_walk(self):
        graph = build_tree()
        narrow = explain(
            "MATCH (a:Part {pid: 0})-[:CHILD*1..2]->(x) RETURN count(*) AS n", graph
        )
        assert "VarLengthExpand(-[:CHILD*1..2]->(), dfs)" in narrow

    def test_narrow_window_matches_every_baseline(self):
        graph = build_tree()
        query = "MATCH (a:Part {pid: 0})-[:CHILD*1..2]->(x) RETURN x.pid AS pid"
        reference = assert_modes_agree(graph, query)
        assert len(reference) == 6  # 2 children + 4 grandchildren

    def test_broad_window_matches_every_baseline(self):
        graph = build_tree()
        query = "MATCH (a:Part {pid: 0})-[:CHILD*1..12]->(x) RETURN count(*) AS n"
        assert execute(graph, query).rows == [{"n": 2 ** 7 - 2}]
        assert_modes_agree(graph, query)
