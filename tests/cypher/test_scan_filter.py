"""The scan filters before it binds.

A node start tests each candidate against its :class:`ScanFilter` — the
node pattern's inline map and, for a MATCH of one lone node, the leading
``WHERE n.k = literal|$param`` equalities — before it copies a binding
row.  The survivors still run the whole WHERE, so rows, row order and the
candidate at which an error is raised are those of the unfiltered scan.
The unfiltered reference is the same query with ``true AND`` in front of
its WHERE: a leading conjunct that is not an equality stops the pushdown.
"""

from __future__ import annotations

import pytest

from repro.cypher import QueryExecutor, execute, explain
from repro.cypher.errors import CypherError, CypherRuntimeError
from repro.datasets.cov2k import Cov2kProfile, generate_cov2k
from repro.graph import PropertyGraph
from repro.triggers import GraphSession
from repro.triggers.errors import TriggerExecutionError

from .test_streaming import _count_candidates


@pytest.fixture
def graph() -> PropertyGraph:
    g = PropertyGraph()
    for index in range(12):
        properties = {"seq": index, "flag": index % 3}
        if index % 4:
            properties["nick"] = f"n{index % 2}"
        g.create_node(["Person"], properties)
    return g


def outcome(graph, query, parameters=None, **options):
    """The rows in order, or the error's type and message."""
    try:
        return QueryExecutor(graph, parameters=parameters, **options).execute(query).rows
    except CypherError as error:
        return (type(error).__name__, str(error))


def unpushed(query: str) -> str:
    return query.replace(" WHERE ", " WHERE true AND ", 1)


PUSHDOWN_CASES = [
    # A pushed conjunct, then one that raises on seq 5 (flag 2).
    ("MATCH (p:Person) WHERE p.flag = 2 AND 10 / (p.seq - 5) > 0 RETURN p.seq AS s", None),
    # ... that is never reached: seq 5 has flag 2, not 1.
    ("MATCH (p:Person) WHERE p.flag = 1 AND 10 / (p.seq - 5) > 0 RETURN p.seq AS s", None),
    # A null pushed conjunct (nick missing on seq 0, 4, 8) cannot drop the
    # candidate while a later conjunct is still evaluated: seq 8 raises.
    ("MATCH (p:Person) WHERE p.nick = 'n1' AND 10 / (p.seq - 8) > 0 RETURN p.seq AS s", None),
    # ... nor can one whose value equals nothing, itself included (NaN).
    ("MATCH (p:Person) WHERE p.nick = $nan AND 10 / (p.seq - 8) > 0 RETURN p.seq AS s",
     {"nan": float("nan")}),
    # A missing parameter in a conjunct never reached, then one reached.
    ("MATCH (p:Person) WHERE p.flag = 7 AND p.seq = $missing RETURN p.seq AS s", None),
    ("MATCH (p:Person) WHERE p.flag = 1 AND p.seq = $missing RETURN p.seq AS s", None),
    ("MATCH (p:Person) WHERE p.flag = $missing AND p.seq = 1 RETURN p.seq AS s", None),
    # Every conjunct pushed, with nulls: missing and literal null.
    ("MATCH (p:Person) WHERE p.nick = $nick AND p.flag = 0 RETURN p.seq AS s", {"nick": "n0"}),
    ("MATCH (p:Person) WHERE p.nick = null RETURN p.seq AS s", None),
    ("MATCH (p:Person) WHERE $f = p.flag RETURN p.seq AS s", {"f": 2}),
    # Equality is ``=``: 1 never equals true, 1 equals 1.0.
    ("MATCH (p:Person) WHERE p.flag = true RETURN p.seq AS s", None),
    ("MATCH (p:Person) WHERE p.flag = 1.0 RETURN p.seq AS s", None),
    # The inline map is tested first, in written order.
    ("MATCH (p:Person {flag: 1, seq: 1 / 0}) WHERE p.nick = 'n1' RETURN p.seq AS s", None),
    ("MATCH (p:Person {nick: null}) WHERE p.flag = 1 RETURN p.seq AS s", None),
    # OPTIONAL MATCH pads when the filter leaves no candidate.
    (
        "UNWIND [1, 30] AS i OPTIONAL MATCH (p:Person) WHERE p.seq = i AND p.flag = 1 "
        "RETURN i, p.seq AS s",
        None,
    ),
    (
        "UNWIND [1, 30] AS i OPTIONAL MATCH (p:Person) WHERE p.flag = 1 AND p.seq = i "
        "RETURN i, p.seq AS s",
        None,
    ),
]


class TestPushdown:
    @pytest.mark.parametrize("query,parameters", PUSHDOWN_CASES)
    def test_same_rows_and_errors_as_the_unpushed_where(self, graph, query, parameters):
        expected = outcome(graph, unpushed(query), parameters)
        assert outcome(graph, query, parameters) == expected
        assert outcome(graph, query, parameters, eager=True) == expected
        graph.create_property_index("Person", "flag")
        assert outcome(graph, query, parameters) == expected

    def test_pushed_conjuncts_drop_candidates_before_the_binding(self, graph, monkeypatch):
        ids = _count_candidates(monkeypatch)
        query = "MATCH (p:Person) WHERE p.flag = 1 AND p.seq > 3 RETURN p.seq AS s"
        assert [row["s"] for row in execute(graph, query).rows] == [4, 7, 10]
        assert len(ids) == 4  # flag 1: seq 1, 4, 7, 10
        ids.clear()
        execute(graph, unpushed(query))
        assert len(ids) == 12

    def test_raises_at_the_same_candidate(self, graph, monkeypatch):
        ids = _count_candidates(monkeypatch)
        query = "MATCH (p:Person) WHERE p.flag = 2 AND 10 / (p.seq - 5) > 0 RETURN p.seq AS s"
        with pytest.raises(CypherRuntimeError, match="division by zero"):
            execute(graph, query)
        assert ids[-1] == 5 and len(ids) == 2  # seq 2, then seq 5 raises

    def test_explain_shows_the_pushed_prefix_on_the_start(self, graph):
        text = explain(
            "MATCH (p:Person) WHERE p.flag = $f AND p.seq > 3 AND p.nick = 'x' RETURN p",
            graph,
        )
        assert "start=(p) LabelScan(Person) est~12 rows filter(p.flag = $f)" in text
        assert "Filter(p.flag = $f AND p.seq > 3 AND p.nick = 'x')" in text
        two = explain("MATCH (p:Person), (q:Person) WHERE p.flag = 1 RETURN p", graph)
        assert "filter(" not in two  # only a lone node's scan takes the WHERE

    def test_index_fallback_keeps_the_filter(self, graph):
        graph.create_property_index("Person", "flag")
        query = "MATCH (p:Person) WHERE p.flag = $f AND p.nick = 'n1' RETURN p.seq AS s"
        assert "IndexSeek(Person.flag = $f)" in explain(query, graph)
        # An unhashable probe value falls back to the label scan.
        assert outcome(graph, query, {"f": [1]}) == []
        assert outcome(graph, query, {"f": 1}) == [{"s": 1}, {"s": 7}]
        graph.drop_property_index("Person", "flag")
        assert outcome(graph, query, {"f": 1}) == [{"s": 1}, {"s": 7}]

    def test_no_pushdown_beyond_a_lone_node(self):
        # Dropping ``p`` early would skip ``x``'s map, which raises.
        g = PropertyGraph()
        a = g.create_node(["P"], {"k": 2})
        b = g.create_node(["X"], {})
        g.create_relationship("R", a.id, b.id)
        query = "MATCH (p:P)-[:R]->(x {z: 1 / 0}) WHERE p.k = 1 RETURN x"
        with pytest.raises(CypherRuntimeError, match="division by zero"):
            execute(g, query)

    def test_virtual_label_scan_in_a_trigger_condition(self):
        session = GraphSession(batched_triggers=False)
        session.create_trigger(
            "CREATE TRIGGER Fifty AFTER CREATE ON 'Reading' FOR ALL NODES "
            "WHEN MATCH (r:NEWNODES) WHERE r.value = 50 BEGIN CREATE (:Fifty) END"
        )
        session.run("UNWIND [5, 50, 6, 50] AS v CREATE (:Reading {value: v})")
        assert session.run("MATCH (a:Fifty) RETURN count(a) AS n").single("n") == 2
        session = GraphSession(batched_triggers=False)
        session.create_trigger(
            "CREATE TRIGGER Hit AFTER CREATE ON 'Reading' FOR ALL NODES "
            "WHEN MATCH (r:NEWNODES) WHERE r.value = 50 AND r.kind = $missing "
            "BEGIN CREATE (:Alert) END"
        )
        session.run("UNWIND [5, 6] AS v CREATE (:Reading {value: v})")
        assert session.run("MATCH (a:Alert) RETURN count(a) AS n").single("n") == 0
        with pytest.raises(TriggerExecutionError, match="missing query parameter"):
            session.run("UNWIND [5, 50] AS v CREATE (:Reading {value: v})")


class TestInlineMapEquality:
    """``{k: v}`` holds when ``n.k = v`` would: ``1`` never matches ``true``;
    an inline ``null`` matches a missing property."""

    @pytest.fixture
    def flags(self) -> PropertyGraph:
        g = PropertyGraph()
        for tag, value in (("int", 1), ("bool", True), ("float", 1.0), ("zero", 0)):
            node = g.create_node(["A"], {"flag": value, "tag": tag})
            g.create_relationship("R", node.id, node.id, {"flag": value, "tag": tag})
        g.create_node(["A"], {"tag": "none"})
        return g

    @pytest.mark.parametrize("indexed", [False, True])
    def test_node_maps(self, flags, indexed):
        if indexed:
            flags.create_property_index("A", "flag")
        cases = {
            "MATCH (n:A {flag: 1}) RETURN n.tag AS tag": ["int", "float"],
            "MATCH (n:A {flag: true}) RETURN n.tag AS tag": ["bool"],
            "MATCH (n:A {flag: $p}) RETURN n.tag AS tag": ["bool"],
            "MATCH (n:A {flag: null}) RETURN n.tag AS tag": ["none"],
            "MATCH (n:A) WHERE n.flag = 1 RETURN n.tag AS tag": ["int", "float"],
            "MATCH (n)-[:R]->(m:A {flag: 1}) RETURN m.tag AS tag": ["int", "float"],
        }
        for query, tags in cases.items():
            rows = execute(flags, query, parameters={"p": True}).rows
            assert [row["tag"] for row in rows] == tags, query

    @pytest.mark.parametrize("indexed", [False, True])
    def test_relationship_maps(self, flags, indexed):
        if indexed:
            flags.create_relationship_property_index("R", "flag")
        cases = {
            "MATCH ()-[r:R {flag: 1}]->() RETURN r.tag AS tag": ["int", "float"],
            "MATCH ()-[r:R {flag: $p}]->() RETURN r.tag AS tag": ["bool"],
            "MATCH ()-[r:R {flag: 0}]->() RETURN r.tag AS tag": ["zero"],
        }
        for query, tags in cases.items():
            rows = execute(flags, query, parameters={"p": True}).rows
            assert sorted(row["tag"] for row in rows) == sorted(tags), query


class TestBoundStart:
    def test_region_join_starts_its_second_pattern_at_the_bound_hospital(self):
        graph = generate_cov2k(Cov2kProfile().scaled(1)).graph
        text = explain(
            "MATCH (h:Hospital)-[:LocatedIn]->(r:Region {name: $region}), "
            "(p:IcuPatient)-[:TreatedAt]->(h), (p:IcuPatient)-[:HasSample]->(s:Sequence) "
            "RETURN count(DISTINCT p) AS c",
            graph,
        )
        lines = text.splitlines()
        assert lines[1].startswith(
            "start=(h) Bound(h) est~1 rows -> Expand(<-[:TreatedAt]-(:IcuPatient))"
        ), text
        assert lines[2].startswith(
            "start=(p) Bound(p) est~1 rows -> Expand(-[:HasSample]->(:Sequence))"
        ), text
        assert "AllNodesScan" not in text
        assert "JoinOrder(pattern[0] est~" in text
        order = [part.split()[0] for part in text.split("JoinOrder(")[1].split(", ")]
        assert order == ["pattern[0]", "pattern[1]", "pattern[2]"], text

    def test_bound_start_gets_no_scan_filter(self):
        session = GraphSession()
        session.run("CREATE (:A {k: 1})-[:R]->(:B)")
        executor = QueryExecutor(session.graph)
        rows = executor.execute(
            "MATCH (a:A) WITH a MATCH (a) WHERE a.k = 1 RETURN a.k AS k"
        ).rows
        assert rows == [{"k": 1}]
        lines = executor.last_plan.plan_description().splitlines()
        assert lines[1].startswith("start=(a) Bound(a) est~1 rows"), lines
        assert "filter(" not in lines[1]

    def test_bound_step_estimates_one_row_of_its_label(self):
        # A join step re-planned to start at a node an earlier step bound
        # expands from one Item (4 BOUGHT over 2 Items, 8 of 20 nodes are
        # Persons: 2 * 0.4), not from the mean node, and does not count
        # ``i.cat = 1`` again: the step that bound ``i`` already did.
        g = PropertyGraph()
        items = [g.create_node(["Item"], {"cat": k}) for k in (1, 2)]
        people = [g.create_node(["Person"], {"grp": k % 2}) for k in range(8)]
        for k in range(10):
            g.create_node(["Part"], {})
        for k in range(4):
            g.create_relationship("BOUGHT", people[k].id, items[k % 2].id)
        text = explain(
            "MATCH (p:Person)-[:BOUGHT]->(i:Item), (q:Person)-[:BOUGHT]->(i) "
            "WHERE i.cat = 1 AND p.grp = 0 RETURN count(*) AS n",
            g,
        )
        lines = text.splitlines()
        assert lines[1] == (
            "start=(i) Bound(i) est~1 rows -> Expand(<-[:BOUGHT]-(:Person)) "
            "est~0.8 rows (reversed)"
        ), text
