"""Planner tests: access-path choice, EXPLAIN output, and — most importantly —
result equivalence with and without property indexes.

The index access path is advisory: it narrows the starting candidate set but
every candidate is still re-verified, so for any query the result must be
identical whether or not an index exists.  The corpus below covers inline
property maps, sargable WHERE conjuncts, parameters, null/missing-property
edge cases, OPTIONAL MATCH and pattern reversal.
"""

import pytest

from repro.cypher import QueryExecutor, execute, explain, plan_query, parse_query
from repro.cypher.planner import INDEX, LABEL, SCAN, VIRTUAL, Scope, _connected_hash_join
from repro.graph.model import Node, Relationship
from repro.graph.store import PropertyGraph
from repro.tx import Transaction


def build_graph() -> PropertyGraph:
    graph = PropertyGraph()
    people = [
        ("alice", 30, "al"),
        ("bob", 40, None),
        ("carol", 30, "caz"),
        ("dave", 25, "d"),
        ("erin", 40, None),
    ]
    nodes = {}
    for name, age, nickname in people:
        properties = {"name": name, "age": age}
        if nickname is not None:
            properties["nickname"] = nickname
        nodes[name] = graph.create_node(["Person"], properties)
    graph.create_node(["City"], {"name": "milan"})
    graph.create_relationship("KNOWS", nodes["alice"].id, nodes["bob"].id, {"since": 30})
    graph.create_relationship("KNOWS", nodes["bob"].id, nodes["carol"].id)
    graph.create_relationship("KNOWS", nodes["dave"].id, nodes["carol"].id)
    graph.create_relationship("KNOWS", nodes["erin"].id, nodes["alice"].id)
    return graph


INDEX_PAIRS = [("Person", "name"), ("Person", "age"), ("Person", "nickname")]

#: (query, parameters) pairs whose results must not depend on indexing.
EQUIVALENCE_CORPUS = [
    ("MATCH (p:Person {name: 'alice'}) RETURN p.age AS age", None),
    ("MATCH (p:Person {name: 'nobody'}) RETURN p.age AS age", None),
    ("MATCH (p:Person) WHERE p.name = 'bob' RETURN p.age AS age", None),
    ("MATCH (p:Person) WHERE p.name = $name RETURN p.age AS age", {"name": "carol"}),
    ("MATCH (p:Person) WHERE p.age = 30 RETURN p.name AS name", None),
    ("MATCH (p:Person) WHERE p.age = 30 AND p.name = 'carol' RETURN p.name AS name", None),
    ("MATCH (p:Person {name: 'alice'})-[:KNOWS]->(q:Person) RETURN q.name AS name", None),
    ("MATCH (a:Person)-[:KNOWS]->(b:Person {name: 'carol'}) RETURN a.name AS name", None),
    ("MATCH (a)-[:KNOWS]->(b:Person {age: 30}) RETURN a.name AS name, b.name AS other", None),
    # Inline null map entries match *missing* properties; the planner must
    # not turn them into (empty) index lookups.
    ("MATCH (p:Person {nickname: null}) RETURN p.name AS name", None),
    # WHERE-level null equality filters every row under three-valued logic.
    ("MATCH (p:Person) WHERE p.nickname = null RETURN p.name AS name", None),
    ("MATCH (p:Person) WHERE p.nickname = $nick RETURN p.name AS name", {"nick": None}),
    ("MATCH (p:Person) WHERE p.nickname = 'al' RETURN p.name AS name", None),
    ("OPTIONAL MATCH (p:Person {name: 'zed'}) RETURN p", None),
    ("MATCH (p:Person) WHERE p.name = 'alice' OR p.name = 'bob' RETURN p.name AS name", None),
    ("MATCH (p:Person {age: 40}) RETURN count(*) AS n", None),
    ("MERGE (p:Person {name: 'alice'}) RETURN p.age AS age", None),
    # Relationship property maps referencing a pattern variable: the planner
    # must not reverse the traversal (the forward order binds `a` first).
    (
        "MATCH (a:Person)-[r:KNOWS {since: a.age}]->(b:Person {name: 'bob'}) "
        "RETURN a.name AS name",
        None,
    ),
    (
        "MATCH (a:Person)-[r:KNOWS {since: 30}]->(b:Person {name: 'bob'}) "
        "RETURN a.name AS name",
        None,
    ),
    # Values bound before the clause seek too: a null or a missing key
    # falls back to the scan, where an inline null matches *missing*.
    (
        "UNWIND $rows AS row MATCH (p:Person {name: row.n}) RETURN p.name AS name",
        {"rows": [{"n": "alice"}, {"n": None}, {}, {"n": "nobody"}]},
    ),
    (
        "UNWIND $rows AS row MATCH (p:Person {nickname: row.n}) RETURN p.name AS name",
        {"rows": [{"n": None}, {"n": "caz"}]},
    ),
    (
        "UNWIND $names AS n MATCH (p:Person) WHERE p.name = n RETURN p.age AS age",
        {"names": ["bob", None, ["bob"], "erin"]},
    ),
    (
        "MATCH (a:Person {name: 'dave'}) WITH a "
        "MATCH (p:Person {age: a.age})-[:KNOWS]->(q) RETURN p.name AS name",
        None,
    ),
    # A lone node's leading WHERE equalities are tested in its scan (or on
    # its seek's candidates): pushed in part, in whole, with nulls.
    ("MATCH (p:Person) WHERE p.age = 30 AND p.name <> 'carol' RETURN p.name AS name", None),
    (
        "MATCH (p:Person) WHERE p.nickname = 'al' AND p.age = $age RETURN p.name AS name",
        {"age": 30},
    ),
    (
        "MATCH (p:Person) WHERE p.nickname = $nick AND p.age = 40 RETURN p.name AS name",
        {"nick": None},
    ),
    ("MATCH (p:Person {nickname: null}) WHERE p.age = 40 RETURN p.name AS name", None),
    ("MATCH (p:Person) WHERE p.age = 30.0 RETURN p.name AS name", None),
    ("MATCH (p:Person) WHERE p.age = true RETURN p.name AS name", None),
    (
        "OPTIONAL MATCH (p:Person) WHERE p.name = $name AND p.age = 99 RETURN p.name AS name",
        {"name": "bob"},
    ),
    (
        "MATCH (p:Person) WHERE p.name = 'nobody' AND p.age = $missing RETURN p.name AS name",
        None,
    ),
]


def canonical(value):
    if isinstance(value, Node):
        return ("node", value.id, tuple(sorted(value.labels)), tuple(sorted(value.properties.items())))
    if isinstance(value, Relationship):
        return ("rel", value.id)
    if isinstance(value, list):
        return tuple(canonical(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, canonical(v)) for k, v in value.items()))
    return value


def run_rows(graph, query, parameters):
    result = execute(graph, query, parameters=parameters)
    return sorted(
        (tuple(sorted((k, canonical(v)) for k, v in row.items())) for row in result.rows),
        key=repr,
    )


class TestIndexEquivalence:
    @pytest.mark.parametrize("query,parameters", EQUIVALENCE_CORPUS)
    def test_results_identical_with_and_without_indexes(self, query, parameters):
        plain = build_graph()
        indexed = build_graph()
        for label, prop in INDEX_PAIRS:
            indexed.create_property_index(label, prop)
        assert run_rows(plain, query, parameters) == run_rows(indexed, query, parameters)

    def test_index_dropped_mid_session_falls_back_to_scan(self):
        graph = build_graph()
        graph.create_property_index("Person", "name")
        query = "MATCH (p:Person {name: 'alice'}) RETURN p.age AS age"
        assert execute(graph, query).rows == [{"age": 30}]
        graph.drop_property_index("Person", "name")
        assert execute(graph, query).rows == [{"age": 30}]

    def test_missing_parameter_behaviour_independent_of_index(self):
        # With zero candidates, the unindexed path never evaluates WHERE, so
        # a missing $parameter yields empty rows; an index must not change
        # that to an eager CypherRuntimeError.
        graph = PropertyGraph()
        query = "MATCH (p:Ghost) WHERE p.k = $v RETURN p"
        assert execute(graph, query).rows == []
        graph.create_property_index("Ghost", "k")
        assert execute(graph, query).rows == []
        # and with candidates present, both paths raise the same error
        graph.create_node(["Ghost"], {"k": 1})
        with pytest.raises(Exception, match="missing query parameter"):
            execute(graph, query)

    def test_unhashable_equality_value_falls_back_to_scan(self):
        graph = build_graph()
        graph.create_property_index("Person", "name")
        query = "MATCH (p:Person) WHERE p.name = $v RETURN p.name AS name"
        # a dict parameter cannot probe the index; result must match the
        # unindexed semantics (no rows) instead of raising TypeError
        assert execute(graph, query, parameters={"v": {"a": 1}}).rows == []
        assert execute(graph, query, parameters={"v": "alice"}).rows == [{"name": "alice"}]

    def test_updates_visible_through_index_path(self):
        graph = build_graph()
        graph.create_property_index("Person", "name")
        execute(graph, "MATCH (p:Person {name: 'alice'}) SET p.name = 'alicia'")
        assert execute(graph, "MATCH (p:Person {name: 'alice'}) RETURN p").rows == []
        rows = execute(graph, "MATCH (p:Person {name: 'alicia'}) RETURN p.age AS age").rows
        assert rows == [{"age": 30}]


class TestAccessPathChoice:
    def test_values_bound_before_the_clause_drive_seeks(self):
        graph = build_graph()
        graph.create_property_index("Person", "name")
        for query in (
            "UNWIND $rows AS row MATCH (p:Person {name: row.n}) RETURN p",
            "UNWIND $rows AS row MATCH (p:Person) WHERE p.name = row.n RETURN p",
            "UNWIND $names AS n MATCH (p:Person {name: n}) RETURN p",
        ):
            [pattern_plan] = plan_query(parse_query(query), graph).pattern_plans()
            assert pattern_plan.start.kind == INDEX, query
        rows = execute(
            graph,
            "UNWIND $rows AS row MATCH (p:Person {name: row.n}) RETURN p.age AS age",
            parameters={"rows": [{"n": "bob"}, {"n": "carol"}]},
        ).rows
        assert rows == [{"age": 40}, {"age": 30}]

    def test_sibling_pattern_variables_do_not_drive_seeks(self):
        # The join order may run `b` first, before `a` holds a value.
        graph = build_graph()
        graph.create_property_index("Person", "name")
        query = "MATCH (a:City), (b:Person) WHERE b.name = a.name RETURN b"
        plans = plan_query(parse_query(query), graph).pattern_plans()
        assert all(plan.start.kind != INDEX for plan in plans)

    def test_row_dependent_seek_on_a_join_build_side_is_not_shared(self):
        # `s` is joined second; its build table is filled by a seek on the
        # row's value, so a table built for one row must not serve the next.
        query = (
            "UNWIND $rows AS row MATCH (c:Cfg {name: 'x'}), (s:Station) "
            "WHERE s.zone = row.zone RETURN s.zone AS z"
        )
        parameters = {"rows": [{"zone": 0}, {"zone": 1}, {"zone": 2}]}
        graph = PropertyGraph()
        graph.create_node(["Cfg"], {"name": "x"})
        for zone in range(3):
            graph.create_node(["Station"], {"zone": zone})
        assert execute(graph, query, parameters=parameters).rows == [
            {"z": 0}, {"z": 1}, {"z": 2},
        ]
        graph.create_property_index("Station", "zone")
        plan = explain(query, graph)
        assert "IndexSeek(Station.zone = row.zone)" in plan
        assert "HashJoin(pattern[1]" in plan
        assert execute(graph, query, parameters=parameters).rows == [
            {"z": 0}, {"z": 1}, {"z": 2},
        ]
        memoized = QueryExecutor(graph, memoize_match=True)
        assert memoized.execute(
            "UNWIND $rows AS row MATCH (s:Station) WHERE s.zone = row.zone "
            "RETURN s.zone AS z",
            parameters,
        ).rows == [{"z": 0}, {"z": 1}, {"z": 2}]

    def test_row_dependent_seek_declines_the_connected_hash_join(self):
        # A connected hash join builds its pattern once, unbound; a start
        # seeking on a row value cannot be built that way.
        graph = build_graph()
        graph.create_property_index("Person", "age")
        query = "MATCH (a:City), (p:Person)-[:KNOWS]->(q) WHERE p.age = k RETURN q"
        for scope, seeks_on_row in (
            (Scope(bound=frozenset({"k"})), True),
            (Scope(), False),
        ):
            text = query if seeks_on_row else query.replace("= k", "= 40")
            plan = plan_query(parse_query(text), graph, scope=scope)
            [seeked] = [p for p in plan.pattern_plans() if p.start.kind == INDEX]
            assert bool(seeked.start.reads()) == seeks_on_row
            operator = _connected_hash_join(seeked, 1, {"q"}, 1e6, 10.0)
            assert (operator is None) == seeks_on_row

    def test_failing_bound_value_falls_back_to_the_scan(self):
        # `row.station` on an integer raises; with no :Empty node the scan
        # never evaluates it, so the seek must not raise either.
        query = "UNWIND [1] AS row MATCH (s:Empty {id: row.station}) RETURN s"
        graph = PropertyGraph()
        assert execute(graph, query).rows == []
        graph.create_property_index("Empty", "id")
        assert "IndexSeek(Empty.id = row.station)" in explain(query, graph)
        assert execute(graph, query).rows == []

    def test_inline_map_uses_property_index(self):
        graph = build_graph()
        graph.create_property_index("Person", "name")
        plan = plan_query(parse_query("MATCH (p:Person {name: 'alice'}) RETURN p"), graph)
        [pattern_plan] = plan.pattern_plans()
        assert pattern_plan.start.kind == INDEX
        assert pattern_plan.start.label == "Person"
        assert pattern_plan.start.property == "name"
        assert plan.uses_index()

    def test_sargable_where_uses_property_index(self):
        graph = build_graph()
        graph.create_property_index("Person", "name")
        plan = plan_query(
            parse_query("MATCH (p:Person) WHERE p.name = $name RETURN p"), graph
        )
        assert plan.pattern_plans()[0].start.kind == INDEX

    def test_non_sargable_predicates_do_not_use_index(self):
        graph = build_graph()
        graph.create_property_index("Person", "age")
        for where in ("p.age > 30", "p.age = q.age", "p.age = 30 OR p.name = 'x'"):
            plan = plan_query(
                parse_query(f"MATCH (p:Person), (q:Person) WHERE {where} RETURN p"), graph
            )
            assert plan.pattern_plans()[0].start.kind == LABEL, where

    def test_unindexed_label_scans_and_bare_pattern_full_scans(self):
        graph = build_graph()
        plan = plan_query(parse_query("MATCH (p:Person {name: 'alice'}) RETURN p"), graph)
        assert plan.pattern_plans()[0].start.kind == LABEL
        plan = plan_query(parse_query("MATCH (x) RETURN x"), graph)
        assert plan.pattern_plans()[0].start.kind == SCAN
        assert not plan.uses_index()

    def test_virtual_label_takes_priority_over_index(self):
        graph = build_graph()
        graph.create_property_index("Person", "name")
        plan = plan_query(
            parse_query("MATCH (p:NEWNODES {name: 'alice'}) RETURN p"),
            graph,
            virtual_labels={"NEWNODES"},
        )
        assert plan.pattern_plans()[0].start.kind == VIRTUAL

    def test_pattern_reversal_starts_from_indexed_end(self):
        graph = build_graph()
        graph.create_property_index("Person", "name")
        plan = plan_query(
            parse_query("MATCH (a)-[:KNOWS]->(b:Person {name: 'carol'}) RETURN a"), graph
        )
        [pattern_plan] = plan.pattern_plans()
        assert pattern_plan.reversed
        assert pattern_plan.start.kind == INDEX
        # reversal flips the relationship direction so semantics are intact
        rows = execute(
            graph, "MATCH (a)-[:KNOWS]->(b:Person {name: 'carol'}) RETURN a.name AS name"
        ).rows
        assert sorted(row["name"] for row in rows) == ["bob", "dave"]

    def test_dynamic_property_maps_block_reversal(self):
        graph = build_graph()
        graph.create_property_index("Person", "name")
        plan = plan_query(
            parse_query(
                "MATCH (a:Person)-[r:KNOWS {since: a.age}]->(b:Person {name: 'bob'}) RETURN a"
            ),
            graph,
        )
        assert not plan.pattern_plans()[0].reversed
        rows = execute(
            graph,
            "MATCH (a:Person)-[r:KNOWS {since: a.age}]->(b:Person {name: 'bob'}) "
            "RETURN a.name AS name",
        ).rows
        assert [row["name"] for row in rows] == ["alice"]

    def test_named_paths_are_never_reversed(self):
        graph = build_graph()
        graph.create_property_index("Person", "name")
        plan = plan_query(
            parse_query("MATCH p = (a)-[:KNOWS]->(b:Person {name: 'carol'}) RETURN p"), graph
        )
        assert not plan.pattern_plans()[0].reversed

    def test_variable_length_patterns_are_never_reversed(self):
        # A var-length relationship variable binds the hop *list* in
        # traversal order; reversal would flip it and change results.
        graph = PropertyGraph()
        a = graph.create_node(["A"], {})
        m = graph.create_node([], {})
        b = graph.create_node(["B"], {"k": 1})
        for _ in range(20):
            graph.create_node(["A"], {})
        first = graph.create_relationship("R", a.id, m.id)
        second = graph.create_relationship("R", m.id, b.id)
        graph.create_property_index("B", "k")
        query = "MATCH (x:A)-[r:R*2..2]->(y:B) WHERE y.k = 1 RETURN r"
        plan = plan_query(parse_query(query), graph)
        assert not plan.pattern_plans()[0].reversed
        [row] = execute(graph, query).rows
        assert [rel.id for rel in row["r"]] == [first.id, second.id]


class TestJoinOrdering:
    def ordered_graph(self) -> PropertyGraph:
        graph = PropertyGraph()
        hub = graph.create_node(["Small"], {"k": 7})
        for index in range(200):
            n = graph.create_node(["Big"], {"v": index})
            if index < 4:
                graph.create_relationship("R", hub.id, n.id)
        return graph

    def test_cheapest_pattern_planned_first(self):
        graph = self.ordered_graph()
        plan = plan_query(
            parse_query("MATCH (a:Big), (b:Small) RETURN a, b"), graph
        )
        [join_order] = plan.join_orders()
        assert join_order.order == (1, 0)
        assert join_order.reordered
        assert join_order.cartesian
        # estimates are reported in clause order
        assert join_order.estimated_rows[0] == 200.0
        assert join_order.estimated_rows[1] == 1.0

    def test_clause_order_kept_when_already_cheapest(self):
        graph = self.ordered_graph()
        plan = plan_query(
            parse_query("MATCH (b:Small), (a:Big) RETURN a, b"), graph
        )
        [join_order] = plan.join_orders()
        assert join_order.order == (0, 1)
        assert not join_order.reordered

    def test_connected_pattern_beats_cheaper_disconnected_one(self):
        graph = self.ordered_graph()
        graph.create_node(["Tiny"], {})
        # after (s:Small), the connected Big expansion is preferred over
        # the cheaper-but-disconnected Tiny pattern
        plan = plan_query(
            parse_query("MATCH (t:Tiny), (s:Small)-[:R]->(x:Big), (s)-[:R]->(y) RETURN t"),
            graph,
        )
        [join_order] = plan.join_orders()
        assert join_order.order[-1] == 0
        assert set(join_order.order[:2]) == {1, 2}
        assert join_order.cartesian

    def test_variable_bound_by_earlier_clause_makes_pattern_near_free(self):
        graph = self.ordered_graph()
        query = parse_query(
            "MATCH (s:Small) MATCH (b:Big), (s)-[:R]->(x) RETURN b, x"
        )
        plan = plan_query(query, graph)
        [join_order] = plan.join_orders()
        # (s)-[:R]->(x) starts from the bound s, so it goes first even
        # though its standalone estimate is not the smallest
        assert join_order.order == (1, 0)

    def test_single_pattern_clauses_have_no_join_order(self):
        graph = self.ordered_graph()
        plan = plan_query(parse_query("MATCH (a:Big) MATCH (b:Small) RETURN a, b"), graph)
        assert plan.join_orders() == []
        assert plan.join_order_for(plan.query.clauses[0]) is None

    def test_cross_pattern_property_reference_declines_reordering(self):
        # (b:B {x: a.y}) reads a variable bound by a sibling pattern, so
        # running it first would raise instead of staying advisory; the
        # planner must keep the written order for such clauses.
        graph = PropertyGraph()
        for index in range(20):
            graph.create_node(["A"], {"y": 3})
        graph.create_node(["B"], {"x": 3})
        query = "MATCH (a:A), (b:B {x: a.y}) RETURN a.y AS ay"
        plan = plan_query(parse_query(query), graph)
        assert plan.join_orders() == []
        ordered = QueryExecutor(graph).execute(query).rows
        naive = QueryExecutor(graph, join_ordering=False).execute(query).rows
        assert ordered == naive
        assert len(ordered) == 20 and all(row["ay"] == 3 for row in ordered)

    def test_intra_pattern_forward_reference_declines_reordering(self):
        # (b:B {y: a.z})-[:R]->(a) reads `a` before its own trailing
        # element could bind it, so only the sibling (a:A) running first
        # makes it evaluable — the clause must keep its written order.
        graph = PropertyGraph()
        targets = [graph.create_node(["A"], {"z": 9}) for _ in range(50)]
        b = graph.create_node(["B"], {"y": 9})
        graph.create_relationship("R", b.id, targets[0].id)
        query = "MATCH (a:A), (b:B {y: a.z})-[:R]->(a) RETURN b.y AS y"
        plan = plan_query(parse_query(query), graph)
        assert plan.join_orders() == []
        ordered = QueryExecutor(graph).execute(query).rows
        naive = QueryExecutor(graph, join_ordering=False).execute(query).rows
        assert ordered == naive == [{"y": 9}]

    def test_within_pattern_backward_reference_still_reorders(self):
        # (a:A)-[r:R {since: a.age}]->(b) reads only a preceding element
        # of its own pattern: safe under any clause-level order
        graph = self.ordered_graph()
        query = parse_query(
            "MATCH (x:Big)-[r:R {w: x.v}]->(y), (s:Small) RETURN s"
        )
        plan = plan_query(query, graph)
        assert len(plan.join_orders()) == 1

    def test_reference_satisfied_by_earlier_clause_still_reorders(self):
        graph = self.ordered_graph()
        # a is bound by the previous clause, so {v: a.k} is evaluable in
        # any order and the clause may still be reordered
        query = parse_query(
            "MATCH (a:Small) MATCH (x:Big {v: a.k}), (t:Small) RETURN x, t"
        )
        plan = plan_query(query, graph)
        [join_order] = plan.join_orders()
        assert join_order.order == (1, 0)

    def test_join_order_is_advisory_for_results(self):
        graph = self.ordered_graph()
        query = "MATCH (a:Big), (b:Small {k: 7}) WHERE a.v < 2 RETURN a.v AS v, b.k AS k"
        ordered = QueryExecutor(graph).execute(query).rows
        naive = QueryExecutor(graph, join_ordering=False).execute(query).rows
        assert sorted(r["v"] for r in ordered) == sorted(r["v"] for r in naive) == [0, 1]


REGION_JOIN = (
    "MATCH (h:Hospital)-[:LocatedIn]->(r:Region {name: $region}), "
    "(p:IcuPatient)-[:TreatedAt]->(h), (p:IcuPatient)-[:HasSample]->(s:Sequence) "
    "RETURN count(DISTINCT p) AS c"
)


class TestBoundEndAnchoring:
    """A reversible pattern whose start is unbound but whose other end is
    bound to a node — by an earlier clause or an earlier join step —
    starts from that end: a single candidate instead of a scan."""

    @pytest.fixture(scope="class")
    def cov2k(self) -> PropertyGraph:
        from repro.datasets import Cov2kProfile, generate_cov2k

        return generate_cov2k(Cov2kProfile().scaled(1)).graph

    def test_region_join_starts_at_the_hospital_bound_by_the_first_step(self, cov2k):
        lines = explain(REGION_JOIN, cov2k).splitlines()
        # before: start=(p) LabelScan(IcuPatient) -> Expand(-[:TreatedAt]->())
        assert lines[1].startswith("start=(h) ")
        assert "Expand(<-[:TreatedAt]-(:IcuPatient))" in lines[1]
        assert lines[1].endswith("(reversed)")
        parameters = {"region": "Lombardy"}
        planned = QueryExecutor(cov2k).execute(REGION_JOIN, parameters).rows
        naive = QueryExecutor(cov2k, join_ordering=False).execute(REGION_JOIN, parameters).rows
        assert planned == naive and planned[0]["c"] > 0

    def test_move_to_near_hospital_second_clause_starts_at_bound_hospital(self, cov2k):
        from repro.cypher.planner import PLAN_CACHE
        from repro.datasets.paper_triggers import move_to_near_hospital
        from repro.triggers.parser import parse_trigger

        condition = parse_trigger(move_to_near_hospital()).condition
        query = PLAN_CACHE.condition_compiled(condition).parsed
        second = plan_query(query, cov2k).pattern_plans()[1]
        assert second.pattern is query.clauses[1].patterns[0]
        assert second.reversed and second.elements[0].variable == "h"
        assert second.describe().startswith("start=(h) ")

    @pytest.mark.parametrize(
        "pattern",
        [
            "q = (p:Person)-[:KNOWS]->(c)",  # path variable
            "(p:Person)-[:KNOWS*1..2]->(c)",  # variable-length hop
            "(p:Person {age: c.age})-[:KNOWS]->(c)",  # map reads a row variable
            "shortestPath((p:Person)-[:KNOWS*]->(c))",
            "(p:Person)-[k:KNOWS {since: 30}]->(c)",  # relationship-index start
        ],
    )
    def test_ineligible_patterns_keep_their_written_start(self, pattern):
        graph = build_graph()
        graph.create_relationship_property_index("KNOWS", "since")
        query = f"MATCH (c:Person {{name: 'bob'}}) WITH c MATCH {pattern} RETURN p.name AS name"
        plan = plan_query(parse_query(query), graph).pattern_plans()[1]
        assert not plan.reversed and plan.elements[0].variable == "p", plan.describe()
        rows = [QueryExecutor(graph, **options).execute(query).rows for options in (
            {}, {"join_ordering": False}, {"eager": True}, {"naive_paths": True}
        )]
        assert rows[0] == rows[1] == rows[2] == rows[3]

    def test_initial_row_node_anchors_the_pattern_start(self):
        graph = build_graph()
        carol = graph.find_nodes("Person", {"name": "carol"})[0]
        query = "MATCH (p:Person)-[:KNOWS]->(c) RETURN p.name AS name"
        executor = QueryExecutor(graph)
        rows = executor.execute(query, bindings={"c": carol}).rows
        assert sorted(row["name"] for row in rows) == ["bob", "dave"]
        assert executor.last_plan.plan_description().startswith("start=(c) ")
        # the same text without the binding is planned (and cached) apart
        executor.execute(query)
        assert executor.last_plan.plan_description().startswith("start=(p) ")

    @pytest.mark.parametrize("binding", ["deleted", "null", "relationship"])
    def test_initial_row_values_that_are_not_live_nodes_do_not_anchor(self, binding):
        graph = build_graph()
        tx = Transaction(graph)
        carol = graph.find_nodes("Person", {"name": "carol"})[0]
        value = {
            "deleted": carol,
            "null": None,
            "relationship": graph.relationships_with_type("KNOWS")[0],
        }[binding]
        if binding == "deleted":
            QueryExecutor(graph, transaction=tx).execute(
                "MATCH (c:Person {name: 'carol'}) DETACH DELETE c"
            )
        executor = QueryExecutor(graph, transaction=tx)
        query = "MATCH (p:Person)-[:KNOWS]->(c) RETURN p.name AS name"
        assert executor.execute(query, bindings={"c": value}).rows == []
        assert executor.last_plan.plan_description().startswith("start=(p) ")

    def test_initial_row_relationship_anchors_the_first_hop(self):
        graph = build_graph()
        knows = graph.relationships_with_type("KNOWS")[0]  # alice -> bob
        executor = QueryExecutor(graph)
        for query in (
            "MATCH (a:Person)-[r]->(b:Person) RETURN a.name AS a, b.name AS b",
            # reversible: the bound last hop is reached by reversing
            "MATCH (x:Person)-[:KNOWS]->(a:Person)-[r]->(b:Person) "
            "RETURN a.name AS a, b.name AS b",
        ):
            rows = executor.execute(query, bindings={"r": knows}).rows
            assert [(row["a"], row["b"]) for row in rows] == [("alice", "bob")]
            first = executor.last_plan.pattern_plans()[0]
            assert first.start.describe().startswith("BoundRelationship(r)"), query
        rows = executor.execute(
            "MATCH (a:Person)-[r]-(b:Person) RETURN a.name AS a, b.name AS b",
            bindings={"r": knows},
        ).rows
        assert sorted((row["a"], row["b"]) for row in rows) == [
            ("alice", "bob"), ("bob", "alice"),
        ]

    def test_exists_subquery_is_planned_in_the_scope_after_its_clause(self):
        graph = build_graph()
        for query in (
            "MATCH (c:Person) WHERE EXISTS { MATCH (p:Person {age: 40})-[:KNOWS]->(c) } "
            "RETURN c.name AS name",
            "MATCH (c:Person) WITH c WHERE EXISTS { MATCH (p:Person {age: 40})-[:KNOWS]->(c) } "
            "RETURN c.name AS name",
        ):
            plan = plan_query(parse_query(query), graph)
            [exists] = plan.exists_plans()
            assert exists.reversed and exists.elements[0].variable == "c"
            assert "EXISTS start=(c) " in plan.plan_description()
            rows = execute(graph, query).rows
            assert sorted(row["name"] for row in rows) == ["alice", "carol"]

    def test_eligible_pattern_starts_at_its_bound_end(self):
        graph = build_graph()
        query = (
            "MATCH (c:Person {name: 'carol'}) WITH c "
            "MATCH (p:Person)-[:KNOWS]->(c) RETURN p.name AS name"
        )
        plan = plan_query(parse_query(query), graph).pattern_plans()[1]
        assert plan.reversed and plan.elements[0].variable == "c"
        assert sorted(row["name"] for row in execute(graph, query).rows) == ["bob", "dave"]

    @pytest.mark.parametrize(
        "prefix",
        [
            "UNWIND [1, 2] AS c",  # bound, but not to a node
            "MATCH (c:Person {name: 'carol'}) WITH c.name AS c",  # rebound by WITH
            "MATCH (c:Person {name: 'carol'}) DETACH DELETE c WITH c",  # deleted node
        ],
    )
    def test_only_variables_certain_to_hold_a_node_anchor(self, prefix):
        # Starting at a non-node or a deleted node would raise where matching
        # from the written start filters it out, so these keep that start.
        graph = build_graph()
        query = f"{prefix} MATCH (p:Person)-[:KNOWS]->(c) RETURN p.name AS name"
        plan = plan_query(parse_query(query), graph).pattern_plans()[-1]
        assert plan.elements[0].variable == "p", plan.describe()
        assert execute(graph, query).rows == []


class TestPhysicalIndexInvalidation:
    """Ordered and relationship indexes must flow through ``index_epoch``/
    ``plan_token`` so the global plan cache never serves a plan against a
    dropped or stale index."""

    def range_graph(self) -> PropertyGraph:
        graph = PropertyGraph()
        for value in range(30):
            graph.create_node(["Item"], {"v": value})
        return graph

    def test_range_index_ddl_bumps_epoch(self):
        graph = self.range_graph()
        epoch = graph.index_epoch
        graph.create_range_index("Item", "v")
        assert graph.index_epoch == epoch + 1
        graph.drop_range_index("Item", "v")
        assert graph.index_epoch == epoch + 2

    def test_relationship_index_ddl_bumps_epoch(self):
        graph = self.range_graph()
        epoch = graph.index_epoch
        graph.create_relationship_property_index("KNOWS", "since")
        assert graph.index_epoch == epoch + 1
        graph.drop_relationship_property_index("KNOWS", "since")
        assert graph.index_epoch == epoch + 2

    def test_cached_plan_replans_after_range_index_create_and_drop(self):
        graph = self.range_graph()
        executor = QueryExecutor(graph)
        query = "MATCH (n:Item) WHERE n.v > 25 RETURN n.v AS v"
        assert "LabelScan" in executor.plan_description(query)
        graph.create_range_index("Item", "v")
        description = executor.plan_description(query)
        assert "IndexRangeSeek(Item.v > 25)" in description
        assert sorted(r["v"] for r in executor.execute(query).rows) == [26, 27, 28, 29]
        graph.drop_range_index("Item", "v")
        assert "IndexRangeSeek" not in executor.plan_description(query)
        assert sorted(r["v"] for r in executor.execute(query).rows) == [26, 27, 28, 29]

    def test_cached_plan_replans_after_rel_index_create_and_drop(self):
        graph = self.range_graph()
        nodes = list(graph.nodes())
        graph.create_relationship("KNOWS", nodes[0].id, nodes[1].id, {"since": 1})
        graph.create_relationship("KNOWS", nodes[1].id, nodes[2].id, {"since": 2})
        executor = QueryExecutor(graph)
        query = "MATCH (a)-[r:KNOWS {since: 1}]->(b) RETURN b.v AS v"
        assert "RelIndexSeek" not in executor.plan_description(query)
        baseline = executor.execute(query).rows
        graph.create_relationship_property_index("KNOWS", "since")
        assert "RelIndexSeek(KNOWS.since = 1)" in executor.plan_description(query)
        assert executor.execute(query).rows == baseline
        graph.drop_relationship_property_index("KNOWS", "since")
        assert "RelIndexSeek" not in executor.plan_description(query)
        assert executor.execute(query).rows == baseline

    def test_stale_plan_on_one_graph_never_leaks_to_another(self):
        # plan tokens keep per-graph entries apart even for identical text
        indexed = self.range_graph()
        indexed.create_range_index("Item", "v")
        plain = self.range_graph()
        query = "MATCH (n:Item) WHERE n.v > 25 RETURN n"
        assert "IndexRangeSeek" in QueryExecutor(indexed).plan_description(query)
        assert "IndexRangeSeek" not in QueryExecutor(plain).plan_description(query)


class TestExplain:
    def test_plan_description_shows_index_lookup(self):
        graph = build_graph()
        graph.create_property_index("Person", "name")
        description = explain("MATCH (p:Person {name: 'alice'}) RETURN p", graph)
        assert "IndexSeek(Person.name = 'alice')" in description

    def test_executor_plan_description_matches_execution(self):
        graph = build_graph()
        graph.create_property_index("Person", "age")
        executor = QueryExecutor(graph)
        description = executor.plan_description(
            "MATCH (p:Person) WHERE p.age = $age RETURN p"
        )
        assert "IndexSeek(Person.age = $age)" in description

    def test_plan_description_without_match_patterns(self):
        graph = build_graph()
        assert "no MATCH patterns" in explain("RETURN 1 AS one", graph)

    def test_plan_description_reports_multi_pattern_order_and_estimates(self):
        graph = build_graph()
        description = explain(
            "MATCH (p:Person), (c:City {name: 'milan'}) RETURN p, c", graph
        )
        # one est~ annotation per pattern line, plus the join-order line
        # repeating the estimate of every pattern in chosen order
        assert "JoinOrder(pattern[1] est~1, pattern[0] est~5)" in description
        assert "LabelScan(Person) est~5 rows" in description
        assert "LabelScan(City) est~1 rows" in description

    def test_explain_reports_index_selectivity_as_estimate(self):
        graph = build_graph()
        graph.create_property_index("Person", "age")
        description = explain("MATCH (p:Person {age: 30}) RETURN p", graph)
        # ages 30,30,40,25,40 -> 5 entries over 3 distinct values
        assert "IndexSeek(Person.age = 30) est~1.67 rows" in description
