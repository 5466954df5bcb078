"""Path-query subsystem: var-length expansion and shortestPath.

Covers the Path value type, parser surface (including positioned error
messages), both expansion routes (naive recursive vs. iterative DFS),
var-length hops over a containment tree and a cycle, shortestPath
semantics, and planner/EXPLAIN integration.
"""

import pytest

from repro.cypher import QueryExecutor, execute, explain, parse_query
from repro.cypher.errors import CypherSyntaxError, UnsupportedFeatureError
from repro.graph import PropertyGraph
from repro.paths import Path


def names(result, column="name"):
    return [row[column] for row in result]


@pytest.fixture
def chain_graph():
    """a -> b -> c -> d linear KNOWS chain."""
    graph = PropertyGraph()
    nodes = {}
    for name in "abcd":
        nodes[name] = graph.create_node(["Person"], {"name": name})
    for src, dst in [("a", "b"), ("b", "c"), ("c", "d")]:
        graph.create_relationship("KNOWS", nodes[src].id, nodes[dst].id)
    return graph, nodes


@pytest.fixture
def diamond_graph():
    """a -> {b, c} -> d with a direct a -> d shortcut."""
    graph = PropertyGraph()
    nodes = {}
    for name in "abcd":
        nodes[name] = graph.create_node(["Person"], {"name": name})
    for src, dst in [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"), ("a", "d")]:
        graph.create_relationship("KNOWS", nodes[src].id, nodes[dst].id)
    return graph, nodes


# ---------------------------------------------------------------------------
# the Path value
# ---------------------------------------------------------------------------


class TestPathValue:
    def make_path(self, chain_graph):
        graph, nodes = chain_graph
        rels = sorted(graph.relationships_with_type("KNOWS"), key=lambda r: r.id)
        return Path(
            [nodes["a"], nodes["b"], nodes["c"]],
            rels[:2],
        )

    def test_length_counts_relationships(self, chain_graph):
        path = self.make_path(chain_graph)
        assert path.length == 2
        assert len(path.nodes) == 3

    def test_invalid_shape_rejected(self, chain_graph):
        graph, nodes = chain_graph
        with pytest.raises(ValueError):
            Path([nodes["a"]], graph.relationships_with_type("KNOWS"))

    def test_zero_length_path(self, chain_graph):
        _, nodes = chain_graph
        path = Path([nodes["a"]], [])
        assert path.length == 0
        assert path.start_node is path.end_node

    def test_mapping_protocol(self, chain_graph):
        path = self.make_path(chain_graph)
        assert set(path) == {"nodes", "relationships"}
        assert len(path["nodes"]) == 3
        assert len(path["relationships"]) == 2
        with pytest.raises(KeyError):
            path["bogus"]

    def test_equality_and_hash(self, chain_graph):
        first = self.make_path(chain_graph)
        second = self.make_path(chain_graph)
        assert first == second
        assert hash(first) == hash(second)
        graph, nodes = chain_graph
        shorter = Path([nodes["a"]], [])
        assert first != shorter


# ---------------------------------------------------------------------------
# parser surface
# ---------------------------------------------------------------------------


class TestPathParsing:
    def test_varlength_forms_parse(self):
        for form in ("*", "*2", "*..3", "*1..", "*1..3", "*0..2"):
            parse_query(f"MATCH (a)-[:KNOWS{form}]->(b) RETURN b")

    def test_shortest_path_parses(self):
        query = parse_query("MATCH p = shortestPath((a)-[:KNOWS*..4]->(b)) RETURN p")
        pattern = query.clauses[0].patterns[0]
        assert pattern.shortest == "shortestPath"
        assert pattern.variable == "p"

    def test_shortest_path_without_name(self):
        query = parse_query("MATCH shortestPath((a)-[:KNOWS*]->(b)) RETURN a")
        assert query.clauses[0].patterns[0].shortest == "shortestPath"

    def test_all_shortest_paths_error_names_token_and_position(self):
        with pytest.raises(UnsupportedFeatureError) as err:
            parse_query("MATCH p = allShortestPaths((a)-[:R*]->(b)) RETURN p")
        message = str(err.value)
        assert "allShortestPaths" in message
        assert "line 1" in message

    def test_shortest_path_multi_hop_pattern_rejected_with_position(self):
        with pytest.raises(CypherSyntaxError) as err:
            parse_query("MATCH p = shortestPath((a)-[:R]->(b)-[:R]->(c)) RETURN p")
        assert "single-relationship" in str(err.value)
        assert "line 1" in str(err.value)

    def test_both_directions_error_carries_position(self):
        with pytest.raises(CypherSyntaxError) as err:
            parse_query("MATCH (a)<-[:R]->(b) RETURN a")
        assert "line 1" in str(err.value)
        assert err.value.position is not None  # offset captured for tooling


# ---------------------------------------------------------------------------
# variable-length expansion
# ---------------------------------------------------------------------------


class TestVarLengthExpand:
    def test_bounded_expansion(self, chain_graph):
        graph, _ = chain_graph
        result = execute(
            graph,
            "MATCH (a {name: 'a'})-[:KNOWS*1..2]->(b) RETURN b.name AS name",
        )
        assert names(result) == ["b", "c"]

    def test_zero_hop_includes_start(self, chain_graph):
        graph, _ = chain_graph
        result = execute(
            graph,
            "MATCH (a {name: 'a'})-[:KNOWS*0..1]->(b) RETURN b.name AS name",
        )
        assert names(result) == ["a", "b"]

    def test_exact_hop_count(self, chain_graph):
        graph, _ = chain_graph
        result = execute(
            graph,
            "MATCH (a {name: 'a'})-[:KNOWS*3]->(b) RETURN b.name AS name",
        )
        assert names(result) == ["d"]

    def test_incoming_direction(self, chain_graph):
        graph, _ = chain_graph
        result = execute(
            graph,
            "MATCH (d {name: 'd'})<-[:KNOWS*1..2]-(b) RETURN b.name AS name",
        )
        assert sorted(names(result)) == ["b", "c"]

    def test_undirected_traversal(self, chain_graph):
        graph, _ = chain_graph
        result = execute(
            graph,
            "MATCH (b {name: 'b'})-[:KNOWS*1]-(x) RETURN x.name AS name",
        )
        assert sorted(names(result)) == ["a", "c"]

    def test_relationship_uniqueness_on_cycle(self):
        graph = PropertyGraph()
        a = graph.create_node(["N"], {"name": "a"})
        b = graph.create_node(["N"], {"name": "b"})
        graph.create_relationship("R", a.id, b.id)
        graph.create_relationship("R", b.id, a.id)
        result = execute(graph, "MATCH (x {name: 'a'})-[:R*]->(y) RETURN y.name AS name")
        # each relationship used at most once per path: a->b, a->b->a, stop
        assert names(result) == ["b", "a"]

    def test_named_path_has_all_intermediate_nodes(self, chain_graph):
        graph, _ = chain_graph
        result = execute(
            graph,
            "MATCH p = (a {name: 'a'})-[:KNOWS*3]->(d) "
            "RETURN length(p) AS len, [n IN nodes(p) | n.name] AS hops, "
            "size(relationships(p)) AS rels",
        )
        rows = list(result)
        assert rows == [{"len": 3, "hops": ["a", "b", "c", "d"], "rels": 3}]

    def test_rel_variable_binds_hop_list(self, chain_graph):
        graph, _ = chain_graph
        result = execute(
            graph,
            "MATCH (a {name: 'a'})-[r:KNOWS*2]->(c) RETURN size(r) AS hops",
        )
        assert list(result) == [{"hops": 2}]

    def test_naive_and_iterative_agree(self, diamond_graph):
        graph, _ = diamond_graph
        query = "MATCH p = (a {name: 'a'})-[:KNOWS*1..3]->(x) RETURN [n IN nodes(p) | n.name] AS walk"
        fast = [row["walk"] for row in QueryExecutor(graph).execute(query)]
        naive = [row["walk"] for row in QueryExecutor(graph, naive_paths=True).execute(query)]
        assert fast == naive
        assert len(fast) == len(set(map(tuple, fast)))  # no duplicate walks

    def test_unbounded_hops_are_capped(self):
        graph = PropertyGraph()
        prev = graph.create_node(["N"], {"i": 0})
        for i in range(1, 40):
            node = graph.create_node(["N"], {"i": i})
            graph.create_relationship("NEXT", prev.id, node.id)
            prev = node
        result = execute(graph, "MATCH (s {i: 0})-[:NEXT*]->(x) RETURN count(x) AS n")
        assert list(result) == [{"n": 15}]  # DEFAULT_MAX_HOPS


# ---------------------------------------------------------------------------
# shortestPath
# ---------------------------------------------------------------------------


class TestShortestPath:
    def test_bound_pair(self, diamond_graph):
        graph, _ = diamond_graph
        result = execute(
            graph,
            "MATCH p = shortestPath((a {name: 'a'})-[:KNOWS*..5]->(d {name: 'd'})) "
            "RETURN length(p) AS len",
        )
        assert list(result) == [{"len": 1}]  # direct a->d shortcut wins

    def test_tie_break_is_lexicographic_on_rel_ids(self):
        graph = PropertyGraph()
        a = graph.create_node(["N"], {"name": "a"})
        b = graph.create_node(["N"], {"name": "b"})
        first = graph.create_relationship("R", a.id, b.id)
        graph.create_relationship("R", a.id, b.id)  # parallel edge, higher id
        result = execute(
            graph,
            "MATCH p = shortestPath((x {name: 'a'})-[:R*..3]->(y {name: 'b'})) "
            "RETURN [r IN relationships(p) | id(r)] AS ids",
        )
        assert list(result) == [{"ids": [first.id]}]

    def test_same_node_no_match_by_default(self, chain_graph):
        graph, _ = chain_graph
        result = execute(
            graph,
            "MATCH p = shortestPath((a {name: 'a'})-[:KNOWS*..3]->(b {name: 'a'})) "
            "RETURN length(p) AS len",
        )
        assert list(result) == []

    def test_same_node_zero_min_yields_zero_length(self, chain_graph):
        graph, _ = chain_graph
        result = execute(
            graph,
            "MATCH p = shortestPath((a {name: 'a'})-[:KNOWS*0..3]->(b {name: 'a'})) "
            "RETURN length(p) AS len",
        )
        assert list(result) == [{"len": 0}]

    def test_unbound_target_sorted_by_distance(self, chain_graph):
        graph, _ = chain_graph
        result = execute(
            graph,
            "MATCH p = shortestPath((a {name: 'a'})-[:KNOWS*..3]->(x)) "
            "RETURN x.name AS name, length(p) AS len",
        )
        rows = list(result)
        assert rows == [
            {"name": "b", "len": 1},
            {"name": "c", "len": 2},
            {"name": "d", "len": 3},
        ]

    def test_undirected_shortest(self, chain_graph):
        graph, _ = chain_graph
        result = execute(
            graph,
            "MATCH p = shortestPath((d {name: 'd'})-[:KNOWS*..5]-(a {name: 'a'})) "
            "RETURN length(p) AS len",
        )
        assert list(result) == [{"len": 3}]

    def test_fast_and_naive_routes_agree(self, diamond_graph):
        graph, _ = diamond_graph
        query = (
            "MATCH p = shortestPath((a {name: 'a'})-[:KNOWS*..4]->(x)) "
            "RETURN x.name AS name, [r IN relationships(p) | id(r)] AS ids"
        )
        fast = list(QueryExecutor(graph).execute(query))
        naive = list(QueryExecutor(graph, naive_paths=True).execute(query))
        assert fast == naive

    def test_min_hops_forces_longer_walk(self, diamond_graph):
        graph, _ = diamond_graph
        result = execute(
            graph,
            "MATCH p = shortestPath((a {name: 'a'})-[:KNOWS*2..4]->(d {name: 'd'})) "
            "RETURN length(p) AS len",
        )
        assert list(result) == [{"len": 2}]  # shortcut excluded by min_hops

    def test_min_hops_route_handles_paths_deeper_than_recursion_limit(self):
        graph = PropertyGraph()
        ids = [graph.create_node(["N"], {"i": i}).id for i in range(1500)]
        for a, b in zip(ids, ids[1:]):
            graph.create_relationship("R", a, b)
        for hops in ("1..1499", "2..1499"):
            result = execute(
                graph,
                f"MATCH p = shortestPath((a:N {{i: 0}})-[:R*{hops}]->(b:N {{i: 1499}})) "
                "RETURN length(p) AS l",
            )
            assert list(result) == [{"l": 1499}]

    def test_path_wire_encoding(self, chain_graph):
        from repro.server.wire import to_wire

        graph, _ = chain_graph
        result = execute(
            graph,
            "MATCH p = shortestPath((a {name: 'a'})-[:KNOWS*..3]->(d {name: 'd'})) RETURN p",
        )
        payload = to_wire(list(result)[0]["p"])
        assert payload["$type"] == "path"
        assert payload["length"] == 3
        assert [n["properties"]["name"] for n in payload["nodes"]] == ["a", "b", "c", "d"]
        assert len(payload["relationships"]) == 3


# ---------------------------------------------------------------------------
# var-length hops over a containment tree
# ---------------------------------------------------------------------------


def tree_graph(depth=3, fanout=2):
    """Complete tree of PART_OF relationships, root at depth 0."""
    graph = PropertyGraph()
    root = graph.create_node(["Part"], {"name": "root", "depth": 0})
    frontier = [root]
    for level in range(1, depth + 1):
        next_frontier = []
        for parent in frontier:
            for child_index in range(fanout):
                child = graph.create_node(
                    ["Part"], {"name": f"{parent.properties['name']}.{child_index}", "depth": level}
                )
                graph.create_relationship("PART_OF", parent.id, child.id)
                next_frontier.append(child)
        frontier = next_frontier
    return graph, root


class TestTreeVarLength:
    def test_subtree_walk_matches_naive(self):
        graph, _ = tree_graph()
        query = "MATCH (r {name: 'root'})-[:PART_OF*]->(x) RETURN x.name AS name"
        walked = names(execute(graph, query))
        naive = names(QueryExecutor(graph, naive_paths=True).execute(query))
        assert walked == naive  # identical rows in identical order
        assert walked[:3] == ["root.0", "root.0.0", "root.0.0.0"]  # preorder
        assert len(walked) == 14

    def test_hop_window_respected(self):
        graph, _ = tree_graph(depth=3)
        result = execute(
            graph,
            "MATCH (r {name: 'root'})-[:PART_OF*2..2]->(x) RETURN x.depth AS depth",
        )
        assert [row["depth"] for row in result] == [2, 2, 2, 2]

    def test_bound_target(self):
        graph, _ = tree_graph(depth=3)
        result = execute(
            graph,
            "MATCH (r {name: 'root'})-[:PART_OF*]->(x {name: 'root.1.0.1'}) "
            "RETURN x.name AS name",
        )
        assert names(result) == ["root.1.0.1"]

    def test_incoming_direction_walks_ancestors(self):
        graph, _ = tree_graph(depth=3)
        result = execute(
            graph,
            "MATCH (x {name: 'root.1.0.1'})<-[:PART_OF*]-(a) RETURN a.name AS name",
        )
        assert names(result) == ["root.1.0", "root.1", "root"]

    def test_cycle_walks_each_relationship_once(self):
        graph = PropertyGraph()
        a = graph.create_node(["N"], {"name": "a"})
        b = graph.create_node(["N"], {"name": "b"})
        graph.create_relationship("R", a.id, b.id)
        graph.create_relationship("R", b.id, a.id)
        result = execute(graph, "MATCH (x {name: 'a'})-[:R*]->(y) RETURN y.name AS name")
        assert names(result) == ["b", "a"]

    def test_new_child_appears_in_next_walk(self):
        graph, root = tree_graph(depth=2)
        query = "MATCH (r {name: 'root'})-[:PART_OF*1..1]->(x) RETURN count(x) AS n"
        assert list(execute(graph, query)) == [{"n": 2}]
        leaf = graph.create_node(["Part"], {"name": "extra"})
        graph.create_relationship("PART_OF", root.id, leaf.id)
        assert list(execute(graph, query)) == [{"n": 3}]

    def test_parallel_edges_give_a_path_each(self):
        graph = PropertyGraph()
        a = graph.create_node(["N"], {"name": "a"})
        b = graph.create_node(["N"], {"name": "b"})
        graph.create_relationship("R", a.id, b.id)
        graph.create_relationship("R", a.id, b.id)
        query = "MATCH (x {name: 'a'})-[:R*]->(y) RETURN y.name AS name"
        walked = names(execute(graph, query))
        assert walked == ["b", "b"]
        assert walked == names(QueryExecutor(graph, naive_paths=True).execute(query))

    def test_self_loop_is_walked_once(self):
        graph = PropertyGraph()
        a = graph.create_node(["N"], {"name": "a"})
        graph.create_relationship("R", a.id, a.id)
        query = "MATCH (x {name: 'a'})-[:R*]->(y) RETURN y.name AS name"
        assert names(execute(graph, query)) == ["a"]

    def test_forest_with_multiple_roots(self):
        graph = PropertyGraph()
        roots = [graph.create_node(["Root"], {"name": f"r{i}"}) for i in range(2)]
        for i, root in enumerate(roots):
            child = graph.create_node(["N"], {"name": f"c{i}"})
            graph.create_relationship("R", root.id, child.id)
        result = execute(
            graph, "MATCH (r:Root)-[:R*]->(c) RETURN r.name AS root, c.name AS name"
        )
        assert [(row["root"], row["name"]) for row in result] == [("r0", "c0"), ("r1", "c1")]

    def test_other_rel_types_are_not_walked(self):
        graph, root = tree_graph(depth=2)
        other = graph.create_node(["Other"], {"name": "other"})
        graph.create_relationship("UNRELATED", root.id, other.id)
        walked = names(
            execute(graph, "MATCH (r {name: 'root'})-[:PART_OF*]->(x) RETURN x.name AS name")
        )
        assert "other" not in walked and len(walked) == 6
        either = names(
            execute(
                graph,
                "MATCH (r {name: 'root'})-[:PART_OF|UNRELATED*1..1]->(x) RETURN x.name AS name",
            )
        )
        assert sorted(either) == ["other", "root.0", "root.1"]


# ---------------------------------------------------------------------------
# planner / EXPLAIN integration
# ---------------------------------------------------------------------------


class TestPathPlanning:
    def test_explain_names_varlength_operator(self, chain_graph):
        graph, _ = chain_graph
        description = explain("MATCH (a)-[:KNOWS*1..3]->(b) RETURN b", graph)
        assert "VarLengthExpand(-[:KNOWS*1..3]->(), dfs)" in description

    def test_explain_unbounded_hop_is_a_dfs_walk(self, chain_graph):
        graph, _ = chain_graph
        description = explain("MATCH (a)-[:KNOWS*]->(b) RETURN b", graph)
        assert "VarLengthExpand(-[:KNOWS*1..]->(), dfs)" in description

    def test_explain_undirected_and_incoming_hops_are_dfs_walks(self, chain_graph):
        graph, _ = chain_graph
        undirected = explain("MATCH (a)-[:KNOWS*]-(b) RETURN b", graph)
        assert "VarLengthExpand(-[:KNOWS*1..]-(), dfs)" in undirected
        incoming = explain("MATCH (a)<-[:KNOWS*2..3]-(b) RETURN b", graph)
        assert "VarLengthExpand(<-[:KNOWS*2..3]-(), dfs)" in incoming

    def test_explain_names_shortest_path_operator(self, chain_graph):
        graph, _ = chain_graph
        description = explain("MATCH p = shortestPath((a)-[:KNOWS*..4]->(b)) RETURN p", graph)
        assert "ShortestPath(" in description
        assert "bfs" in description

    def test_variable_length_cardinality_estimate(self, chain_graph):
        from repro.graph.statistics import CardinalityEstimator

        graph, _ = chain_graph
        estimator = CardinalityEstimator(graph)
        estimate = estimator.variable_length_cardinality(("KNOWS",), 1, 3)
        single = estimator.expansion_factor(("KNOWS",))
        assert estimate == pytest.approx(single + single**2 + single**3)
