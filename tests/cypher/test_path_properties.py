"""Property-based differential tests for the path-query subsystem.

The naive recursive enumerator (``naive_paths=True``) is the executable
specification.  These tests generate random directed multigraphs — with
cycles, self-loops and parallel edges — and assert that every execution
route returns *identical rows in identical order*:

* naive recursion  ==  iterative DFS (the default ``VarLengthExpand``), on
  random multigraphs and on forests, whose deep chains and bound targets
  the multigraphs rarely draw;
* naive shortestPath  ==  bidirectional-BFS shortestPath;
* mutating the graph after a query (whose plan is then cached) never
  changes results.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.cypher import QueryExecutor
from repro.graph import PropertyGraph

MAX_NODES = 7


@st.composite
def random_graphs(draw):
    """A small directed multigraph with one relationship type ``R``.

    Edges are drawn with replacement, so self-loops, cycles and parallel
    edges all occur — exactly the shapes that stress relationship
    uniqueness.
    """
    node_count = draw(st.integers(min_value=2, max_value=MAX_NODES))
    edge_count = draw(st.integers(min_value=0, max_value=node_count * 2))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=node_count - 1),
                st.integers(min_value=0, max_value=node_count - 1),
            ),
            min_size=edge_count,
            max_size=edge_count,
        )
    )
    graph = PropertyGraph()
    nodes = [graph.create_node(["N"], {"i": i}) for i in range(node_count)]
    for src, dst in edges:
        graph.create_relationship("R", nodes[src].id, nodes[dst].id)
    return graph


@st.composite
def forest_graphs(draw):
    """A forest (each node has at most one parent), up to ``MAX_NODES`` deep."""
    node_count = draw(st.integers(min_value=2, max_value=MAX_NODES))
    # parent[i] < i guarantees acyclicity; None makes node i a root
    parents = [
        draw(st.one_of(st.none(), st.integers(min_value=0, max_value=i - 1)))
        for i in range(1, node_count)
    ]
    graph = PropertyGraph()
    nodes = [graph.create_node(["N"], {"i": i}) for i in range(node_count)]
    for child_index, parent_index in enumerate(parents, start=1):
        if parent_index is not None:
            graph.create_relationship("R", nodes[parent_index].id, nodes[child_index].id)
    return graph


#: Every query caps its hop window: on random multigraphs an unbounded
#: ``*`` enumerates every relationship-unique trail (up to 14! of them when
#: the drawn edges are all self-loops on node 0), on both routes.
VARLEN_QUERIES = [
    "MATCH (a {i: 0})-[:R*..4]->(b) RETURN b.i AS i",
    "MATCH (a {i: 0})-[:R*0..3]->(b) RETURN b.i AS i",
    "MATCH (a {i: 0})-[:R*2..4]->(b) RETURN b.i AS i",
    "MATCH (a {i: 1})<-[:R*1..3]-(b) RETURN b.i AS i",
    "MATCH (a {i: 0})-[:R*1..3]-(b) RETURN b.i AS i",
    "MATCH p = (a {i: 0})-[:R*1..3]->(b) RETURN [n IN nodes(p) | n.i] AS walk, "
    "[r IN relationships(p) | id(r)] AS ids",
]

#: Forests (plus at most three extra edges) keep the unbounded case small.
#: The last two bind the target before the hop: by an inline map, and by
#: an earlier MATCH.
FOREST_QUERIES = VARLEN_QUERIES + [
    "MATCH (a {i: 0})-[:R*]->(b) RETURN b.i AS i",
    "MATCH (a {i: 0})-[:R*]->(b {i: 3}) RETURN b.i AS i",
    "MATCH (b {i: 3}) MATCH (a)-[:R*]->(b) RETURN a.i AS i",
]

SHORTEST_QUERIES = [
    "MATCH p = shortestPath((a {i: 0})-[:R*..4]->(b {i: 1})) "
    "RETURN length(p) AS len, [r IN relationships(p) | id(r)] AS ids",
    "MATCH p = shortestPath((a {i: 0})-[:R*..4]->(b)) "
    "RETURN b.i AS i, length(p) AS len, [r IN relationships(p) | id(r)] AS ids",
    "MATCH p = shortestPath((a {i: 0})-[:R*..3]-(b {i: 1})) RETURN length(p) AS len",
    "MATCH p = shortestPath((a {i: 0})-[:R*0..3]->(b {i: 0})) RETURN length(p) AS len",
]


def run(graph, query, **kwargs):
    return list(QueryExecutor(graph, **kwargs).execute(query))


@settings(max_examples=60, deadline=None)
@given(graph=random_graphs(), query=st.sampled_from(VARLEN_QUERIES))
def test_iterative_matches_naive(graph, query):
    assert run(graph, query) == run(graph, query, naive_paths=True)


@settings(max_examples=60, deadline=None)
@given(graph=forest_graphs(), query=st.sampled_from(FOREST_QUERIES))
def test_iterative_forest_matches_naive(graph, query):
    assert run(graph, query) == run(graph, query, naive_paths=True)


@settings(max_examples=60, deadline=None)
@given(graph=random_graphs(), query=st.sampled_from(SHORTEST_QUERIES))
def test_shortest_fast_route_matches_naive(graph, query):
    assert run(graph, query) == run(graph, query, naive_paths=True)


@settings(max_examples=40, deadline=None)
@given(
    graph=forest_graphs(),
    query=st.sampled_from(FOREST_QUERIES),
    extra_edges=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=MAX_NODES - 1),
            st.integers(min_value=0, max_value=MAX_NODES - 1),
        ),
        max_size=3,
    ),
)
def test_mutation_after_query_never_changes_results(graph, query, extra_edges):
    """Mutate after a query; rerun must equal a fresh naive run."""
    run(graph, query)  # caches the plan
    node_ids = sorted(node.id for node in graph.nodes())
    for src, dst in extra_edges:
        graph.create_relationship(
            "R", node_ids[src % len(node_ids)], node_ids[dst % len(node_ids)]
        )
    assert run(graph, query) == run(graph, query, naive_paths=True)
