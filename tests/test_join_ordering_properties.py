"""Differential/property tests for cost-based multi-pattern join ordering.

The planner's join order is advisory: the patterns of one MATCH clause
form a commutative conjunction, so *any* execution order must produce the
same row set.  These tests generate randomized graphs and randomized
multi-pattern MATCH queries — including patterns that share variables and
deliberate cartesian products — and assert that the planner-ordered
streaming executor, the naive clause-order executor and the eager
clause-order baseline all return identical (sorted) rows, with and
without property indexes.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.cypher.errors import CypherError
from repro.cypher.executor import QueryExecutor
from repro.cypher.parser import parse_query
from repro.cypher.planner import plan_query
from repro.graph import PropertyGraph
from repro.graph.model import Node, Relationship

# ---------------------------------------------------------------------------
# randomized graphs
# ---------------------------------------------------------------------------

LABELS = ("A", "B", "C")
REL_TYPES = ("R", "S")

node_specs = st.lists(
    st.tuples(st.sampled_from(LABELS), st.integers(min_value=0, max_value=3)),
    min_size=0,
    max_size=10,
)
rel_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=9),
        st.sampled_from(REL_TYPES),
    ),
    min_size=0,
    max_size=14,
)
index_flags = st.booleans()


def build_graph(nodes, rels, indexed: bool) -> PropertyGraph:
    graph = PropertyGraph()
    created = []
    for label, value in nodes:
        created.append(graph.create_node([label], {"v": value}))
    for start, end, rel_type in rels:
        if created:
            a = created[start % len(created)]
            b = created[end % len(created)]
            graph.create_relationship(rel_type, a.id, b.id)
    if indexed:
        for label in LABELS:
            graph.create_property_index(label, "v")
    return graph


# ---------------------------------------------------------------------------
# randomized multi-pattern queries
# ---------------------------------------------------------------------------

#: (pattern text, variables it binds).  The pool deliberately mixes
#: shared-variable joins, anonymous interior nodes and disconnected
#: patterns (cartesian products).
PATTERN_POOL = [
    ("(a:A)", ("a",)),
    ("(b:B)", ("b",)),
    ("(c:C {v: 1})", ("c",)),
    ("(d:A {v: 0})", ("d",)),
    ("(a:A)-[:R]->(b:B)", ("a", "b")),
    ("(b:B)-[:S]->(c:C)", ("b", "c")),
    ("(a:A)-[:R]->(x)", ("a", "x")),
    ("(x)-[:S]->(c:C)", ("x", "c")),
    ("(a:A)-[r:R]->(y:B)", ("a", "r", "y")),
    # cross-pattern property reference: evaluation-order dependent, so
    # the planner must decline reordering and all variants must agree
    # (on rows, or on raising the same error when `a` is never bound)
    ("(e:B {v: a.v})", ("e",)),
]

#: WHERE templates keyed by the variables they need.
WHERE_POOL = [
    (("a",), "a.v > 0"),
    (("a", "b"), "a.v = b.v"),
    (("c",), "c.v = 1"),
    (("a", "c"), "a.v <> c.v"),
]

pattern_choices = st.lists(
    st.integers(min_value=0, max_value=len(PATTERN_POOL) - 1),
    min_size=2,
    max_size=3,
    unique=True,
)
where_choice = st.integers(min_value=-1, max_value=len(WHERE_POOL) - 1)


def build_query(choices, where_index) -> str:
    patterns = [PATTERN_POOL[i] for i in choices]
    bound: list[str] = []
    for _, variables in patterns:
        for name in variables:
            if name not in bound:
                bound.append(name)
    text = "MATCH " + ", ".join(text for text, _ in patterns)
    if where_index >= 0:
        needed, condition = WHERE_POOL[where_index]
        if set(needed) <= set(bound):
            text += f" WHERE {condition}"
    returns = ", ".join(f"{name} AS {name}" for name in bound)
    return f"{text} RETURN {returns}"


# ---------------------------------------------------------------------------
# canonical row comparison
# ---------------------------------------------------------------------------


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


def sorted_rows(executor: QueryExecutor, query: str, parameters=None):
    result = executor.execute(query, parameters)
    return sorted(
        (tuple(sorted((k, canonical(v)) for k, v in row.items())) for row in result.rows),
        key=repr,
    )


def outcome(executor: QueryExecutor, query: str, parameters=None):
    """Sorted rows, or the error type — errors must also be order-independent."""
    try:
        return sorted_rows(executor, query, parameters)
    except CypherError as exc:
        return ("error", type(exc).__name__)


#: Seeks on a value bound before the clause: inline, through a property
#: access chain, and as a WHERE equality.
BOUND_VALUE_TEMPLATES = [
    "UNWIND $vals AS v MATCH (n:A {v: v}) RETURN n",
    "UNWIND $vals AS v MATCH (n:B {v: v.k}) RETURN n",
    "UNWIND $vals AS v MATCH (n:C) WHERE n.v = v.k RETURN n",
    "UNWIND $vals AS v MATCH (n:A {v: v.k})-[:R]->(m:B) RETURN n, m",
    "UNWIND $vals AS v MATCH (m:B), (n:A) WHERE n.v = v AND m.v = n.v RETURN n, m",
    # A seek on `v` must not skip the candidates the scan raises on.
    "UNWIND $vals AS v MATCH (n:A {z: 1/0, v: v}) RETURN n",
    "UNWIND $vals AS v MATCH (n:A {v: v, z: 1/0}) RETURN n",
    "UNWIND $vals AS v MATCH (n:A {z: 1/0}) WHERE n.v = v RETURN n",
]

#: The seeked pattern joined second: its hash-join build side is filled by
#: a seek on the row's value, so no row may reuse another row's build.
BUILD_SIDE_SEEK_TEMPLATES = [
    "UNWIND $vals AS v MATCH (m:B {v: 0}), (n:A) WHERE n.v = v RETURN n, m",
    "UNWIND $vals AS v MATCH (m:B {v: 0}), (n:A) WHERE n.v = v.k RETURN n, m",
]

small_ints = st.integers(min_value=0, max_value=3)
bound_values = st.one_of(
    small_ints,
    st.none(),
    st.fixed_dictionaries({}, optional={"k": st.one_of(small_ints, st.none())}),
    st.lists(small_ints, max_size=2),
)


# ---------------------------------------------------------------------------
# the differential property
# ---------------------------------------------------------------------------


class TestJoinOrderingDifferential:
    @given(nodes=node_specs, rels=rel_specs, choices=pattern_choices,
           where_index=where_choice, indexed=index_flags)
    @settings(max_examples=120, deadline=None)
    def test_planner_order_naive_order_and_eager_agree(
        self, nodes, rels, choices, where_index, indexed
    ):
        graph = build_graph(nodes, rels, indexed)
        query = build_query(choices, where_index)
        ordered = outcome(QueryExecutor(graph), query)
        naive = outcome(QueryExecutor(graph, join_ordering=False), query)
        eager = outcome(QueryExecutor(graph, eager=True, join_ordering=False), query)
        assert ordered == naive == eager

    @given(nodes=node_specs, rels=rel_specs, choices=pattern_choices,
           where_index=where_choice)
    @settings(max_examples=60, deadline=None)
    def test_indexes_do_not_change_ordered_results(self, nodes, rels, choices, where_index):
        query = build_query(choices, where_index)
        plain = outcome(QueryExecutor(build_graph(nodes, rels, False)), query)
        indexed = outcome(QueryExecutor(build_graph(nodes, rels, True)), query)
        assert plain == indexed

    @given(nodes=node_specs, rels=rel_specs, template=st.sampled_from(BOUND_VALUE_TEMPLATES),
           values=st.lists(bound_values, min_size=1, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_indexes_do_not_change_bound_value_seeks(self, nodes, rels, template, values):
        # A value an earlier clause bound drives an index seek; whatever it
        # holds (int, map, null, list), the seek falls back to the scan
        # wherever it cannot answer exactly as the scan would.
        plain = outcome(QueryExecutor(build_graph(nodes, rels, False)), template, {"vals": values})
        indexed = outcome(QueryExecutor(build_graph(nodes, rels, True)), template, {"vals": values})
        assert plain == indexed, template

    @given(nodes=node_specs, template=st.sampled_from(BUILD_SIDE_SEEK_TEMPLATES),
           values=st.lists(st.one_of(small_ints, st.fixed_dictionaries({"k": small_ints})),
                           min_size=2, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_indexes_do_not_change_row_dependent_build_sides(self, nodes, template, values):
        nodes = [("B", 0)] + nodes  # `m` always matches: every row reaches the build
        plain = outcome(QueryExecutor(build_graph(nodes, [], False)), template, {"vals": values})
        indexed = outcome(QueryExecutor(build_graph(nodes, [], True)), template, {"vals": values})
        assert plain == indexed, template

    @given(nodes=node_specs, rels=rel_specs, choices=pattern_choices)
    @settings(max_examples=60, deadline=None)
    def test_join_order_is_a_permutation_with_estimates(self, nodes, rels, choices):
        graph = build_graph(nodes, rels, False)
        query = parse_query(build_query(choices, -1))
        plan = plan_query(query, graph)
        description = plan.plan_description()
        assert description.count("est~") >= len(choices)
        join_orders = plan.join_orders()
        if not join_orders:
            # the clause was declined: it must contain the evaluation-order
            # dependent cross-pattern property reference
            assert any(PATTERN_POOL[i][0] == "(e:B {v: a.v})" for i in choices)
            return
        [join_order] = join_orders
        assert sorted(join_order.order) == list(range(len(choices)))
        assert len(join_order.estimated_rows) == len(choices)
        assert all(estimate >= 0.0 for estimate in join_order.estimated_rows)
        assert "JoinOrder(" in description


# ---------------------------------------------------------------------------
# patterns whose end variable an earlier clause already bound
# ---------------------------------------------------------------------------

#: Earlier clauses binding the *end* variable of some pool patterns (``b``,
#: ``c``, ``x``), so the planner may start those patterns from their bound
#: end — or, for a name not certain to hold a node, must not.
BOUND_PREFIX_POOL = [
    "MATCH (b:B) ",
    "MATCH (c:C) WITH c ",
    "MATCH (x) WHERE x.v < 2 ",
    "OPTIONAL MATCH (c:C {v: 3}) ",
    "MATCH (b:B)-[:S]->(c:C) WITH b, c ",
    "UNWIND [1, 2] AS x ",
]

#: Connected patterns ending at a variable a prefix can bind.
END_BOUND_POOL = [
    ("(a:A)-[:R]->(b:B)", ("a", "b")),
    ("(b:B)-[:S]->(c:C)", ("b", "c")),
    ("(a:A)-[:R]->(x)", ("a", "x")),
    ("(y)-[:S]->(c:C)", ("y", "c")),
    ("(a:A)-[:R]->(m)-[:S]->(c:C)", ("a", "m", "c")),
]

end_bound_choices = st.lists(
    st.integers(min_value=0, max_value=len(END_BOUND_POOL) - 1),
    min_size=1,
    max_size=2,
    unique=True,
)


def unanchored_outcome(graph, prefix: str, match: str):
    """The prefix's rows fed to ``match`` through UNWIND and a renaming
    WITH, which bind the same values but anchor nothing: the reference run
    without bound-end starts.  (Initial bindings would anchor: the planner
    sees what the initial rows bind.)  Pass an index-free ``graph``: the
    renamed names are bound before ``match``, so with indexes a value read
    from them could drive a seek, and the reference must stay scans-only."""
    try:
        rows = QueryExecutor(graph).execute(prefix + "RETURN *").rows
        names = sorted({name for row in rows for name in row})
        feed = "UNWIND $rows AS prefix_row "
        if names:
            feed += "WITH " + ", ".join(f"prefix_row.{name} AS {name}" for name in names) + " "
        records = QueryExecutor(graph).execute(feed + match, {"rows": rows}).rows
        return sorted(
            (tuple(sorted((k, canonical(v)) for k, v in row.items())) for row in records),
            key=repr,
        )
    except CypherError as exc:
        return ("error", type(exc).__name__)


class TestBoundEndDifferential:
    @given(nodes=node_specs, rels=rel_specs, prefix=st.sampled_from(BOUND_PREFIX_POOL),
           choices=end_bound_choices, indexed=index_flags)
    @settings(max_examples=120, deadline=None)
    def test_bound_end_start_agrees_with_clause_order_and_unanchored_run(
        self, nodes, rels, prefix, choices, indexed
    ):
        graph = build_graph(nodes, rels, indexed)
        patterns = [END_BOUND_POOL[i] for i in choices]
        names = sorted({name for _, variables in patterns for name in variables})
        match = (
            "MATCH "
            + ", ".join(text for text, _ in patterns)
            + " RETURN "
            + ", ".join(f"{name} AS {name}" for name in names)
        )
        ordered = outcome(QueryExecutor(graph), prefix + match)
        naive = outcome(QueryExecutor(graph, join_ordering=False), prefix + match)
        reference = unanchored_outcome(build_graph(nodes, rels, False), prefix, match)
        assert ordered == naive == reference


# ---------------------------------------------------------------------------
# randomized ORDER BY / SKIP / LIMIT / range-predicate queries
# ---------------------------------------------------------------------------

#: WHERE templates exercising the physical layer's sargable shapes: range
#: conjuncts (IndexRangeSeek when a range index exists), IN lists, and the
#: cross-pattern equality that turns a disconnected pair into a HashJoin.
PHYSICAL_WHERE_POOL = [
    None,
    (("a",), "a.v > 0"),
    (("a",), "a.v >= 1 AND a.v < 3"),
    (("b",), "b.v <= 2"),
    (("c",), "c.v IN [0, 2, 7]"),
    (("a", "b"), "a.v = b.v"),
    (("a", "c"), "a.v > 0 AND a.v = c.v"),
]

physical_where_choice = st.integers(0, len(PHYSICAL_WHERE_POOL) - 1)
order_direction = st.sampled_from(["", " DESC"])
skip_choice = st.integers(min_value=-1, max_value=4)     # -1 = no SKIP
limit_choice = st.integers(min_value=-1, max_value=5)    # -1 = no LIMIT


def build_physical_query(choices, where_index, direction, skip, limit) -> str:
    patterns = [PATTERN_POOL[i] for i in choices if PATTERN_POOL[i][0] != "(e:B {v: a.v})"]
    if len(patterns) < 2:
        patterns = [PATTERN_POOL[0], PATTERN_POOL[1]]
    bound: list[str] = []
    for _, variables in patterns:
        for name in variables:
            if name not in bound:
                bound.append(name)
    text = "MATCH " + ", ".join(text for text, _ in patterns)
    where = PHYSICAL_WHERE_POOL[where_index]
    if where is not None:
        needed, condition = where
        if set(needed) <= set(bound):
            text += f" WHERE {condition}"
    returns = ", ".join(f"{name}.v AS {name}_v" for name in bound if name not in ("r",))
    text += f" RETURN {returns} ORDER BY {bound[0]}.v{direction}"
    if skip >= 0:
        text += f" SKIP {skip}"
    if limit >= 0:
        text += f" LIMIT {limit}"
    return text


def build_range_indexed_graph(nodes, rels) -> PropertyGraph:
    graph = build_graph(nodes, rels, indexed=False)
    for label in LABELS:
        graph.create_range_index(label, "v")
    return graph


class TestPhysicalOperatorDifferential:
    """Physical plans == naive order == eager baseline, under ORDER BY /
    SKIP / LIMIT / range predicates, with and without ordered indexes.

    ORDER BY ties are broken by *input order*, which legitimately differs
    between join orders — so exact row sequences are compared only between
    executors sharing one join order (streaming top-k vs eager full sort),
    while the cross-join-order assertion compares sorted row multisets of
    LIMIT-free queries (where the result set is order-independent).
    """

    @given(nodes=node_specs, rels=rel_specs, choices=pattern_choices,
           where_index=physical_where_choice, direction=order_direction,
           skip=skip_choice, limit=limit_choice)
    @settings(max_examples=120, deadline=None)
    def test_topk_equals_full_sort_per_join_order(
        self, nodes, rels, choices, where_index, direction, skip, limit
    ):
        query = build_physical_query(choices, where_index, direction, skip, limit)
        for graph in (build_graph(nodes, rels, False), build_range_indexed_graph(nodes, rels)):
            for join_ordering in (True, False):
                streaming = exact_outcome(
                    QueryExecutor(graph, join_ordering=join_ordering), query
                )
                eager = exact_outcome(
                    QueryExecutor(graph, eager=True, join_ordering=join_ordering), query
                )
                assert streaming == eager, query

    @given(nodes=node_specs, rels=rel_specs, choices=pattern_choices,
           where_index=physical_where_choice, direction=order_direction)
    @settings(max_examples=80, deadline=None)
    def test_row_sets_agree_across_plans_without_limit(
        self, nodes, rels, choices, where_index, direction
    ):
        query = build_physical_query(choices, where_index, direction, -1, -1)
        plain = outcome(QueryExecutor(build_graph(nodes, rels, False)), query)
        plain_exact = outcome(
            QueryExecutor(build_graph(nodes, rels, True)), query
        )
        indexed_graph = build_range_indexed_graph(nodes, rels)
        ranged = outcome(QueryExecutor(indexed_graph), query)
        naive = outcome(QueryExecutor(indexed_graph, join_ordering=False), query)
        eager = outcome(
            QueryExecutor(indexed_graph, eager=True, join_ordering=False), query
        )
        assert plain == plain_exact == ranged == naive == eager, query


def exact_outcome(executor: QueryExecutor, query: str):
    """Row list *in order* (or the error type) — for same-join-order pairs."""
    try:
        result = executor.execute(query)
        return [
            tuple(sorted((k, canonical(v)) for k, v in row.items()))
            for row in result.rows
        ]
    except CypherError as exc:
        return ("error", type(exc).__name__)


class TestDeliberateCartesianProducts:
    def test_cartesian_product_rows_are_complete(self):
        graph = PropertyGraph()
        for value in range(3):
            graph.create_node(["A"], {"v": value})
        for value in range(2):
            graph.create_node(["B"], {"v": value})
        query = "MATCH (a:A), (b:B) RETURN a.v AS av, b.v AS bv"
        ordered = sorted_rows(QueryExecutor(graph), query)
        naive = sorted_rows(QueryExecutor(graph, join_ordering=False), query)
        assert ordered == naive
        assert len(ordered) == 6
        plan = plan_query(parse_query(query), graph)
        [join_order] = plan.join_orders()
        assert join_order.cartesian
        # the smaller side (B) is planned first
        assert join_order.order == (1, 0)

    def test_connected_patterns_preferred_over_cheaper_disconnected(self):
        graph = PropertyGraph()
        hub = graph.create_node(["Small"], {"k": 1})
        for index in range(40):
            n = graph.create_node(["Big"], {"v": index})
            if index < 3:
                graph.create_relationship("R", hub.id, n.id)
        graph.create_node(["Tiny"], {})
        graph.create_node(["Tiny"], {})
        query = "MATCH (t:Tiny), (s:Small)-[:R]->(b:Big), (u:Small) RETURN t, s, b, u"
        plan = plan_query(parse_query(query), graph)
        [join_order] = plan.join_orders()
        # cheapest first (one of the Small-anchored patterns), then its
        # connected partner before the disconnected Tiny pattern
        first = join_order.order[0]
        assert first in (1, 2)
        assert join_order.cartesian
        ordered = sorted_rows(QueryExecutor(graph), query)
        naive = sorted_rows(QueryExecutor(graph, join_ordering=False), query)
        assert ordered == naive
