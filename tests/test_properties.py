"""Property-based tests (hypothesis) for core invariants.

Covered invariants:

* the property graph store keeps its label index and adjacency consistent
  under arbitrary operation sequences;
* rolling back a transaction restores exactly the pre-transaction state;
* APOC transition metadata and Memgraph predefined variables always agree
  with the delta they are derived from;
* the Cypher lexer/parser and the trigger grammar round-trip generated
  inputs without losing information;
* streaming and fully-materialised (eager) query execution return
  identical rows, statistics and final graph states over randomised
  read/write query mixes.
"""

from __future__ import annotations

import string

from hypothesis import given, settings, strategies as st

from repro.compat import predefined_variables, transition_parameters
from repro.cypher import expression_text, parse_expression
from repro.cypher.executor import QueryExecutor
from repro.graph.model import Node, Relationship
from repro.graph import PropertyGraph, graph_from_dict, graph_to_dict
from repro.triggers import (
    ActionTime,
    EventType,
    Granularity,
    ItemKind,
    TriggerDefinition,
    parse_trigger,
)
from repro.tx import Transaction, TransactionManager

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

labels = st.sampled_from(["Patient", "Hospital", "Mutation", "Sequence", "Alert"])
property_keys = st.sampled_from(["name", "value", "ssn", "icuBeds", "flag"])
scalar_values = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.booleans(),
    st.text(alphabet=string.ascii_letters, min_size=0, max_size=8),
)

#: One graph operation: (kind, payload…) applied by _apply_operation.
operations = st.one_of(
    st.tuples(st.just("create_node"), st.lists(labels, max_size=2), property_keys, scalar_values),
    st.tuples(st.just("create_rel"), st.integers(0, 30), st.integers(0, 30)),
    st.tuples(st.just("set_prop"), st.integers(0, 30), property_keys, scalar_values),
    st.tuples(st.just("remove_prop"), st.integers(0, 30), property_keys),
    st.tuples(st.just("add_label"), st.integers(0, 30), labels),
    st.tuples(st.just("remove_label"), st.integers(0, 30), labels),
    st.tuples(st.just("delete_node"), st.integers(0, 30)),
    st.tuples(st.just("delete_rel"), st.integers(0, 30)),
)

#: Operations inside one transaction, with statement boundaries mixed in so
#: rollback has both a folded transaction journal and an open statement's.
tx_operations = st.one_of(operations, st.just(("end_statement",)))


def _apply_operation(target, operation) -> None:
    """Apply one random operation through a Transaction-like writer."""
    kind = operation[0]
    graph = target.graph
    node_ids = [n.id for n in graph.nodes()]
    rel_ids = [r.id for r in graph.relationships()]
    if kind == "create_node":
        _, node_labels, key, value = operation
        target.create_node(node_labels, {key: value})
    elif kind == "create_rel" and len(node_ids) >= 2:
        _, a, b = operation
        target.create_relationship("Links", node_ids[a % len(node_ids)], node_ids[b % len(node_ids)])
    elif kind == "set_prop" and node_ids:
        _, index, key, value = operation
        target.set_node_property(node_ids[index % len(node_ids)], key, value)
    elif kind == "remove_prop" and node_ids:
        _, index, key = operation
        target.remove_node_property(node_ids[index % len(node_ids)], key)
    elif kind == "add_label" and node_ids:
        _, index, label = operation
        target.add_label(node_ids[index % len(node_ids)], label)
    elif kind == "remove_label" and node_ids:
        _, index, label = operation
        target.remove_label(node_ids[index % len(node_ids)], label)
    elif kind == "delete_node" and node_ids:
        _, index = operation
        target.delete_node(node_ids[index % len(node_ids)], detach=True)
    elif kind == "delete_rel" and rel_ids:
        _, index = operation
        target.delete_relationship(rel_ids[index % len(rel_ids)])
    elif kind == "end_statement":
        target.end_statement()


def _graph_snapshot(graph: PropertyGraph):
    return (
        sorted((n.id, tuple(sorted(n.labels)), tuple(sorted(n.properties.items(), key=str)))
               for n in graph.nodes()),
        sorted((r.id, r.type, r.start, r.end, tuple(sorted(r.properties.items(), key=str)))
               for r in graph.relationships()),
    )


# ---------------------------------------------------------------------------
# store invariants
# ---------------------------------------------------------------------------


class TestStoreInvariants:
    @given(st.lists(operations, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_label_index_and_adjacency_consistent(self, ops):
        graph = PropertyGraph()
        tx = Transaction(graph)
        for operation in ops:
            _apply_operation(tx, operation)
        # label index agrees with a full scan
        for label in set(graph.node_labels()):
            indexed = {n.id for n in graph.nodes_with_label(label)}
            scanned = {n.id for n in graph.nodes() if label in n.labels}
            assert indexed == scanned
        # every relationship endpoint exists and degrees add up
        for rel in graph.relationships():
            assert graph.has_node(rel.start) and graph.has_node(rel.end)
        # each non-loop contributes one to the degree of both endpoints; a
        # self-loop contributes one (the store deduplicates its incidence)
        total_degree = sum(graph.degree(n.id) for n in graph.nodes())
        expected = sum(2 if r.start != r.end else 1 for r in graph.relationships())
        assert total_degree == expected

    @given(st.lists(operations, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_serialization_round_trip(self, ops):
        graph = PropertyGraph()
        tx = Transaction(graph)
        for operation in ops:
            _apply_operation(tx, operation)
        restored = graph_from_dict(graph_to_dict(graph))
        assert _graph_snapshot(restored) == _graph_snapshot(graph)


class TestTransactionInvariants:
    @given(st.lists(operations, max_size=25), st.lists(tx_operations, max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_rollback_restores_exact_state(self, setup_ops, tx_ops):
        graph = PropertyGraph()
        manager = TransactionManager(graph)
        with manager.transaction() as setup:
            for operation in setup_ops:
                _apply_operation(setup, operation)
        before = _graph_snapshot(graph)
        tx = manager.begin()
        for operation in tx_ops:
            _apply_operation(tx, operation)
        manager.rollback(tx)
        assert _graph_snapshot(graph) == before

    @given(st.lists(operations, max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_transition_metadata_consistent_with_delta(self, ops):
        graph = PropertyGraph()
        tx = Transaction(graph)
        for operation in ops:
            _apply_operation(tx, operation)
        delta = tx.statement_delta
        apoc = transition_parameters(delta)
        memgraph = predefined_variables(delta)
        assert len(apoc["createdNodes"]) == len(delta.created_nodes)
        assert len(memgraph["createdVertices"]) == len(delta.created_nodes)
        assert len(apoc["deletedRelationships"]) == len(delta.deleted_relationships)
        assert len(memgraph["deletedEdges"]) == len(delta.deleted_relationships)
        assert sum(len(v) for v in apoc["assignedNodeProperties"].values()) == len(
            delta.node_property_assignments()
        )
        assert len(memgraph["setVertexProperties"]) == len(delta.node_property_assignments())
        assert len(memgraph["updatedObjects"]) == (
            len(delta.assigned_labels)
            + len(delta.removed_labels)
            + len(delta.assigned_properties)
            + len(delta.removed_properties)
        )


# ---------------------------------------------------------------------------
# language round trips
# ---------------------------------------------------------------------------

identifier = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)


@st.composite
def simple_expressions(draw) -> str:
    """Generate small well-formed expressions as text."""
    depth = draw(st.integers(0, 2))

    def atom() -> str:
        choice = draw(st.integers(0, 3))
        if choice == 0:
            return str(draw(st.integers(-100, 100)))
        if choice == 1:
            return f"'{draw(st.text(alphabet=string.ascii_letters, max_size=6))}'"
        if choice == 2:
            return draw(identifier)
        return f"{draw(identifier)}.{draw(identifier)}"

    def build(level: int) -> str:
        if level <= 0:
            return atom()
        op = draw(st.sampled_from(["+", "-", "*", "=", "<>", "<", "AND", "OR"]))
        return f"({build(level - 1)} {op} {build(level - 1)})"

    return build(depth)


class TestLanguageRoundTrips:
    @given(simple_expressions())
    @settings(max_examples=80, deadline=None)
    def test_expression_parse_render_parse_fixpoint(self, text):
        first = parse_expression(text)
        rendered = expression_text(first)
        second = parse_expression(rendered)
        assert expression_text(second) == rendered

    @given(
        # a "trg_" prefix keeps generated names from colliding (case
        # insensitively) with openCypher keywords such as NULL or MATCH
        name=st.text(alphabet=string.ascii_letters, min_size=1, max_size=10).map(
            lambda s: f"trg_{s}"
        ),
        time=st.sampled_from(list(ActionTime)),
        event=st.sampled_from(list(EventType)),
        label=labels,
        prop=st.one_of(st.none(), property_keys),
        granularity=st.sampled_from(list(Granularity)),
        item=st.sampled_from(list(ItemKind)),
    )
    @settings(max_examples=100, deadline=None)
    def test_trigger_grammar_round_trip(self, name, time, event, label, prop, granularity, item):
        if event in (EventType.CREATE, EventType.DELETE):
            prop = None
        definition = TriggerDefinition(
            name=name,
            time=time,
            event=event,
            label=label,
            property=prop,
            granularity=granularity,
            item=item,
            condition="NEW.value > 0" if event not in (EventType.DELETE, EventType.REMOVE) else None,
            statement="CREATE (:Alert {source: 'generated'})",
        )
        reparsed = parse_trigger(definition.to_pg_trigger())
        assert reparsed.name == name
        assert reparsed.time == time
        assert reparsed.event == event
        assert reparsed.label == label
        assert reparsed.property == prop
        assert reparsed.granularity == granularity
        assert reparsed.item == item


# ---------------------------------------------------------------------------
# streaming vs eager execution equivalence
# ---------------------------------------------------------------------------

#: Query templates mixing reads (streamable, incl. LIMIT/DISTINCT) with
#: writes and blocking projections (pipeline breakers).  ``$v`` is bound
#: per generated statement.
_QUERY_TEMPLATES = [
    "CREATE (:Person {value: $v})",
    "CREATE (:Hospital {value: $v, beds: 3})",
    "MERGE (:Person {value: $v})",
    "UNWIND [$v, $v, 7] AS x CREATE (:Tag {value: x})",
    "MATCH (n:Person) RETURN n.value AS value",
    "MATCH (n:Person) WHERE n.value > $v RETURN n.value AS value LIMIT 3",
    "MATCH (n:Person) RETURN DISTINCT n.value AS value",
    "MATCH (n:Person) RETURN n.value AS value ORDER BY value SKIP 1",
    "MATCH (n) RETURN count(n) AS c",
    "MATCH (n:Person) WITH n.value AS v WHERE v >= $v RETURN v LIMIT 2",
    "MATCH (n:Person) SET n.flag = $v",
    "MATCH (n:Person) REMOVE n.flag",
    "MATCH (n:Person {value: $v}) SET n:Marked",
    "MATCH (n:Tag) WHERE n.value = $v DETACH DELETE n",
    "MATCH (a:Person), (h:Hospital) CREATE (a)-[:TreatedAt {w: $v}]->(h)",
    "MATCH (a:Person)-[r:TreatedAt]->(h:Hospital) RETURN a.value AS a, h.value AS h",
    "MATCH (a:Person)-[r:TreatedAt]->(:Hospital) WHERE r.w = $v DELETE r",
    "MATCH (p:Person) RETURN p",
    "MATCH (n:Person) RETURN n.value AS value ORDER BY value DESC LIMIT $v",
    "MATCH (n:Person) RETURN DISTINCT n.value AS value ORDER BY value SKIP 1 LIMIT 2",
    "MATCH (n) RETURN n.value AS v, count(*) AS c ORDER BY c DESC, v LIMIT 1",
    "MATCH (n:Person) WITH n ORDER BY n.value LIMIT 3 WHERE n.value > $v RETURN n.value AS value",
]

query_mixes = st.lists(
    st.tuples(st.sampled_from(_QUERY_TEMPLATES), st.integers(-5, 15)),
    min_size=1,
    max_size=10,
)


def _canonical_value(value):
    if isinstance(value, Node):
        return ("node", value.id, tuple(sorted(value.labels)),
                tuple(sorted(value.properties.items(), key=str)))
    if isinstance(value, Relationship):
        return ("rel", value.id, value.type, value.start, value.end,
                tuple(sorted(value.properties.items(), key=str)))
    if isinstance(value, list):
        return tuple(_canonical_value(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _canonical_value(v)) for k, v in value.items()))
    return value


def _canonical_rows(columns, rows):
    return [
        tuple((column, _canonical_value(row.get(column))) for column in columns)
        for row in rows
    ]


class TestStreamingEquivalence:
    @given(query_mixes)
    @settings(max_examples=60, deadline=None)
    def test_streaming_and_eager_execution_agree(self, mix):
        """Same queries, two engines: identical rows, statistics and state."""
        streaming_graph = PropertyGraph()
        eager_graph = PropertyGraph()
        for template, value in mix:
            parameters = {"v": value}
            streaming = QueryExecutor(streaming_graph, parameters=parameters)
            eager = QueryExecutor(eager_graph, parameters=parameters, eager=True)
            s_columns, s_records = streaming.stream(template)
            s_rows = list(s_records)  # lazy pull, row by row
            e_result = eager.execute(template)  # clause-at-a-time lists
            assert s_columns == e_result.columns, template
            assert _canonical_rows(s_columns, s_rows) == _canonical_rows(
                e_result.columns, e_result.rows
            ), template
            assert streaming.last_statistics.as_dict() == (
                eager.last_statistics.as_dict()
            ), template
        assert _graph_snapshot(streaming_graph) == _graph_snapshot(eager_graph)
