"""Soundness of the trigger footprint (repro.triggers.footprint).

Both consumers of the footprint claim that something *cannot* happen, so
both are checked against what the engine actually does:

(a) termination — whenever a statement's delta activates a trigger
    selector, some event from ``statement_events`` matches that selector;
(b) independence — a batched session, which trusts batch verdicts when
    the footprint says the action cannot change its condition, fires and
    writes exactly what the per-activation session does.
"""

from __future__ import annotations

import datetime as _dt
import itertools

from hypothesis import example, given, settings, strategies as st

from repro.cypher.executor import QueryExecutor
from repro.cypher.parser import parse_query
from repro.graph import graph_to_dict
from repro.triggers import (
    ActionTime,
    EventType,
    GraphSession,
    ItemKind,
    TriggerDefinition,
    TriggerError,
    compute_activations,
    statement_events,
)
from repro.triggers.footprint import may_change, read_footprint, write_footprint
from repro.tx import TransactionAborted

CLOCK = lambda: _dt.datetime(2021, 3, 14, 12, 0, 0)  # noqa: E731 - deterministic

SEED = (
    "CREATE (a:A {k: 1, m: 2})-[:R {k: 1}]->(b:B {k: 2}), "
    "(c:A:B {m: 3})-[:R {m: 1}]->(a)"
)

#: Write statements over labels A/B/C, keys k/m and relationship type R.
STATEMENTS = [
    "CREATE (:A)",
    "CREATE (:A:B {k: 1})",
    "CREATE ()",
    "CREATE (n) SET n:C",
    "MATCH (a:A) CREATE (a)-[:R]->(:B)",
    "MATCH (n:A) SET n.k = 5",
    "MATCH (n) SET n.k = null",
    "MATCH ()-[r:R]->() SET r.k = null",
    "MATCH (n:B) SET n = {m: 9}",
    "MATCH ()-[r:R]->() SET r = {z: 1}",
    "MATCH (n:A) SET n += {k: 7, z: 1}",
    "MATCH (n:A) REMOVE n.k",
    "MATCH (n:A) REMOVE n:B",
    "MATCH (n:B) SET n:A",
    "MATCH (n:A) SET n:C",
    "MATCH ()-[r:R]->() DELETE r",
    "MATCH (n:B) DETACH DELETE n",
    "MERGE (:A {k: 1})",
    "MERGE (:C {k: 1})",
    "MATCH (a:A), (b:B) MERGE (a)-[:R]->(b)",
    "FOREACH (i IN [1, 2] | CREATE (:B {k: i}))",
    "MATCH (n:A) FOREACH (i IN [1] | SET n.m = i)",
    "CALL db.abort('stop')",
]

#: Every trigger selector over the same vocabulary.
SELECTORS = [
    TriggerDefinition(
        name="Probe", time=ActionTime.AFTER, event=event, label=label,
        property=key, item=item, statement="CREATE (:Probe)",
    )
    for event, item, label, key in itertools.product(
        EventType, ItemKind, ("A", "B", "C", "R"), (None, "k", "m", "z")
    )
    if key is None or event in (EventType.SET, EventType.REMOVE)
]

statements = st.lists(st.sampled_from(STATEMENTS), min_size=1, max_size=2).map(
    lambda parts: " WITH count(*) AS done ".join(parts)
)


def statement_delta(statement):
    """The delta of ``statement`` over the seed graph (None if it aborted)."""
    session = GraphSession(clock=CLOCK)
    session.run(SEED)
    try:
        with session.transaction() as tx:
            executor = QueryExecutor(
                session.graph, transaction=tx, procedures=session.engine.procedures
            )
            executor.execute(statement)
            return tx.end_statement()
    except TransactionAborted:  # db.abort: nothing was written
        return None


class TestEventsCoverActivations:
    @settings(max_examples=40, deadline=None)
    @given(statement=statements)
    @example(statement="MATCH (n) SET n.k = null")
    @example(statement="MATCH (n:B) SET n = {m: 9}")
    def test_every_activation_is_a_potential_event(self, statement):
        delta = statement_delta(statement)
        if delta is None:
            return
        definition = TriggerDefinition(
            name="Source", time=ActionTime.AFTER, event=EventType.CREATE,
            label="Source", statement=statement,
        )
        events = statement_events(definition)
        for selector in SELECTORS:
            if compute_activations(selector, delta):
                assert any(event.matches(selector) for event in events), (
                    statement, selector.event, selector.item, selector.label,
                    selector.property,
                )


# A bare "MATCH (n:C)" would parse as a call of a function named match(),
# so every query condition here carries a WHERE.
CONDITIONS = [
    "MATCH (n:A) WHERE n.k = 1",
    "MATCH (n:A:B) WHERE true",
    "MATCH (n:C) WHERE true",
    "MATCH (n:B) WHERE NOT n:A",
    "MATCH (n) WHERE size(keys(n)) > 2",
    "MATCH ()-[r:R]->() WHERE r.k IS NOT NULL",
    "MATCH (n:A) WHERE n.m > NEW.v",
    "EXISTS { (n:C) }",
    "EXISTS { (:A)-[:R]->(:B {k: 2}) }",
    "MATCH (n:A) WITH n WHERE NOT EXISTS { (m:C) }",
]

#: Actions that read the condition's own ``n`` (a snapshot taken before any
#: firing in the batched tier) and write what they read of it.
ROW_ACTIONS = [
    "SET n += {k: coalesce(n.k, 0) + 1}",
    "SET n.k = coalesce(n.k, 0) + 1",
    "FOREACH (i IN [1] | SET n.k = coalesce(n.k, 0) + 1)",
    "WITH n WHERE NOT n:C SET n:C CREATE (:D)",
]

ACTIONS = [
    statement for statement in STATEMENTS if not statement.startswith("CALL")
] + ROW_ACTIONS


def run_session(batched, condition, action):
    session = GraphSession(
        clock=CLOCK, batched_triggers=batched, incremental_triggers=False
    )
    session.run(SEED)
    session.create_trigger(
        f"CREATE TRIGGER Probe AFTER CREATE ON 'Item' FOR EACH NODE "
        f"WHEN {condition} BEGIN {action} END"
    )
    try:
        session.run("UNWIND range(1, 4) AS i CREATE (:Item {v: i})")
        outcome = None
    except TriggerError as exc:
        outcome = type(exc).__name__
    return session, outcome


class TestIndependenceMatchesSequential:
    @settings(max_examples=25, deadline=None)
    @given(condition=st.sampled_from(CONDITIONS), action=st.sampled_from(ACTIONS))
    # an EXISTS after WITH reads C: the first firing suppresses the rest
    @example(
        condition="MATCH (n:A) WITH n WHERE NOT EXISTS { (m:C) }",
        action="MATCH (n:A) SET n:C",
    )
    @example(condition="MATCH (n:A:B) WHERE true", action=ROW_ACTIONS[0])
    @example(condition="MATCH (n:A:B) WHERE true", action=ROW_ACTIONS[2])
    @example(condition="MATCH (n:A) WITH n AS x WHERE true", action="SET x.k = 1 + x.k")
    @example(condition="MATCH (n:A:B) WHERE true", action=ROW_ACTIONS[3])
    def test_batched_equals_per_activation(self, condition, action):
        reference, reference_outcome = run_session(False, condition, action)
        batched, batched_outcome = run_session(True, condition, action)
        assert reference_outcome == batched_outcome
        assert reference.firing_log() == batched.firing_log()
        assert graph_to_dict(reference.graph) == graph_to_dict(batched.graph)


class TestMayChange:
    def condition(self, text):
        return read_footprint(parse_query(f"MATCH {text} RETURN *"), {"OLD", "NEW"})

    def test_unlabelled_creation_reaches_only_unlabelled_reads(self):
        write = write_footprint("CREATE (n)")
        assert may_change(write, self.condition("(n)"))
        assert not may_change(write, self.condition("(n:A)"))

    def test_foreach_and_merge_creations_are_analysed(self):
        read = self.condition("(n:A)")
        assert may_change(write_footprint("FOREACH (i IN [1] | CREATE (:A))"), read)
        assert not may_change(write_footprint("MERGE (:B)"), read)

    def test_map_style_set_reaches_any_key_read(self):
        write = write_footprint("MATCH (n:B) SET n += {z: 1}")
        assert may_change(write, self.condition("(n:A) WHERE n.k > 0"))
        assert not may_change(write, self.condition("(n:A)"))

    def test_action_reading_a_condition_row_reads_its_own_writes(self):
        read = self.condition("(n:A)")
        assert may_change(write_footprint("SET n += {k: coalesce(n.k, 0) + 1}"), read)
        assert may_change(write_footprint("SET n:C CREATE (:D {c: n:C})"), read)
        # reading n without writing anything it could hold stays independent
        assert not may_change(write_footprint("CREATE (:B {k: n.k})"), read)
        # the condition binds no row variable named m
        assert not may_change(write_footprint("SET m.k = m.k + 1"), read)

    def test_abort_is_inert_other_calls_are_unknown(self):
        read = self.condition("(n:A)")
        assert not may_change(write_footprint("CALL db.abort('x')"), read)
        assert may_change(write_footprint("CALL apoc.create.node(['A'], {})"), read)
        assert may_change(write_footprint("NOT CYPHER (("), read)
