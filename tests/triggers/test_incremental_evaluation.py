"""Incremental vs batched vs sequential trigger evaluation: 3-way differential.

Three :class:`~repro.triggers.session.GraphSession` instances differing
only in their evaluation tiers must be observationally identical: same
firing order, same per-trigger execution counts, same alerts, same final
graph state — on view-eligible condition suites, on demotion paths
(conditions outside the compiled footprint), on mid-stream index DDL
(epoch bumps force view rebuilds), on mid-stream trigger install/drop
(registry-version pruning), and on randomized delta streams over
randomized trigger sets.  The incremental sessions additionally assert
that the incremental tier actually engaged, so the equivalences are not
vacuous.
"""

from __future__ import annotations

import datetime as _dt

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import graph_to_dict
from repro.triggers import GraphSession

CLOCK = lambda: _dt.datetime(2021, 3, 14, 12, 0, 0)  # noqa: E731 - deterministic

#: The three engine configurations under test, in demotion-ladder order.
CONFIGS = (
    {"batched_triggers": False, "incremental_triggers": False},  # sequential
    {"batched_triggers": True, "incremental_triggers": False},  # batched
    {"batched_triggers": True, "incremental_triggers": True},  # incremental
)


def run_triple(triggers, workload, **session_kwargs):
    """Run triggers+workload through all three engines and compare.

    ``workload`` items are either ``(query, parameters)`` pairs or
    callables taking the session — the latter model out-of-band events
    (index DDL, trigger install/drop) at a fixed stream position.
    Returns the three sessions (sequential, batched, incremental).
    """
    sessions = []
    for config in CONFIGS:
        session = GraphSession(clock=CLOCK, **config, **session_kwargs)
        for trigger in triggers:
            session.create_trigger(trigger)
        for step in workload:
            if callable(step):
                step(session)
            else:
                query, parameters = step
                session.run(query, parameters)
        sessions.append(session)
    sequential, batched, incremental = sessions
    assert_equivalent(sequential, batched)
    assert_equivalent(sequential, incremental)
    return sequential, batched, incremental


def assert_equivalent(reference: GraphSession, candidate: GraphSession) -> None:
    assert reference.firing_log() == candidate.firing_log()
    assert reference.engine.execution_counts() == candidate.engine.execution_counts()
    assert reference.alerts() == candidate.alerts()
    assert graph_to_dict(reference.graph) == graph_to_dict(candidate.graph)


# ---------------------------------------------------------------------------
# view-eligible trigger suites
# ---------------------------------------------------------------------------


class TestThreeWayEquivalence:
    def test_correlated_condition_runs_incrementally(self):
        trigger = (
            "CREATE TRIGGER Escalate AFTER CREATE ON 'Reading' FOR EACH NODE "
            "WHEN MATCH (t:Threshold) WHERE NEW.value > t.cutoff "
            "BEGIN CREATE (:Spike {value: NEW.value}) END"
        )
        workload = [
            ("CREATE (:Threshold {cutoff: 3})", None),
            ("UNWIND range(1, 8) AS i CREATE (:Reading {value: i})", None),
        ]
        _, _, incremental = run_triple([trigger], workload)
        assert incremental.graph.count_nodes_with_label("Spike") == 5
        stats = incremental.engine.incremental_stats
        assert stats["incremental_activations"] >= 8

    def test_invariant_condition_reuses_the_cached_product(self):
        trigger = (
            "CREATE TRIGGER Gate AFTER CREATE ON 'Reading' FOR EACH NODE "
            "WHEN MATCH (f:Flag {enabled: true}) WHERE f.level > 1 "
            "BEGIN CREATE (:Passed {value: NEW.value}) END"
        )
        workload = [
            ("CREATE (:Flag {enabled: true, level: 3})", None),
            ("UNWIND range(1, 6) AS i CREATE (:Reading {value: i})", None),
        ]
        _, _, incremental = run_triple([trigger], workload)
        view = incremental.engine.views.view("Gate")
        assert view is not None and view.invariant
        assert view.stats["product_reuses"] > 0

    def test_inline_map_keeps_integers_and_booleans_apart(self):
        trigger = (
            "CREATE TRIGGER Enabled AFTER CREATE ON 'Reading' FOR EACH NODE "
            "WHEN MATCH (c:Config {enabled: 1}) "
            "BEGIN CREATE (:Passed {value: NEW.value}) END"
        )
        workload = [
            ("CREATE (:Config {enabled: true})", None),
            ("UNWIND range(1, 3) AS i CREATE (:Reading {value: i})", None),
            ("CREATE (:Config {enabled: 1.0})", None),
            ("CREATE (:Reading {value: 9})", None),
        ]
        _, _, incremental = run_triple([trigger], workload)
        assert incremental.graph.count_nodes_with_label("Passed") == 1
        assert incremental.engine.incremental_stats["incremental_activations"] >= 4

    def test_multi_clause_join_condition(self):
        trigger = (
            "CREATE TRIGGER Pair AFTER CREATE ON 'Event' FOR EACH NODE "
            "WHEN MATCH (a:Lo) MATCH (b:Hi) WHERE a.v < NEW.value AND NEW.value < b.v "
            "BEGIN CREATE (:InRange {value: NEW.value}) END"
        )
        workload = [
            ("CREATE (:Lo {v: 2}), (:Hi {v: 6})", None),
            ("UNWIND range(1, 8) AS i CREATE (:Event {value: i})", None),
            # growing the alpha memories mid-stream must fold into the view
            ("CREATE (:Lo {v: 0})", None),
            ("UNWIND range(1, 4) AS i CREATE (:Event {value: i})", None),
        ]
        _, _, incremental = run_triple([trigger], workload)
        view = incremental.engine.views.view("Pair")
        assert view is not None
        assert view.stats["deltas_applied"] > 0

    def test_self_interfering_view_sees_its_own_writes(self):
        # The action mutates the very nodes the view filters on; the store
        # listener must fold each firing in before the next activation.
        trigger = (
            "CREATE TRIGGER Drain AFTER CREATE ON 'Item' FOR EACH NODE "
            "WHEN MATCH (g:Gauge) WHERE g.level > 0 "
            "BEGIN MATCH (g:Gauge) SET g.level = g.level - 1 END"
        )
        workload = [
            ("CREATE (:Gauge {level: 2})", None),
            ("UNWIND range(1, 5) AS i CREATE (:Item {value: i})", None),
        ]
        _, _, incremental = run_triple([trigger], workload)
        [gauge] = incremental.graph.nodes_with_label("Gauge")
        assert gauge.properties["level"] == 0

    def test_condition_error_surfaces_at_the_same_activation(self):
        trigger = (
            "CREATE TRIGGER Cmp AFTER CREATE ON 'Reading' FOR EACH NODE "
            "WHEN MATCH (t:Threshold) WHERE NEW.value > t.cutoff "
            "BEGIN CREATE (:Spike {value: NEW.value}) END"
        )
        outcomes = []
        for config in CONFIGS:
            session = GraphSession(clock=CLOCK, **config)
            session.create_trigger(trigger)
            session.run("CREATE (:Threshold {cutoff: 1})")
            with pytest.raises(Exception, match="cannot compare"):
                session.run(
                    "CREATE (:Reading {value: 5}), (:Reading {value: 6}), "
                    "(:Reading {value: 'oops'}), (:Reading {value: 7})"
                )
            outcomes.append((session.firing_log(), graph_to_dict(session.graph)))
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert len(outcomes[0][0]) == 2  # the two pre-error firings stay logged


# ---------------------------------------------------------------------------
# demotion paths: conditions outside the compiled footprint
# ---------------------------------------------------------------------------


class TestDemotionLadder:
    def test_relationship_pattern_demotes_to_batched(self):
        trigger = (
            "CREATE TRIGGER Linked AFTER CREATE ON 'Y' FOR EACH NODE "
            "WHEN MATCH (a:X)-[:L]->(b:Z) WHERE a.v > 0 "
            "BEGIN CREATE (:AlertL) END"
        )
        workload = [
            ("CREATE (:X {v: 1})-[:L]->(:Z)", None),
            ("UNWIND range(1, 4) AS i CREATE (:Y {value: i})", None),
        ]
        _, _, incremental = run_triple([trigger], workload)
        report = incremental.explain_triggers()["Linked"]
        assert "batched" in report["tiers"]
        assert "incremental" not in report["tiers"]
        assert report["ineligible"]
        assert incremental.engine.incremental_stats["incremental_activations"] == 0

    def test_aggregating_condition_demotes_to_batched(self):
        trigger = (
            "CREATE TRIGGER Cap AFTER CREATE ON 'Item' FOR EACH NODE "
            "WHEN MATCH (a:Alarm) WITH count(a) AS c WHERE c < 2 "
            "BEGIN CREATE (:Alarm) END"
        )
        workload = [("UNWIND range(1, 5) AS i CREATE (:Item {v: i})", None)]
        _, _, incremental = run_triple([trigger], workload)
        assert incremental.graph.count_nodes_with_label("Alarm") == 2
        report = incremental.explain_triggers()["Cap"]
        assert "batched" in report["tiers"]
        assert report["demotions"]

    def test_unlabelled_pattern_demotes(self):
        trigger = (
            "CREATE TRIGGER Any AFTER CREATE ON 'Item' FOR EACH NODE "
            "WHEN MATCH (n) WHERE n.special = true "
            "BEGIN CREATE (:Found) END"
        )
        workload = [
            ("CREATE (:Weird {special: true})", None),
            ("UNWIND range(1, 3) AS i CREATE (:Item {v: i})", None),
        ]
        _, _, incremental = run_triple([trigger], workload)
        report = incremental.explain_triggers()["Any"]
        assert "incremental" not in report["tiers"]

    def test_mixed_suite_splits_across_tiers(self):
        triggers = [
            "CREATE TRIGGER V1 AFTER CREATE ON 'Item' FOR EACH NODE "
            "WHEN MATCH (f:Flag) WHERE NEW.v > f.cutoff "
            "BEGIN CREATE (:A1 {v: NEW.v}) END",
            "CREATE TRIGGER B1 AFTER CREATE ON 'Item' FOR EACH NODE "
            "WHEN MATCH (n:Item) WITH count(n) AS c WHERE c > 2 "
            "BEGIN CREATE (:A2) END",
            "CREATE TRIGGER P1 AFTER CREATE ON 'Item' FOR EACH NODE "
            "WHEN NEW.v > 2 BEGIN CREATE (:A3 {v: NEW.v}) END",
        ]
        workload = [
            ("CREATE (:Flag {cutoff: 1})", None),
            ("UNWIND range(1, 5) AS i CREATE (:Item {v: i})", None),
        ]
        _, _, incremental = run_triple(triggers, workload)
        report = incremental.explain_triggers()
        assert "incremental" in report["V1"]["tiers"]
        assert "batched" in report["B1"]["tiers"]
        assert "predicate" in report["P1"]["tiers"]


# ---------------------------------------------------------------------------
# mid-stream DDL and trigger install/drop
# ---------------------------------------------------------------------------


def create_index(label: str, prop: str):
    def apply(session: GraphSession) -> None:
        session.graph.create_property_index(label, prop)

    return apply


def install(trigger: str):
    def apply(session: GraphSession) -> None:
        session.create_trigger(trigger)

    return apply


def drop(name: str):
    def apply(session: GraphSession) -> None:
        session.drop_trigger(name)

    return apply


ESCALATE = (
    "CREATE TRIGGER Escalate AFTER CREATE ON 'Reading' FOR EACH NODE "
    "WHEN MATCH (t:Threshold) WHERE NEW.value > t.cutoff "
    "BEGIN CREATE (:Spike {value: NEW.value}) END"
)


class TestMidStreamChanges:
    def test_index_ddl_mid_stream_rebuilds_the_view(self):
        workload = [
            ("CREATE (:Threshold {cutoff: 2})", None),
            ("UNWIND range(1, 4) AS i CREATE (:Reading {value: i})", None),
            create_index("Threshold", "cutoff"),
            ("UNWIND range(1, 4) AS i CREATE (:Reading {value: i})", None),
        ]
        _, _, incremental = run_triple([ESCALATE], workload)
        view = incremental.engine.views.view("Escalate")
        assert view is not None
        # one initial build plus one epoch-forced rebuild after the DDL
        assert view.stats["rebuilds"] >= 2
        assert incremental.graph.count_nodes_with_label("Spike") == 4

    def test_trigger_installed_mid_stream(self):
        second = (
            "CREATE TRIGGER Tally AFTER CREATE ON 'Reading' FOR EACH NODE "
            "WHEN MATCH (t:Threshold) WHERE NEW.value = t.cutoff "
            "BEGIN CREATE (:Exact {value: NEW.value}) END"
        )
        workload = [
            ("CREATE (:Threshold {cutoff: 2})", None),
            ("UNWIND range(1, 3) AS i CREATE (:Reading {value: i})", None),
            install(second),
            ("UNWIND range(1, 3) AS i CREATE (:Reading {value: i})", None),
        ]
        _, _, incremental = run_triple([ESCALATE], workload)
        assert incremental.graph.count_nodes_with_label("Exact") == 1
        assert incremental.engine.views.view("Tally") is not None

    def test_trigger_dropped_mid_stream_prunes_its_view(self):
        workload = [
            ("CREATE (:Threshold {cutoff: 0})", None),
            ("UNWIND range(1, 3) AS i CREATE (:Reading {value: i})", None),
            drop("Escalate"),
            ("UNWIND range(1, 3) AS i CREATE (:Reading {value: i})", None),
        ]
        _, _, incremental = run_triple([ESCALATE], workload)
        assert incremental.engine.views.view("Escalate") is None
        assert incremental.graph.count_nodes_with_label("Spike") == 3

    def test_reinstalled_trigger_gets_a_fresh_view(self):
        flipped = (
            "CREATE TRIGGER Escalate AFTER CREATE ON 'Reading' FOR EACH NODE "
            "WHEN MATCH (t:Threshold) WHERE NEW.value < t.cutoff "
            "BEGIN CREATE (:Dip {value: NEW.value}) END"
        )
        workload = [
            ("CREATE (:Threshold {cutoff: 2})", None),
            ("UNWIND range(1, 3) AS i CREATE (:Reading {value: i})", None),
            drop("Escalate"),
            install(flipped),
            ("UNWIND range(1, 3) AS i CREATE (:Reading {value: i})", None),
        ]
        _, _, incremental = run_triple([ESCALATE], workload)
        assert incremental.graph.count_nodes_with_label("Spike") == 1
        assert incremental.graph.count_nodes_with_label("Dip") == 1
        view = incremental.engine.views.view("Escalate")
        assert view is not None  # the *new* definition's view


# ---------------------------------------------------------------------------
# observability
# ---------------------------------------------------------------------------


class TestObservability:
    def test_summary_carries_the_evaluation_report(self):
        session = GraphSession(clock=CLOCK)
        session.create_trigger(ESCALATE)
        session.run("CREATE (:Threshold {cutoff: 1})")
        summary = session.run(
            "UNWIND range(1, 4) AS i CREATE (:Reading {value: i})"
        ).consume()
        report = summary.trigger_evaluation
        assert report is not None
        assert report["Escalate"]["tiers"].get("incremental", 0) >= 1
        assert report["Escalate"]["view"]["evaluations"] >= 4
        assert summary.as_dict()["trigger_evaluation"] == report
        assert session.explain_triggers() == report

    def test_demotion_reasons_are_reported(self):
        trigger = (
            "CREATE TRIGGER Rel AFTER CREATE ON 'Y' FOR EACH NODE "
            "WHEN MATCH (a:X)-[:L]->(b:Z) BEGIN CREATE (:AlertL) END"
        )
        session = GraphSession(clock=CLOCK)
        session.create_trigger(trigger)
        session.run("UNWIND range(1, 3) AS i CREATE (:Y {v: i})")
        report = session.explain_triggers()["Rel"]
        assert report["ineligible"]
        assert sum(report["demotions"].values()) >= 1

    def test_disabled_tier_reports_no_views(self):
        session = GraphSession(clock=CLOCK, incremental_triggers=False)
        session.create_trigger(ESCALATE)
        session.run("CREATE (:Threshold {cutoff: 1})")
        session.run("UNWIND range(1, 3) AS i CREATE (:Reading {value: i})")
        assert session.engine.views is None
        report = session.explain_triggers()["Escalate"]
        assert "incremental" not in report["tiers"]


# ---------------------------------------------------------------------------
# randomized trigger sets over randomized delta streams
# ---------------------------------------------------------------------------

#: Templates biased toward the incremental tier's footprint (single-node
#: labelled patterns, literal inline props, transition-correlated WHEREs)
#: but covering every demotion path too: aggregates, relationships,
#: unlabelled patterns, EXISTS predicates, self-interference, FOR ALL.
TRIGGER_TEMPLATES = [
    "CREATE TRIGGER TCorr AFTER CREATE ON 'X' FOR EACH NODE "
    "WHEN MATCH (f:Flag) WHERE NEW.value > f.cutoff "
    "BEGIN CREATE (:AlertC {value: NEW.value}) END",
    "CREATE TRIGGER TInv AFTER CREATE ON 'X' FOR EACH NODE "
    "WHEN MATCH (f:Flag {enabled: true}) BEGIN CREATE (:AlertI) END",
    "CREATE TRIGGER TJoin AFTER CREATE ON 'X' FOR EACH NODE "
    "WHEN MATCH (a:Flag) MATCH (c:Counter) WHERE a.cutoff < c.count "
    "BEGIN CREATE (:AlertJ) END",
    "CREATE TRIGGER TSelf AFTER CREATE ON 'X' FOR EACH NODE "
    "WHEN MATCH (c:Counter) WHERE c.count < 3 "
    "BEGIN MATCH (c:Counter) SET c.count = c.count + 1 END",
    "CREATE TRIGGER TAgg AFTER CREATE ON 'X' FOR EACH NODE "
    "WHEN MATCH (n:X) WITH count(n) AS c WHERE c > 3 "
    "BEGIN CREATE (:AlertA) END",
    "CREATE TRIGGER TRel AFTER CREATE ON 'Y' FOR EACH NODE "
    "WHEN MATCH (y:Y)-[:L]->(x:X) WHERE x.value > 1 "
    "BEGIN CREATE (:AlertR) END",
    "CREATE TRIGGER TExists AFTER CREATE ON 'Y' FOR EACH NODE "
    "WHEN EXISTS (NEW)-[:L]-(:X) BEGIN CREATE (:AlertE) END",
    "CREATE TRIGGER TPred AFTER CREATE ON 'X' FOR EACH NODE "
    "WHEN NEW.value > 2 BEGIN CREATE (:AlertP {value: NEW.value}) END",
    "CREATE TRIGGER TDel AFTER DELETE ON 'X' FOR EACH NODE "
    "WHEN MATCH (f:Flag) WHERE OLD.value = f.cutoff "
    "BEGIN CREATE (:AlertD {value: OLD.value}) END",
    "CREATE TRIGGER TAll AFTER CREATE ON 'X' FOR ALL NODES "
    "WHEN MATCH (pn:NEWNODES) WHERE pn.value > 1 "
    "BEGIN CREATE (:AlertS) END",
]

#: Workload steps, parameterized by one small integer.  The last two are
#: out-of-band events: index DDL and dropping/reinstalling a trigger.
STATEMENT_TEMPLATES = [
    lambda v: (f"UNWIND range(1, {v % 6 + 1}) AS i CREATE (:X {{value: i}})", None),
    lambda v: ("CREATE (:X {value: $v})", {"v": v}),
    lambda v: ("CREATE (:Flag {enabled: true, cutoff: $c})", {"c": v % 4}),
    lambda v: ("CREATE (:Counter {count: 0})", None),
    lambda v: (
        "MATCH (x:X {value: $v}) CREATE (:Y {value: $v})-[:L]->(x)",
        {"v": v % 4 + 1},
    ),
    lambda v: ("MATCH (x:X) WHERE x.value = $v DETACH DELETE x", {"v": v % 4 + 1}),
    lambda v: ("MATCH (f:Flag) SET f.cutoff = $c", {"c": v % 5}),
    lambda v: ("MATCH (f:Flag) WHERE f.cutoff = $c REMOVE f.enabled", {"c": v % 5}),
]


def _ddl_step(v):
    label, prop = [("X", "value"), ("Flag", "cutoff"), ("Counter", "count")][v % 3]

    def apply(session: GraphSession) -> None:
        if (label, prop) not in session.graph.property_indexes():
            session.graph.create_property_index(label, prop)

    return apply


def _drop_step(v):
    def apply(session: GraphSession) -> None:
        for name in list(session.engine.registry.names()):
            if hash(name) % 3 == v % 3:
                session.drop_trigger(name)

    return apply


WORKLOAD_BUILDERS = STATEMENT_TEMPLATES + [_ddl_step, _drop_step]

trigger_subsets = st.lists(
    st.integers(min_value=0, max_value=len(TRIGGER_TEMPLATES) - 1),
    min_size=1,
    max_size=5,
    unique=True,
)
workloads = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(WORKLOAD_BUILDERS) - 1),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=1,
    max_size=8,
)


class TestRandomizedDifferential:
    @given(trigger_indexes=trigger_subsets, workload=workloads)
    @settings(max_examples=80, deadline=None)
    def test_all_three_tiers_agree(self, trigger_indexes, workload):
        triggers = [TRIGGER_TEMPLATES[i] for i in sorted(trigger_indexes)]
        steps = [WORKLOAD_BUILDERS[kind](value) for kind, value in workload]
        run_triple(triggers, steps)
