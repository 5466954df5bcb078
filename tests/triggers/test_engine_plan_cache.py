"""Trigger-engine hot-path regressions after moving to the shared plan cache.

The engine used to keep two ad-hoc per-trigger dicts; conditions and action
statements now compile through ``repro.cypher.planner.PLAN_CACHE``, shared
with every other execution layer.  These tests pin down the properties that
move relied on: one parse per distinct text regardless of firing count,
cache hits on repeated fires, sharing across engines, and identical firing
accounting on the fast suppress path.
"""

import datetime as dt

from repro.cypher.planner import PLAN_CACHE
from repro.triggers.session import GraphSession

CLOCK = lambda: dt.datetime(2021, 3, 14, 12, 0, 0)  # noqa: E731


def make_session() -> GraphSession:
    return GraphSession(clock=CLOCK)


class TestConditionCompilation:
    def test_condition_parsed_once_over_many_fires(self):
        PLAN_CACHE.clear()
        session = make_session()
        session.create_trigger(
            "CREATE TRIGGER Watch AFTER CREATE ON 'Entity' FOR EACH NODE "
            "WHEN NEW.value > 100 BEGIN CREATE (:Alert) END"
        )
        for index in range(20):
            session.run("CREATE (:Entity {value: $v})", {"v": index})
        assert PLAN_CACHE.stats.condition_misses == 1
        assert PLAN_CACHE.stats.condition_hits >= 19

    def test_statement_compiles_through_global_plan_cache(self):
        PLAN_CACHE.clear()
        session = make_session()
        session.create_trigger(
            "CREATE TRIGGER Audit AFTER CREATE ON 'Entity' FOR EACH NODE "
            "BEGIN CREATE (:AuditEntry {source: NEW.value}) END"
        )
        before = PLAN_CACHE.stats.snapshot()
        for index in range(10):
            session.run("CREATE (:Entity {value: $v})", {"v": index})
        after = PLAN_CACHE.stats.snapshot()
        assert session.graph.count_nodes_with_label("AuditEntry") == 10
        # the workload uses two distinct texts (the CREATE statement and the
        # trigger action); everything beyond the first compilation is a hit
        assert after["parse_misses"] - before["parse_misses"] <= 2
        assert after["plan_hits"] - before["plan_hits"] >= 18

    def test_condition_cache_shared_between_engines(self):
        PLAN_CACHE.clear()
        trigger = (
            "CREATE TRIGGER Shared AFTER CREATE ON 'Entity' FOR EACH NODE "
            "WHEN NEW.value > 7 BEGIN CREATE (:Alert) END"
        )
        first, second = make_session(), make_session()
        first.create_trigger(trigger)
        second.create_trigger(trigger)
        first.run("CREATE (:Entity {value: 1})")
        misses_after_first = PLAN_CACHE.stats.condition_misses
        second.run("CREATE (:Entity {value: 1})")
        # the second engine reuses the first engine's compiled condition
        assert PLAN_CACHE.stats.condition_misses == misses_after_first == 1


class TestFastSuppressPath:
    def test_suppressed_and_executed_counters_match_semantics(self):
        session = make_session()
        session.create_trigger(
            "CREATE TRIGGER Gate AFTER CREATE ON 'Entity' FOR EACH NODE "
            "WHEN NEW.value > 10 BEGIN CREATE (:Alert {value: NEW.value}) END"
        )
        for value in (5, 15, 3, 20, 11):
            session.run("CREATE (:Entity {value: $v})", {"v": value})
        summary = session.engine.firing_summary()["Gate"]
        assert summary["executed"] == 3
        assert summary["suppressed"] == 2
        assert sorted(a["value"] for a in session.alerts()) == [11, 15, 20]
        installed = session.registry.get("Gate")
        assert installed.executions == 3
        assert installed.suppressed == 2

    def test_fast_path_audit_log_matches_slow_path_shape(self):
        session = make_session()
        session.create_trigger(
            "CREATE TRIGGER Gate AFTER CREATE ON 'Entity' FOR EACH NODE "
            "WHEN NEW.value > 10 BEGIN CREATE (:Alert) END"
        )
        session.run("CREATE (:Entity {value: 99})")
        session.run("CREATE (:Entity {value: 1})")
        fired, suppressed = session.engine.firings
        assert fired.executed and fired.condition_rows == 1
        assert not suppressed.executed and suppressed.condition_rows == 0
        assert fired.trigger_name == suppressed.trigger_name == "Gate"
        assert fired.action_time == suppressed.action_time == "AFTER"

    def test_exists_conditions_still_take_the_executor_path(self):
        session = make_session()
        session.run("CREATE (:CriticalEffect {name: 'severe'})")
        session.create_trigger(
            "CREATE TRIGGER Critical AFTER CREATE ON 'Mutation' FOR EACH NODE "
            "WHEN EXISTS (NEW)-[:Causes]->(:CriticalEffect) "
            "BEGIN CREATE (:Alert {kind: 'critical'}) END"
        )
        session.run(
            "MATCH (e:CriticalEffect) CREATE (m:Mutation {name: 'x'})-[:Causes]->(e)"
        )
        session.run("CREATE (:Mutation {name: 'benign'})")
        assert len(session.alerts()) == 1

    def test_referencing_aliases_use_the_general_path(self):
        session = make_session()
        session.create_trigger(
            "CREATE TRIGGER Aliased AFTER CREATE ON 'Entity' REFERENCING NEW AS fresh "
            "FOR EACH NODE "
            "WHEN fresh.value > 10 BEGIN CREATE (:Alert {value: fresh.value}) END"
        )
        session.run("CREATE (:Entity {value: 42})")
        session.run("CREATE (:Entity {value: 2})")
        assert [a["value"] for a in session.alerts()] == [42]

    def test_condition_query_triggers_unaffected(self):
        session = make_session()
        session.create_trigger(
            "CREATE TRIGGER Counted AFTER CREATE ON 'Entity' FOR EACH NODE "
            "WHEN MATCH (e:Entity) WITH count(e) AS total WHERE total >= 3 "
            "BEGIN CREATE (:Alert {total: total}) END"
        )
        for _ in range(4):
            session.run("CREATE (:Entity)")
        totals = sorted(a["total"] for a in session.alerts())
        assert totals == [3, 4]


class TestConditionShape:
    """The first token decides query vs predicate: a bare ``MATCH`` body
    used to parse as a call to an unknown ``match()`` function."""

    def test_bare_match_bodies_are_queries_and_fire(self):
        session = make_session()
        session.run("CREATE (:C)")
        session.create_trigger(
            "CREATE TRIGGER AnyC AFTER CREATE ON 'Item' FOR EACH NODE "
            "WHEN MATCH (n:C) BEGIN CREATE (:AlertC) END"
        )
        session.create_trigger(
            "CREATE TRIGGER Self AFTER CREATE ON 'Item' FOR EACH NODE "
            "WHEN MATCH (NEW) BEGIN CREATE (:AlertSelf) END"
        )
        session.run("CREATE (:Item), (:Item)")
        count = "MATCH (a:{}) RETURN count(a) AS n"
        assert session.run(count.format("AlertC")).single("n") == 2
        assert session.run(count.format("AlertSelf")).single("n") == 2

    def test_clause_keywords_start_queries_everything_else_is_a_predicate(self):
        for body in ("MATCH (n)", "MATCH (n:C:D)", "OPTIONAL MATCH (n:C)",
                     "UNWIND [1] AS x", "WITH 1 AS x WHERE x > 0"):
            assert PLAN_CACHE.condition_compiled(body).is_query, body
        for body in ("OLD.x <> NEW.x", "EXISTS (NEW)-[:R]-(:C)", "NOT EXISTS (NEW)-[:R]-()"):
            compiled = PLAN_CACHE.condition_compiled(body)
            assert not compiled.is_query, body
        assert PLAN_CACHE.condition_compiled("EXISTS (NEW)-[:R]-(:C)").has_exists
