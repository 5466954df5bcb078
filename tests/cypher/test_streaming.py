"""The streaming execution pipeline and the driver-style Result API."""

from __future__ import annotations

import pytest

from repro.cypher import parse_query, query_is_read_only
from repro.cypher.executor import QueryExecutor
from repro.cypher.result import QueryStatistics, Result, ResultConsumedError
from repro.graph import PropertyGraph


@pytest.fixture
def graph() -> PropertyGraph:
    g = PropertyGraph()
    for index in range(20):
        g.create_node(["Person"], {"seq": index, "flag": index % 2})
    return g


def stream_rows(graph, query, **kwargs):
    executor = QueryExecutor(graph, **kwargs)
    _, records = executor.stream(query)
    return list(records)


def _count_candidates(monkeypatch) -> list[int]:
    """Ids of the nodes the MATCH scans hand on, counted at the one
    scan-and-filter operator."""
    checked: list[int] = []
    original = QueryExecutor._candidate_nodes

    def counting(self, *args, **kwargs):
        for node, bindings in original(self, *args, **kwargs):
            checked.append(node.id)
            yield node, bindings

    monkeypatch.setattr(QueryExecutor, "_candidate_nodes", counting)
    return checked


class TestStreamingPipeline:
    def test_stream_matches_eager_execution(self, graph):
        queries = [
            "MATCH (p:Person) RETURN p.seq AS seq",
            "MATCH (p:Person) WHERE p.flag = 1 RETURN p.seq AS seq",
            "MATCH (p:Person) RETURN p.seq AS seq SKIP 3 LIMIT 4",
            "MATCH (p:Person) RETURN DISTINCT p.flag AS flag",
            "UNWIND [3, 1, 2] AS x RETURN x",
            "MATCH (p:Person) WITH p.flag AS flag, count(*) AS n RETURN flag, n ORDER BY flag",
            # nonsensical negative bounds clamp to 0 in both engines
            "MATCH (p:Person) RETURN p.seq AS seq LIMIT 0",
            "MATCH (p:Person) RETURN p.seq AS seq SKIP 25",
        ]
        for query in queries:
            assert stream_rows(graph, query) == stream_rows(graph, query, eager=True), query

    def test_negative_skip_and_limit_clamp_to_zero(self, graph):
        assert stream_rows(graph, "MATCH (p:Person) RETURN p.seq AS seq LIMIT $l",
                           parameters={"l": -1}) == []
        eager = stream_rows(graph, "MATCH (p:Person) RETURN p.seq AS seq LIMIT $l",
                            parameters={"l": -1}, eager=True)
        assert eager == []
        full = stream_rows(graph, "MATCH (p:Person) RETURN p.seq AS seq SKIP $s",
                           parameters={"s": -3})
        assert len(full) == 20
        assert full == stream_rows(graph, "MATCH (p:Person) RETURN p.seq AS seq SKIP $s",
                                   parameters={"s": -3}, eager=True)

    def test_limit_terminates_scan_early(self, graph, monkeypatch):
        checked = _count_candidates(monkeypatch)
        rows = stream_rows(graph, "MATCH (p:Person) RETURN p.seq AS seq LIMIT 2")
        assert [row["seq"] for row in rows] == [0, 1]
        # Streaming stops pulling candidates once LIMIT is satisfied: far
        # fewer than the 20 nodes an eager scan would have checked.
        assert len(checked) <= 3

        checked.clear()
        stream_rows(graph, "MATCH (p:Person) RETURN p.seq AS seq LIMIT 2", eager=True)
        assert len(checked) == 20

    def test_exists_stops_at_first_witness(self, monkeypatch):
        graph = PropertyGraph()
        hub = graph.create_node(["Hub"], {})
        for index in range(50):
            spoke = graph.create_node(["Spoke"], {"seq": index})
            graph.create_relationship("Links", hub.id, spoke.id)
        checked: list[int] = []
        original = QueryExecutor._node_satisfies

        def counting(self, node_pattern, node, row):
            checked.append(node.id)
            return original(self, node_pattern, node, row)

        monkeypatch.setattr(QueryExecutor, "_node_satisfies", counting)
        rows = stream_rows(
            graph, "MATCH (h:Hub) WHERE EXISTS (h)-[:Links]->(:Spoke) RETURN h"
        )
        assert len(rows) == 1
        # 1 Hub candidate + a handful of Spoke candidates, not all 50.
        assert len(checked) <= 5

    def test_writes_apply_even_when_stream_is_not_consumed(self, graph):
        executor = QueryExecutor(graph)
        _, records = executor.stream("CREATE (:Alert {desc: 'pending'}) RETURN 1 AS one")
        # The CREATE is a pipeline breaker: it ran during stream construction.
        assert graph.count_nodes_with_label("Alert") == 1
        del records

    def test_return_must_be_last_still_enforced(self, graph):
        from repro.cypher.errors import UnsupportedFeatureError

        with pytest.raises(UnsupportedFeatureError):
            QueryExecutor(graph).stream("RETURN 1 AS x MATCH (p:Person)")

    def test_query_is_read_only(self):
        assert query_is_read_only(parse_query("MATCH (n) RETURN n"))
        assert query_is_read_only(parse_query("UNWIND [1] AS x WITH x RETURN x"))
        assert not query_is_read_only(parse_query("CREATE (:X)"))
        assert not query_is_read_only(parse_query("MATCH (n) SET n.a = 1"))
        assert not query_is_read_only(parse_query("MATCH (n) DETACH DELETE n"))
        assert not query_is_read_only(
            parse_query("CALL apoc.do.when(true, 'RETURN 1') YIELD value RETURN value")
        )


class TestSingleNodeScan:
    """A lone one-node MATCH filters its candidates in one loop; OPTIONAL
    padding, error timing, virtual labels and ordered scans are unchanged."""

    def test_optional_match_pads_rows_without_a_candidate(self, graph):
        query = (
            "UNWIND [1, 30] AS i OPTIONAL MATCH (p:Person) WHERE p.seq = i "
            "RETURN i, p.seq AS seq"
        )
        rows = stream_rows(graph, query)
        assert rows == [{"i": 1, "seq": 1}, {"i": 30, "seq": None}]
        assert rows == stream_rows(graph, query, eager=True)

    def test_where_raises_at_the_same_candidate_as_eager(self, graph, monkeypatch):
        from repro.cypher.errors import CypherRuntimeError

        checked = _count_candidates(monkeypatch)
        query = "MATCH (p:Person) WHERE 10 / (p.seq - 5) > 0 RETURN p.seq AS seq"
        seen = []
        for options in ({}, {"eager": True}):
            checked.clear()
            with pytest.raises(CypherRuntimeError, match="division by zero"):
                stream_rows(graph, query, **options)
            seen.append(list(checked))
        assert seen[0] == seen[1] and len(seen[0]) == 6  # seq 0..5

    def test_virtual_label_scan_in_a_trigger_condition(self, monkeypatch):
        from repro.triggers import GraphSession

        joined: list[int] = []
        original = QueryExecutor._iter_join_steps

        def counting(self, *args):
            joined.append(1)
            return original(self, *args)

        monkeypatch.setattr(QueryExecutor, "_iter_join_steps", counting)
        session = GraphSession(batched_triggers=False)
        session.create_trigger(
            "CREATE TRIGGER Big AFTER CREATE ON 'Reading' FOR ALL NODES "
            "WHEN MATCH (r:NEWNODES) WHERE r.value > 10 "
            "BEGIN CREATE (:Alert) END"
        )
        session.run("UNWIND [1, 2, 3] AS v CREATE (:Reading {value: v})")
        assert session.run("MATCH (a:Alert) RETURN count(a) AS n").single("n") == 0
        session.run("UNWIND [5, 50] AS v CREATE (:Reading {value: v})")
        assert session.run("MATCH (a:Alert) RETURN count(a) AS n").single("n") == 1
        assert joined == []  # every MATCH here took the single-node scan

    def test_ordered_scan_that_falls_back_still_sorts(self):
        graph = PropertyGraph()
        for index in range(12):
            properties = {"kind": "real", "seq": index, "score": (index * 5) % 12}
            graph.create_node(["Person"], properties)
        graph.create_range_index("Person", "score")
        query = "MATCH (p:Person {kind: 'real'}) RETURN p.seq AS seq ORDER BY p.score LIMIT 4"
        executor = QueryExecutor(graph)
        assert "OrderedIndexScan" in executor.plan_description(query)
        expected = [{"seq": 0}, {"seq": 5}, {"seq": 10}, {"seq": 3}]
        assert stream_rows(graph, query) == expected
        # A string score spans a second type class: the ordered scan declines
        # at run time and the label scan's rows must be sorted instead.
        graph.create_node(["Person"], {"kind": "fake", "seq": 99, "score": "poison"})
        assert "OrderedIndexScan" in executor.plan_description(query)
        assert stream_rows(graph, query) == expected
        assert stream_rows(graph, query, eager=True) == expected


class TestProjectionStages:
    """The one WITH/RETURN stage keeps every mode's contract: what it yields,
    when it does its work (``stream()`` or the first pull) and what it pulls.

    Twelve ``P`` nodes; ``v`` orders them 0, 7, 2, 9, 4, 11, 6, 1, 8, …
    by ``seq``, and ``10 / p.d`` divides by zero on ``seq`` 8 only, which
    is past every LIMIT below in both id order and ``v`` order.
    """

    @pytest.fixture
    def scored(self) -> PropertyGraph:
        g = PropertyGraph()
        for index in range(12):
            properties = {"seq": index, "v": (index * 7) % 12, "d": 0 if index == 8 else 1}
            g.create_node(["P"], properties)
        return g

    @pytest.fixture
    def pulled(self, monkeypatch) -> list[int]:
        """Ids of the MATCH candidates pulled so far."""
        pulled: list[int] = []
        original = QueryExecutor._candidate_nodes

        def counting(self, *args, **kwargs):
            for node, bindings in original(self, *args, **kwargs):
                pulled.append(node.id)
                yield node, bindings

        monkeypatch.setattr(QueryExecutor, "_candidate_nodes", counting)
        return pulled

    def test_rows_and_row_order_match_eager(self, scored):
        queries = [
            "MATCH (p:P) RETURN p.seq AS s ORDER BY p.v DESC SKIP 1 LIMIT 3",
            "MATCH (p:P) RETURN DISTINCT p.seq % 3 AS g ORDER BY g DESC SKIP 1 LIMIT 2",
            "MATCH (p:P) RETURN p.seq % 3 AS g, count(*) AS c ORDER BY c DESC, g LIMIT 1",
            "MATCH (p:P) WITH p ORDER BY p.v LIMIT 3 WHERE p.v > 1 RETURN p.seq AS s",
            "MATCH (p:P) WITH p.seq % 4 AS g, count(*) AS c WHERE g > 1 RETURN g, c",
            "MATCH (p:P) WITH p SKIP 2 LIMIT 3 RETURN p.seq AS s",
            "MATCH (p:P) RETURN * ORDER BY p.v LIMIT 2",
        ]
        for query in queries:
            streamed = stream_rows(scored, query)
            assert streamed and streamed == stream_rows(scored, query, eager=True), query

    def test_distinct_keeps_the_first_row_of_each_duplicate(self, scored):
        pairs = "UNWIND [[1, 'a'], [2, 'b'], [1, 'c'], [3, 'a']] AS r "
        for options in ({}, {"eager": True}):
            # SORT: ORDER BY reads the kept row's source ``r``.
            query = pairs + "RETURN DISTINCT r[0] AS k ORDER BY r[1], k"
            rows = stream_rows(scored, query, **options)
            assert [row["k"] for row in rows] == [1, 3, 2]
            # STREAM: the kept row is the first, so first-seen order survives.
            rows = stream_rows(scored, pairs + "RETURN DISTINCT r[0] AS k", **options)
            assert [row["k"] for row in rows] == [1, 2, 3]

    def test_order_by_sees_projected_names_first_and_sorts_nulls_last(self, scored):
        cases = {
            "UNWIND [1, 2, 3] AS x RETURN -x AS x ORDER BY x LIMIT 2": [-3, -2],
            "UNWIND [1, 2, 3] AS x RETURN -x AS x ORDER BY x": [-3, -2, -1],
            "UNWIND [3, 1, 2] AS x RETURN x * 10 AS y ORDER BY x DESC LIMIT 2": [30, 20],
            "UNWIND [2, null, 1] AS x RETURN x AS y ORDER BY x LIMIT 3": [1, 2, None],
            "UNWIND [2, null, 1] AS x RETURN x AS y ORDER BY y DESC LIMIT 3": [2, 1, None],
            "UNWIND [2, null, 1] AS x RETURN x AS y ORDER BY y DESC": [2, 1, None],
        }
        for query, expected in cases.items():
            for options in ({}, {"eager": True}):
                rows = stream_rows(scored, query, **options)
                assert [next(iter(row.values())) for row in rows] == expected, (query, options)

    def test_negative_skip_and_limit_clamp_to_zero_in_every_mode(self, scored):
        bounds = {"s": -2, "l": -1}
        for tail in ("RETURN p.seq AS s", "RETURN p.seq AS s ORDER BY p.v",
                     "WITH p ORDER BY p.v", "RETURN DISTINCT p.seq AS s ORDER BY s"):
            prefix = "MATCH (p:P) " + tail
            suffix = "" if tail.startswith("RETURN") else " RETURN p.seq AS s"
            for options in ({}, {"eager": True}):
                skipped = stream_rows(scored, prefix + " SKIP $s LIMIT 4" + suffix,
                                      parameters=bounds, **options)
                assert len(skipped) == 4, (tail, options)
                assert stream_rows(scored, prefix + " LIMIT $l" + suffix,
                                   parameters=bounds, **options) == []

    def test_lazy_limit_zero_pulls_no_input_row(self, scored, pulled):
        for query in (
            "MATCH (p:P) RETURN 10 / p.d AS q LIMIT 0",
            "MATCH (p:P) RETURN 10 / p.d AS q SKIP 2 LIMIT 0",
            "MATCH (p:P) RETURN 10 / p.d AS q ORDER BY q LIMIT 0",
            "MATCH (p:P) RETURN 10 / p.d AS q ORDER BY q SKIP 2 LIMIT 0",
            "MATCH (p:P) WITH p SKIP 2 LIMIT 0 RETURN p.seq AS s",
        ):
            assert stream_rows(scored, query) == [], query
            assert pulled == [], query

    def test_stream_and_topk_work_only_once_pulled(self, scored, pulled):
        from repro.cypher.errors import CypherRuntimeError

        for query in (
            "MATCH (p:P) RETURN 10 / p.d AS q",  # STREAM
            "MATCH (p:P) RETURN 10 / p.d AS q ORDER BY p.v LIMIT 2",  # TOPK (heap)
            "MATCH (p:P) WITH p WHERE 10 / p.d > 0 RETURN p.seq AS s",  # lazy WITH … WHERE
        ):
            pulled.clear()
            _, rows = QueryExecutor(scored).stream(query)
            assert pulled == [], query
            with pytest.raises(CypherRuntimeError, match="division by zero"):
                list(rows)

    def test_breakers_work_inside_stream(self, scored, pulled):
        from repro.cypher.errors import CypherRuntimeError

        for query in (
            "MATCH (p:P) RETURN sum(10 / p.d) AS total",  # AGGREGATE
            "MATCH (p:P) RETURN 10 / p.d AS q ORDER BY p.v",  # SORT
            "MATCH (p:P) WITH p, 10 / p.d AS q RETURN *",  # WILDCARD
            # A breaker WITH applies its WHERE at construction too.
            "MATCH (p:P) WITH p ORDER BY p.v WHERE 10 / p.d > 0 RETURN p.seq AS s",
        ):
            with pytest.raises(CypherRuntimeError, match="division by zero"):
                QueryExecutor(scored).stream(query)

    def test_ordered_scan_topk_with_early_exit_stops_after_skip_plus_limit(self, scored, pulled):
        scored.create_range_index("P", "v")
        query = "MATCH (p:P) RETURN p.seq AS s ORDER BY p.v SKIP 1 LIMIT 2"
        assert "OrderedIndexScan" in QueryExecutor(scored).plan_description(query)
        _, rows = QueryExecutor(scored).stream(query)
        assert pulled == []
        assert list(rows) == [{"s": 7}, {"s": 2}]
        assert len(pulled) == 3

    def test_ordered_scan_topk_without_early_exit_projects_every_row_first(self, scored, pulled):
        from repro.cypher.errors import CypherRuntimeError

        scored.create_range_index("P", "v")
        # ``p.seq + 0`` may raise in general, so no early exit.
        query = "MATCH (p:P) RETURN p.seq + 0 AS s ORDER BY p.v LIMIT 2"
        assert "OrderedIndexScan" in QueryExecutor(scored).plan_description(query)
        _, rows = QueryExecutor(scored).stream(query)
        assert pulled == []
        assert next(rows) == {"s": 0}
        assert len(pulled) == 12
        # The ÷0 row sorts ninth: the first pull raises, no row comes out.
        _, rows = QueryExecutor(scored).stream(
            "MATCH (p:P) RETURN p.seq AS s, 10 / p.d AS q ORDER BY p.v LIMIT 2"
        )
        with pytest.raises(CypherRuntimeError, match="division by zero"):
            next(rows)

    def test_eager_projects_every_row_before_slicing(self, scored):
        from repro.cypher.errors import CypherRuntimeError

        for query in (
            "MATCH (p:P) RETURN 10 / p.d AS q LIMIT 2",
            "MATCH (p:P) RETURN 10 / p.d AS q SKIP 2 LIMIT 0",
            "MATCH (p:P) WITH 10 / p.d AS q LIMIT 2 RETURN q",
        ):
            assert len(stream_rows(scored, query)) <= 2
            with pytest.raises(CypherRuntimeError, match="division by zero"):
                QueryExecutor(scored, eager=True).stream(query)

    def test_eager_sorts_topk_in_full(self, scored, pulled, monkeypatch):
        import heapq

        heaps: list[int] = []
        nsmallest = heapq.nsmallest

        def spying(n, iterable, key=None):
            heaps.append(n)
            return nsmallest(n, iterable, key=key)

        monkeypatch.setattr(heapq, "nsmallest", spying)
        query = "MATCH (p:P) RETURN p.seq AS s ORDER BY p.v DESC LIMIT 2"
        assert stream_rows(scored, query) == [{"s": 5}, {"s": 10}]
        assert heaps == [2]
        assert stream_rows(scored, query, eager=True) == [{"s": 5}, {"s": 10}]
        assert heaps == [2]
        # Over an ordered scan the eager baseline still pulls and sorts it all.
        scored.create_range_index("P", "v")
        pulled.clear()
        assert stream_rows(scored, query, eager=True) == [{"s": 5}, {"s": 10}]
        assert len(pulled) == 12

    def test_with_inside_foreach_streaming_equals_eager(self):
        queries = (
            "FOREACH (x IN [1] | MATCH (n:N) WITH n ORDER BY n.v DESC LIMIT 1 SET n.top = true)",
            "FOREACH (x IN [1] | MATCH (n:N) WITH n.g AS g, count(*) AS c "
            "MATCH (m:N {g: g}) SET m.c = c)",
        )
        states = []
        for options in ({}, {"eager": True}):
            g = PropertyGraph()
            for index in range(5):
                g.create_node(["N"], {"v": index, "g": index % 2})
            for query in queries:
                QueryExecutor(g, **options).execute(query)
            states.append(
                stream_rows(g, "MATCH (n:N) RETURN n.v AS v, n.top AS top, n.c AS c ORDER BY v")
            )
        assert states[0] == states[1]
        assert [row["top"] for row in states[0]] == [None, None, None, None, True]
        assert [row["c"] for row in states[0]] == [3, 2, 3, 2, 3]


class TestResultAPI:
    def records(self):
        return [{"x": 1}, {"x": 2}, {"x": 3}]

    def test_iterate_once(self):
        result = Result(["x"], iter(self.records()))
        assert [r["x"] for r in result] == [1, 2, 3]
        assert result.consumed
        # Driver semantics: a second consumption attempt is a caller bug.
        with pytest.raises(ResultConsumedError):
            list(result)

    def test_peek_does_not_consume(self):
        result = Result(["x"], iter(self.records()))
        assert result.peek() == {"x": 1}
        assert result.peek() == {"x": 1}
        assert [r["x"] for r in result] == [1, 2, 3]

    def test_peek_at_end_returns_none(self):
        result = Result(["x"], iter([]))
        assert result.peek() is None
        assert result.consumed

    def test_single_value_and_errors(self):
        assert Result(["x"], iter([{"x": 7}])).single() == 7
        assert Result(["x", "y"], iter([{"x": 7, "y": 8}])).single("y") == 8
        assert Result(["x", "y"], iter([{"x": 7, "y": 8}])).single() == {"x": 7, "y": 8}
        with pytest.raises(ValueError):
            Result(["x"], iter([])).single()
        with pytest.raises(ValueError):
            Result(["x"], iter(self.records())).single()

    def test_single_pulls_at_most_two_records(self):
        pulled: list[int] = []

        def generator():
            for value in range(100):
                pulled.append(value)
                yield {"x": value}

        result = Result(["x"], generator())
        with pytest.raises(ValueError):
            result.single()
        assert len(pulled) == 2

    def test_consume_returns_summary_with_counters(self):
        stats = QueryStatistics(nodes_created=2)
        result = Result(["x"], iter(self.records()), stats, query="Q", plan="PLAN")
        summary = result.consume()
        assert summary.counters is stats
        assert summary.as_dict()["counters"]["nodes_created"] == 2
        assert summary.plan == "PLAN"
        assert summary.query == "Q"
        with pytest.raises(ResultConsumedError):
            list(result)
        # consume() itself stays idempotent: the summary remains reachable.
        assert result.consume() is summary

    def test_finalize_callbacks_fire_once(self):
        calls: list[str] = []
        result = Result(
            ["x"], iter(self.records()), on_success=lambda: calls.append("ok")
        )
        list(result)
        result.consume()
        assert calls == ["ok"]

    def test_failure_callback_on_mid_stream_error(self):
        calls: list[str] = []

        def generator():
            yield {"x": 1}
            raise RuntimeError("boom")

        result = Result(
            ["x"],
            generator(),
            on_success=lambda: calls.append("ok"),
            on_failure=lambda: calls.append("fail"),
        )
        assert next(result) == {"x": 1}
        with pytest.raises(RuntimeError):
            next(result)
        assert calls == ["fail"]

    def test_close_finalizes_without_draining(self):
        pulled: list[int] = []

        def generator():
            for value in range(100):
                pulled.append(value)
                yield {"x": value}

        result = Result(["x"], generator())
        assert next(result)["x"] == 0
        result.close()
        assert result.consumed
        assert pulled == [0]
        with pytest.raises(ResultConsumedError):
            list(result)

    def test_close_after_materialization_stops_iteration(self):
        result = Result(["x"], iter(self.records()))
        assert len(result.rows) == 3  # materialises the stream
        result.close()
        assert list(result) == []
        assert result.peek() is None

    def test_consumed_result_raises_on_every_record_accessor(self):
        """Satellite regression: consuming twice raises, never returns []."""
        consumed = Result(["x"], iter(self.records()))
        consumed.consume()
        for access in (
            lambda r: list(r),
            lambda r: next(r),
            lambda r: r.peek(),
            lambda r: r.single(),
            lambda r: r.rows,
            lambda r: len(r),
            lambda r: bool(r),
            lambda r: r.values("x"),
            lambda r: r.to_table(),
        ):
            with pytest.raises(ResultConsumedError, match="already been consumed"):
                access(consumed)
        # Metadata stays reachable on a consumed result.
        assert consumed.keys() == ["x"]
        assert consumed.summary() is consumed.consume()

    def test_materialised_result_stays_rereadable(self):
        # Eager access *before* finalisation buffers the records; the
        # buffer is a legitimate random-access surface, not a second
        # consumption of the stream.
        result = Result(["x"], iter(self.records()))
        assert len(result.rows) == 3
        assert result.values("x") == [1, 2, 3]
        assert [r["x"] for r in result] == [1, 2, 3]
        assert list(result) == []  # buffered cursor is simply exhausted

    def test_session_run_result_raises_after_consume(self, graph):
        from repro.triggers.session import GraphSession

        session = GraphSession(graph=graph)
        result = session.run("MATCH (p:Person) RETURN p.seq AS seq")
        result.consume()
        with pytest.raises(ResultConsumedError):
            for _ in result:
                pass

    def test_eager_compat_surface(self):
        result = Result(["x"], iter(self.records()))
        assert result.rows == self.records()
        assert len(result) == 3
        assert bool(result)
        assert result.values("x") == [1, 2, 3]
        assert "x" in result.to_table()
        assert result.keys() == ["x"]
        # materialised records stay iterable afterwards
        assert [r["x"] for r in result] == [1, 2, 3]
