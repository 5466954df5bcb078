"""Streaming (Volcano-style) executor for the Cypher subset.

The executor processes a query as a *pull pipeline* over binding rows
(plain dictionaries mapping variable names to values).  Each clause is a
row-iterator stage wired to the previous one; nothing is computed until a
consumer pulls, so ``LIMIT``/``single()`` terminate early and read-only
queries run in near-constant memory regardless of how wide the
intermediate row sets would be.

:meth:`QueryExecutor.stream` exposes the pipeline as ``(columns, row
iterator)``; :meth:`QueryExecutor.execute` drains it into the eager
:class:`~repro.cypher.result.QueryResult` for callers that want the whole
answer at once (the trigger engine, the compatibility emulators, tests).

Not every clause can stream.  Write clauses (CREATE/MERGE/SET/REMOVE/
DELETE/FOREACH) and CALL are *pipeline breakers*: they drain their input
and run to completion at pipeline-construction time.  Their effects must
apply even when a downstream LIMIT stops pulling, later clauses must see
the graph as if the clause had run to completion, and procedures may have
side effects (the APOC emulation's ``apoc.do.when`` runs write subqueries).

WITH and RETURN go through one projection stage, in the mode the planner
chose for the clause:

* STREAM projects row by row (DISTINCT, SKIP/LIMIT and WITH's WHERE
  included) as rows are pulled; a LIMIT stops the pull.
* TOPK (ORDER BY with LIMIT, no DISTINCT) is lazy too: at the first pull
  it keeps SKIP+LIMIT rows in a heap, or, over an ordered index scan, takes
  them in scan order.
* SORT (any other ORDER BY), AGGREGATE and WILDCARD (``*`` must see every
  row to know its columns) are breakers: they compute their whole output
  at construction.

Construction with ``eager=True`` materialises every stage clause-by-
clause, projections included (every row is projected before SKIP/LIMIT
and TOPK clauses are fully sorted), reproducing the pre-pipeline
behaviour; the property tests and the P6 benchmark use it as the
comparison baseline.

Writes go through a :class:`~repro.tx.transaction.Transaction` so that the
transaction's delta captures every change (which is what the PG-Trigger
engine consumes).  When the caller passes a bare graph, a throwaway
transaction is created internally.

Two extension points exist for the trigger and compatibility layers:

* ``virtual_labels`` — a mapping ``label -> set of node/relationship ids``
  that behaves as an additional, query-scoped label.  The trigger engine
  uses it to expose the set-granularity transition variables (``NEWNODES``,
  ``OLDRELS``, …) to conditions written as patterns, e.g.
  ``MATCH (pn:NEWNODES)-[:TreatedAt]-(h)``.
* ``procedures`` — a registry of callables for ``CALL name(args) YIELD …``
  clauses; the APOC emulation registers ``apoc.do.when`` and friends.
"""

from __future__ import annotations

import datetime as _dt
import heapq
import itertools
from dataclasses import replace as _dc_replace
from operator import attrgetter, itemgetter
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence

from ..graph.errors import NodeNotFoundError
from ..graph.model import Node, Relationship
from ..graph.store import PropertyGraph
from ..paths import Path, bidirectional_shortest, single_source_shortest
from ..tx.transaction import Transaction
from .ast import (
    CallClause,
    Clause,
    CountStar,
    CreateClause,
    DeleteClause,
    ExistsPattern,
    Expression,
    ForeachClause,
    FunctionCall,
    MatchClause,
    MergeClause,
    NodePattern,
    PathPattern,
    ProjectionItem,
    Query,
    RelationshipPattern,
    RemoveClause,
    RemoveLabelsItem,
    RemovePropertyItem,
    ReturnClause,
    SetClause,
    SetFromMapItem,
    SetLabelsItem,
    SetPropertyItem,
    SortItem,
    UnwindClause,
    WithClause,
    expression_variable_names,
    walk_expression,
)
from .errors import CypherError, CypherRuntimeError, CypherTypeError, UnsupportedFeatureError
from .expressions import (
    EvaluationContext, compile_expression, compile_map_entries, evaluate, map_value_matches,
)
from .functions import AGGREGATE_FUNCTIONS, is_aggregate_function
from .physical import HashJoin, JoinOperator
from .planner import (
    AGGREGATE,
    BOUND_REL,
    COMPOSITE,
    EMPTY_SCOPE,
    IN_LIST,
    INDEX,
    ORDERED,
    PLAN_CACHE,
    RANGE,
    REL_INDEX,
    STREAM,
    TOPK,
    AccessPath,
    ProjectionPlan,
    QueryPlan,
    Scope,
    _plan_projection,
)
from .result import QueryResult, QueryStatistics

#: Signature of a registered procedure: ``(arguments, invocation) -> rows``.
#: ``arguments`` are the evaluated argument values; ``invocation`` is a
#: :class:`ProcedureInvocation` giving access to the executor and row.
ProcedureCallable = Callable[[Sequence[Any], "ProcedureInvocation"], Iterable[Mapping[str, Any]]]

#: Default bound applied to unbounded variable-length patterns (``[*]``);
#: prevents accidental exponential blow-ups on dense graphs.
DEFAULT_MAX_HOPS = 15

#: Sentinel distinguishing "no first row" from a row when peeking a
#: pipeline to finalise the presorted flag.
_NO_ROW = object()


class ProcedureInvocation:
    """Context handed to procedure implementations."""

    def __init__(self, executor: "QueryExecutor", row: dict[str, Any]) -> None:
        self.executor = executor
        self.row = row

    @property
    def graph(self) -> PropertyGraph:
        """The graph being queried."""
        return self.executor.graph

    @property
    def transaction(self) -> Transaction:
        """The transaction write statements should go through."""
        return self.executor.transaction

    def run_subquery(
        self, text: str, parameters: Mapping[str, Any] | None = None
    ) -> QueryResult:
        """Execute a nested query sharing this execution's transaction."""
        merged = dict(self.executor.parameters)
        merged.update(parameters or {})
        nested = QueryExecutor(
            self.executor.graph,
            transaction=self.executor.transaction,
            parameters=merged,
            clock=self.executor.clock,
            procedures=self.executor.procedures,
            virtual_labels=self.executor.virtual_labels,
        )
        result = nested.execute(text)
        self.executor.statistics_merge(nested.last_statistics)
        return result


class QueryExecutor:
    """Executes parsed queries against a property graph."""

    def __init__(
        self,
        graph: PropertyGraph,
        transaction: Transaction | None = None,
        parameters: Mapping[str, Any] | None = None,
        clock: Callable[[], _dt.datetime] | None = None,
        procedures: Mapping[str, ProcedureCallable] | None = None,
        virtual_labels: Mapping[str, set[int]] | None = None,
        max_hops: int = DEFAULT_MAX_HOPS,
        eager: bool = False,
        join_ordering: bool = True,
        memoize_match: bool = False,
        memoize_skip_variables: Iterable[str] = (),
        naive_paths: bool = False,
    ) -> None:
        self.graph = graph
        self.transaction = transaction or Transaction(graph)
        self.parameters = dict(parameters or {})
        self.clock = clock or _dt.datetime.now
        self.procedures = dict(procedures or {})
        self.virtual_labels = {k: set(v) for k, v in (virtual_labels or {}).items()}
        self.max_hops = max_hops
        #: Materialise every pipeline stage clause-by-clause (the
        #: pre-streaming behaviour); baseline for equivalence tests/benchmarks.
        self.eager = eager
        #: Apply the planner's cost-based multi-pattern join order.  Off, a
        #: multi-pattern MATCH joins its patterns in clause order — the
        #: naive baseline the differential tests compare against.
        self.join_ordering = join_ordering
        #: Memoise pattern extensions across input rows (see
        #: :meth:`_iter_pattern_memoized`).  Only sound while the graph
        #: cannot change under this executor — the trigger engine enables
        #: it for its read-only batched condition passes.
        self.memoize_match = memoize_match
        #: Variables known to differ on every input row (the trigger
        #: engine passes its transition-variable names): a pattern
        #: depending on one can never get a memo hit, so it stays on the
        #: live path instead of filling the memo with dead entries.
        self.memoize_skip_variables = frozenset(memoize_skip_variables)
        #: Force the recursive path enumerator (and per-start shortest-path
        #: enumeration) instead of the iterative routes.  The differential
        #: property suites treat this executor as ground truth.
        self.naive_paths = naive_paths
        self.last_statistics = QueryStatistics()
        self._plan: QueryPlan | None = None
        self._base_context: EvaluationContext | None = None
        self._match_memo: dict[tuple, _MatchMemo] = {}
        self._match_deps: dict[int, tuple[str, ...]] = {}
        #: Whether a ``presorted`` projection may trust its input order.
        #: Armed per :meth:`_stream_rows` pass and cleared the moment an
        #: ``OrderedIndexScan`` start falls back to an unordered scan.
        self._presorted_ok = False

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def execute(
        self,
        query: Query | str,
        parameters: Mapping[str, Any] | None = None,
        bindings: Mapping[str, Any] | None = None,
    ) -> QueryResult:
        """Execute ``query`` (text or parsed) and return its eager result.

        Drains the streaming pipeline built by :meth:`stream`, so eager and
        streaming execution share one code path.  ``bindings`` pre-populates
        the initial row; the trigger engine uses this to expose transition
        variables (``NEW``, ``OLD``, …) to condition and action statements.
        The planner sees what it binds (:meth:`_initial_scope`).
        """
        columns, rows = self.stream(query, parameters=parameters, bindings=bindings)
        result = QueryResult(statistics=self.last_statistics)
        result.columns = columns
        result.rows = list(rows)
        return result

    def stream(
        self,
        query: Query | str,
        parameters: Mapping[str, Any] | None = None,
        bindings: Mapping[str, Any] | None = None,
    ) -> tuple[list[str], Iterator[dict[str, Any]]]:
        """Build the pull pipeline for ``query`` and return ``(columns, rows)``.

        The returned iterator is lazy for streamable clause chains: pulling
        one row does the minimum matching work needed to produce it.
        Pipeline-breaker clauses (writes, CALL, and SORT/AGGREGATE/WILDCARD
        projections — see the module docstring) run during this call, so a
        query with side effects has applied all of them by the time
        ``stream`` returns, whether or not the iterator is ever consumed.
        """
        return self._stream_rows(query, parameters, [dict(bindings or {})])

    def stream_batch(
        self,
        query: Query | str,
        rows: Iterable[Mapping[str, Any]],
        parameters: Mapping[str, Any] | None = None,
    ) -> tuple[list[str], Iterator[dict[str, Any]]]:
        """Run one pipeline pass over many initial rows (UNWIND-style).

        Exactly :meth:`stream`, except the pipeline starts from every row
        of ``rows`` instead of a single bindings row.  Because every
        streamable stage maps each input row independently and in order,
        the output of a read-only Match/Unwind pipeline is the ordered
        concatenation of what per-row executions would have produced —
        which is what the trigger engine's batched condition evaluation
        relies on.
        """
        return self._stream_rows(query, parameters, [dict(row) for row in rows])

    def _stream_rows(
        self,
        query: Query | str,
        parameters: Mapping[str, Any] | None,
        initial_rows: list[dict[str, Any]],
    ) -> tuple[list[str], Iterator[dict[str, Any]]]:
        scope = self._initial_scope(initial_rows)
        if isinstance(query, str):
            query, self._plan = PLAN_CACHE.get(
                query, self.graph, frozenset(self.virtual_labels), scope
            )
        else:
            self._plan = PLAN_CACHE.get_for_parsed(
                query, self.graph, frozenset(self.virtual_labels), scope
            )
        # Dependencies include what each pattern's planned start reads.
        self._match_deps.clear()
        if parameters:
            self.parameters.update(parameters)
        self.last_statistics = QueryStatistics()
        # A batch pass concatenates per-row outputs, so only a single
        # initial row can arrive globally ordered; the eager baseline
        # always re-sorts (it is the differential ground truth).
        self._presorted_ok = len(initial_rows) == 1 and not self.eager
        rows: Iterator[dict[str, Any]] = iter(initial_rows)
        for index, clause in enumerate(query.clauses):
            if isinstance(clause, ReturnClause):
                if index != len(query.clauses) - 1:
                    raise UnsupportedFeatureError("RETURN must be the final clause")
                return self._projection(clause, rows)
            rows = self._stream_clause(clause, rows)
        # No RETURN: drain now so the query's effects are fully applied at
        # statement execution time, exactly as in the eager executor.
        for _ in rows:
            pass
        return [], iter(())

    def _initial_scope(self, rows: list[dict[str, Any]]) -> Scope:
        """What every initial row binds, for the planner (see :class:`Scope`).

        Liveness is read now, not assumed: an earlier firing may have
        deleted a trigger's ``NEW``, and a DELETE trigger's ``OLD`` is gone.
        """
        if not rows or not rows[0]:
            return EMPTY_SCOPE
        names = set(rows[0])
        for row in rows[1:]:
            names.intersection_update(row)
        if not names:
            return EMPTY_SCOPE
        graph = self.graph
        nodes = []
        rels = []
        for name in names:
            values = [row[name] for row in rows]
            if all(isinstance(v, Node) and graph.has_node(v.id) for v in values):
                nodes.append(name)
            elif all(
                isinstance(v, Relationship) and graph.has_relationship(v.id)
                for v in values
            ):
                rels.append(name)
        return Scope(frozenset(names), frozenset(nodes), frozenset(rels))

    @property
    def last_plan(self) -> QueryPlan | None:
        """The :class:`QueryPlan` chosen by the most recent execution."""
        return self._plan

    def plan_description(self, query: Query | str) -> str:
        """EXPLAIN-style description of the access paths chosen for ``query``.

        Uses the same global plan cache as :meth:`execute`, so this is also
        the way tests assert that an indexed workload actually takes a
        ``PropertyIndex`` lookup.
        """
        if isinstance(query, str):
            _, plan = PLAN_CACHE.get(query, self.graph, frozenset(self.virtual_labels))
        else:
            plan = PLAN_CACHE.get_for_parsed(
                query, self.graph, frozenset(self.virtual_labels)
            )
        return plan.plan_description()

    def statistics_merge(self, other: QueryStatistics) -> None:
        """Fold the statistics of a nested execution into this one."""
        stats = self.last_statistics
        stats.nodes_created += other.nodes_created
        stats.nodes_deleted += other.nodes_deleted
        stats.relationships_created += other.relationships_created
        stats.relationships_deleted += other.relationships_deleted
        stats.labels_added += other.labels_added
        stats.labels_removed += other.labels_removed
        stats.properties_set += other.properties_set
        stats.properties_removed += other.properties_removed

    # ------------------------------------------------------------------
    # clause dispatch
    # ------------------------------------------------------------------

    def _stream_clause(
        self, clause: Clause, rows: Iterator[dict]
    ) -> Iterator[dict]:
        """Wire one clause stage onto the pipeline.

        Streamable clauses return a lazy generator over ``rows``; breaker
        clauses drain ``rows`` and run to completion right here (see the
        module docstring for which ones and why).
        """
        if isinstance(clause, MatchClause):
            out: Iterator[dict] = self._iter_match(clause, rows)
        elif isinstance(clause, UnwindClause):
            out = self._iter_unwind(clause, rows)
        elif isinstance(clause, WithClause):
            _, out = self._projection(clause, rows)
        else:
            out = iter(self._execute_breaker(clause, list(rows)))
        if self.eager:
            out = iter(list(out))
        return out

    def _execute_breaker(self, clause: Clause, rows: list[dict]) -> list[dict]:
        """Run a pipeline-breaker clause eagerly over its materialised input."""
        if isinstance(clause, CreateClause):
            return self._execute_create(clause, rows)
        if isinstance(clause, MergeClause):
            return self._execute_merge(clause, rows)
        if isinstance(clause, SetClause):
            return self._execute_set(clause, rows)
        if isinstance(clause, RemoveClause):
            return self._execute_remove(clause, rows)
        if isinstance(clause, DeleteClause):
            return self._execute_delete(clause, rows)
        if isinstance(clause, ForeachClause):
            return self._execute_foreach(clause, rows)
        if isinstance(clause, CallClause):
            return self._execute_call(clause, rows)
        raise UnsupportedFeatureError(f"clause {type(clause).__name__} is not supported")

    def _execute_clause(self, clause: Clause, rows: list[dict]) -> list[dict]:
        """Eager list-in/list-out execution of one clause (FOREACH bodies)."""
        return list(self._stream_clause(clause, iter(rows)))

    # ------------------------------------------------------------------
    # evaluation helpers
    # ------------------------------------------------------------------

    def _context(self, aggregate_lookup: Optional[dict[int, Any]] = None) -> EvaluationContext:
        if aggregate_lookup is None:
            # The no-aggregate context is immutable and row-independent
            # (``parameters`` is shared by reference), so one instance
            # serves every evaluation of this executor.
            if self._base_context is None:
                self._base_context = EvaluationContext(
                    graph=self.graph,
                    parameters=self.parameters,
                    clock=self.clock,
                    pattern_matcher=self._exists_matcher,
                )
            return self._base_context
        return EvaluationContext(
            graph=self.graph,
            parameters=self.parameters,
            clock=self.clock,
            pattern_matcher=self._exists_matcher,
            aggregate_lookup=aggregate_lookup,
        )

    def _evaluate(self, expr: Expression, row: Mapping[str, Any],
                  aggregate_lookup: Optional[dict[int, Any]] = None) -> Any:
        return evaluate(expr, row, self._context(aggregate_lookup))

    def _exists_matcher(self, exists: ExistsPattern, row: dict[str, Any]) -> bool:
        # Pulls the lazy pattern pipeline and stops at the first surviving
        # row: EXISTS never needs more than one witness.
        for candidate in self._iter_patterns(exists.patterns, dict(row)):
            if exists.where is None or self._evaluate(exists.where, candidate) is True:
                return True
        return False

    def _iter_patterns(
        self, patterns: Sequence[PathPattern], row: dict
    ) -> Iterator[dict]:
        """Lazily join several path patterns, nested-loop style."""
        if not patterns:
            yield row
            return
        for extended in self._iter_pattern(patterns[0], row):
            yield from self._iter_patterns(patterns[1:], extended)

    # ------------------------------------------------------------------
    # MATCH
    # ------------------------------------------------------------------

    def _iter_match(self, clause: MatchClause, rows: Iterator[dict]) -> Iterator[dict]:
        steps = self._match_steps(clause)
        single = steps[0][0] if len(steps) == 1 else None
        where = None if clause.where is None else compile_expression(clause.where)
        context = self._context()
        # Hash-join build tables live per MATCH *stage*: one pipeline pass
        # over (possibly many) input rows shares them, keyed by the build
        # pattern's dependency bindings so rows differing in a dependency
        # can never alias (same contract as the match memo).
        join_state: dict[tuple, _JoinTable] = {}
        for row in rows:
            if single is not None:
                candidates = self._iter_pattern(single, row)
            else:
                candidates = self._iter_join_steps(steps, 0, dict(row), join_state)
            produced = False
            for candidate in candidates:
                if where is not None and where(candidate, context) is not True:
                    continue
                produced = True
                yield candidate
            if not produced and clause.optional:
                padded = dict(row)
                for name in _pattern_variables(clause.patterns):
                    padded.setdefault(name, None)
                yield padded

    def _match_steps(
        self, clause: MatchClause
    ) -> list[tuple[PathPattern, Optional[JoinOperator]]]:
        """The clause's patterns in planned order, with per-step join operators.

        Multi-pattern clauses join their patterns in the planner's
        cost-based order (the patterns form a commutative conjunction, so
        the row *set* is order-independent), and disconnected steps carry
        the planner's HashJoin/CartesianProduct operator.
        ``join_ordering=False`` keeps the naive clause order and pure
        nested-loop joins — the differential baseline.  Resolved once per
        MATCH stage, not per input row.
        """
        if self.join_ordering and self._plan is not None and self._plan.has_join_orders:
            join_order = self._plan.join_order_for(clause)
            if join_order is not None:
                if join_order.steps:
                    return [
                        (clause.patterns[step.pattern_index], step.operator)
                        for step in join_order.steps
                    ]
                return [(clause.patterns[index], None) for index in join_order.order]
        return [(pattern, None) for pattern in clause.patterns]

    def _iter_join_steps(
        self,
        steps: Sequence[tuple[PathPattern, Optional[JoinOperator]]],
        index: int,
        row: dict,
        join_state: dict,
    ) -> Iterator[dict]:
        """Lazily join the clause's patterns step by step.

        Connected steps (operator ``None``) nested-loop through
        :meth:`_iter_pattern`, starting from the bound values in ``row``.
        Disconnected steps interpret their HashJoin/CartesianProduct
        operator: the pattern's extensions are matched once, stored as
        row *deltas* (optionally bucketed by build-key values), and
        replayed onto every partial row — the key match is only a
        pre-filter, since :meth:`_iter_match` still evaluates the full
        WHERE on each joined candidate.
        """
        if index >= len(steps):
            yield row
            return
        pattern, operator = steps[index]
        if operator is None:
            for extended in self._iter_pattern(pattern, row):
                yield from self._iter_join_steps(steps, index + 1, extended, join_state)
            return
        join_variables = getattr(operator, "join_variables", ())
        if join_variables and not self._connected_probe_ok(
            pattern, row, join_variables
        ):
            # This probe row cannot use the shared-variable hash join: a
            # join variable is null or not a node (OPTIONAL MATCH padding)
            # or the row binds a pattern variable the planner thought free
            # (the unbound build would ignore the anchor).
            # The nested loop is always row-set-correct.
            for extended in self._iter_pattern(pattern, row):
                yield from self._iter_join_steps(steps, index + 1, extended, join_state)
            return
        table = self._join_build_table(pattern, operator, row, join_state)
        for delta in table.probe(self, row):
            if join_variables and not _delta_joins(row, delta, join_variables):
                # Connected joins have no WHERE equality re-verifying the
                # key downstream, so the bucket match is re-checked here by
                # identity — overflow deltas never leak through.
                continue
            merged = dict(row)
            merged.update(delta)
            yield from self._iter_join_steps(steps, index + 1, merged, join_state)

    def _connected_probe_ok(
        self, pattern: PathPattern, row: dict, join_variables: tuple[str, ...]
    ) -> bool:
        """May ``row`` probe the connected pattern's *unbound* build table?

        Requires every join variable bound to a node (the build keys are
        node identities) and every *other* variable the pattern reads to be
        unbound in the row — the planner guarantees that statically, but a
        caller-supplied binding can introduce one at run time.
        """
        if not all(isinstance(row.get(name), Node) for name in join_variables):
            return False
        names = set(self._pattern_dependencies(pattern))
        if pattern.variable is not None:
            names.add(pattern.variable)
        return not any(name not in join_variables and name in row for name in names)

    def _join_build_table(
        self,
        pattern: PathPattern,
        operator: JoinOperator,
        row: dict,
        join_state: dict,
    ) -> "_JoinTable":
        """The (cached) materialised build side of a disconnected join step.

        A disconnected pattern reads nothing from its sibling patterns (the
        planner declines clauses with cross-pattern property reads), so its
        extensions depend only on its dependency bindings — outer-clause
        variables referenced by its property maps or by the value its
        planned start seeks on.  The cache key pins those bindings by
        identity, exactly like the cross-row match memo, so two partial
        rows agreeing on them share one build.
        """
        if isinstance(operator, HashJoin) and operator.join_variables:
            # A *connected* join builds the pattern unbound: its property
            # maps are static and its start seeks on no row value (the
            # planner requires both), and the probe row binds no pattern
            # variable beyond the join keys (the runtime guard checked), so
            # the build depends on nothing from the row and a single table
            # serves the whole MATCH stage.
            key = (id(pattern),)
            table = join_state.get(key)
            if table is None:
                table = _JoinTable(operator.keys)
                for extended in self._iter_pattern(pattern, {}):
                    table.insert(self, _row_delta({}, extended), extended)
                join_state[key] = table
            return table
        key = self._dependency_key(pattern, row)
        table = join_state.get(key)
        if table is None:
            keys = operator.keys if isinstance(operator, HashJoin) else ()
            table = _JoinTable(keys)
            for extended in self._iter_pattern(pattern, row):
                table.insert(self, _row_delta(row, extended), extended)
            table.pins = self._dependency_pins(pattern, row)
            join_state[key] = table
        return table

    def _match_pattern(self, pattern: PathPattern, row: dict) -> list[dict]:
        """All ways of matching ``pattern`` starting from the bindings in ``row``."""
        return list(self._iter_pattern(pattern, row))

    def _iter_pattern(self, pattern: PathPattern, row: dict) -> Iterator[dict]:
        """Lazily yield every way of matching ``pattern`` from ``row``."""
        if self.memoize_match and not any(
            name in self.memoize_skip_variables
            for name in self._pattern_dependencies(pattern)
        ):
            return self._iter_pattern_memoized(pattern, row)
        return self._iter_pattern_live(pattern, row)

    def _iter_pattern_memoized(self, pattern: PathPattern, row: dict) -> Iterator[dict]:
        """Cross-row memoization of pattern extensions (batched passes only).

        A pattern reads a fixed set of row bindings — its element
        variables plus whatever its property expressions and its planned
        start's seek value reference (:meth:`_pattern_dependencies`).  Two
        input rows agreeing on those bindings therefore produce the same
        extensions, differing only in the untouched pass-through
        variables; the first row's extension
        *deltas* are cached (filled lazily, so EXISTS early-exit keeps
        paying only for what it pulls) and replayed onto later rows.

        A batch of trigger activations hits this hard: a condition
        pattern over configuration/catalog nodes that never mentions
        OLD/NEW is matched once instead of once per activation.  Keys use
        binding *identity* (ids pinned via the entry), never value
        equality, so two same-id snapshots with different properties can
        never alias.  Only sound while the graph is frozen for the
        executor's lifetime — which the trigger engine's read-only,
        eagerly drained batch pass guarantees.
        """
        key = self._dependency_key(pattern, row)
        entry = self._match_memo.get(key)
        if entry is None:
            entry = _MatchMemo(
                base=row,
                source=self._iter_pattern_live(pattern, row),
                pins=self._dependency_pins(pattern, row),
            )
            self._match_memo[key] = entry
        index = 0
        while True:
            if index < len(entry.deltas):
                merged = dict(row)
                merged.update(entry.deltas[index])
                index += 1
                yield merged
                continue
            if entry.complete:
                return
            try:
                extended = next(entry.source)
            except StopIteration:
                entry.complete = True
                entry.source = None
                return
            entry.deltas.append(_row_delta(entry.base, extended))

    def _dependency_key(self, pattern: PathPattern, row: dict) -> tuple:
        """Identity-based cache key over a pattern's dependency bindings.

        Shared by the cross-row match memo and the hash-join build cache:
        two rows agreeing (by object identity) on every dependency produce
        identical pattern extensions, so they may share a cache entry —
        provided the keyed objects are pinned (:meth:`_dependency_pins`)
        so their ids cannot be recycled while the entry is alive.
        """
        return (id(pattern),) + tuple(
            (name, id(row[name]))
            for name in self._pattern_dependencies(pattern)
            if name in row
        )

    def _dependency_pins(self, pattern: PathPattern, row: dict) -> list:
        """The binding objects a :meth:`_dependency_key` must keep alive."""
        return [row.get(name) for name in self._pattern_dependencies(pattern)]

    def _pattern_dependencies(self, pattern: PathPattern) -> tuple[str, ...]:
        """Row variables whose bindings can influence matching ``pattern``.

        Its element variables, what its property maps read, and what its
        planned start reads: a seek whose value comes from a WHERE
        equality (``s.id = NEW.station``) narrows the candidates by a row
        value no property map names.
        """
        dependencies = self._match_deps.get(id(pattern))
        if dependencies is None:
            names: set[str] = set()
            for element in pattern.elements:
                if element.variable is not None:
                    names.add(element.variable)
                for _, expr in element.properties:
                    names.update(expression_variable_names(expr))
            pattern_plan = (
                self._plan.for_pattern(pattern) if self._plan is not None else None
            )
            if pattern_plan is not None:
                names.update(pattern_plan.start.reads())
            dependencies = tuple(sorted(names))
            self._match_deps[id(pattern)] = dependencies
        return dependencies

    def _iter_pattern_live(self, pattern: PathPattern, row: dict) -> Iterator[dict]:
        """Uncached matching of ``pattern`` against the live graph."""
        elements = pattern.elements
        access: AccessPath | None = None
        if self._plan is not None:
            pattern_plan = self._plan.for_pattern(pattern)
            if pattern_plan is not None:
                elements = pattern_plan.elements
                access = pattern_plan.start
        if pattern.shortest is not None:
            return self._iter_shortest(pattern, elements, row, access)
        if access is not None and access.kind in (REL_INDEX, BOUND_REL):
            relationships = (
                self._rel_seek_candidates(access, row)
                if access.kind == REL_INDEX
                else self._bound_relationship(access, row)
            )
            if relationships is not None:
                return self._iter_pattern_from_relationships(
                    pattern, elements, relationships, row
                )
            # Index gone or value unusable: degrade to the node-anchored scan.
            access = None
        first = elements[0]
        assert isinstance(first, NodePattern)
        candidates = self._candidate_nodes(first, row, access)
        if len(elements) == 1 and pattern.variable is None:
            if first.variable in row:  # a bound start yields the row itself
                return (dict(bindings) for _, bindings in candidates)
            return map(itemgetter(1), candidates)  # a lone node: its bindings
        return itertools.chain.from_iterable(
            self._extend_path(
                elements, 1, node, bindings, used_rels=set(),
                path_nodes=[node], path_rels=[], pattern=pattern,
            )
            for node, bindings in candidates
        )

    def _rel_seek_candidates(
        self, access: AccessPath, row: dict
    ) -> list[Relationship] | None:
        """Probe the relationship-property index (``None`` forces a scan)."""
        lookup = getattr(self.graph, "relationship_property_index_lookup", None)
        if lookup is None:
            return None
        try:
            value = self._evaluate(access.value, row)
        except (CypherError, TypeError):
            return None
        if value is None:
            return None
        try:
            return lookup(access.rel_type, access.property, value)
        except TypeError:
            # Unhashable probe value: the index cannot answer eagerly.
            return None

    def _bound_relationship(
        self, access: AccessPath, row: dict
    ) -> list[Relationship] | None:
        """The relationship a ``BoundRelationship`` start reads (``None``: scan).

        The same candidate the node-anchored walk would take for the bound
        hop: the live version, or the row's own value once deleted.
        """
        rel = row.get(access.value.name)
        if not isinstance(rel, Relationship):
            return None
        return [self.graph.relationship_or_none(rel.id) or rel]

    def _iter_pattern_from_relationships(
        self,
        pattern: PathPattern,
        elements: Sequence,
        relationships: Iterable[Relationship],
        row: dict,
    ) -> Iterator[dict]:
        """Match a pattern outward from index-seeked first relationships.

        The seeked relationship pins ``elements[0..2]`` — both endpoint
        node patterns are verified exactly as the node-anchored traversal
        would, an undirected pattern tries both orientations (one for a
        self-loop, matching the adjacency scan), and the rest of the
        pattern extends through the ordinary :meth:`_extend_path` walk.
        """
        node_first = elements[0]
        rel_pattern = elements[1]
        node_second = elements[2]
        assert isinstance(node_first, NodePattern)
        assert isinstance(rel_pattern, RelationshipPattern)
        assert isinstance(node_second, NodePattern)
        for rel in relationships:
            if rel_pattern.direction == "out":
                orientations = [(rel.start, rel.end)]
            elif rel_pattern.direction == "in":
                orientations = [(rel.end, rel.start)]
            elif rel.start == rel.end:
                orientations = [(rel.start, rel.end)]
            else:
                orientations = [(rel.start, rel.end), (rel.end, rel.start)]
            for start_id, end_id in orientations:
                if not (self.graph.has_node(start_id) and self.graph.has_node(end_id)):
                    continue
                start_node = self.graph.node(start_id)
                bindings = self._bind_node(node_first, start_node, row)
                if bindings is None:
                    continue
                if not self._relationship_satisfies(rel_pattern, rel, start_node, bindings):
                    continue
                if rel_pattern.variable is not None:
                    existing = bindings.get(rel_pattern.variable)
                    if existing is not None and not _same_item(existing, rel):
                        continue
                    bindings[rel_pattern.variable] = rel
                end_node = self.graph.node(end_id)
                target_bindings = self._bind_node(node_second, end_node, bindings)
                if target_bindings is None:
                    continue
                yield from self._extend_path(
                    elements, 3, end_node, target_bindings, used_rels={rel.id},
                    path_nodes=[start_node, end_node], path_rels=[rel], pattern=pattern,
                )

    # ------------------------------------------------------------------
    # shortestPath
    # ------------------------------------------------------------------
    #
    # Pinned semantics, shared by every route so differential comparison
    # is exact: shortest means fewest relationships; ties break to the
    # lexicographically smallest relationship-id tuple; a start node is
    # never its own target except as the zero-length path when
    # ``min_hops == 0``.  The fast searches only run for ``min_hops`` of 0
    # or 1 (minimal walks are relationship-unique there); a larger minimum
    # or ``naive_paths=True`` takes the enumerating ground-truth route.

    def _iter_shortest(
        self, pattern: PathPattern, elements: Sequence, row: dict,
        access: AccessPath | None,
    ) -> Iterator[dict]:
        source_pattern, rel_pattern, target_pattern = elements
        min_hops = rel_pattern.min_hops if rel_pattern.min_hops is not None else 1
        max_hops = rel_pattern.max_hops if rel_pattern.max_hops is not None else self.max_hops
        if access is not None and access.kind == REL_INDEX:
            access = None
        for node, bindings in self._candidate_nodes(source_pattern, row, access):
            yield from self._shortest_from(
                pattern, rel_pattern, target_pattern, node, bindings,
                min_hops, max_hops,
            )

    def _shortest_from(
        self, pattern, rel_pattern, target_pattern, start, bindings,
        min_hops, max_hops,
    ) -> Iterator[dict]:
        variable = target_pattern.variable
        bound = bindings.get(variable) if variable is not None else None
        fast = not self.naive_paths and min_hops <= 1
        if isinstance(bound, Node):
            if bound.id == start.id:
                if min_hops <= 0:
                    yield from self._emit_shortest(
                        pattern, rel_pattern, target_pattern, start, bindings, ()
                    )
                return
            if fast:
                rels = bidirectional_shortest(
                    start.id,
                    bound.id,
                    self._shortest_expander(rel_pattern, bindings),
                    self._shortest_expander(_flip_direction(rel_pattern), bindings),
                    max_hops,
                )
            else:
                rels = self._shortest_naive(
                    rel_pattern, start, bindings, min_hops, max_hops
                ).get(bound.id)
            if rels is not None:
                yield from self._emit_shortest(
                    pattern, rel_pattern, target_pattern, start, bindings, rels
                )
            return
        if fast:
            best = single_source_shortest(
                start.id, self._shortest_expander(rel_pattern, bindings), max_hops
            )
        else:
            best = self._shortest_naive(
                rel_pattern, start, bindings, min_hops, max_hops
            )
        if min_hops <= 0:
            yield from self._emit_shortest(
                pattern, rel_pattern, target_pattern, start, bindings, ()
            )
        for target_id in sorted(
            best, key=lambda t: (len(best[t]), tuple(r.id for r in best[t]))
        ):
            yield from self._emit_shortest(
                pattern, rel_pattern, target_pattern, start, bindings, best[target_id]
            )

    def _shortest_naive(
        self, rel_pattern, start, bindings, min_hops, max_hops
    ) -> dict[int, tuple]:
        """Ground truth: enumerate every relationship-unique path, keep the
        per-target minimum by (length, relationship-id tuple).

        Depth-first over an explicit stack (one frame per hop, as in
        :meth:`_expand_variable_length_iterative`), so path length is not
        bounded by the interpreter's recursion limit.
        """
        floor = max(min_hops, 1)
        best: dict[int, tuple] = {}
        hops: list[Relationship] = []
        visited: set[int] = set()

        def frame(node: Node) -> tuple[Node, Iterator[Relationship]]:
            return node, iter(self._candidate_relationships(
                rel_pattern, node, bindings, ignore_bound=True
            ))

        stack = [frame(start)] if max_hops > 0 else []
        while stack:
            node, candidates = stack[-1]
            for rel in candidates:
                if rel.id in visited:
                    continue
                other_id = rel.other_end(node.id)
                if not self.graph.has_node(other_id):
                    continue
                hops.append(rel)
                visited.add(rel.id)
                if len(hops) >= floor and other_id != start.id:
                    key = (len(hops), tuple(r.id for r in hops))
                    current = best.get(other_id)
                    if current is None or key < (len(current), tuple(r.id for r in current)):
                        best[other_id] = tuple(hops)
                if len(hops) < max_hops:
                    stack.append(frame(self.graph.node(other_id)))
                    break
                visited.discard(rel.id)
                hops.pop()
            else:
                # Candidates exhausted: retreat over the hop into this node.
                stack.pop()
                if hops:
                    visited.discard(hops.pop().id)
        return best

    def _shortest_expander(self, rel_pattern, bindings):
        """Close pattern predicate filtering over a BFS frontier expansion."""

        def expand(node_id: int):
            if not self.graph.has_node(node_id):
                return
            node = self.graph.node(node_id)
            for rel in self._candidate_relationships(
                rel_pattern, node, bindings, ignore_bound=True
            ):
                other_id = rel.other_end(node_id)
                if self.graph.has_node(other_id):
                    yield rel, other_id

        return expand

    def _emit_shortest(
        self, pattern, rel_pattern, target_pattern, start, bindings, rels
    ) -> Iterator[dict]:
        """Materialise one winning relationship tuple into a result row."""
        nodes = [start]
        for rel in rels:
            next_id = rel.other_end(nodes[-1].id)
            if not self.graph.has_node(next_id):
                return
            nodes.append(self.graph.node(next_id))
        target_bindings = self._bind_node(target_pattern, nodes[-1], bindings)
        if target_bindings is None:
            return
        final = dict(target_bindings)
        if rel_pattern.variable is not None:
            final[rel_pattern.variable] = list(rels)
        if pattern.variable is not None:
            final[pattern.variable] = Path(nodes, list(rels))
        yield final

    def _extend_path(
        self,
        elements: Sequence,
        index: int,
        current_node: Node,
        bindings: dict,
        used_rels: set[int],
        path_nodes: list[Node],
        path_rels: list[Relationship],
        pattern: PathPattern,
    ) -> Iterator[dict]:
        if index >= len(elements):
            if pattern.variable is not None:
                bindings = {**bindings, pattern.variable: Path(path_nodes, path_rels)}
            yield bindings
            return
        rel_pattern = elements[index]
        node_pattern = elements[index + 1]
        assert isinstance(rel_pattern, RelationshipPattern)
        assert isinstance(node_pattern, NodePattern)
        if rel_pattern.is_variable_length:
            yield from self._expand_variable_length(
                rel_pattern, node_pattern, elements, index, current_node, bindings,
                used_rels, path_nodes, path_rels, pattern,
            )
            return
        # Nothing after a path's last hop reads the used set or the path.
        last = index + 2 >= len(elements) and pattern.variable is None
        for rel in self._candidate_relationships(rel_pattern, current_node, bindings):
            if rel.id in used_rels:
                continue
            other = self.graph.node_or_none(rel.other_end(current_node.id))
            if other is None:
                continue
            new_bindings = self._bind_node(node_pattern, other, bindings)
            if new_bindings is None:
                continue
            if rel_pattern.variable is not None:
                if rel_pattern.variable in new_bindings and not _same_item(
                    new_bindings[rel_pattern.variable], rel
                ):
                    continue
                new_bindings[rel_pattern.variable] = rel
            if last:
                yield new_bindings
                continue
            yield from self._extend_path(
                elements, index + 2, other, new_bindings, used_rels | {rel.id},
                path_nodes + [other], path_rels + [rel], pattern,
            )

    def _expand_variable_length(
        self, rel_pattern, node_pattern, elements, index, current_node, bindings,
        used_rels, path_nodes, path_rels, pattern,
    ) -> Iterator[dict]:
        """Dispatch one ``-[:T*min..max]-`` hop to its route.

        Both routes produce identical rows in identical order (the naive
        recursive enumerator's DFS preorder, candidates in relationship-id
        order); the differential property suites hold them to that.
        ``naive_paths=True`` pins the recursive ground truth; otherwise the
        iterative walk runs.
        """
        min_hops = rel_pattern.min_hops if rel_pattern.min_hops is not None else 1
        max_hops = rel_pattern.max_hops if rel_pattern.max_hops is not None else self.max_hops
        route = (
            self._expand_variable_length_naive
            if self.naive_paths
            else self._expand_variable_length_iterative
        )
        yield from route(
            rel_pattern, node_pattern, elements, index, current_node, bindings,
            used_rels, path_nodes, path_rels, pattern, min_hops, max_hops,
        )

    def _expand_variable_length_naive(
        self, rel_pattern, node_pattern, elements, index, current_node, bindings,
        used_rels, path_nodes, path_rels, pattern, min_hops, max_hops,
    ) -> Iterator[dict]:
        """The recursive ground-truth enumerator (differential baseline).

        ``trail`` carries the target node of every hop taken so far, so a
        named path binds its intermediate nodes (and a zero-hop match does
        not duplicate the start node).
        """

        def recurse(
            node: Node,
            hops: list[Relationship],
            trail: list[Node],
            visited_rels: set[int],
        ) -> Iterator[dict]:
            if len(hops) >= min_hops:
                target_bindings = self._bind_node(node_pattern, node, bindings)
                if target_bindings is not None:
                    final_bindings = dict(target_bindings)
                    if rel_pattern.variable is not None:
                        final_bindings[rel_pattern.variable] = list(hops)
                    yield from self._extend_path(
                        elements, index + 2, node, final_bindings,
                        used_rels | visited_rels,
                        path_nodes + trail, path_rels + list(hops), pattern,
                    )
            if len(hops) >= max_hops:
                return
            for rel in self._candidate_relationships(rel_pattern, node, bindings, ignore_bound=True):
                if rel.id in visited_rels or rel.id in used_rels:
                    continue
                other_id = rel.other_end(node.id)
                if not self.graph.has_node(other_id):
                    continue
                other = self.graph.node(other_id)
                yield from recurse(
                    other, hops + [rel], trail + [other], visited_rels | {rel.id}
                )

        yield from recurse(current_node, [], [], set())

    def _expand_variable_length_iterative(
        self, rel_pattern, node_pattern, elements, index, current_node, bindings,
        used_rels, path_nodes, path_rels, pattern, min_hops, max_hops,
    ) -> Iterator[dict]:
        """Iterative DFS reproducing the naive enumerator's exact preorder.

        One running ``hops``/``trail``/``visited`` state mutated on
        push/pop replaces the naive route's per-level list and set copies
        and its O(depth) chain of suspended generator frames; snapshots are
        only taken at emission time, where the naive route copies too.
        """
        hops: list[Relationship] = []
        trail: list[Node] = []
        visited: set[int] = set()
        last = index + 2 >= len(elements) and pattern.variable is None

        def emit(node: Node) -> Iterator[dict]:
            target_bindings = self._bind_node(node_pattern, node, bindings)
            if target_bindings is None:
                return iter(())
            if rel_pattern.variable is not None:
                target_bindings[rel_pattern.variable] = list(hops)
            if last:
                return iter((target_bindings,))
            return self._extend_path(
                elements, index + 2, node, target_bindings, used_rels | visited,
                path_nodes + trail, path_rels + list(hops), pattern,
            )

        if min_hops <= 0:
            yield from emit(current_node)
        if max_hops <= 0:
            return
        stack: list[tuple[Node, Optional[Relationship], Iterator[Relationship]]] = [
            (
                current_node,
                None,
                iter(self._candidate_relationships(
                    rel_pattern, current_node, bindings, ignore_bound=True
                )),
            )
        ]
        while stack:
            node, rel_in, candidates = stack[-1]
            descended = False
            for rel in candidates:
                if rel.id in visited or rel.id in used_rels:
                    continue
                other = self.graph.node_or_none(rel.other_end(node.id))
                if other is None:
                    continue
                hops.append(rel)
                trail.append(other)
                visited.add(rel.id)
                if len(hops) >= min_hops:
                    yield from emit(other)
                if len(hops) < max_hops:
                    stack.append((
                        other,
                        rel,
                        iter(self._candidate_relationships(
                            rel_pattern, other, bindings, ignore_bound=True
                        )),
                    ))
                    descended = True
                    break
                # Max depth: this hop is a leaf — retreat without a frame.
                visited.discard(rel.id)
                hops.pop()
                trail.pop()
            if not descended:
                stack.pop()
                if rel_in is not None:
                    visited.discard(rel_in.id)
                    hops.pop()
                    trail.pop()

    def _candidate_nodes(
        self,
        node_pattern: NodePattern,
        row: dict,
        access: AccessPath | None = None,
    ) -> Iterator[tuple[Node, dict]]:
        """Yield (node, updated bindings) pairs satisfying ``node_pattern``.

        A variable the row binds yields that node only, with the row itself
        rather than a copy; bound to null, it yields nothing.
        """
        variable = node_pattern.variable
        if variable is not None and variable in row:
            bound = row[variable]
            if bound is None:
                return
            if not isinstance(bound, Node):
                raise CypherTypeError(f"variable {variable!r} is not bound to a node")
            refreshed = self.graph.node(bound.id) if self.graph.has_node(bound.id) else bound
            if self._node_satisfies(node_pattern, refreshed, row):
                yield refreshed, row  # a hop's _bind_node copies it
            return
        nodes, scanned = self._scan_nodes(node_pattern, row, access)
        tests = None
        if access is not None and access.filter is not None:
            tests = access.filter.bind(self.parameters)
        if tests is None:
            nodes = (node for node in nodes if self._node_satisfies(node_pattern, node, row))
            tests = others = ()
        else:
            # The store's scanned label needs no second look.
            others = [label for label in node_pattern.labels if label != scanned]
        virtual = self.virtual_labels
        for node in nodes:
            properties = node.properties
            for key, test, missing in tests:
                if not test(properties.get(key, missing)):
                    break
            else:
                if others and not all(
                    node.id in virtual[label] if label in virtual else label in node.labels
                    for label in others
                ):
                    continue
                bindings = dict(row)
                if variable is not None:
                    bindings[variable] = node
                yield node, bindings

    def _scan_nodes(
        self,
        node_pattern: NodePattern,
        row: dict,
        access: AccessPath | None = None,
    ) -> tuple[Iterable[Node], str | None]:
        """Pick the cheapest starting candidate set for a node pattern.

        A planned access path is advisory: every candidate it produces is
        still checked against the pattern (and any WHERE clause), so an
        index path can only narrow the candidate set, never change the
        result.  When the index is gone or the looked-up value is null the
        path degrades to the unplanned logic below.  Also returns the
        label a label scan guarantees.
        """
        hit = None
        if access is not None and access.kind == INDEX:
            try:
                value = self._evaluate(access.value, row)
                if value is not None:
                    hit = self.graph.property_index_lookup(access.label, access.property, value)
            except (TypeError, CypherError):
                # Unhashable value (dict, set, …), a missing parameter or a
                # value that fails to evaluate (``row.k`` on an integer):
                # the probe cannot run eagerly.  Fall back to the scan
                # below, which reproduces the unplanned semantics — the
                # WHERE/property re-check raises (or filters) per candidate
                # exactly as it did before planning existed.
                hit = None
        elif access is not None and access.kind == COMPOSITE:
            hit = self._composite_seek_candidates(access, row)
        elif access is not None and access.kind == IN_LIST:
            hit = self._in_seek_candidates(access, row)
        elif access is not None and access.kind == RANGE:
            hit = self._range_seek_candidates(access, row)
        elif access is not None and access.kind == ORDERED:
            hit = self._ordered_scan_candidates(access)
            if hit is None:
                # Index dropped or mixed-typed since planning: the label
                # scan below is correct but unordered, so the projection
                # must sort.
                self._presorted_ok = False
        if hit is not None:
            return hit, None
        for label in node_pattern.labels:
            if label in self.virtual_labels:
                ids = self.virtual_labels[label]
                return [self.graph.node(i) for i in sorted(ids) if self.graph.has_node(i)], label
        if node_pattern.labels:
            best = min(node_pattern.labels, key=self.graph.count_nodes_with_label)
            return self.graph.nodes_with_label(best), best
        return self.graph.nodes(), None

    def _composite_seek_candidates(self, access: AccessPath, row: dict) -> list[Node] | None:
        """Composite-index probe: every property pinned at once.

        Falls back to scanning (``None``) whenever the probe cannot
        reproduce scan semantics: a value fails to evaluate or is null
        (null never equality-matches), a value is unhashable, or the
        index has been dropped since planning.
        """
        lookup = getattr(self.graph, "composite_index_lookup", None)
        if lookup is None:
            return None
        values: list[Any] = []
        for expr in access.values:
            try:
                value = self._evaluate(expr, row)
            except (CypherError, TypeError):
                return None
            if value is None:
                return None
            values.append(value)
        try:
            return lookup(access.label, access.properties, tuple(values))
        except TypeError:
            return None

    def _ordered_scan_candidates(self, access: AccessPath) -> list[Node] | None:
        """Key-ordered label members from the ordered index (``None``: scan).

        The store declines (returns ``None``) when the index is gone or
        holds mixed type classes; candidates with the property unset come
        last in both directions, matching ``_SortValue``'s null-last rule.
        """
        scan = getattr(self.graph, "ordered_label_scan", None)
        if scan is None:
            return None
        return scan(access.label, access.property, access.descending)

    def _in_seek_candidates(self, access: AccessPath, row: dict) -> list[Node] | None:
        """IN-list seek: the union of one equality probe per list element.

        Returns ``None`` — fall back to scanning — whenever the seek cannot
        reproduce scan semantics exactly: the list expression fails to
        evaluate, is not a list (the live ``IN`` raises per candidate), an
        element is unhashable, or the index has been dropped.  Null
        elements are skipped: under three-valued logic they can only turn
        a non-match into ``null``, never admit a row.
        """
        try:
            values = self._evaluate(access.value, row)
        except (CypherError, TypeError):
            return None
        if not isinstance(values, (list, tuple)):
            return None
        nodes: dict[int, Node] = {}
        for element in values:
            if element is None:
                continue
            try:
                hit = self.graph.property_index_lookup(access.label, access.property, element)
            except TypeError:
                return None
            if hit is None:
                return None
            for node in hit:
                nodes[node.id] = node
        return [nodes[node_id] for node_id in sorted(nodes)]

    def _range_seek_candidates(self, access: AccessPath, row: dict) -> list[Node] | None:
        """Range seek over the ordered index (``None`` forces a scan).

        A ``None`` bound value falls back too: ``n.v > null`` is null for
        every candidate, and sibling WHERE conjuncts must still see those
        candidates (they may raise, exactly as an unplanned scan would).
        The store itself returns ``None`` when entries of a foreign type
        class exist — a scan would raise comparing them with the bound.
        """
        lookup = getattr(self.graph, "range_index_lookup", None)
        if lookup is None:
            return None
        lower = upper = None
        try:
            if access.lower is not None:
                lower = self._evaluate(access.lower, row)
                if lower is None:
                    return None
            if access.upper is not None:
                upper = self._evaluate(access.upper, row)
                if upper is None:
                    return None
        except (CypherError, TypeError):
            return None
        try:
            return lookup(
                access.label,
                access.property,
                lower,
                upper,
                access.include_lower,
                access.include_upper,
            )
        except TypeError:
            return None

    def _node_satisfies(self, node_pattern: NodePattern, node: Node, row: dict) -> bool:
        for label in node_pattern.labels:
            if label in self.virtual_labels:
                if node.id not in self.virtual_labels[label]:
                    return False
            elif label not in node.labels:
                return False
        if node_pattern.properties:
            context = self._context()
            for key, value in compile_map_entries(node_pattern):
                if not map_value_matches(node.properties.get(key), value(row, context)):
                    return False
        return True

    def _bind_node(self, node_pattern: NodePattern, node: Node, bindings: dict) -> dict | None:
        """Check ``node`` against the pattern and return extended bindings (or None).

        A variable bound to null (or to anything but this node) rejects it.
        """
        variable = node_pattern.variable
        if variable is not None and variable in bindings:
            existing = bindings[variable]
            if not isinstance(existing, Node) or existing.id != node.id:
                return None
        if not self._node_satisfies(node_pattern, node, bindings):
            return None
        new_bindings = dict(bindings)
        if variable is not None:
            new_bindings[variable] = node
        return new_bindings

    def _candidate_relationships(
        self,
        rel_pattern: RelationshipPattern,
        node: Node,
        bindings: dict,
        ignore_bound: bool = False,
    ) -> list[Relationship]:
        """The relationships a hop from ``node`` may take, in id order.

        Typed adjacency guarantees endpoint, direction and type; only a bound
        relationship and a virtual (transition) type are checked for them.
        """
        variable = rel_pattern.variable
        bound = bindings.get(variable) if variable is not None and not ignore_bound else None
        direction = rel_pattern.direction
        types = rel_pattern.types
        virtual = self.virtual_labels
        checked = isinstance(bound, Relationship) or (
            bool(virtual) and any(t in virtual for t in types)
        )
        try:
            if isinstance(bound, Relationship):
                candidates = [self.graph.relationship_or_none(bound.id) or bound]
            elif checked or not types:
                candidates = self.graph.relationships_of(node.id, direction)
            elif len(types) == 1:
                candidates = self.graph.relationships_of(node.id, direction, types[0])
            else:  # [:A|B]: one list per type, merged in id order
                candidates = sorted(
                    (rel for rel_type in dict.fromkeys(types)
                     for rel in self.graph.relationships_of(node.id, direction, rel_type)),
                    key=attrgetter("id"),
                )
        except NodeNotFoundError:
            # A node deleted earlier in the transaction has no relationships.
            return []
        if checked:
            return [
                rel for rel in candidates
                if self._relationship_satisfies(rel_pattern, rel, node, bindings)
            ]
        if rel_pattern.properties:
            return [
                rel for rel in candidates
                if self._relationship_map_matches(rel_pattern, rel, bindings)
            ]
        return candidates

    def _relationship_satisfies(
        self, rel_pattern: RelationshipPattern, rel: Relationship, node: Node, bindings: dict
    ) -> bool:
        if rel.start != node.id and rel.end != node.id:
            return False
        if rel_pattern.direction == "out" and rel.start != node.id:
            return False
        if rel_pattern.direction == "in" and rel.end != node.id:
            return False
        if rel_pattern.types:
            virtual_hit = any(
                t in self.virtual_labels and rel.id in self.virtual_labels[t]
                for t in rel_pattern.types
            )
            if not virtual_hit and rel.type not in rel_pattern.types:
                return False
        return self._relationship_map_matches(rel_pattern, rel, bindings)

    def _relationship_map_matches(
        self, rel_pattern: RelationshipPattern, rel: Relationship, bindings: dict
    ) -> bool:
        for key, expr in rel_pattern.properties:
            expected = self._evaluate(expr, bindings)
            if not map_value_matches(rel.properties.get(key), expected):
                return False
        return True

    # ------------------------------------------------------------------
    # UNWIND
    # ------------------------------------------------------------------

    def _iter_unwind(self, clause: UnwindClause, rows: Iterator[dict]) -> Iterator[dict]:
        for row in rows:
            value = self._evaluate(clause.expression, row)
            if value is None:
                continue
            elements = value if isinstance(value, (list, tuple)) else [value]
            for element in elements:
                new_row = dict(row)
                new_row[clause.variable] = element
                yield new_row

    # ------------------------------------------------------------------
    # WITH / RETURN (projection and aggregation)
    # ------------------------------------------------------------------

    def _projection(
        self, clause: WithClause | ReturnClause, rows: Iterator[dict]
    ) -> tuple[list[str], Iterator[dict]]:
        """The one WITH/RETURN stage: ``(columns, projected rows)``.

        STREAM and TOPK clauses stay lazy: nothing, not even SKIP/LIMIT,
        is evaluated before the first pull.  AGGREGATE, WILDCARD and SORT
        clauses, and every clause under ``eager``, drain their input and
        compute their whole output (WITH's WHERE included) right here.
        """
        plan = self._projection_plan(clause)
        lazy = not self.eager and plan.mode in (STREAM, TOPK)
        wildcard_names: list[str] = []
        if not lazy:
            rows = list(rows)
            if clause.include_wildcard:
                wildcard_names = list(dict.fromkeys(name for row in rows for name in row))
        columns = wildcard_names + [item.output_name() for item in clause.items]
        out = self._projected_rows(clause, plan, rows, wildcard_names, lazy)
        where = clause.where if isinstance(clause, WithClause) else None
        if where is not None:
            out = (row for row in out if self._evaluate(where, row) is True)
        return columns, out if lazy else iter(list(out))

    def _projection_plan(self, clause: WithClause | ReturnClause) -> ProjectionPlan:
        """The planner's plan for this projection.

        A clause the planner never saw (a WITH inside a FOREACH body) is
        planned on the spot by the same rule.
        """
        if self._plan is not None and self._plan.has_projection_plans:
            projection = self._plan.projection_for(clause)
            if projection is not None:
                return projection
        return _plan_projection(clause)

    def _projected_rows(
        self,
        clause: WithClause | ReturnClause,
        plan: ProjectionPlan,
        rows: Iterable[dict],
        wildcard_names: list[str],
        lazy: bool,
    ) -> Iterator[dict]:
        """SKIP/LIMIT, project (or aggregate), DISTINCT, order, slice.

        Materialising, every row is projected before the slice and the
        ORDER BY is a full sort (skipped only when an ordered scan really
        served the input).  Lazily, a TOPK clause keeps ``skip+limit``
        pairs and a STREAM clause stops pulling once its slice is out.
        """
        skip = max(0, int(self._evaluate(clause.skip, {}))) if clause.skip is not None else 0
        limit = max(0, int(self._evaluate(clause.limit, {}))) if clause.limit is not None else None
        if lazy and limit == 0:
            return  # pull no input row (``islice`` would pull ``skip`` of them)
        if plan.mode == AGGREGATE:
            aggregates = _collect_aggregates(clause.items)
            pairs: Iterable[tuple[dict, dict]] = self._project_with_aggregation(
                clause.items, wildcard_names, aggregates, rows
            )
        else:
            pairs = self._project_rows(clause.items, wildcard_names, rows)
        if clause.distinct:
            pairs = _distinct_pairs(pairs)
        if not lazy:
            pairs = list(pairs)
            if clause.order_by and not (plan.presorted and self._presorted_ok):
                pairs.sort(key=self._sort_key(clause.order_by))
        elif plan.mode == TOPK:
            pairs = self._top_pairs(plan, pairs, skip + limit)
        stop = None if limit is None else skip + limit
        for projected, _ in itertools.islice(pairs, skip, stop):
            yield projected

    def _project_rows(
        self,
        items: Sequence[ProjectionItem],
        wildcard_names: list[str],
        rows: Iterable[dict],
    ) -> Iterator[tuple[dict, dict]]:
        """``(projected, source)`` per row: the ``*`` columns, then the items."""
        context = self._context()
        compiled = [(item.output_name(), compile_expression(item.expression)) for item in items]
        for row in rows:
            out: dict[str, Any] = {}
            for name in wildcard_names:
                out[name] = row.get(name)
            for name, value_of in compiled:
                out[name] = value_of(row, context)
            yield out, row

    def _top_pairs(
        self, plan: ProjectionPlan, pairs: Iterator[tuple[dict, dict]], keep: int
    ) -> Iterator[tuple[dict, dict]]:
        """TopK: the first ``keep`` pairs in ORDER BY order, found at the first pull.

        Over input an ordered scan already sorted there is no heap.  With
        ``early_exit`` (every projection expression evaluation-safe) the
        pairs pass straight through, so the caller's slice stops pulling
        input after ``keep`` rows.  Without it every row is still projected
        before anything is yielded, so an expression that raises past LIMIT
        surfaces as the heap would surface it.  Otherwise
        ``heapq.nsmallest``, documented to equal ``sorted(...)[:keep]``
        including stability, keeps O(keep) pairs.
        """
        if plan.presorted and self._presorted_ok:
            # Peek one pair first: producing it forces the MATCH stage to
            # pick its start operator, so ``_presorted_ok`` is final.
            first = next(pairs, _NO_ROW)
            if first is _NO_ROW:
                return
            pairs = itertools.chain([first], pairs)
            if self._presorted_ok:
                if plan.early_exit:
                    yield from pairs
                    return
                kept = list(itertools.islice(pairs, keep))
                for _ in pairs:  # project the rest: an error past LIMIT must surface
                    pass
                yield from kept
                return
        yield from heapq.nsmallest(keep, pairs, key=self._sort_key(plan.clause.order_by))

    def _sort_key(self, order_by: Sequence[SortItem]) -> Callable[[tuple[dict, dict]], list]:
        context = self._context()
        keys = [(compile_expression(item.expression), item.descending) for item in order_by]

        def sort_key(pair: tuple[dict, dict]) -> list:
            projected, source = pair
            # ORDER BY may refer both to projected aliases and to the
            # pre-projection variables (as in openCypher); projected names win.
            scope = {**source, **projected}
            return [
                _SortValue(value_of(scope, context), descending) for value_of, descending in keys
            ]

        return sort_key

    def _project_with_aggregation(
        self,
        items: Sequence[ProjectionItem],
        wildcard_names: Sequence[str],
        aggregates: list[Expression],
        rows: list[dict],
    ) -> list[tuple[dict, dict]]:
        if wildcard_names:
            raise UnsupportedFeatureError("WITH */RETURN * cannot be combined with aggregation")
        grouping_items = [
            item for item in items if not contains_aggregate(item.expression)
        ]
        groups: dict[tuple, dict] = {}
        group_rows: dict[tuple, list[dict]] = {}
        for row in rows:
            key_values = tuple(
                _hashable(self._evaluate(item.expression, row)) for item in grouping_items
            )
            if key_values not in groups:
                groups[key_values] = row
                group_rows[key_values] = []
            group_rows[key_values].append(row)
        # A pure-aggregate projection over zero rows still yields one row
        # (e.g. ``RETURN count(*)`` on an empty match gives 0).
        if not groups and not grouping_items:
            groups[()] = {}
            group_rows[()] = []

        pairs: list[tuple[dict, dict]] = []
        for key, representative in groups.items():
            lookup: dict[int, Any] = {}
            for aggregate in aggregates:
                lookup[id(aggregate)] = self._run_aggregator(aggregate, group_rows[key])
            out: dict[str, Any] = {}
            for item in items:
                out[item.output_name()] = self._evaluate(
                    item.expression, representative, aggregate_lookup=lookup
                )
            pairs.append((out, representative))
        return pairs

    def _run_aggregator(self, aggregate: Expression, rows: list[dict]) -> Any:
        if isinstance(aggregate, CountStar):
            return len(rows)
        assert isinstance(aggregate, FunctionCall)
        factory = AGGREGATE_FUNCTIONS[aggregate.name]
        aggregator = factory(aggregate.distinct)
        argument = aggregate.args[0] if aggregate.args else None
        for row in rows:
            value = self._evaluate(argument, row) if argument is not None else 1
            aggregator.update(value)
        return aggregator.result()

    # ------------------------------------------------------------------
    # CREATE / MERGE
    # ------------------------------------------------------------------

    def _execute_create(self, clause: CreateClause, rows: list[dict]) -> list[dict]:
        output = []
        for row in rows:
            current = dict(row)
            for pattern in clause.patterns:
                current = self._create_pattern(pattern, current)
            output.append(current)
        return output

    def _create_pattern(self, pattern: PathPattern, row: dict) -> dict:
        bindings = dict(row)
        elements = pattern.elements
        previous_node: Node | None = None
        index = 0
        while index < len(elements):
            node_pattern = elements[index]
            assert isinstance(node_pattern, NodePattern)
            node = self._resolve_or_create_node(node_pattern, bindings)
            if index > 0:
                rel_pattern = elements[index - 1]
                assert isinstance(rel_pattern, RelationshipPattern)
                self._create_relationship(rel_pattern, previous_node, node, bindings)
            previous_node = node
            index += 2
        return bindings

    def _resolve_or_create_node(self, node_pattern: NodePattern, bindings: dict) -> Node:
        variable = node_pattern.variable
        if variable is not None and bindings.get(variable) is not None:
            existing = bindings[variable]
            if not isinstance(existing, Node):
                raise CypherTypeError(f"variable {variable!r} is not bound to a node")
            return self.graph.node(existing.id) if self.graph.has_node(existing.id) else existing
        properties = {
            key: self._evaluate(expr, bindings) for key, expr in node_pattern.properties
        }
        node = self.transaction.create_node(node_pattern.labels, properties)
        stats = self.last_statistics
        stats.nodes_created += 1
        stats.labels_added += len(node_pattern.labels)
        stats.properties_set += len([v for v in properties.values() if v is not None])
        if variable is not None:
            bindings[variable] = node
        return node

    def _create_relationship(
        self, rel_pattern: RelationshipPattern, left: Node, right: Node, bindings: dict
    ) -> Relationship:
        if rel_pattern.is_variable_length:
            raise UnsupportedFeatureError("cannot CREATE variable-length relationships")
        if len(rel_pattern.types) != 1:
            raise CypherRuntimeError("CREATE requires exactly one relationship type")
        if rel_pattern.direction == "in":
            start, end = right, left
        else:
            # Undirected create defaults to left-to-right, as in Neo4j.
            start, end = left, right
        properties = {
            key: self._evaluate(expr, bindings) for key, expr in rel_pattern.properties
        }
        rel = self.transaction.create_relationship(
            rel_pattern.types[0], start.id, end.id, properties
        )
        stats = self.last_statistics
        stats.relationships_created += 1
        stats.properties_set += len([v for v in properties.values() if v is not None])
        if rel_pattern.variable is not None:
            bindings[rel_pattern.variable] = rel
        return rel

    def _execute_merge(self, clause: MergeClause, rows: list[dict]) -> list[dict]:
        output: list[dict] = []
        for row in rows:
            matches = self._match_pattern(clause.pattern, dict(row))
            if matches:
                output.extend(matches)
            else:
                output.append(self._create_pattern(clause.pattern, dict(row)))
        return output

    # ------------------------------------------------------------------
    # SET / REMOVE / DELETE / FOREACH / CALL
    # ------------------------------------------------------------------

    def _resolve_item(self, row: dict, name: str) -> Node | Relationship | None:
        if name not in row:
            raise CypherRuntimeError(f"unknown variable {name!r}")
        item = row[name]
        if item is None:
            return None
        if not isinstance(item, (Node, Relationship)):
            raise CypherTypeError(f"variable {name!r} is not a node or relationship")
        return item

    def _execute_set(self, clause: SetClause, rows: list[dict]) -> list[dict]:
        stats = self.last_statistics
        for row in rows:
            for item in clause.items:
                if isinstance(item, SetPropertyItem):
                    target = self._resolve_item(row, item.subject)
                    if target is None:
                        continue
                    value = self._evaluate(item.value, row)
                    self._set_property(target, item.key, value)
                elif isinstance(item, SetLabelsItem):
                    target = self._resolve_item(row, item.subject)
                    if target is None:
                        continue
                    if not isinstance(target, Node):
                        raise CypherTypeError("labels can only be set on nodes")
                    for label in item.labels:
                        already = label in self._current_snapshot(target).labels
                        self.transaction.add_label(target.id, label)
                        if not already:
                            stats.labels_added += 1
                elif isinstance(item, SetFromMapItem):
                    target = self._resolve_item(row, item.subject)
                    if target is None:
                        continue
                    value = self._evaluate(item.value, row)
                    if not isinstance(value, Mapping):
                        raise CypherTypeError("SET … = / += requires a map value")
                    self._set_from_map(target, value, replace=item.replace)
                self._refresh_binding(row, item.subject)
        return rows

    def _refresh_binding(self, row: dict, name: str) -> None:
        """Re-bind ``name`` to the item's current snapshot after a write.

        Snapshots are immutable, so later expressions in the same query would
        otherwise keep seeing pre-write values.
        """
        item = row.get(name)
        if isinstance(item, Node) and self.graph.has_node(item.id):
            row[name] = self.graph.node(item.id)
        elif isinstance(item, Relationship) and self.graph.has_relationship(item.id):
            row[name] = self.graph.relationship(item.id)

    def _current_snapshot(self, target: Node | Relationship) -> Node | Relationship:
        """The store's current snapshot of ``target`` (or ``target`` if gone)."""
        if isinstance(target, Node):
            if self.graph.has_node(target.id):
                return self.graph.node(target.id)
        elif self.graph.has_relationship(target.id):
            return self.graph.relationship(target.id)
        return target

    def _set_property(self, target: Node | Relationship, key: str, value: Any) -> None:
        stats = self.last_statistics
        if value is None:
            # Removing an absent property is a no-op and must not count
            # (removal counters drive ResultSummary / trigger accounting).
            present = key in self._current_snapshot(target).properties
            if isinstance(target, Node):
                self.transaction.remove_node_property(target.id, key)
            else:
                self.transaction.remove_relationship_property(target.id, key)
            if present:
                stats.properties_removed += 1
        else:
            if isinstance(target, Node):
                self.transaction.set_node_property(target.id, key, value)
            else:
                self.transaction.set_relationship_property(target.id, key, value)
            stats.properties_set += 1

    def _set_from_map(self, target: Node | Relationship, value: Mapping, replace: bool) -> None:
        if replace:
            current = self.graph.node(target.id) if isinstance(target, Node) else (
                self.graph.relationship(target.id)
            )
            for key in list(current.properties):
                if key not in value:
                    self._set_property(target, key, None)
        for key, entry in value.items():
            self._set_property(target, key, entry)

    def _execute_remove(self, clause: RemoveClause, rows: list[dict]) -> list[dict]:
        stats = self.last_statistics
        for row in rows:
            for item in clause.items:
                target = self._resolve_item(row, item.subject)
                if target is None:
                    continue
                if isinstance(item, RemovePropertyItem):
                    self._set_property(target, item.key, None)
                elif isinstance(item, RemoveLabelsItem):
                    if not isinstance(target, Node):
                        raise CypherTypeError("labels can only be removed from nodes")
                    for label in item.labels:
                        present = label in self._current_snapshot(target).labels
                        self.transaction.remove_label(target.id, label)
                        if present:
                            stats.labels_removed += 1
                self._refresh_binding(row, item.subject)
        return rows

    def _execute_delete(self, clause: DeleteClause, rows: list[dict]) -> list[dict]:
        stats = self.last_statistics
        deleted_nodes: set[int] = set()
        deleted_rels: set[int] = set()
        for row in rows:
            for expr in clause.expressions:
                value = self._evaluate(expr, row)
                items = value if isinstance(value, (list, tuple)) else [value]
                for item in items:
                    if item is None:
                        continue
                    if isinstance(item, Relationship):
                        if item.id not in deleted_rels and self.graph.has_relationship(item.id):
                            self.transaction.delete_relationship(item.id)
                            deleted_rels.add(item.id)
                            stats.relationships_deleted += 1
                    elif isinstance(item, Node):
                        if item.id in deleted_nodes or not self.graph.has_node(item.id):
                            continue
                        before = self.graph.relationship_count()
                        self.transaction.delete_node(item.id, detach=clause.detach)
                        deleted_nodes.add(item.id)
                        stats.nodes_deleted += 1
                        stats.relationships_deleted += before - self.graph.relationship_count()
                    else:
                        raise CypherTypeError("DELETE expects nodes or relationships")
        return rows

    def _execute_foreach(self, clause: ForeachClause, rows: list[dict]) -> list[dict]:
        for row in rows:
            source = self._evaluate(clause.source, row)
            if source is None:
                continue
            if not isinstance(source, (list, tuple)):
                raise CypherTypeError("FOREACH requires a list")
            for element in source:
                scoped = dict(row)
                scoped[clause.variable] = element
                inner_rows = [scoped]
                for inner in clause.body:
                    inner_rows = self._execute_clause(inner, inner_rows)
        return rows

    def _execute_call(self, clause: CallClause, rows: list[dict]) -> list[dict]:
        implementation = self.procedures.get(clause.procedure)
        if implementation is None:
            raise UnsupportedFeatureError(
                f"procedure {clause.procedure!r} is not registered with this executor"
            )
        output: list[dict] = []
        for row in rows:
            arguments = [self._evaluate(arg, row) for arg in clause.arguments]
            invocation = ProcedureInvocation(self, dict(row))
            yielded = implementation(arguments, invocation)
            for produced in yielded:
                new_row = dict(row)
                if clause.yield_items:
                    for name, alias in clause.yield_items:
                        new_row[alias] = produced.get(name)
                else:
                    new_row.update(produced)
                output.append(new_row)
        return output


# ---------------------------------------------------------------------------
# module-level helpers
# ---------------------------------------------------------------------------


class _MatchMemo:
    """One memoized pattern extension set (see ``_iter_pattern_memoized``).

    ``deltas`` grows lazily from ``source`` (the live match generator of
    the first row that needed this key) until ``complete``; ``base`` is
    that first row, against which deltas are computed; ``pins`` keeps the
    keyed binding objects alive so their ids cannot be recycled while the
    entry can still be hit.
    """

    __slots__ = ("base", "source", "pins", "deltas", "complete")

    def __init__(self, base: dict, source: Iterator[dict], pins: list) -> None:
        self.base = base
        self.source: Iterator[dict] | None = source
        self.pins = pins
        self.deltas: list[dict] = []
        self.complete = False


class _JoinTable:
    """The materialised build side of one disconnected join step.

    Rows are stored as deltas against the build row.  With hash keys the
    deltas are additionally bucketed by their build-key values
    (``_hashable``-normalised, so node/relationship identity matches the
    executor's equality semantics); without keys — or whenever a key fails
    to evaluate or hash on either side — matching degrades to scanning
    every delta, which keeps the join a strict superset of what the WHERE
    clause will accept.  ``pins`` keeps the dependency bindings alive so
    the id()-based cache key can never alias recycled objects.
    """

    __slots__ = ("keys", "buckets", "deltas", "overflow", "pins")

    def __init__(self, keys: tuple) -> None:
        self.keys = keys
        self.buckets: dict[tuple, list[dict]] | None = {} if keys else None
        self.deltas: list[dict] = []
        self.overflow: list[dict] = []
        self.pins: list = []

    def insert(self, executor: "QueryExecutor", delta: dict, full_row: dict) -> None:
        self.deltas.append(delta)
        if not self.keys:
            return
        try:
            key = tuple(
                _hashable(executor._evaluate(build, full_row)) for _, build in self.keys
            )
            hash(key)
        except (CypherError, TypeError):
            self.overflow.append(delta)
            return
        self.buckets.setdefault(key, []).append(delta)

    def probe(self, executor: "QueryExecutor", row: dict) -> Iterable[dict]:
        """Deltas that may join with ``row`` (a superset of WHERE's matches)."""
        if not self.keys:
            return self.deltas
        try:
            key = tuple(
                _hashable(executor._evaluate(probe, row)) for probe, _ in self.keys
            )
            hash(key)
        except (CypherError, TypeError):
            return self.deltas
        bucket = self.buckets.get(key, ())
        if self.overflow:
            return itertools.chain(bucket, self.overflow)
        return bucket



#: Clauses with no side effects; anything else (writes, CALL — procedures
#: may run write subqueries) makes a query non-read-only.
_READ_ONLY_CLAUSES = (MatchClause, UnwindClause, WithClause, ReturnClause)


def query_is_read_only(query: Query) -> bool:
    """True when every clause of ``query`` is side-effect free.

    Read-only queries are the ones :class:`repro.triggers.session.GraphSession`
    may hand out as lazily-consumed streaming results: deferring their
    evaluation can never defer a write.
    """
    return all(isinstance(clause, _READ_ONLY_CLAUSES) for clause in query.clauses)


class _SortValue:
    """Sort key wrapper implementing null-last ordering and DESC inversion."""

    __slots__ = ("value", "descending")

    def __init__(self, value: Any, descending: bool) -> None:
        self.value = value
        self.descending = descending

    def __lt__(self, other: "_SortValue") -> bool:
        left, right = self.value, other.value
        if left is None and right is None:
            return False
        if left is None:
            return False if not self.descending else False
        if right is None:
            return True
        if self.descending:
            return right < left
        return left < right

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _SortValue) and self.value == other.value


def _row_delta(base: dict, extended: dict) -> dict:
    """The bindings ``extended`` adds (or rebinds, by identity) over ``base``.

    The shared delta representation of the match memo and the hash-join
    build tables: replaying a delta onto any row agreeing with ``base`` on
    the pattern's dependencies reproduces the extension exactly.
    """
    return {
        name: value
        for name, value in extended.items()
        if name not in base or base[name] is not value
    }


def _delta_joins(row: dict, delta: dict, join_variables: tuple[str, ...]) -> bool:
    """Does a build delta bind every join variable to the row's node?

    The exactness check behind connected hash joins: the hash bucket is
    only a pre-filter (overflow deltas bypass it), and unlike disconnected
    joins no WHERE conjunct re-verifies the key equality afterwards.
    """
    for name in join_variables:
        build_value = delta.get(name)
        if not isinstance(build_value, Node) or not _same_item(row[name], build_value):
            return False
    return True


def _pattern_variables(patterns: Iterable[PathPattern]) -> list[str]:
    names: list[str] = []
    for pattern in patterns:
        if pattern.variable:
            names.append(pattern.variable)
        for element in pattern.elements:
            if element.variable:
                names.append(element.variable)
    return names


def _flip_direction(rel_pattern: RelationshipPattern) -> RelationshipPattern:
    """The same relationship pattern traversed from the other end."""
    flipped = {"out": "in", "in": "out", "both": "both"}[rel_pattern.direction]
    return _dc_replace(rel_pattern, direction=flipped)


def _same_item(left: Any, right: Any) -> bool:
    if isinstance(left, (Node, Relationship)) and isinstance(right, (Node, Relationship)):
        return type(left) is type(right) and left.id == right.id
    return left == right


def contains_aggregate(expr: Expression) -> bool:
    """True when ``expr`` contains an aggregate call (or ``count(*)``).

    Shared rule: the projection planner uses it to pick grouping items,
    and the trigger engine's batchability check uses it to reject
    conditions that would aggregate *across* activations.
    """
    for sub in walk_expression(expr):
        if isinstance(sub, CountStar):
            return True
        if isinstance(sub, FunctionCall) and is_aggregate_function(sub.name):
            return True
    return False


def _collect_aggregates(items: Sequence[ProjectionItem]) -> list[Expression]:
    found: list[Expression] = []
    for item in items:
        for sub in walk_expression(item.expression):
            if isinstance(sub, CountStar) or (
                isinstance(sub, FunctionCall) and is_aggregate_function(sub.name)
            ):
                found.append(sub)
    return found


def _hashable(value: Any) -> Any:
    """A hashable stand-in preserving the executor's value equality.

    Every composite is tagged with its type: without the tags, a list of
    pairs and a map lower to the *same* tuple-of-pairs (``[['a', 1]]`` vs
    ``{a: 1}``), so DISTINCT and grouping would silently merge rows of
    different types.
    """
    if isinstance(value, Node):
        return ("node", value.id)
    if isinstance(value, Relationship):
        return ("rel", value.id)
    if isinstance(value, Path):
        return ("path",) + value._key()
    if isinstance(value, list):
        return ("list", tuple(_hashable(v) for v in value))
    if isinstance(value, dict):
        return ("dict", tuple(sorted((k, _hashable(v)) for k, v in value.items())))
    return value


def _distinct_pairs(pairs: Iterable[tuple[dict, dict]]) -> Iterator[tuple[dict, dict]]:
    """DISTINCT: the first pair of each group of equal projected rows."""
    seen: set = set()
    for projected, source in pairs:
        key = tuple(sorted((k, _hashable(v)) for k, v in projected.items()))
        if key not in seen:
            seen.add(key)
            yield projected, source
