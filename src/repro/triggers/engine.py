"""The PG-Trigger execution engine.

The engine implements the semantics of Section 4.2 of the paper:

* **Action times** — BEFORE and AFTER triggers run at each statement
  boundary (BEFORE first, restricted to conditioning NEW states), ONCOMMIT
  triggers run when the surrounding transaction reaches its commit point
  (their side effects are included in the same transaction, and they may
  abort it), DETACHED triggers run after a successful commit inside an
  autonomous transaction.
* **Granularity** — FOR EACH executes the trigger once per affected item
  with ``OLD``/``NEW`` bound; FOR ALL executes it once per statement with
  the plural transition variables bound to the whole affected set.
* **Ordering** — triggers sharing an action time execute in creation-time
  order (the registry's sequence numbers).
* **Cascading** — changes produced by trigger statements are collected and
  recursively processed as new events, using a stack of execution contexts
  and a configurable depth limit (the runtime counterpart of the
  termination analysis in :mod:`repro.triggers.termination`).

Conditions may be plain boolean expressions over the transition variables
(``OLD.x <> NEW.x``), EXISTS patterns, or *condition queries* — a pipeline
of MATCH/UNWIND/WITH clauses as in the paper's examples.  The rows that
survive the condition are handed to the action statement, so variables
bound in the condition (e.g. the overloaded hospital ``h``) are usable in
the action.

**Batched condition evaluation.**  A delta touching *n* items of a FOR
EACH trigger's target produces *n* activations; evaluating the condition
query once per activation pays the executor/pipeline setup cost *n*
times.  When a condition is *batchable* — a read-only MATCH/UNWIND
pipeline whose rows flow independently (no aggregation, DISTINCT, ORDER
BY or SKIP/LIMIT) and whose patterns do not use a transition variable as
a label — the engine instead runs **one** UNWIND-style pipeline pass
over all activations (each initial row carries that activation's
``OLD``/``NEW`` plus a correlation tag) and buckets the surviving rows
per activation.  Statement execution, firing order and the audit log are
untouched: the buckets are replayed activation by activation in order.

The batch is advisory in the same sense as the query planner's access
paths: verdicts taken from it are only trusted while they provably match
what sequential evaluation would have seen.  Until the first activation
fires, the graph is unchanged, so every verdict is exact; after a firing,
verdicts are re-verified per activation unless the trigger's footprint
(:mod:`repro.triggers.footprint`) proves its action cannot change its own
condition's rows: nothing it may create matches a live condition pattern,
no key or label it writes is read (reads through frozen transition
snapshots do not count; an action reading a variable its condition binds
reads its own writes), and it deletes nothing.  Results can therefore
never change — only speed.

The audit log :attr:`TriggerEngine.firings` keeps the last
:data:`FIRING_LOG_LIMIT` firings; :meth:`TriggerEngine.firing_summary`
stays exact.
"""

from __future__ import annotations

import datetime as _dt
from collections import deque
from typing import Any, Callable, Mapping, NamedTuple, Optional

from ..cypher.ast import (
    ExistsPattern,
    Expression,
    MatchClause,
    Query,
    ReturnClause,
    UnwindClause,
    WithClause,
)
from ..cypher.errors import CypherError
from ..cypher.executor import QueryExecutor, contains_aggregate
from ..cypher.expressions import EvaluationContext, evaluate
from ..cypher.planner import PLAN_CACHE
from ..graph.delta import GraphDelta
from ..graph.model import Node
from ..graph.store import PropertyGraph
from ..tx.errors import TransactionAborted
from ..tx.manager import TransactionManager
from ..tx.transaction import Transaction
from .ast import ActionTime, Granularity, InstalledTrigger, TriggerDefinition
from .context import (
    ExecutionContext,
    TriggerBindings,
    TriggerFiring,
    bindings_for,
    item_bindings,
    transition_names,
)
from .errors import TriggerExecutionError, TriggerRecursionError
from .events import Activation, compute_activations
from .footprint import may_change, read_footprint, write_footprint
from .incremental import IncrementalTriggerViews
from .registry import TriggerRegistry

#: Maximum cascade depth before the engine assumes non-termination.
DEFAULT_MAX_CASCADE_DEPTH = 16
#: Maximum nesting of autonomous (DETACHED) transactions.
DEFAULT_MAX_DETACHED_DEPTH = 4
#: Records kept in the audit log of firings (:attr:`TriggerEngine.firings`);
#: older records are dropped, while :meth:`TriggerEngine.firing_summary`
#: stays exact.
FIRING_LOG_LIMIT = 10_000


def _abort_procedure(args, invocation):
    """``CALL db.abort('reason')`` — abort the surrounding transaction.

    Registered in every trigger-statement executor so that ONCOMMIT
    triggers can reject the transaction, as the paper's semantics allow.
    """
    reason = str(args[0]) if args else "aborted by trigger"
    raise TransactionAborted(reason)


class TriggerEngine:
    """Evaluates installed triggers against the deltas of a transaction."""

    def __init__(
        self,
        graph: PropertyGraph,
        registry: TriggerRegistry,
        manager: TransactionManager,
        clock: Callable[[], _dt.datetime] | None = None,
        max_cascade_depth: int = DEFAULT_MAX_CASCADE_DEPTH,
        max_detached_depth: int = DEFAULT_MAX_DETACHED_DEPTH,
        batched_conditions: bool = True,
        incremental_conditions: bool = True,
    ) -> None:
        self.graph = graph
        self.registry = registry
        self.manager = manager
        self.clock = clock or _dt.datetime.now
        self.max_cascade_depth = max_cascade_depth
        self.max_detached_depth = max_detached_depth
        #: Evaluate batchable FOR EACH condition queries in one pipeline
        #: pass per delta (see the module docstring).  Off, every
        #: activation runs its own executor — the reference behaviour the
        #: differential tests compare against.
        self.batched_conditions = batched_conditions
        #: Evaluate view-compilable FOR EACH condition queries against
        #: delta-maintained materialized views (the top tier of the
        #: incremental → batched → sequential demotion ladder; see
        #: :mod:`repro.triggers.incremental`).
        self.incremental_conditions = incremental_conditions
        self.views: Optional[IncrementalTriggerViews] = (
            IncrementalTriggerViews(graph, registry) if incremental_conditions else None
        )
        #: Counters observing the batched evaluator (tests and benchmarks).
        self.batch_stats = {
            "batched_runs": 0,
            "batched_activations": 0,
            "reverified_activations": 0,
        }
        #: Counters observing the incremental evaluator.
        self.incremental_stats = {
            "incremental_runs": 0,
            "incremental_activations": 0,
            "view_rebuilds": 0,
        }
        #: Per-trigger evaluation trace: which tier ran, how often, and
        #: why demotions happened (see :meth:`evaluation_report`).
        self.tier_trace: dict[str, dict[str, dict[str, int]]] = {}
        self._batch_profiles: dict[tuple, tuple[bool, bool]] = {}
        #: Audit log of the most recent trigger firings (cleared with
        #: :meth:`clear_firings`), bounded by :data:`FIRING_LOG_LIMIT`.
        self.firings: deque[TriggerFiring] = deque(maxlen=FIRING_LOG_LIMIT)
        #: Exact per-trigger totals behind :meth:`firing_summary`.
        self._firing_totals: dict[str, dict[str, int]] = {}
        # Condition and statement texts are compiled through the global
        # parse+plan cache (repro.cypher.planner.PLAN_CACHE), shared with
        # the executor and the compatibility emulators.
        self._detached_depth = 0
        #: Extra procedures made available inside trigger statements.
        self.procedures = {"db.abort": _abort_procedure, "abort": _abort_procedure}

    # ------------------------------------------------------------------
    # public entry points (driven by GraphSession / TransactionManager hooks)
    # ------------------------------------------------------------------

    def run_statement_triggers(self, tx: Transaction, delta: GraphDelta) -> GraphDelta:
        """Process BEFORE and AFTER triggers for one statement's delta."""
        before = self._process(tx, delta, (ActionTime.BEFORE,), depth=0, parent=None)
        after = self._process(tx, delta, (ActionTime.AFTER,), depth=0, parent=None)
        if before.is_empty():
            return after
        if after.is_empty():
            return before
        return before.merge(after)

    def run_commit_triggers(self, tx: Transaction, delta: GraphDelta) -> GraphDelta:
        """Process ONCOMMIT triggers for the whole transaction delta."""
        return self._process(tx, delta, (ActionTime.ONCOMMIT,), depth=0, parent=None)

    def run_detached_triggers(self, delta: GraphDelta) -> Optional[GraphDelta]:
        """Process DETACHED triggers in an autonomous transaction.

        Returns the delta committed by the autonomous transaction, or None
        when no DETACHED trigger had activations (no transaction is opened
        in that case).
        """
        triggers = self.registry.ordered((ActionTime.DETACHED,), enabled_only=True)
        if not triggers:
            return None
        if not any(compute_activations(t.definition, delta) for t in triggers):
            return None
        if self._detached_depth >= self.max_detached_depth:
            raise TriggerRecursionError(
                self.max_detached_depth, [t.name for t in triggers]
            )
        self._detached_depth += 1
        try:
            tx = self.manager.begin(metadata={"source": "detached-trigger"})
            try:
                self._process(tx, delta, (ActionTime.DETACHED,), depth=0, parent=None)
                committed = self.manager.commit(tx)
            except Exception:
                if tx.is_active:
                    self.manager.rollback(tx)
                raise
            return committed
        finally:
            self._detached_depth -= 1

    def clear_firings(self) -> None:
        """Reset the audit log of trigger firings and its summary."""
        self.firings.clear()
        self._firing_totals.clear()

    # ------------------------------------------------------------------
    # core processing loop
    # ------------------------------------------------------------------

    def _process(
        self,
        tx: Transaction,
        delta: GraphDelta,
        times: tuple[ActionTime, ...],
        depth: int,
        parent: Optional[ExecutionContext],
    ) -> GraphDelta:
        """Run all triggers of ``times`` over ``delta``; cascade recursively."""
        if delta.is_empty():
            return GraphDelta()
        if depth > self.max_cascade_depth:
            chain = parent.chain() if parent else []
            raise TriggerRecursionError(self.max_cascade_depth, chain)

        produced_total = GraphDelta()
        # The frame of a trigger that wrote this round's delta parents the
        # next round, so a runaway cascade's error names the triggers.
        producer = parent
        # Activations depend only on the trigger's event selector, not on
        # its condition or action — triggers sharing a selector (every
        # ``AFTER CREATE ON 'X' FOR EACH NODE`` gate in a firehose suite,
        # say) share one scan of the delta.  The refresh of the NEW side
        # stays per trigger in _run_trigger, so later triggers still see
        # earlier triggers' writes.
        activation_memo: dict[tuple, list] = {}
        for installed in self.registry.ordered(times, enabled_only=True):
            run = self._run_trigger(installed, tx, delta, depth, parent, activation_memo)
            if run is not None and not run.produced.is_empty():
                produced_total = produced_total.merge(run.produced)
                producer = run.context

        if not produced_total.is_empty():
            cascade_times = self._cascade_times(times)
            nested = self._process(tx, produced_total, cascade_times, depth + 1, producer)
            produced_total = produced_total.merge(nested)
        return produced_total

    def _cascade_times(self, times: tuple[ActionTime, ...]) -> tuple[ActionTime, ...]:
        """Which action times participate in cascading rounds.

        Changes produced by ONCOMMIT (or DETACHED) triggers are still inside
        the same transaction (autonomous one for DETACHED), so statement-time
        triggers react to them as well; the converse does not hold.
        """
        if ActionTime.ONCOMMIT in times:
            return (ActionTime.BEFORE, ActionTime.AFTER, ActionTime.ONCOMMIT)
        if ActionTime.DETACHED in times:
            return (ActionTime.BEFORE, ActionTime.AFTER, ActionTime.DETACHED)
        return (ActionTime.BEFORE, ActionTime.AFTER)

    def _run_trigger(
        self,
        installed: InstalledTrigger,
        tx: Transaction,
        delta: GraphDelta,
        depth: int,
        parent: Optional[ExecutionContext],
        activation_memo: dict[tuple, list],
    ) -> Optional["_TriggerRun"]:
        """Fire ``installed`` over its activations in ``delta`` (None: it has none)."""
        trigger = installed.definition
        selector = (trigger.item, trigger.event, trigger.label, trigger.property)
        activations = activation_memo.get(selector)
        if activations is None:
            activations = compute_activations(trigger, delta)
            activation_memo[selector] = activations
        if not activations:
            return None
        activations = [self._refresh_new_side(a) for a in activations]
        run = _TriggerRun(self, installed, tx, depth, parent, len(activations))
        try:
            self._evaluate(run, activations)
        finally:
            run.tally()
        return run

    def _evaluate(self, run: "_TriggerRun", activations: list[Activation]) -> None:
        """Decide each activation's condition on the highest eligible tier and fire."""
        installed, trigger, tx = run.installed, run.trigger, run.tx

        # Fast suppress path: a FOR EACH trigger whose WHEN body is a plain
        # predicate (no condition query, no EXISTS, no REFERENCING aliases)
        # only needs OLD/NEW and the bare expression evaluator to decide
        # whether it fires; suppressed activations skip the bindings
        # machinery entirely.  Statement execution and firing accounting go
        # through the same _TriggerRun.fire as the full path below.
        if (
            trigger.condition is not None
            and trigger.granularity == Granularity.EACH
            and not trigger.referencing
        ):
            compiled = self._compiled_condition(trigger)
            if not compiled.is_query and not compiled.has_exists:
                eval_context = EvaluationContext(graph=self.graph, clock=self.clock)
                parsed = compiled.parsed
                for activation in activations:
                    row = {"OLD": activation.old, "NEW": activation.new}
                    try:
                        value = evaluate(parsed, row, eval_context)
                    except CypherError as exc:
                        raise TriggerExecutionError(trigger.name, "condition", exc) from exc
                    if value is True:
                        binding = item_bindings(trigger, activation)
                        run.fire(binding, [dict(binding.variables)])
                    else:
                        run.fire(None, _NO_ROWS)
                self._note_tier(trigger.name, "predicate")
                return

        # Incremental path (top of the demotion ladder): evaluate each
        # activation against the trigger's delta-maintained condition view.
        # The view is live — the store's mutation listeners fold every
        # firing's writes into it before the next activation evaluates —
        # so lazy per-activation evaluation is sequential-equal by
        # construction, at any activation count.  Conditions outside the
        # compiled footprint demote to the batched tier below.
        if (
            self.views is not None
            and trigger.condition is not None
            and trigger.granularity == Granularity.EACH
        ):
            compiled = self._compiled_condition(trigger)
            if compiled.is_query:
                view = self.views.view_for(installed, compiled.parsed)
                if view is not None:
                    self._note_tier(trigger.name, "incremental")
                    self._run_incremental(run, view, trigger, activations)
                    return
                reason = self.views.rejection_reason(trigger.name)
                self._note_demotion(trigger.name, reason or "ineligible")

        # Batched path: evaluate a batchable FOR EACH condition (query or
        # EXISTS predicate) once over all activations, then replay the
        # per-activation buckets in order.  Verdicts are trusted only
        # while they provably equal what sequential evaluation would see
        # (see the module docstring).
        if (
            self.batched_conditions
            and trigger.condition is not None
            and trigger.granularity == Granularity.EACH
            and len(activations) > 1
        ):
            compiled = self._compiled_condition(trigger)
            profile = self._batch_profile(trigger, compiled)
            independent = profile.independent
            if not profile.eligible:
                self._note_demotion(trigger.name, "not batchable")
            else:
                buckets = self._batched_condition_rows(
                    trigger, compiled, profile, activations, tx
                )
                if buckets is None:
                    # The condition errored somewhere in the batch.
                    # No firing has happened yet, so falling through
                    # to the sequential loop reproduces the reference
                    # behaviour exactly: earlier activations fire,
                    # then the erroring one raises.
                    self._note_demotion(trigger.name, "condition error")
                else:
                    self.batch_stats["batched_runs"] += 1
                    self.batch_stats["batched_activations"] += len(activations)
                    fired = False
                    for activation, rows in zip(activations, buckets):
                        if fired and not independent:
                            # An earlier firing may have changed what
                            # this condition sees: fall back to the
                            # sequential evaluation for the remaining
                            # activations.
                            binding = item_bindings(trigger, activation)
                            rows = self._condition_rows(trigger, binding, tx)
                            self.batch_stats["reverified_activations"] += 1
                        elif rows:
                            # Full bindings (with virtual-label sets)
                            # are only needed when the action runs.
                            binding = item_bindings(trigger, activation)
                        else:
                            run.fire(None, _NO_ROWS)
                            continue
                        if rows:
                            fired = True
                        run.fire(binding, rows)
                    self._note_tier(trigger.name, "batched")
                    return

        self._note_tier(trigger.name, "sequential")
        for binding in bindings_for(trigger, activations):
            run.fire(binding, self._condition_rows(trigger, binding, tx))

    def _run_incremental(
        self,
        run: "_TriggerRun",
        view,
        trigger: TriggerDefinition,
        activations: list[Activation],
    ) -> None:
        """Replay activations against the trigger's live condition view.

        Each activation is evaluated lazily, *after* every earlier
        activation's firings have flowed into the view through the store's
        mutation listeners — exactly what sequential evaluation sees.  A
        condition error therefore surfaces at the same activation position
        (with the same earlier firings on the audit log) as the reference,
        so it is raised directly rather than demoted.
        """
        stats = self.incremental_stats
        stats["incremental_runs"] += 1
        stats["incremental_activations"] += len(activations)
        context = EvaluationContext(graph=self.graph, clock=self.clock)
        # The epoch/bulk rail only needs re-checking after something could
        # have mutated mid-replay — i.e. after a firing ran an action.  The
        # replay itself is single-threaded, so between non-firing
        # activations the view provably cannot have been invalidated.
        check_view = True
        referencing = trigger.referencing
        rows_for = view.rows_for
        fire = run.fire
        for activation in activations:
            if check_view:
                if view.ensure_current(self.graph):
                    stats["view_rebuilds"] += 1
                check_view = False
            if referencing:
                base = dict(item_bindings(trigger, activation).variables)
            else:
                base = {"OLD": activation.old, "NEW": activation.new}
            try:
                rows = rows_for(base, context)
            except TransactionAborted:
                raise
            except CypherError as exc:
                raise TriggerExecutionError(trigger.name, "condition", exc) from exc
            if rows:
                fire(item_bindings(trigger, activation), rows)
                check_view = True
            else:
                fire(None, _NO_ROWS)

    def _refresh_new_side(self, activation):
        """Re-read the NEW side from the store so earlier triggers' writes are visible.

        The OLD side stays frozen at its pre-event snapshot, as required by
        the transition-variable semantics.
        """
        new = activation.new
        if new is None:
            return activation
        if isinstance(new, Node):
            refreshed = self.graph.node_or_none(new.id)
        else:
            refreshed = self.graph.relationship_or_none(new.id)
        if refreshed is new or refreshed is None:
            return activation
        return Activation(
            item=activation.item, old=activation.old, new=refreshed, property=activation.property
        )

    # ------------------------------------------------------------------
    # condition handling
    # ------------------------------------------------------------------

    def _condition_rows(
        self, trigger: TriggerDefinition, binding: TriggerBindings, tx: Transaction
    ) -> list[dict[str, Any]]:
        """Rows surviving the WHEN condition (one empty row when it is absent)."""
        if trigger.condition is None:
            return [{}]
        parsed = self._parse_condition(trigger)
        try:
            if isinstance(parsed, Query):
                # Condition queries end in a wildcard RETURN, a pipeline
                # breaker, so the stream is already materialised; consuming
                # it directly skips the eager QueryResult wrapper and the
                # per-row copy it would force.
                executor = self._executor(tx, binding)
                _, records = executor.stream(parsed, bindings=dict(binding.variables))
                return list(records)
            # Plain expression: a WHERE filter over the single bindings row.
            # (Running it through a wildcard-RETURN query would project the
            # very same row back, so evaluate it directly, and only build a
            # full executor if an EXISTS pattern actually needs one.  EXISTS
            # itself now early-exits: the executor's pattern pipeline stops
            # at the first witness row.)
            value = self._evaluate_condition_expression(
                parsed, binding.variables, tx, binding
            )
            return [dict(binding.variables)] if value is True else []
        except TransactionAborted:
            raise
        except CypherError as exc:
            raise TriggerExecutionError(trigger.name, "condition", exc) from exc

    def _evaluate_condition_expression(
        self,
        parsed: Expression,
        row: dict[str, Any],
        tx: Transaction,
        binding: TriggerBindings,
    ) -> Any:
        executor: list[QueryExecutor] = []  # built lazily, shared across EXISTS evaluations

        def match_exists(exists: ExistsPattern, exists_row: dict[str, Any]) -> bool:
            if not executor:
                executor.append(self._executor(tx, binding))
            return executor[0]._exists_matcher(exists, exists_row)

        context = EvaluationContext(
            graph=self.graph,
            clock=self.clock,
            pattern_matcher=match_exists,
        )
        return evaluate(parsed, row, context)

    # ------------------------------------------------------------------
    # batched condition evaluation
    # ------------------------------------------------------------------

    def _batch_profile(self, trigger: TriggerDefinition, compiled) -> "_BatchProfile":
        """The memoised batch-evaluation shape of one trigger's condition.

        *eligible* — the condition (query or EXISTS predicate) can run as
        one multi-row pass without changing any activation's rows;
        *independent* — additionally, the trigger's own action can never
        change what the condition sees (:func:`may_change` over the
        action's write footprint and the condition's read footprint), so
        batch verdicts stay valid even after earlier activations fire;
        *prefix*/*suffix* — for query conditions, the streamable stage
        shared by all activations and the per-activation replay stage
        (aggregating WITH pipelines and non-streamable RETURNs go in the
        suffix; ``suffix is None`` means the whole condition streams).  The prefix/suffix query objects
        are built once and pinned here so the parsed-plan cache (keyed on
        object identity) keeps working.
        """
        key = (trigger.name, trigger.condition, trigger.statement, trigger.referencing)
        cached = self._batch_profiles.get(key)
        if cached is not None:
            return cached
        condition = compiled.parsed
        read = read_footprint(condition, transition_names(trigger))
        prefix: Optional[Query] = None
        suffix: Optional[Query] = None
        if compiled.is_query:
            split = None if read.uses_transition_labels else _condition_split(condition)
            eligible = split is not None
            if eligible:
                if split >= len(condition.clauses):
                    prefix = condition  # pure streamable: the original object
                else:
                    prefix = Query(
                        clauses=condition.clauses[:split]
                        + (ReturnClause(items=(), include_wildcard=True),)
                    )
                    suffix = Query(clauses=condition.clauses[split:])
        else:
            eligible = not read.uses_transition_labels and not contains_aggregate(condition)
        independent = eligible and not may_change(write_footprint(trigger.statement), read)
        profile = _BatchProfile(eligible, independent, prefix, suffix)
        self._batch_profiles[key] = profile
        return profile

    def _batched_condition_rows(
        self,
        trigger: TriggerDefinition,
        compiled,
        profile: "_BatchProfile",
        activations: list[Activation],
        tx: Transaction,
    ) -> Optional[list[list[dict[str, Any]]]]:
        """One evaluation pass over every activation, bucketed per activation.

        Query conditions: each initial row carries one activation's
        transition variables plus a correlation tag, and the streamable
        *prefix* maps input rows independently and in order, so bucket
        *i* holds exactly the rows a per-activation execution would have
        produced for activation *i*, in the same order.  When the
        condition has a non-streamable *suffix* (aggregating WITH
        pipeline, DISTINCT/ORDER BY/aggregate RETURN), the suffix then
        replays over each bucket separately — per-activation grouping and
        the one-row-on-empty-input semantics of global aggregates are
        preserved because each replay sees only its own activation's
        rows.  Activations whose prefix produced nothing share a single
        empty-input suffix execution: with no input rows the suffix's
        result cannot depend on the activation.

        EXISTS predicates: a witness pass evaluates the expression once
        per activation against one shared pattern-memoizing executor;
        bucket *i* is the activation's bindings row when the predicate
        held, empty otherwise — exactly the sequential rows.

        Returns ``None`` when the condition raises anywhere in the batch:
        sequential evaluation would have fired the activations *before*
        the erroring one first (and their firings stay on the audit log),
        so the caller must rerun the trigger sequentially rather than
        fail the whole batch up front.
        """
        rows: list[dict[str, Any]] = []
        if trigger.referencing:
            for index, activation in enumerate(activations):
                row = dict(item_bindings(trigger, activation).variables)
                row[_BATCH_TAG] = index
                rows.append(row)
        else:
            # Hot path: the variables are fixed, and the virtual-label sets
            # of the full bindings are only needed by actually-firing
            # activations (built lazily by the caller).
            for index, activation in enumerate(activations):
                rows.append(
                    {"OLD": activation.old, "NEW": activation.new, _BATCH_TAG: index}
                )
        # memoize_match is sound here: the condition is a read-only
        # pipeline (eligibility) and the pass drains before any statement
        # runs, so the graph cannot change under this executor.  Patterns
        # depending on the per-activation variables can never repeat a
        # memo key, so they are excluded from memoization.
        executor = QueryExecutor(
            self.graph,
            transaction=tx,
            clock=self.clock,
            procedures=self.procedures,
            memoize_match=True,
            memoize_skip_variables=transition_names(trigger) | {_BATCH_TAG},
        )
        try:
            if not compiled.is_query:
                return self._witness_pass(compiled.parsed, executor, rows)
            buckets: list[list[dict[str, Any]]] = [[] for _ in activations]
            _, records = executor.stream_batch(profile.prefix, rows)
            for record in records:
                buckets[record.pop(_BATCH_TAG)].append(record)
            if profile.suffix is not None:
                shared_empty: Optional[list[dict[str, Any]]] = None
                replayed: list[list[dict[str, Any]]] = []
                for bucket in buckets:
                    if bucket:
                        _, records = executor.stream_batch(profile.suffix, bucket)
                        replayed.append(list(records))
                    else:
                        if shared_empty is None:
                            _, records = executor.stream_batch(profile.suffix, [])
                            shared_empty = list(records)
                        # Copy per activation: condition rows flow into
                        # statement execution, which must never see a row
                        # object shared with another activation.
                        replayed.append([dict(record) for record in shared_empty])
                buckets = replayed
        except TransactionAborted:
            raise
        except CypherError:
            # Rerun sequentially so pre-error firings match the reference.
            return None
        return buckets

    def _witness_pass(
        self,
        parsed: Expression,
        executor: QueryExecutor,
        rows: list[dict[str, Any]],
    ) -> list[list[dict[str, Any]]]:
        """Evaluate an (EXISTS-bearing) predicate once per tagged row.

        The rows are per-activation bindings, so there is nothing to mix
        across activations; the batch win is the shared executor, whose
        match memos let repeated EXISTS witnesses short-circuit across
        the whole batch instead of once per activation.
        """

        def match_exists(exists: ExistsPattern, exists_row: dict[str, Any]) -> bool:
            return executor._exists_matcher(exists, exists_row)

        context = EvaluationContext(
            graph=self.graph,
            clock=self.clock,
            pattern_matcher=match_exists,
        )
        buckets: list[list[dict[str, Any]]] = []
        for row in rows:
            row.pop(_BATCH_TAG, None)
            value = evaluate(parsed, row, context)
            buckets.append([row] if value is True else [])
        return buckets

    def _parse_condition(self, trigger: TriggerDefinition):
        return self._compiled_condition(trigger).parsed

    def _compiled_condition(self, trigger: TriggerDefinition):
        try:
            return PLAN_CACHE.condition_compiled(trigger.condition or "")
        except CypherError as exc:
            raise TriggerExecutionError(trigger.name, "condition", exc) from exc

    # ------------------------------------------------------------------
    # statement handling
    # ------------------------------------------------------------------

    def _execute_statement(
        self,
        trigger: TriggerDefinition,
        binding: TriggerBindings,
        condition_row: Mapping[str, Any],
        tx: Transaction,
        context: ExecutionContext,
    ) -> None:
        executor = self._executor(tx, binding)
        bindings = {**binding.variables, **condition_row}
        try:
            # Passing the text routes the statement through the global
            # parse+plan cache (shared with every other execution layer).
            executor.execute(trigger.statement, bindings=bindings)
        except TransactionAborted:
            raise
        except CypherError as exc:
            raise TriggerExecutionError(trigger.name, "statement", exc) from exc

    def _executor(self, tx: Transaction, binding: TriggerBindings) -> QueryExecutor:
        return QueryExecutor(
            self.graph,
            transaction=tx,
            clock=self.clock,
            virtual_labels=binding.virtual_labels,
            procedures=self.procedures,
        )

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------

    def _note_tier(self, name: str, tier: str) -> None:
        entry = self.tier_trace.get(name)
        if entry is None:
            entry = self.tier_trace[name] = {"tiers": {}, "demotions": {}}
        tiers = entry["tiers"]
        tiers[tier] = tiers.get(tier, 0) + 1

    def _note_demotion(self, name: str, reason: str) -> None:
        entry = self.tier_trace.get(name)
        if entry is None:
            entry = self.tier_trace[name] = {"tiers": {}, "demotions": {}}
        demotions = entry["demotions"]
        demotions[reason] = demotions.get(reason, 0) + 1

    def evaluation_report(self) -> dict[str, dict[str, Any]]:
        """Per-trigger evaluation observability (tiers, demotions, views).

        For every installed trigger: which evaluation tier handled each
        run (``incremental``/``batched``/``sequential``/``predicate``),
        every demotion with its reason, and — when a condition view
        exists — the view's alpha-memory size and maintenance counters.
        Surfaced through :meth:`GraphSession.explain_triggers` and the
        per-statement :class:`~repro.cypher.result.ResultSummary`.
        """
        report: dict[str, dict[str, Any]] = {}
        for installed in self.registry.ordered():
            name = installed.name
            trace = self.tier_trace.get(name)
            entry: dict[str, Any] = {
                "tiers": dict(trace["tiers"]) if trace else {},
                "demotions": dict(trace["demotions"]) if trace else {},
            }
            if self.views is not None:
                view = self.views.view(name)
                if view is not None:
                    entry["view"] = {
                        "partial_matches": view.partial_matches(),
                        "invariant": view.invariant,
                        **view.stats,
                    }
                else:
                    reason = self.views.rejection_reason(name)
                    if reason is not None:
                        entry["ineligible"] = reason
            report[name] = entry
        return report

    def execution_counts(self) -> dict[str, int]:
        """Executions per trigger (from the registry's counters)."""
        return {t.name: t.executions for t in self.registry.ordered()}

    def firing_summary(self) -> dict[str, dict[str, int]]:
        """Per-trigger executed/suppressed counts and deepest cascade level.

        Exact since the last :meth:`clear_firings`, even after the bounded
        audit log has dropped old records.
        """
        return {name: dict(entry) for name, entry in self._firing_totals.items()}


# ---------------------------------------------------------------------------
# per-trigger execution bookkeeping
# ---------------------------------------------------------------------------

#: Shared empty condition-row list for suppressed fast-path firings.
_NO_ROWS: list[dict[str, Any]] = []


class _TriggerRun:
    """Bookkeeping for one trigger's firings over one delta.

    Both condition-evaluation paths (the fast predicate path and the full
    executor path) funnel statement execution, the executed/suppressed
    counters and the :class:`TriggerFiring` audit records through
    :meth:`fire`, so their semantics cannot diverge.
    """

    __slots__ = (
        "engine", "installed", "trigger", "tx", "depth", "parent",
        "activation_count", "context", "produced", "executed", "suppressed",
        "_action_time",
    )

    def __init__(
        self,
        engine: "TriggerEngine",
        installed: InstalledTrigger,
        tx: Transaction,
        depth: int,
        parent: Optional[ExecutionContext],
        activation_count: int,
    ) -> None:
        self.engine = engine
        self.installed = installed
        self.trigger = installed.definition
        self.tx = tx
        self.depth = depth
        self.parent = parent
        self.activation_count = activation_count
        # The context frame is only needed when a condition actually passes;
        # most firings on the hot path are suppressed, so build it lazily.
        self.context: Optional[ExecutionContext] = None
        self.produced = GraphDelta()
        self.executed = 0
        self.suppressed = 0
        # Hoisted out of fire(): the enum attribute access is measurable
        # at firehose activation counts.
        self._action_time = installed.definition.time.value

    def fire(
        self,
        binding: Optional[TriggerBindings],
        condition_rows: list[dict[str, Any]],
    ) -> None:
        """Run the action for each surviving row and record one firing."""
        executed = bool(condition_rows)
        if executed:
            if self.context is None:
                self.context = ExecutionContext(
                    trigger_name=self.trigger.name,
                    depth=self.depth,
                    activation_count=self.activation_count,
                    granularity=self.trigger.granularity,
                    parent=self.parent,
                )
            self.tx.end_statement()  # isolate the trigger's own changes
            for row in condition_rows:
                self.engine._execute_statement(
                    self.trigger, binding, row, self.tx, self.context
                )
            self.produced = self.produced.merge(self.tx.end_statement())
            self.installed.executions += 1
            self.executed += 1
        else:
            self.installed.suppressed += 1
            self.suppressed += 1
        self.engine.firings.append(
            TriggerFiring(
                trigger_name=self.trigger.name,
                depth=self.depth,
                activation_count=self.activation_count,
                condition_rows=len(condition_rows),
                executed=executed,
                action_time=self._action_time,
            )
        )

    def tally(self) -> None:
        """Add this run's firings to the engine's per-trigger totals."""
        if not (self.executed or self.suppressed):
            return
        totals = self.engine._firing_totals.get(self.trigger.name)
        if totals is None:
            totals = self.engine._firing_totals[self.trigger.name] = {
                "executed": 0, "suppressed": 0, "max_depth": 0,
            }
        totals["executed"] += self.executed
        totals["suppressed"] += self.suppressed
        totals["max_depth"] = max(totals["max_depth"], self.depth)


# ---------------------------------------------------------------------------
# batched-evaluation static analysis
# ---------------------------------------------------------------------------

#: Correlation key carried through a batched condition pass; popped from
#: every surviving row before it reaches the action statement.
_BATCH_TAG = "__batch_activation__"


class _BatchProfile(NamedTuple):
    """How (and whether) one trigger's condition batches; see _batch_profile."""

    eligible: bool
    independent: bool
    prefix: Optional[Query]
    suffix: Optional[Query]


def _condition_split(query: Query) -> Optional[int]:
    """Where the per-activation suffix of a batchable condition starts.

    ``clauses[:split]`` is the streamable prefix — MATCH/UNWIND stages
    that map input rows independently and in order, so one tagged pass
    buckets exactly.  ``clauses[split:]`` is the suffix that must replay
    per activation because it mixes rows *within* an activation:
    aggregating or row-reordering WITH pipelines, and RETURNs with
    DISTINCT/ORDER BY/SKIP/LIMIT/aggregates (or without the engine's
    wildcard normalisation).  ``split == len(clauses)`` means the whole
    condition streams; ``None`` means the condition cannot batch at all
    (an unsupported clause kind somewhere).
    """
    for position, clause in enumerate(query.clauses):
        if isinstance(clause, (MatchClause, UnwindClause)):
            continue
        if isinstance(clause, WithClause):
            return position if _suffix_supported(query.clauses[position:]) else None
        if isinstance(clause, ReturnClause):
            if position != len(query.clauses) - 1:
                return None
            if (
                clause.include_wildcard
                and not clause.distinct
                and not clause.order_by
                and clause.skip is None
                and clause.limit is None
                and not any(contains_aggregate(item.expression) for item in clause.items)
            ):
                return position + 1
            return position
        return None
    return None  # no RETURN: not an engine-normalised condition


def _suffix_supported(clauses) -> bool:
    """Suffix replay handles exactly what the stream pipeline handles."""
    return all(
        isinstance(clause, (MatchClause, UnwindClause, WithClause, ReturnClause))
        for clause in clauses
    )
