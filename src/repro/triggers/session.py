"""GraphSession: the user-facing façade tying everything together.

A :class:`GraphSession` owns a property graph, a transaction manager, a
trigger registry and a trigger engine, and exposes the workflow the paper
describes: run openCypher statements, have PG-Triggers react at the right
action times, optionally validate the graph against a PG-Schema.

Typical usage::

    from repro.triggers import GraphSession

    session = GraphSession()
    session.run("CREATE (:Hospital {name: 'Sacco', icuBeds: 20})")
    session.create_trigger('''
        CREATE TRIGGER NewCriticalMutation
        AFTER CREATE ON 'Mutation'
        FOR EACH NODE
        WHEN EXISTS (NEW)-[:Risk]-(:CriticalEffect)
        BEGIN
          CREATE (:Alert {time: datetime(), desc: 'New critical mutation',
                          mutation: NEW.name})
        END
    ''')
"""

from __future__ import annotations

import contextlib
import datetime as _dt
import threading
import time
from typing import Any, Callable, Iterator, Mapping, Optional

from ..cypher.executor import QueryExecutor, query_is_read_only
from ..cypher.planner import PLAN_CACHE
from ..cypher.result import Result
from ..graph.delta import GraphDelta
from ..graph.store import PropertyGraph
from ..schema.schema import PGSchema
from ..schema.validation import Violation, validate_graph
from ..storage import DurableStore, StorageIO, TriggerState
from ..tx.locks import LockManager
from ..tx.manager import TransactionManager
from ..tx.transaction import Transaction
from .ast import InstalledTrigger, TriggerDefinition
from .engine import TriggerEngine
from .registry import TriggerRegistry
from .termination import TerminationReport, analyse_termination


class GraphSession:
    """A property graph with transactions, Cypher execution and PG-Triggers.

    A session is single-threaded by default (the streaming read path of
    PR 3 hands out lazily-consumed results, which only one consumer can
    own).  Constructed with ``thread_safe=True`` — or with the shared
    ``lock_manager`` a :class:`~repro.database.GraphDatabase` passes in —
    it becomes safe to use from many threads at once:

    * statements with side effects, explicit :meth:`transaction` blocks,
      trigger DDL and checkpoints run under the graph's exclusive write
      lock (reentrant per thread, so cascades never self-deadlock);
    * read-only auto-commit statements take the shared read lock and are
      drained *while holding it* — each returns a fully-buffered snapshot
      result: concurrent readers proceed in parallel, and no reader can
      observe a half-applied transaction (no torn reads);
    * lock waits bounded by ``lock_timeout`` raise the typed
      :class:`~repro.tx.errors.LockTimeoutError` without touching state.
    """

    def __init__(
        self,
        graph: PropertyGraph | None = None,
        schema: PGSchema | None = None,
        clock: Callable[[], _dt.datetime] | None = None,
        max_cascade_depth: int = 16,
        batched_triggers: bool = True,
        incremental_triggers: bool = True,
        path: str | None = None,
        storage_io: StorageIO | None = None,
        group_commit_size: int = 1,
        checkpoint_every: int | None = None,
        thread_safe: bool = False,
        lock_manager: LockManager | None = None,
        lock_timeout: float | None = None,
        lock_name: str | None = None,
    ) -> None:
        if path is not None and graph is not None:
            raise ValueError(
                "pass either an in-memory graph or a durable path, not both: "
                "a durable session recovers its graph from the path"
            )
        self.store: DurableStore | None = None
        self.checkpoint_every = checkpoint_every
        recovered = None
        if path is not None:
            self.store = DurableStore(path, io=storage_io, group_commit_size=group_commit_size)
            recovered = self.store.open()
            graph = recovered.graph
        self.graph = graph or PropertyGraph()
        self.schema = schema
        self.clock = clock or _dt.datetime.now
        self.manager = TransactionManager(self.graph)
        self.registry = TriggerRegistry()
        self.engine = TriggerEngine(
            self.graph,
            self.registry,
            self.manager,
            clock=self.clock,
            max_cascade_depth=max_cascade_depth,
            batched_conditions=batched_triggers,
            incremental_conditions=incremental_triggers,
        )
        self._open_transaction: Optional[Transaction] = None
        self._active_result: Optional[Result] = None
        self._checkpointing = False
        if thread_safe or lock_manager is not None:
            self._locks: LockManager | None = lock_manager or LockManager(
                default_timeout=lock_timeout
            )
        else:
            self._locks = None
        self._lock_timeout = lock_timeout
        self._lock_name = lock_name or self.graph.name or "graph"
        self._tx_owner: int | None = None
        self.manager.add_before_commit_hook(self._on_before_commit)
        self.manager.add_after_commit_hook(self._on_after_commit)
        if self.store is not None:
            # Reinstall recovered triggers straight through the registry so
            # the restore itself is not re-logged to the WAL.
            for state in recovered.triggers:
                self.registry.install(state.source)
                if not state.enabled:
                    self.registry.stop(state.name)
            self.recovery = recovered
            self.manager.set_commit_log(self._log_commit)
            self.graph.ddl_listener = self.store.log_index
            if checkpoint_every is not None:
                self.manager.add_after_commit_hook(self._maybe_auto_checkpoint)

    # ------------------------------------------------------------------
    # concurrency guards
    # ------------------------------------------------------------------

    @property
    def thread_safe(self) -> bool:
        """True when this session serialises access through a lock manager."""
        return self._locks is not None

    def _write_guard(self):
        if self._locks is None:
            return contextlib.nullcontext()
        return self._locks.write(self._lock_name, timeout=self._lock_timeout)

    def _read_guard(self):
        if self._locks is None:
            return contextlib.nullcontext()
        return self._locks.read(self._lock_name, timeout=self._lock_timeout)

    # ------------------------------------------------------------------
    # trigger management
    # ------------------------------------------------------------------

    def create_trigger(self, trigger: str | TriggerDefinition) -> InstalledTrigger:
        """Install a PG-Trigger (CREATE TRIGGER text or definition object)."""
        with self._write_guard():
            installed = self.registry.install(trigger)
            if self.store is not None:
                self.store.log_trigger(
                    "install", installed.name, source=installed.definition.to_pg_trigger()
                )
            return installed

    def drop_trigger(self, name: str) -> TriggerDefinition:
        """Remove a trigger by name."""
        with self._write_guard():
            definition = self.registry.drop(name)
            if self.store is not None:
                self.store.log_trigger("drop", name)
            return definition

    def stop_trigger(self, name: str) -> None:
        """Pause a trigger without dropping it."""
        with self._write_guard():
            self.registry.stop(name)
            if self.store is not None:
                self.store.log_trigger("stop", name)

    def start_trigger(self, name: str) -> None:
        """Resume a paused trigger."""
        with self._write_guard():
            self.registry.start(name)
            if self.store is not None:
                self.store.log_trigger("start", name)

    def triggers(self) -> list[TriggerDefinition]:
        """All installed trigger definitions (creation order)."""
        return self.registry.definitions()

    def analyse_termination(self) -> TerminationReport:
        """Run the static termination analysis on the installed trigger set."""
        return analyse_termination(self.registry.definitions())

    # ------------------------------------------------------------------
    # query execution
    # ------------------------------------------------------------------

    def run(
        self,
        query: str,
        parameters: Mapping[str, Any] | None = None,
    ) -> Result:
        """Execute one openCypher statement and return its :class:`Result`.

        Outside an explicit transaction the statement runs in auto-commit
        mode: statement-time triggers (BEFORE/AFTER) fire at the statement
        boundary, ONCOMMIT triggers at the commit point, DETACHED triggers
        right after the commit.  Inside a :meth:`transaction` block only the
        statement-time triggers fire per statement; commit-time processing
        happens when the block exits.

        Read-only auto-commit statements are *streamed*: records are pulled
        lazily from the execution pipeline, and the backing transaction is
        committed when the stream is exhausted (or :meth:`Result.consume`
        is called) and rolled back if draining raises.  Statements with
        side effects — and every statement inside an explicit transaction —
        are executed to completion before ``run`` returns, so their writes
        and trigger firings are never deferred.  Running a new statement
        while a streamed result is still open first detaches that result
        (its remaining records are buffered), as in the Neo4j driver; if
        buffering the pending stream fails, its transaction is rolled
        back and the error surfaces here — before the new statement runs
        — rather than being swallowed.

        In thread-safe mode the same contract holds with one adjustment:
        read-only auto-commit statements are *snapshot reads* — executed
        and drained under the graph's shared read lock, then returned as
        an already-buffered :class:`Result` (concurrent readers run in
        parallel; writers wait).  Statements with side effects serialise
        on the exclusive write lock.
        """
        if self._open_transaction is not None and self._tx_owner == threading.get_ident():
            # Inside this thread's own transaction() block, which already
            # holds the write lock.
            return self._run_in_transaction(self._open_transaction, query, parameters)
        if query_is_read_only(PLAN_CACHE.parse(query)):
            with self._read_guard():
                self._detach_active_result()
                result = self._begin_streaming(query, parameters)
                if self._locks is None:
                    self._active_result = result
                else:
                    # Drain while holding the shared lock: the caller gets a
                    # consistent snapshot and never touches the engine again.
                    result.rows
                return result
        with self._write_guard():
            self._detach_active_result()
            return self._run_autocommit_write(query, parameters)

    def _run_autocommit_write(
        self, query: str, parameters: Mapping[str, Any] | None
    ) -> Result:
        """One write statement in its own transaction (commit included)."""
        tx = self.manager.begin()
        # Same code path as explicit transactions, plus the commit.
        try:
            result = self._run_in_transaction(tx, query, parameters)
            self.manager.commit(tx)
        except Exception:
            if tx.is_active:
                self.manager.rollback(tx)
            raise
        return result

    def _begin_streaming(
        self, query: str, parameters: Mapping[str, Any] | None
    ) -> Result:
        """Start a streamed read-only auto-commit statement."""
        started = time.perf_counter()
        tx = self.manager.begin()
        try:
            executor = QueryExecutor(
                self.graph, transaction=tx, parameters=parameters, clock=self.clock
            )
            columns, records = executor.stream(query)
        except Exception:
            if tx.is_active:
                self.manager.rollback(tx)
            raise
        return Result(
            columns,
            records,
            executor.last_statistics,
            query=query,
            parameters=parameters,
            plan=self._plan_text(executor),
            on_success=lambda: self._finalize_streaming(tx),
            on_failure=lambda: self._abort_streaming(tx),
            started=started,
            available_after=(time.perf_counter() - started) * 1000,
        )

    def _run_in_transaction(
        self, tx: Transaction, query: str, parameters: Mapping[str, Any] | None
    ) -> Result:
        started = time.perf_counter()
        executor = QueryExecutor(
            self.graph, transaction=tx, parameters=parameters, clock=self.clock
        )
        columns, records = executor.stream(query)
        rows = list(records)
        self._finish_statement(tx)
        return self._wrap(columns, rows, executor, query, parameters, started)

    def _finish_statement(self, tx: Transaction) -> None:
        """Close the statement and fire its BEFORE/AFTER triggers."""
        delta = tx.end_statement()
        if not delta.is_empty():
            self.engine.run_statement_triggers(tx, delta)

    def _finalize_streaming(self, tx: Transaction) -> None:
        """Successful exhaustion of a streamed read: commit its transaction."""
        self._forget(tx)
        if tx.is_active:
            self._finish_statement(tx)
            self.manager.commit(tx)

    def _abort_streaming(self, tx: Transaction) -> None:
        """A streamed result failed mid-drain: roll its transaction back."""
        self._forget(tx)
        if tx.is_active:
            self.manager.rollback(tx)

    def _forget(self, tx: Transaction) -> None:
        del tx
        self._active_result = None

    def _detach_active_result(self) -> None:
        """Buffer and finalise the previous streamed result, if any.

        Keeps a pending stream from observing writes made by later
        statements (and from holding its auto-commit transaction open).
        """
        pending, self._active_result = self._active_result, None
        if pending is not None and not pending.consumed:
            pending.rows  # materialises the remainder and finalises

    def _wrap(
        self,
        columns: list[str],
        rows: list[dict[str, Any]],
        executor: QueryExecutor,
        query: str,
        parameters: Mapping[str, Any] | None,
        started: float,
    ) -> Result:
        elapsed = (time.perf_counter() - started) * 1000
        result = Result(
            columns,
            rows,
            executor.last_statistics,
            query=query,
            parameters=parameters,
            plan=self._plan_text(executor),
            started=started,
            available_after=elapsed,
            trigger_evaluation=(
                self.engine.evaluation_report() if len(self.registry) else None
            ),
        )
        result.summary().result_consumed_after = elapsed
        return result

    @staticmethod
    def _plan_text(executor: QueryExecutor) -> str | None:
        plan = executor.last_plan
        return plan.plan_description() if plan is not None else None

    def explain(self, query: str) -> str:
        """EXPLAIN: access paths and multi-pattern join order for ``query``.

        Same plan the next :meth:`run` of this text would use (shared
        global plan cache), without executing anything.
        """
        with self._read_guard():
            executor = QueryExecutor(self.graph, clock=self.clock)
            return executor.plan_description(query)

    def explain_triggers(self) -> dict[str, dict[str, Any]]:
        """Per-trigger evaluation observability (tiers, demotions, views).

        For every installed trigger: how many runs each evaluation tier
        handled (``incremental``/``batched``/``sequential``/``predicate``),
        every demotion down the ladder with its reason, and — for
        triggers with a compiled condition view — the view's current
        partial-match count and delta-maintenance counters, or the reason
        the condition was outside the compiled footprint.  The same
        report rides on every write statement's
        :attr:`~repro.cypher.result.ResultSummary.trigger_evaluation`.
        """
        with self._read_guard():
            return self.engine.evaluation_report()

    @contextlib.contextmanager
    def transaction(self) -> Iterator[Transaction]:
        """Group several :meth:`run` calls into one transaction.

        ONCOMMIT triggers see the union of all statements' changes and run
        when the block exits successfully; DETACHED triggers run after the
        commit.  On exception the transaction is rolled back and no commit-
        time trigger fires.

        In thread-safe mode the block holds the graph's exclusive write
        lock from entry to exit, so its statements — and its commit-time
        trigger cascade — form one isolated unit with respect to every
        other thread.
        """
        with self._write_guard():
            if self._open_transaction is not None:
                raise RuntimeError("a session transaction is already open")
            self._detach_active_result()
            tx = self.manager.begin()
            self._open_transaction = tx
            self._tx_owner = threading.get_ident()
            try:
                yield tx
            except Exception:
                self._open_transaction = None
                self._tx_owner = None
                if tx.is_active:
                    self.manager.rollback(tx)
                raise
            else:
                self._open_transaction = None
                self._tx_owner = None
                self.manager.commit(tx)

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------

    @property
    def durable(self) -> bool:
        """True when the session persists to disk (``path=`` was given)."""
        return self.store is not None

    def checkpoint(self) -> None:
        """Snapshot the current state and empty the write-ahead log.

        Requires a durable session and no open explicit transaction (the
        snapshot must describe a committed state).
        """
        store = self._require_store()
        with self._write_guard():
            if self._open_transaction is not None:
                raise RuntimeError("cannot checkpoint while a session transaction is open")
            self._detach_active_result()
            store.checkpoint(self.graph, self._trigger_states())

    def flush(self) -> None:
        """Force any group-commit-deferred WAL appends to stable storage."""
        store = self._require_store()
        with self._write_guard():
            store.sync()

    def close(self) -> None:
        """Flush and release the durable store (no-op for in-memory sessions).

        Any WAL records still sitting in the group-commit buffer are synced
        before the handles are released, so an acknowledged commit can never
        be lost by closing the session.
        """
        if self.store is None:
            return
        with self._write_guard():
            self._detach_active_result()
            self.store.close()

    def __enter__(self) -> "GraphSession":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _require_store(self) -> DurableStore:
        if self.store is None:
            raise RuntimeError("this session is in-memory; construct it with path=... ")
        return self.store

    def _trigger_states(self) -> list[TriggerState]:
        return [
            TriggerState(t.name, t.definition.to_pg_trigger(), enabled=t.enabled)
            for t in self.registry.ordered()
        ]

    def _log_commit(self, tx: Transaction, delta: GraphDelta) -> None:
        """Commit-log sink: write the committed delta's WAL record."""
        self.store.log_transaction(delta)

    def _maybe_auto_checkpoint(self, tx: Transaction, delta: GraphDelta) -> None:
        if self._checkpointing or self._open_transaction is not None:
            return
        if self.store.records_since_checkpoint < (self.checkpoint_every or 0):
            return
        self._checkpointing = True
        try:
            self.store.checkpoint(self.graph, self._trigger_states())
        finally:
            self._checkpointing = False

    # ------------------------------------------------------------------
    # commit hooks (ONCOMMIT / DETACHED action times)
    # ------------------------------------------------------------------

    def _on_before_commit(self, tx: Transaction, delta: GraphDelta) -> None:
        if tx.metadata.get("source") == "detached-trigger":
            # The autonomous transaction's own commit processing is driven by
            # the engine itself (its cascade already covers ONCOMMIT-style
            # reactions); avoid re-entrant processing here.
            return
        if not delta.is_empty():
            self.engine.run_commit_triggers(tx, delta)

    def _on_after_commit(self, tx: Transaction, delta: GraphDelta) -> None:
        if tx.metadata.get("source") == "detached-trigger":
            return
        if not delta.is_empty():
            self.engine.run_detached_triggers(delta)

    # ------------------------------------------------------------------
    # schema integration and introspection
    # ------------------------------------------------------------------

    def validate(self) -> list[Violation]:
        """Validate the graph against the session's PG-Schema (if any)."""
        if self.schema is None:
            return []
        with self._read_guard():
            return validate_graph(self.graph, self.schema)

    def alerts(self) -> list[dict[str, Any]]:
        """Convenience accessor for the ``Alert`` nodes the paper's triggers produce."""
        with self._read_guard():
            return [dict(node.properties) for node in self.graph.nodes_with_label("Alert")]

    def firing_log(self) -> list[str]:
        """Human-readable audit log of the most recent trigger firings."""
        return [str(firing) for firing in self.engine.firings]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GraphSession(nodes={self.graph.node_count()}, "
            f"relationships={self.graph.relationship_count()}, "
            f"triggers={len(self.registry)})"
        )
