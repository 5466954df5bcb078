"""Span recorder for the traced run, installed from outside ``src/``.

``install()`` wraps the public callables at each layer boundary of
``repro`` (the table in README.md) with monotonic-clock spans.  A span
is ``[name, start_ns, end_ns, parent, root]``: ``parent`` is the span
that was open on the same thread when this one began (-1 for none) and
``root`` the outermost span of that chain, so all spans of one operation
share an identifier.  Spans stay in per-thread lists in memory;
``snapshot()`` flattens them together with the counters taken at the
same boundaries, and ``self_times()`` turns them into per-name self
time (a span's duration minus the part its child spans cover).

Nothing here is imported by the untraced run.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Iterator

_clock = time.perf_counter_ns


class Tracer:
    """In-memory span store: one append-only list per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[list[list]] = []
        self._register = threading.Lock()
        self.wal_bytes = 0
        #: Records pulled out of executor pipelines (trigger-internal ones too).
        self.rows = 0
        #: Trigger engines seen by the dispatch wrappers (the server child
        #: has no other handle on the sessions ``repro.server`` creates).
        self.engines: dict[int, Any] = {}

    def _state(self):
        local = self._local
        try:
            return local.spans, local.stack
        except AttributeError:
            local.spans, local.stack = [], []
            with self._register:
                self._threads.append(local.spans)
            return local.spans, local.stack

    def begin(self, name: str) -> list:
        spans, stack = self._state()
        index = len(spans)
        if stack:
            parent = stack[-1]
            span = [name, 0, 0, parent, spans[parent][4]]
        else:
            span = [name, 0, 0, -1, index]
        spans.append(span)
        stack.append(index)
        span[1] = _clock()
        return span

    def end(self, span: list) -> None:
        span[2] = _clock()
        self._local.stack.pop()

    def reset(self) -> None:
        """Forget the spans recorded so far (end of warm-up).

        Only called while no operation is in flight, so every stack is
        empty and the per-thread lists can be cleared in place.
        """
        for spans in self._threads:
            del spans[:]
        self.wal_bytes = self.rows = 0

    def snapshot(self, with_spans: bool = True) -> dict[str, Any]:
        """Flatten spans (indices rebased across threads) and read counters.

        The counters are running totals; callers subtract the snapshot
        they took at ``reset()`` time to get the measured window's share.
        """
        flat: list[list] = []
        for spans in self._threads if with_spans else ():
            base = len(flat)
            for name, start, end, parent, root in spans:
                flat.append([name, start, end, parent + base if parent >= 0 else -1, root + base])
        return {
            "spans": flat,
            "wal_bytes": self.wal_bytes,
            "rows": self.rows,
            "plan_cache": _plan_cache_stats(),
            "triggers": _trigger_counters(self.engines.values()),
        }


def _plan_cache_stats() -> dict[str, int]:
    from repro.cypher import PLAN_CACHE

    return dict(PLAN_CACHE.stats.snapshot())


def _trigger_counters(engines) -> dict[str, Any]:
    """Firing and tier totals over every engine the wrappers have seen."""
    totals = {"executed": 0, "suppressed": 0, "demotions": 0, "view_rebuilds": 0}
    tiers: dict[str, int] = {}
    for engine in engines:
        for entry in engine.firing_summary().values():
            totals["executed"] += entry["executed"]
            totals["suppressed"] += entry["suppressed"]
        for entry in engine.evaluation_report().values():
            for tier, runs in entry["tiers"].items():
                tiers[tier] = tiers.get(tier, 0) + runs
            totals["demotions"] += sum(entry["demotions"].values())
        totals["view_rebuilds"] += engine.incremental_stats["view_rebuilds"]
    totals["tiers"] = tiers
    return totals


TRACER = Tracer()


def timed(name: str, function: Callable) -> Callable:
    begin, end = TRACER.begin, TRACER.end

    def wrapper(*args, **kwargs):
        span = begin(name)
        try:
            return function(*args, **kwargs)
        finally:
            end(span)

    return wrapper


def timed_rows(rows) -> Iterator[dict]:
    """Charge the time spent pulling each record to ``cypher.exec``."""
    begin, end = TRACER.begin, TRACER.end
    iterator = iter(rows)
    while True:
        span = begin("cypher.exec")
        try:
            row = next(iterator)
        except StopIteration:
            return
        finally:
            end(span)
        TRACER.rows += 1
        yield row


class _TimedEnter:
    """Context manager proxy that records the wait inside ``__enter__``."""

    def __init__(self, inner) -> None:
        self._inner = inner

    def __enter__(self):
        span = TRACER.begin("tx.lock_wait")
        try:
            return self._inner.__enter__()
        finally:
            TRACER.end(span)

    def __exit__(self, *exc_info):
        return self._inner.__exit__(*exc_info)


def install(server: bool = False) -> Tracer:
    """Wrap the layer boundaries (once per process); ``server`` adds the wire spans."""
    from repro import GraphSession
    from repro.cypher import PLAN_CACHE, QueryExecutor
    from repro.storage import DurableStore, FileIO
    from repro.triggers import TriggerEngine
    from repro.tx import LockManager, TransactionManager

    GraphSession.run = timed("session.run", GraphSession.run)

    # The cache is one process-global instance; instance attributes shadow
    # the methods, so internal self.parse() calls nest as child spans.
    PLAN_CACHE.parse = timed("cypher.parse", PLAN_CACHE.parse)
    PLAN_CACHE.get = timed("cypher.plan", PLAN_CACHE.get)
    PLAN_CACHE.get_for_parsed = timed("cypher.plan", PLAN_CACHE.get_for_parsed)

    stream = timed("cypher.exec", QueryExecutor.stream)

    def traced_stream(self, *args, **kwargs):
        columns, rows = stream(self, *args, **kwargs)
        return columns, timed_rows(rows)

    QueryExecutor.stream = traced_stream

    for method in ("run_statement_triggers", "run_commit_triggers", "run_detached_triggers"):
        dispatch = timed("triggers.dispatch", getattr(TriggerEngine, method))

        def traced_dispatch(self, *args, _dispatch=dispatch, **kwargs):
            TRACER.engines.setdefault(id(self), self)
            return _dispatch(self, *args, **kwargs)

        setattr(TriggerEngine, method, traced_dispatch)

    TransactionManager.commit = timed("tx.commit", TransactionManager.commit)
    TransactionManager.rollback = timed("tx.rollback", TransactionManager.rollback)
    for mode in ("read", "write"):
        acquire = getattr(LockManager, mode)

        def traced_lock(self, *args, _acquire=acquire, **kwargs):
            return _TimedEnter(_acquire(self, *args, **kwargs))

        setattr(LockManager, mode, traced_lock)

    DurableStore.log_transaction = timed("storage.log", DurableStore.log_transaction)
    FileIO.fsync = timed("storage.fsync", FileIO.fsync)
    append_bytes = FileIO.append_bytes

    def counted_append(self, path, data):
        TRACER.wal_bytes += len(data)
        return append_bytes(self, path, data)

    FileIO.append_bytes = counted_append

    if server:
        import json
        import types

        from repro.server import app

        app.record_to_wire = timed("server.wire", app.record_to_wire)
        # app looks json.dumps up through its own module global, so a
        # stand-in namespace times the response encoding without touching
        # the json module the WAL shares.
        app.json = types.SimpleNamespace(
            dumps=timed("server.wire", json.dumps),
            loads=json.loads,
            JSONDecodeError=json.JSONDecodeError,
        )
    return TRACER


def self_times(spans: list[list]) -> tuple[dict[str, int], dict[str, int]]:
    """Per-name total self time (ns) and span count."""
    self_ns = [end - start for _name, start, end, _parent, _root in spans]
    for index, (_name, start, end, parent, _root) in enumerate(spans):
        if parent >= 0:
            self_ns[parent] -= end - start
    totals: dict[str, int] = {}
    counts: dict[str, int] = {}
    for (name, *_rest), own in zip(spans, self_ns):
        totals[name] = totals.get(name, 0) + own
        counts[name] = counts.get(name, 0) + 1
    return totals, counts


def inclusive_time(spans: list[list], name: str) -> int:
    """Total duration (ns) of the spans called ``name``."""
    return sum(end - start for span_name, start, end, _p, _r in spans if span_name == name)
