"""The durability engine: WAL + snapshot persistence and recovery-on-open.

Directory layout (one directory per durable graph)::

    <path>/wal.log            append-only log, one record per committed tx
                              (plus trigger- and index-DDL records)
    <path>/snapshot.json      latest checkpoint (atomic-rename install)
    <path>/snapshot.json.tmp  in-flight checkpoint (removed on open)

Recovery (:meth:`DurableStore.open`) loads the latest valid snapshot,
truncates any torn tail the WAL carries, then replays every WAL record
whose LSN is newer than the snapshot.  Replay drives the ordinary store
mutation API, so label/property/range/relationship indexes and the O(1)
statistics counters rebuild deterministically as a side effect, and the
recovered :class:`PropertyGraph` carries a fresh ``plan_token`` — every
cached query plan keyed on the dead graph is thereby unreachable.

Record types:

* ``tx``      — a committed transaction's delta (``ops`` array, see codec)
* ``trigger`` — trigger DDL: install/drop/stop/start (+ CREATE TRIGGER text)
* ``index``   — index DDL: create/drop of property/range/relationship indexes
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from ..graph.serialization import graph_from_dict, graph_to_dict
from ..graph.store import PropertyGraph
from .codec import apply_operations, encode_delta
from .io import FileIO, StorageIO
from .wal import WriteAheadLog

SNAPSHOT_FORMAT_VERSION = 1
WAL_NAME = "wal.log"
SNAPSHOT_NAME = "snapshot.json"
SNAPSHOT_TMP_NAME = "snapshot.json.tmp"

#: Index-DDL kinds, mapping to the PropertyGraph create_*/drop_* methods.
_INDEX_METHODS = {
    ("create", "property"): PropertyGraph.create_property_index,
    ("drop", "property"): PropertyGraph.drop_property_index,
    ("create", "range"): PropertyGraph.create_range_index,
    ("drop", "range"): PropertyGraph.drop_range_index,
    ("create", "relationship"): PropertyGraph.create_relationship_property_index,
    ("drop", "relationship"): PropertyGraph.drop_relationship_property_index,
    # Composite-index records carry the property list in the prop field.
    ("create", "composite"): PropertyGraph.create_composite_index,
    ("drop", "composite"): PropertyGraph.drop_composite_index,
}


class RecoveryError(Exception):
    """The persisted state could not be restored (corrupt snapshot/WAL)."""


@dataclass(frozen=True)
class TriggerState:
    """Persisted form of one installed trigger."""

    name: str
    source: str
    enabled: bool = True


@dataclass
class RecoveredState:
    """What :meth:`DurableStore.open` reconstructed."""

    graph: PropertyGraph
    triggers: list[TriggerState] = field(default_factory=list)
    last_lsn: int = 0
    replayed_records: int = 0
    truncated_bytes: int = 0
    snapshot_loaded: bool = False


class DurableStore:
    """Write-ahead log + snapshot persistence for one property graph."""

    def __init__(
        self,
        path: str | os.PathLike[str],
        io: StorageIO | None = None,
        group_commit_size: int = 1,
    ) -> None:
        self.directory = os.fspath(path)
        # A store that minted its own IO may close it outright; a shared IO
        # (one FileIO serving every graph of a database) must only have
        # *this* store's handles released, or closing one graph would tear
        # down every sibling's cached WAL handle.
        self._owns_io = io is None
        self.io = io or FileIO()
        self.wal_path = os.path.join(self.directory, WAL_NAME)
        self.snapshot_path = os.path.join(self.directory, SNAPSHOT_NAME)
        self.snapshot_tmp_path = os.path.join(self.directory, SNAPSHOT_TMP_NAME)
        self.wal = WriteAheadLog(self.io, self.wal_path, group_commit_size=group_commit_size)
        self._next_lsn = 1
        self._records_since_checkpoint = 0
        # LSNs must stay strictly monotonic even when commit records (graph
        # write lock held) interleave with DDL from another thread.
        self._lsn_lock = threading.Lock()

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def open(self, graph_name: str | None = None) -> RecoveredState:
        """Recover the persisted state (or initialise an empty store)."""
        self.io.makedirs(self.directory)
        if self.io.exists(self.snapshot_tmp_path):
            # A checkpoint died before its atomic rename; the half-written
            # temporary is garbage (snapshot.json still holds the previous
            # complete checkpoint).
            self.io.remove(self.snapshot_tmp_path)
        state = self._load_snapshot(graph_name)
        scan = self.wal.truncate_torn_tail()
        state.truncated_bytes = scan.torn_bytes
        for record in scan.records:
            lsn = int(record.get("lsn", 0))
            if lsn <= state.last_lsn:
                continue  # checkpoint superseded this record (crash before WAL reset)
            self._replay(record, state)
            state.last_lsn = lsn
            state.replayed_records += 1
        self._next_lsn = state.last_lsn + 1
        self._records_since_checkpoint = state.replayed_records
        return state

    def _load_snapshot(self, graph_name: str | None) -> RecoveredState:
        if not self.io.exists(self.snapshot_path):
            return RecoveredState(graph=PropertyGraph(name=graph_name or "graph"))
        raw = self.io.read_bytes(self.snapshot_path)
        try:
            envelope = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RecoveryError(f"snapshot {self.snapshot_path} is not valid JSON: {exc}") from exc
        version = envelope.get("format_version")
        if version != SNAPSHOT_FORMAT_VERSION:
            raise RecoveryError(f"unsupported snapshot format version: {version}")
        crc, payload = envelope.get("crc"), envelope.get("snapshot")
        head = _envelope_head(crc) if isinstance(crc, int) else b""
        if not (
            head
            and isinstance(payload, dict)
            and raw.startswith(head)
            and zlib.crc32(raw[len(head):-1]) == crc
        ):
            raise RecoveryError(f"snapshot {self.snapshot_path} failed its checksum")
        graph = graph_from_dict(payload["graph"])
        if graph_name is not None:
            graph.name = graph_name
        triggers = [
            TriggerState(name=t["name"], source=t["source"], enabled=bool(t.get("enabled", True)))
            for t in payload.get("triggers", ())
        ]
        return RecoveredState(
            graph=graph,
            triggers=triggers,
            last_lsn=int(payload.get("lsn", 0)),
            snapshot_loaded=True,
        )

    def _replay(self, record: Mapping[str, Any], state: RecoveredState) -> None:
        kind = record.get("type")
        if kind == "tx":
            apply_operations(state.graph, record.get("ops", ()))
        elif kind == "trigger":
            self._replay_trigger(record, state)
        elif kind == "index":
            method = _INDEX_METHODS.get((record.get("action"), record.get("kind")))
            if method is None:
                raise RecoveryError(f"unknown index DDL record: {record!r}")
            method(state.graph, record["label"], record["prop"])
        else:
            raise RecoveryError(f"unknown WAL record type: {kind!r}")

    @staticmethod
    def _replay_trigger(record: Mapping[str, Any], state: RecoveredState) -> None:
        action, name = record.get("action"), record.get("name")
        if action == "install":
            state.triggers.append(TriggerState(name=name, source=record["source"]))
        elif action == "drop":
            state.triggers = [t for t in state.triggers if t.name != name]
        elif action in ("stop", "start"):
            state.triggers = [
                TriggerState(t.name, t.source, enabled=(action == "start"))
                if t.name == name
                else t
                for t in state.triggers
            ]
        else:
            raise RecoveryError(f"unknown trigger DDL record: {record!r}")

    # ------------------------------------------------------------------
    # logging
    # ------------------------------------------------------------------

    @property
    def last_lsn(self) -> int:
        """LSN of the most recently logged record."""
        return self._next_lsn - 1

    @property
    def records_since_checkpoint(self) -> int:
        """WAL records written (or replayed) since the last checkpoint."""
        return self._records_since_checkpoint

    def log_transaction(self, delta) -> int:
        """Append a committed transaction's delta; returns its LSN.

        Raises whatever the I/O layer raises — the transaction manager
        treats a failure here as a commit failure and rolls back, so a
        transaction is never reported committed without its WAL record
        being written (and fsynced, under the default policy).
        """
        lsn = self._allocate_lsn()
        self.wal.append({"type": "tx", "lsn": lsn, "ops": encode_delta(delta)})
        return lsn

    def log_trigger(self, action: str, name: str, source: str | None = None) -> int:
        """Append a trigger-DDL record (always fsynced — DDL is rare)."""
        payload: dict[str, Any] = {"type": "trigger", "lsn": self._allocate_lsn(), "action": action, "name": name}
        if source is not None:
            payload["source"] = source
        self.wal.append(payload, sync=True)
        return payload["lsn"]

    def log_index(
        self, action: str, kind: str, label: str, prop: str | list[str] | None
    ) -> int:
        """Append an index-DDL record (always fsynced)."""
        lsn = self._allocate_lsn()
        self.wal.append(
            {"type": "index", "lsn": lsn, "action": action, "kind": kind, "label": label, "prop": prop},
            sync=True,
        )
        return lsn

    def _allocate_lsn(self) -> int:
        with self._lsn_lock:
            lsn = self._next_lsn
            self._next_lsn += 1
            self._records_since_checkpoint += 1
            return lsn

    # ------------------------------------------------------------------
    # checkpointing and lifecycle
    # ------------------------------------------------------------------

    def checkpoint(self, graph: PropertyGraph, triggers: Iterable[TriggerState] = ()) -> None:
        """Write a snapshot covering everything logged so far, then empty the WAL.

        The snapshot is written to a temporary file, fsynced and atomically
        renamed over the previous one, so a crash at any point leaves
        either the old or the new snapshot fully intact.  The WAL is only
        truncated *after* the rename; a crash in between is harmless
        because replay skips records whose LSN the snapshot already covers.
        """
        payload = {
            "lsn": self.last_lsn,
            "graph": graph_to_dict(graph),
            "triggers": [
                {"name": t.name, "source": t.source, "enabled": t.enabled} for t in triggers
            ],
        }
        encoded = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8")
        data = _envelope_head(zlib.crc32(encoded)) + encoded + b"}"
        self.io.write_bytes(self.snapshot_tmp_path, data)
        self.io.fsync(self.snapshot_tmp_path)
        self.io.replace(self.snapshot_tmp_path, self.snapshot_path)
        self.wal.reset()
        self._records_since_checkpoint = 0

    def sync(self) -> None:
        """Flush any group-commit-deferred WAL appends to stable storage."""
        self.wal.sync()

    def close(self) -> None:
        """Flush pending appends and release file handles.

        Group-commit-deferred WAL records are fsynced *before* any handle
        is dropped, so a close can never silently discard an acknowledged
        commit.  A store that owns its IO closes it; a store on a shared
        IO releases only its own files' cached handles.
        """
        self.sync()
        if self._owns_io:
            self.io.close()
        else:
            for path in (self.wal_path, self.snapshot_path, self.snapshot_tmp_path):
                self.io.release(path)


def _envelope_head(crc: int) -> bytes:
    """The bytes before the payload in ``{"crc":N,"format_version":1,"snapshot":<payload>}``,
    the compact key-sorted envelope; ``crc`` covers exactly the payload bytes."""
    return b'{"crc":%d,"format_version":%d,"snapshot":' % (crc, SNAPSHOT_FORMAT_VERSION)
