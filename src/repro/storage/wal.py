"""Append-only write-ahead log with framed, checksummed records.

Record frame layout (little-endian)::

    +----------+----------------+---------------+------------------+
    | magic 4B | payload len 4B | CRC32 4B      | payload (JSON)   |
    +----------+----------------+---------------+------------------+

The payload is a UTF-8 JSON object; the CRC covers the payload bytes.  A
reader scans records sequentially and stops at the first frame that is
incomplete, carries a wrong magic, fails its checksum or does not parse —
everything from that offset on is a *torn tail* left by a crash mid-append
and is truncated on recovery (:meth:`WriteAheadLog.truncate_torn_tail`).

Durability policy: ``append`` fsyncs the log every ``group_commit_size``
appends (1 = fsync-on-commit, the default).  Callers that need a record on
stable storage immediately (trigger/index DDL, checkpoints) pass
``sync=True``.
"""

from __future__ import annotations

import json
import struct
import threading
import zlib
from dataclasses import dataclass, field
from typing import Any, Mapping

from .io import StorageIO

#: Per-record frame magic; doubles as a corruption tripwire when a scan
#: lands off a record boundary.
RECORD_MAGIC = b"PGW1"

_FRAME_HEADER = struct.Struct("<4sII")


@dataclass
class WalScan:
    """Outcome of scanning a WAL file from the start."""

    records: list[dict[str, Any]] = field(default_factory=list)
    valid_size: int = 0
    total_size: int = 0

    @property
    def torn_bytes(self) -> int:
        """Bytes past the last valid record (0 when the log ends cleanly)."""
        return self.total_size - self.valid_size


def encode_record(payload: Mapping[str, Any]) -> bytes:
    """Frame ``payload`` as one WAL record."""
    data = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8")
    return _FRAME_HEADER.pack(RECORD_MAGIC, len(data), zlib.crc32(data)) + data


def scan_wal(io: StorageIO, path: str) -> WalScan:
    """Parse every valid record of ``path``, stopping at the torn tail."""
    if not io.exists(path):
        return WalScan()
    data = io.read_bytes(path)
    scan = WalScan(total_size=len(data))
    offset = 0
    while offset + _FRAME_HEADER.size <= len(data):
        magic, length, checksum = _FRAME_HEADER.unpack_from(data, offset)
        if magic != RECORD_MAGIC:
            break
        start = offset + _FRAME_HEADER.size
        end = start + length
        if end > len(data):
            break
        payload = data[start:end]
        if zlib.crc32(payload) != checksum:
            break
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            break
        if not isinstance(record, dict):
            break
        scan.records.append(record)
        offset = end
        scan.valid_size = offset
    return scan


class WriteAheadLog:
    """One append-only log file with group-commit fsync batching."""

    def __init__(self, io: StorageIO, path: str, group_commit_size: int = 1) -> None:
        if group_commit_size < 1:
            raise ValueError("group_commit_size must be >= 1")
        self.io = io
        self.path = path
        self.group_commit_size = group_commit_size
        self._unsynced_appends = 0
        # The group-commit buffer counter and the append/fsync interleaving
        # are process-global state per log file; serialise them so two
        # threads can never interleave their frames or double-count an
        # fsync window.  (Commits on one graph already hold the graph's
        # write lock, but DDL records and explicit `flush()` calls may
        # arrive from other threads.)
        self._lock = threading.RLock()

    @property
    def unsynced_appends(self) -> int:
        """Appends written since the last fsync (lost if the process dies)."""
        return self._unsynced_appends

    def append(self, payload: Mapping[str, Any], sync: bool | None = None) -> None:
        """Append one record; fsync per the group-commit policy.

        ``sync=True`` forces an immediate fsync, ``sync=False`` suppresses
        it (the caller takes responsibility), ``None`` applies the
        ``group_commit_size`` batching knob.
        """
        with self._lock:
            self.io.append_bytes(self.path, encode_record(payload))
            self._unsynced_appends += 1
            if sync is True or (
                sync is None and self._unsynced_appends >= self.group_commit_size
            ):
                self.sync()

    def sync(self) -> None:
        """Flush pending appends to stable storage."""
        with self._lock:
            if self._unsynced_appends and self.io.exists(self.path):
                self.io.fsync(self.path)
            self._unsynced_appends = 0

    def scan(self) -> WalScan:
        """Read all valid records currently in the log."""
        return scan_wal(self.io, self.path)

    def truncate_torn_tail(self) -> WalScan:
        """Drop any torn tail left by a crash; returns the resulting scan.

        The truncation is fsynced so a crash *during recovery* cannot
        resurrect the torn bytes.
        """
        scan = self.scan()
        if scan.torn_bytes:
            self.io.truncate(self.path, scan.valid_size)
            self.io.fsync(self.path)
        return scan

    def reset(self) -> None:
        """Empty the log (after a successful checkpoint) and fsync."""
        with self._lock:
            if self.io.exists(self.path):
                self.io.truncate(self.path, 0)
                self.io.fsync(self.path)
            self._unsynced_appends = 0
