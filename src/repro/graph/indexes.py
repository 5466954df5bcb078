"""Secondary indexes for the property graph store.

Three index families are provided:

* :class:`LabelIndex` — label -> set of item ids, used by the trigger
  engine's targeting step (a PG-Trigger targets all items with a label) and
  by Cypher's ``MATCH (n:Label)`` scans;
* :class:`PropertyIndex` — (label, property, value) -> set of node ids, an
  optional exact-match index used to accelerate ``MATCH (n:Label {k: v})``.
  The store also reuses it, keyed by relationship *type*, as the
  relationship-property index behind ``RelIndexSeek``;
* :class:`OrderedPropertyIndex` — an ordered (sorted-key) index over a
  (label, property) pair that answers both equality probes and **range
  seeks** (``<``, ``<=``, ``>``, ``>=``), backing the planner's
  ``IndexRangeSeek`` physical operator.  Each pair also lazily maintains
  an equi-depth value histogram (:mod:`repro.graph.histogram`) feeding the
  planner's range-selectivity estimates, plus ordered-id enumeration for
  index-backed ``ORDER BY``;
* :class:`CompositeIndex` — exact-match index over (label, (prop, ...))
  tuples, accelerating conjunctions of equality predicates with combined
  (multi-column) selectivity.

All are maintained eagerly by :class:`repro.graph.store.PropertyGraph`.
"""

from __future__ import annotations

import bisect
import datetime as _dt
import threading
from collections import defaultdict
from typing import Any, Hashable, Iterator, Mapping, Optional, Sequence

from .histogram import DEFAULT_BUCKETS, EquiDepthHistogram


class LabelIndex:
    """Maps label strings to sets of item ids."""

    def __init__(self) -> None:
        self._by_label: dict[str, set[int]] = defaultdict(set)

    def add(self, label: str, item_id: int) -> None:
        """Index ``item_id`` under ``label``."""
        self._by_label[label].add(item_id)

    def remove(self, label: str, item_id: int) -> None:
        """Remove ``item_id`` from ``label``; silently ignores missing entries."""
        bucket = self._by_label.get(label)
        if bucket is None:
            return
        bucket.discard(item_id)
        if not bucket:
            del self._by_label[label]

    def get(self, label: str) -> set[int]:
        """Return a copy of the id set for ``label`` (empty if unknown)."""
        return set(self._by_label.get(label, ()))

    def labels(self) -> list[str]:
        """Return all labels that currently index at least one item."""
        return sorted(self._by_label)

    def count(self, label: str) -> int:
        """Return the number of items carrying ``label``."""
        return len(self._by_label.get(label, ()))

    def __contains__(self, label: str) -> bool:
        return label in self._by_label

    def __iter__(self) -> Iterator[str]:
        return iter(self._by_label)


def _freeze_value(value: Any) -> Hashable:
    """Turn a property value into something hashable for index keys."""
    if isinstance(value, list):
        return tuple(_freeze_value(v) for v in value)
    return value


class PropertyIndex:
    """Exact-match index over (label, property) pairs.

    The index is sparse: only (label, property) pairs that have been
    explicitly registered with :meth:`create` are maintained.  This mirrors
    how a real graph database only indexes declared properties.
    """

    def __init__(self) -> None:
        self._indexed_pairs: set[tuple[str, str]] = set()
        self._entries: dict[tuple[str, str], dict[Hashable, set[int]]] = {}
        #: Running (total entries, distinct values) per pair, maintained
        #: by add/remove so selectivity estimates never need a scan.
        self._counts: dict[tuple[str, str], list[int]] = {}

    def create(self, label: str, prop: str) -> None:
        """Declare an index on ``label``/``prop`` (idempotent).

        DDL-driven plan invalidation lives in
        :attr:`repro.graph.store.PropertyGraph.index_epoch`, which the
        store bumps around calls to this method.
        """
        pair = (label, prop)
        if pair in self._indexed_pairs:
            return
        self._indexed_pairs.add(pair)
        self._entries[pair] = defaultdict(set)
        self._counts[pair] = [0, 0]

    def drop(self, label: str, prop: str) -> None:
        """Drop the index on ``label``/``prop`` if present."""
        pair = (label, prop)
        self._indexed_pairs.discard(pair)
        self._entries.pop(pair, None)
        self._counts.pop(pair, None)

    def is_indexed(self, label: str, prop: str) -> bool:
        """Return True when an index exists for ``label``/``prop``."""
        return (label, prop) in self._indexed_pairs

    def indexed_pairs(self) -> list[tuple[str, str]]:
        """Return the declared (label, property) pairs."""
        return sorted(self._indexed_pairs)

    def add(self, label: str, prop: str, value: Any, item_id: int) -> None:
        """Add an entry if the (label, property) pair is indexed."""
        pair = (label, prop)
        entries = self._entries.get(pair)
        if entries is None:
            return
        bucket = entries[_freeze_value(value)]
        if item_id not in bucket:
            bucket.add(item_id)
            counts = self._counts[pair]
            counts[0] += 1
            if len(bucket) == 1:
                counts[1] += 1

    def remove(self, label: str, prop: str, value: Any, item_id: int) -> None:
        """Remove an entry if present."""
        pair = (label, prop)
        entries = self._entries.get(pair)
        if entries is None:
            return
        key = _freeze_value(value)
        bucket = entries.get(key)
        if bucket is None or item_id not in bucket:
            return
        bucket.discard(item_id)
        counts = self._counts[pair]
        counts[0] -= 1
        if not bucket:
            counts[1] -= 1
            del entries[key]

    def selectivity(self, label: str, prop: str) -> float | None:
        """Expected entries per distinct value, from the running counters.

        O(1): the counters are maintained by :meth:`add`/:meth:`remove`.
        Returns ``None`` when the pair is not indexed and ``1.0`` for a
        declared-but-empty index (a probe behaves like a point lookup).
        """
        counts = self._counts.get((label, prop))
        if counts is None:
            return None
        total, distinct = counts
        if distinct == 0:
            return 1.0
        return total / distinct

    def lookup(self, label: str, prop: str, value: Any) -> set[int] | None:
        """Return matching ids, or ``None`` when the pair is not indexed.

        Returning ``None`` (rather than an empty set) lets callers
        distinguish "no index, fall back to a scan" from "indexed, zero
        matches".
        """
        pair = (label, prop)
        entries = self._entries.get(pair)
        if entries is None:
            return None
        return set(entries.get(_freeze_value(value), ()))


# ---------------------------------------------------------------------------
# ordered (range) index
# ---------------------------------------------------------------------------

#: Type classes whose members are totally ordered *among themselves* by
#: Python's comparison operators.  Values of different classes are kept in
#: separate sorted buckets: comparing across classes (``1 < 'a'``) raises in
#: the executor's live predicate evaluation, so a range seek is only allowed
#: to answer when every indexed entry lives in the bound's own class — any
#: foreign-class entry forces a scan fallback, which reproduces the live
#: error behaviour exactly.  ``bool``/``int``/``float`` share one class
#: because Python (and the executor's ``_compare``) orders them together.
_ORDERED_NUM = "num"
_ORDERED_STR = "str"
_ORDERED_DATETIME = "datetime"
_ORDERED_DATE = "date"
#: Values with no usable total order (lists, anything exotic): equality-only.
_UNORDERED = "other"


def _type_class(value: Any) -> str:
    """The ordered-bucket class of a property value."""
    if isinstance(value, float) and value != value:
        # NaN compares False against everything, which would silently break
        # bisect's sorted-list invariant (range seeks would then *drop*
        # matching rows, which the WHERE re-check cannot recover).  Keep it
        # in the unordered bucket: its presence forces the scan fallback,
        # which filters NaN exactly like an unindexed comparison.
        return _UNORDERED
    if isinstance(value, (bool, int, float)):
        return _ORDERED_NUM
    if isinstance(value, str):
        return _ORDERED_STR
    if isinstance(value, _dt.datetime):  # before date: datetime subclasses date
        return _ORDERED_DATETIME
    if isinstance(value, _dt.date):
        return _ORDERED_DATE
    return _UNORDERED


class _SortedBucket:
    """Ids grouped by value, with the distinct values kept in sorted order.

    The unordered bucket (``ordered=False``) serves equality probes only:
    its values need not be mutually comparable (two list properties of
    different element types, say), so no sorted key list is maintained —
    ``range_ids`` is never called on it.
    """

    __slots__ = ("ordered", "keys", "ids_by_value")

    def __init__(self, ordered: bool = True) -> None:
        self.ordered = ordered
        self.keys: list = []
        self.ids_by_value: dict[Hashable, set[int]] = {}

    def add(self, key: Hashable, item_id: int) -> bool:
        """Insert; returns True when the id was new to this bucket."""
        bucket = self.ids_by_value.get(key)
        if bucket is None:
            if self.ordered:
                bisect.insort(self.keys, key)
            bucket = self.ids_by_value[key] = set()
        if item_id in bucket:
            return False
        bucket.add(item_id)
        return True

    def remove(self, key: Hashable, item_id: int) -> bool:
        """Remove; returns True when the id was present."""
        bucket = self.ids_by_value.get(key)
        if bucket is None or item_id not in bucket:
            return False
        bucket.discard(item_id)
        if not bucket:
            del self.ids_by_value[key]
            if self.ordered:
                index = bisect.bisect_left(self.keys, key)
                # Equal-comparing keys can alias (True vs 1): delete the
                # exact one.
                while index < len(self.keys):
                    if self.keys[index] is key or self.keys[index] == key:
                        del self.keys[index]
                        break
                    index += 1
        return True

    def range_ids(
        self,
        lower: Any,
        upper: Any,
        include_lower: bool,
        include_upper: bool,
    ) -> set[int]:
        """Ids whose value falls inside the (possibly half-open) interval."""
        start = 0
        end = len(self.keys)
        if lower is not None:
            start = (
                bisect.bisect_left(self.keys, lower)
                if include_lower
                else bisect.bisect_right(self.keys, lower)
            )
        if upper is not None:
            end = (
                bisect.bisect_right(self.keys, upper)
                if include_upper
                else bisect.bisect_left(self.keys, upper)
            )
        result: set[int] = set()
        for key in self.keys[start:end]:
            result |= self.ids_by_value[key]
        return result

    def __len__(self) -> int:
        return sum(len(ids) for ids in self.ids_by_value.values())


class OrderedPropertyIndex:
    """Sorted index over (label, property) pairs: equality *and* range seeks.

    Like :class:`PropertyIndex` the index is sparse — only explicitly
    declared pairs are maintained — and DDL-driven plan invalidation lives
    in the store's ``index_epoch``.  Internally each pair keeps one sorted
    bucket per type class (see :func:`_type_class`): a range seek answers
    from the bound's class bucket, but only while every other class bucket
    is empty, because a live scan would raise ``CypherTypeError`` on the
    first cross-class comparison and the seek must never hide that error.
    """

    #: Rebuild a histogram once accumulated drift (mutations since build)
    #: exceeds ``max(_HISTOGRAM_MIN_DRIFT, built_total // 4)``.
    _HISTOGRAM_MIN_DRIFT = 16

    def __init__(self) -> None:
        self._indexed_pairs: set[tuple[str, str]] = set()
        self._buckets: dict[tuple[str, str], dict[str, _SortedBucket]] = {}
        #: Running (total entries, distinct values) per pair, as in
        #: :class:`PropertyIndex`, so selectivity estimates are O(1).
        self._counts: dict[tuple[str, str], list[int]] = {}
        #: Lazily built equi-depth histograms per pair: value is a
        #: ``[histogram | None, drift, stale]`` triple (see :meth:`histogram`).
        self._histograms: dict[tuple[str, str], list] = {}
        # Guards histogram (re)builds so concurrent readers (thread-safe
        # snapshot reads share the graph's read lock) build each at most once.
        self._histogram_lock = threading.Lock()

    def create(self, label: str, prop: str) -> None:
        """Declare an ordered index on ``label``/``prop`` (idempotent)."""
        pair = (label, prop)
        if pair in self._indexed_pairs:
            return
        self._indexed_pairs.add(pair)
        self._buckets[pair] = {}
        self._counts[pair] = [0, 0]
        self._histograms[pair] = [None, 0, True]

    def drop(self, label: str, prop: str) -> None:
        """Drop the ordered index on ``label``/``prop`` if present."""
        pair = (label, prop)
        self._indexed_pairs.discard(pair)
        self._buckets.pop(pair, None)
        self._counts.pop(pair, None)
        self._histograms.pop(pair, None)

    def is_indexed(self, label: str, prop: str) -> bool:
        """Return True when an ordered index exists for ``label``/``prop``."""
        return (label, prop) in self._indexed_pairs

    def indexed_pairs(self) -> list[tuple[str, str]]:
        """Return the declared (label, property) pairs."""
        return sorted(self._indexed_pairs)

    def add(self, label: str, prop: str, value: Any, item_id: int) -> None:
        """Add an entry if the (label, property) pair is indexed."""
        buckets = self._buckets.get((label, prop))
        if buckets is None:
            return
        tag = _type_class(value)
        bucket = buckets.get(tag)
        if bucket is None:
            bucket = buckets[tag] = _SortedBucket(ordered=tag != _UNORDERED)
        key = _freeze_value(value)
        distinct_before = len(bucket.ids_by_value)
        if bucket.add(key, item_id):
            counts = self._counts[(label, prop)]
            counts[0] += 1
            counts[1] += len(bucket.ids_by_value) - distinct_before
            self._note_mutation((label, prop), tag, key, added=True)

    def remove(self, label: str, prop: str, value: Any, item_id: int) -> None:
        """Remove an entry if present."""
        buckets = self._buckets.get((label, prop))
        if buckets is None:
            return
        tag = _type_class(value)
        bucket = buckets.get(tag)
        if bucket is None:
            return
        key = _freeze_value(value)
        distinct_before = len(bucket.ids_by_value)
        if bucket.remove(key, item_id):
            counts = self._counts[(label, prop)]
            counts[0] -= 1
            counts[1] -= distinct_before - len(bucket.ids_by_value)
            self._note_mutation((label, prop), tag, key, added=False)

    def _note_mutation(
        self, pair: tuple[str, str], tag: str, key: Hashable, added: bool
    ) -> None:
        """Keep the pair's histogram loosely in sync with one mutation.

        In-range mutations adjust a bucket count directly; anything the
        histogram cannot absorb (a value outside its built boundaries, or
        of a different type class) marks it stale for a lazy rebuild.
        Either way drift accumulates, bounding how far incremental counts
        may wander from a fresh build.
        """
        state = self._histograms.get(pair)
        if state is None:
            return
        histogram = state[0]
        state[1] += 1
        if histogram is None:
            return
        if tag != histogram.type_class:
            state[2] = True
            return
        absorbed = histogram.note_add(key) if added else histogram.note_remove(key)
        if not absorbed:
            state[2] = True

    def histogram(
        self, label: str, prop: str, bucket_target: int = DEFAULT_BUCKETS
    ) -> tuple[Optional[EquiDepthHistogram], bool]:
        """The pair's equi-depth histogram, rebuilt lazily when drifted.

        Returns ``(histogram, refreshed)``; ``refreshed`` is True when this
        call rebuilt it (the store bumps its index epoch then, so cached
        plans carrying the old estimates are invalidated).  ``(None,
        False)`` when the pair is not indexed or its entries span more than
        one type class — the same condition under which
        :meth:`range_lookup` declines, so no estimate is ever offered for a
        seek that would fall back to a scan.
        """
        pair = (label, prop)
        state = self._histograms.get(pair)
        if state is None:
            return None, False
        buckets = self._buckets.get(pair, {})
        populated = [
            (tag, bucket) for tag, bucket in buckets.items() if len(bucket.ids_by_value)
        ]
        if len(populated) > 1 or (populated and populated[0][0] == _UNORDERED):
            return None, False
        histogram = state[0]
        threshold = self._HISTOGRAM_MIN_DRIFT
        if histogram is not None:
            threshold = max(threshold, histogram.built_total // 4)
        if histogram is not None and not state[2] and state[1] <= threshold:
            return histogram, False
        with self._histogram_lock:
            state = self._histograms.get(pair)
            if state is None:
                return None, False
            if populated:
                tag, bucket = populated[0]
                rebuilt = EquiDepthHistogram(
                    tag,
                    bucket.keys,
                    lambda key: len(bucket.ids_by_value.get(key, ())),
                    bucket_target=bucket_target,
                )
            else:
                rebuilt = EquiDepthHistogram(_ORDERED_NUM, (), lambda key: 0)
            state[0] = rebuilt
            state[1] = 0
            state[2] = False
        return rebuilt, True

    def bounds(self, label: str, prop: str) -> Optional[tuple[Any, Any]]:
        """The (min, max) indexed value, for provably-empty-range clamping.

        ``(None, None)`` for a declared-but-empty index (every range over
        it is provably empty); ``None`` when the pair is not indexed or its
        entries span multiple type classes (no clamp can be trusted then).
        """
        pair = (label, prop)
        if pair not in self._indexed_pairs:
            return None
        populated = [
            (tag, bucket)
            for tag, bucket in self._buckets.get(pair, {}).items()
            if len(bucket.ids_by_value)
        ]
        if not populated:
            return (None, None)
        if len(populated) > 1 or populated[0][0] == _UNORDERED:
            return None
        bucket = populated[0][1]
        return (bucket.keys[0], bucket.keys[-1])

    def ordered_ids(
        self, label: str, prop: str, descending: bool = False
    ) -> Optional[list[int]]:
        """Indexed ids in value order (ids ascending within equal values).

        Backs index-backed ``ORDER BY``: the id tie-break reproduces the
        stable-sort order of the heap/sort route, whose input scans emit
        ids ascending.  ``None`` — "cannot answer, sort instead" — when the
        pair is not indexed or entries span more than one type class (a
        live sort would raise comparing across classes, and the fallback
        must preserve that error).
        """
        pair = (label, prop)
        if pair not in self._indexed_pairs:
            return None
        populated = [
            (tag, bucket)
            for tag, bucket in self._buckets.get(pair, {}).items()
            if len(bucket.ids_by_value)
        ]
        if not populated:
            return []
        if len(populated) > 1 or populated[0][0] == _UNORDERED:
            return None
        bucket = populated[0][1]
        keys = reversed(bucket.keys) if descending else bucket.keys
        ordered: list[int] = []
        for key in keys:
            ordered.extend(sorted(bucket.ids_by_value[key]))
        return ordered

    def lookup(self, label: str, prop: str, value: Any) -> set[int] | None:
        """Equality probe; ``None`` when the pair is not indexed."""
        buckets = self._buckets.get((label, prop))
        if buckets is None:
            return None
        bucket = buckets.get(_type_class(value))
        if bucket is None:
            return set()
        return set(bucket.ids_by_value.get(_freeze_value(value), ()))

    def range_lookup(
        self,
        label: str,
        prop: str,
        lower: Any = None,
        upper: Any = None,
        include_lower: bool = True,
        include_upper: bool = True,
    ) -> Optional[set[int]]:
        """Ids whose value lies within the bounds, or ``None`` to force a scan.

        Returns ``None`` — "cannot answer, fall back to scanning" — when the
        pair is not indexed, when the bounds are of different (or unordered)
        type classes, or when any entry of a *different* class exists: a live
        scan would raise on comparing that entry with the bound, and the
        fallback preserves that behaviour.
        """
        pair = (label, prop)
        if pair not in self._indexed_pairs:
            return None
        bounds = [b for b in (lower, upper) if b is not None]
        if not bounds:
            return None
        tags = {_type_class(b) for b in bounds}
        if len(tags) != 1:
            return None
        tag = tags.pop()
        if tag == _UNORDERED:
            return None
        buckets = self._buckets[pair]
        for other_tag, bucket in buckets.items():
            if other_tag != tag and len(bucket):
                return None
        bucket = buckets.get(tag)
        if bucket is None:
            return set()
        return bucket.range_ids(
            _freeze_value(lower) if lower is not None else None,
            _freeze_value(upper) if upper is not None else None,
            include_lower,
            include_upper,
        )

    def selectivity(self, label: str, prop: str) -> float | None:
        """Expected entries per distinct value (``None`` when not indexed)."""
        counts = self._counts.get((label, prop))
        if counts is None:
            return None
        total, distinct = counts
        if distinct == 0:
            return 1.0
        return total / distinct

    def entry_count(self, label: str, prop: str) -> int | None:
        """Total indexed entries for the pair (``None`` when not indexed)."""
        counts = self._counts.get((label, prop))
        if counts is None:
            return None
        return counts[0]


# ---------------------------------------------------------------------------
# composite (multi-property) index
# ---------------------------------------------------------------------------


class CompositeIndex:
    """Exact-match index over (label, (prop, ..., prop)) tuples.

    Indexes the *tuple* of a node's values for the declared properties, so
    a conjunction of equality predicates costs one probe with combined
    selectivity instead of one single-property probe plus residual
    filtering.  Nodes missing any of the declared properties are not
    indexed — ``n.p = v`` can never hold for a missing ``p`` (``null``
    equality is not ``true``), so a probe cannot miss them.
    """

    def __init__(self) -> None:
        self._indexed_keys: set[tuple[str, tuple[str, ...]]] = set()
        self._by_label: dict[str, list[tuple[str, ...]]] = defaultdict(list)
        self._entries: dict[
            tuple[str, tuple[str, ...]], dict[tuple, set[int]]
        ] = {}
        #: Running (total entries, distinct value tuples) per key.
        self._counts: dict[tuple[str, tuple[str, ...]], list[int]] = {}

    @staticmethod
    def _key(label: str, props: Sequence[str]) -> tuple[str, tuple[str, ...]]:
        return (label, tuple(props))

    def create(self, label: str, props: Sequence[str]) -> None:
        """Declare a composite index on ``label`` over ``props`` (idempotent)."""
        key = self._key(label, props)
        if key in self._indexed_keys:
            return
        self._indexed_keys.add(key)
        self._by_label[label].append(key[1])
        self._entries[key] = defaultdict(set)
        self._counts[key] = [0, 0]

    def drop(self, label: str, props: Sequence[str]) -> None:
        """Drop the composite index if present."""
        key = self._key(label, props)
        if key not in self._indexed_keys:
            return
        self._indexed_keys.discard(key)
        self._by_label[label].remove(key[1])
        if not self._by_label[label]:
            del self._by_label[label]
        self._entries.pop(key, None)
        self._counts.pop(key, None)

    def is_indexed(self, label: str, props: Sequence[str]) -> bool:
        """True when a composite index exists for exactly these properties."""
        return self._key(label, props) in self._indexed_keys

    def indexed_keys(self) -> list[tuple[str, tuple[str, ...]]]:
        """The declared (label, properties) keys, sorted."""
        return sorted(self._indexed_keys)

    def add_item(self, label: str, properties: Mapping[str, Any], item_id: int) -> None:
        """Index ``item_id`` under every declared composite it satisfies."""
        for props in self._by_label.get(label, ()):
            if any(prop not in properties for prop in props):
                continue
            values = tuple(_freeze_value(properties[prop]) for prop in props)
            bucket = self._entries[(label, props)][values]
            if item_id not in bucket:
                bucket.add(item_id)
                counts = self._counts[(label, props)]
                counts[0] += 1
                if len(bucket) == 1:
                    counts[1] += 1

    def remove_item(
        self, label: str, properties: Mapping[str, Any], item_id: int
    ) -> None:
        """Remove ``item_id``'s entries computed from ``properties``."""
        for props in self._by_label.get(label, ()):
            if any(prop not in properties for prop in props):
                continue
            values = tuple(_freeze_value(properties[prop]) for prop in props)
            entries = self._entries[(label, props)]
            bucket = entries.get(values)
            if bucket is None or item_id not in bucket:
                continue
            bucket.discard(item_id)
            counts = self._counts[(label, props)]
            counts[0] -= 1
            if not bucket:
                counts[1] -= 1
                del entries[values]

    def lookup(
        self, label: str, props: Sequence[str], values: Sequence[Any]
    ) -> set[int] | None:
        """Matching ids, or ``None`` when no such composite is declared."""
        key = self._key(label, props)
        entries = self._entries.get(key)
        if entries is None:
            return None
        frozen = tuple(_freeze_value(value) for value in values)
        return set(entries.get(frozen, ()))

    def selectivity(self, label: str, props: Sequence[str]) -> float | None:
        """Expected entries per distinct value tuple (``None`` if undeclared)."""
        counts = self._counts.get(self._key(label, props))
        if counts is None:
            return None
        total, distinct = counts
        if distinct == 0:
            return 1.0
        return total / distinct
