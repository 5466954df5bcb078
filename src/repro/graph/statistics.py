"""Descriptive statistics and cardinality estimation over property graphs.

Two consumers live off this module:

* the benchmark harness and examples use :func:`compute_statistics` /
  :func:`describe` to characterise generated workloads;
* the query planner (:mod:`repro.cypher.planner`) uses
  :class:`CardinalityEstimator` to put numbers on MATCH patterns so it can
  order the patterns of a multi-pattern clause by estimated cost.

The estimates are deliberately cheap — every figure comes from an index
count or a ratio of counts, never from a scan — and deliberately advisory:
the executor re-verifies every candidate, so a wrong estimate can only cost
performance, never correctness.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .store import BOTH, PropertyGraph

#: Default selectivities for WHERE conjuncts the planner cannot answer from
#: an index: the System R-style constants applied per unestimated conjunct
#: when correcting a pattern's estimate for its residual filter.
EQUALITY_SELECTIVITY = 0.1
RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_SELECTIVITY = 0.25


@dataclass
class GraphStatistics:
    """Aggregate statistics of a property graph."""

    node_count: int = 0
    relationship_count: int = 0
    labels: dict[str, int] = field(default_factory=dict)
    relationship_types: dict[str, int] = field(default_factory=dict)
    node_property_keys: dict[str, int] = field(default_factory=dict)
    relationship_property_keys: dict[str, int] = field(default_factory=dict)
    min_degree: int = 0
    max_degree: int = 0
    mean_degree: float = 0.0
    unlabeled_nodes: int = 0

    def as_dict(self) -> dict:
        """Return a plain-dict view suitable for JSON output."""
        return {
            "node_count": self.node_count,
            "relationship_count": self.relationship_count,
            "labels": dict(self.labels),
            "relationship_types": dict(self.relationship_types),
            "node_property_keys": dict(self.node_property_keys),
            "relationship_property_keys": dict(self.relationship_property_keys),
            "min_degree": self.min_degree,
            "max_degree": self.max_degree,
            "mean_degree": self.mean_degree,
            "unlabeled_nodes": self.unlabeled_nodes,
        }


def compute_statistics(graph: PropertyGraph) -> GraphStatistics:
    """Compute :class:`GraphStatistics` for ``graph`` in a single pass."""
    label_counts: Counter[str] = Counter()
    node_prop_counts: Counter[str] = Counter()
    rel_type_counts: Counter[str] = Counter()
    rel_prop_counts: Counter[str] = Counter()
    degrees: list[int] = []
    unlabeled = 0

    for node in graph.nodes():
        if not node.labels:
            unlabeled += 1
        for label in node.labels:
            label_counts[label] += 1
        for key in node.properties:
            node_prop_counts[key] += 1
        degrees.append(graph.degree(node.id, BOTH))

    for rel in graph.relationships():
        rel_type_counts[rel.type] += 1
        for key in rel.properties:
            rel_prop_counts[key] += 1

    node_count = graph.node_count()
    return GraphStatistics(
        node_count=node_count,
        relationship_count=graph.relationship_count(),
        labels=dict(sorted(label_counts.items())),
        relationship_types=dict(sorted(rel_type_counts.items())),
        node_property_keys=dict(sorted(node_prop_counts.items())),
        relationship_property_keys=dict(sorted(rel_prop_counts.items())),
        min_degree=min(degrees) if degrees else 0,
        max_degree=max(degrees) if degrees else 0,
        mean_degree=(sum(degrees) / node_count) if node_count else 0.0,
        unlabeled_nodes=unlabeled,
    )


class CardinalityEstimator:
    """Cheap cardinality estimates for the query planner's cost model.

    Works against anything exposing the index-metadata surface of
    :class:`~repro.graph.store.PropertyGraph`; graph-likes missing a method
    degrade to neutral estimates instead of raising, so the planner keeps
    working on reduced fakes used in tests.

    All estimators return floats measured in *expected rows*.
    """

    def __init__(self, graph) -> None:
        self.graph = graph

    # -- node-level estimates -------------------------------------------

    def node_cardinality(self) -> float:
        """Expected rows of a full node scan: the node count."""
        return float(self._call("node_count", 0))

    def label_cardinality(self, labels: Iterable[str]) -> float:
        """Expected rows of a label scan over the most selective of ``labels``.

        The executor picks the smallest label bucket at run time, so the
        estimate mirrors that choice: the minimum per-label count.
        """
        counts = [self._label_count(label) for label in labels]
        if not counts:
            return self.node_cardinality()
        return float(min(counts))

    def index_selectivity(self, label: str, prop: str) -> float:
        """Expected rows of one equality probe into a declared index.

        Total indexed entries divided by distinct indexed values — the
        classic uniform-value assumption.  An empty or absent index
        estimates one row (a point lookup).
        """
        probe = getattr(self.graph, "property_index_selectivity", None)
        if probe is None:
            return 1.0
        selectivity = probe(label, prop)
        if selectivity is None:
            return 1.0
        return max(float(selectivity), 1.0)

    def range_scan_rows(
        self,
        label: str,
        prop: str,
        lower: object = None,
        upper: object = None,
        include_lower: bool = True,
        include_upper: bool = True,
    ) -> float:
        """Expected rows of a range seek into a declared ordered index.

        Three tiers, each only as good as what the graph exposes:

        1. **Clamp** — a provably empty range (inverted bounds, an
           exclusive point range, or bounds entirely outside the index's
           min/max) estimates exactly ``0.0``, before any histogram or
           heuristic gets a say.
        2. **Histogram** — with literal bounds and an equi-depth histogram
           (:meth:`~repro.graph.store.PropertyGraph.range_histogram`), sum
           the overlapped buckets.
        3. **Heuristic** — otherwise the classic *one-third* rule (System
           R's default for range predicates): a third of the indexed
           entries, degrading to a third of the label cardinality, never
           below one row.
        """
        counter = getattr(self.graph, "range_index_entry_count", None)
        total = counter(label, prop) if counter is not None else None
        if self._range_provably_empty(
            label, prop, lower, upper, include_lower, include_upper, total
        ):
            return 0.0
        if lower is not None or upper is not None:
            probe = getattr(self.graph, "range_histogram", None)
            histogram = probe(label, prop) if probe is not None else None
            if histogram is not None:
                estimate = histogram.estimate_range(
                    lower, upper, include_lower, include_upper
                )
                if estimate is not None:
                    return max(float(estimate), 0.0)
        if total is None:
            total = self.label_cardinality((label,))
        return max(float(total) / 3.0, 1.0)

    def _range_provably_empty(
        self,
        label: str,
        prop: str,
        lower: object,
        upper: object,
        include_lower: bool,
        include_upper: bool,
        total: int | None,
    ) -> bool:
        """True when no value can satisfy the bounds — estimate zero rows.

        Cross-type bound comparisons are treated as inconclusive (the live
        evaluation would raise, and the executor's fallback handles that);
        an unindexed pair never clamps.
        """
        bounded = lower is not None or upper is not None
        if lower is not None and upper is not None:
            try:
                if lower > upper:
                    return True
                if lower == upper and not (include_lower and include_upper):
                    return True
            except TypeError:
                return False
        if total == 0:
            return bounded  # declared-but-empty index: every range is empty
        probe = getattr(self.graph, "range_index_bounds", None)
        bounds = probe(label, prop) if probe is not None else None
        if bounds is None:
            return False
        low, high = bounds
        if low is None and high is None:
            return bounded
        try:
            if lower is not None and (
                lower > high or (lower == high and not include_lower)
            ):
                return True
            if upper is not None and (
                upper < low or (upper == low and not include_upper)
            ):
                return True
        except TypeError:
            return False
        return False

    def composite_rows(self, label: str, props: Sequence[str]) -> float | None:
        """Expected rows of one probe into a composite index.

        Combined (multi-column) selectivity from the composite's running
        counters; ``None`` when no composite index covers exactly ``props``
        (the planner then falls back to single-property probes).
        """
        probe = getattr(self.graph, "composite_index_selectivity", None)
        if probe is None:
            return None
        selectivity = probe(label, props)
        if selectivity is None:
            return None
        return max(float(selectivity), 1.0)

    def in_list_rows(self, label: str, prop: str, value_count: Optional[int]) -> float:
        """Expected rows of an IN-list seek: one equality probe per element.

        ``value_count`` is ``None`` when the list is a parameter whose
        length is unknown at plan time; a small default is assumed.
        """
        per_probe = self.index_selectivity(label, prop)
        count = 3 if value_count is None else value_count
        return max(per_probe * count, 1.0)

    def relationship_index_selectivity(self, rel_type: str, prop: str) -> float:
        """Expected rows of one equality probe into a (type, prop) rel index."""
        probe = getattr(self.graph, "relationship_property_index_selectivity", None)
        if probe is None:
            return 1.0
        selectivity = probe(rel_type, prop)
        if selectivity is None:
            return 1.0
        return max(float(selectivity), 1.0)

    def label_fraction(self, labels: Iterable[str]) -> float:
        """Fraction of all nodes carrying the most selective of ``labels``."""
        total = self.node_cardinality()
        if total <= 0:
            return 1.0
        return min(self.label_cardinality(labels) / total, 1.0)

    # -- relationship-level estimates -----------------------------------

    def expansion_factor(self, rel_types: Iterable[str] = (), labels: tuple = ()) -> float:
        """Expected neighbours reached by expanding one relationship hop.

        With types given, only relationships of those types count.  Every
        relationship is traversable from both endpoints, hence the factor
        of two over the raw count.  From a node known to carry ``labels``
        (that the store counts), every counted relationship is taken to
        touch one such node instead.
        """
        labelled = self.label_cardinality(labels) if labels else 0.0
        nodes = labelled or self.node_cardinality()
        if nodes <= 0:
            return 0.0
        types = tuple(rel_types)
        if types:
            rels = sum(self._type_count(rel_type) for rel_type in types)
        else:
            rels = self._call("relationship_count", 0)
        return (1.0 if labelled else 2.0) * float(rels) / nodes

    def pattern_cardinality(self, start_rows: float, elements: Sequence) -> float:
        """Expected rows of matching a path pattern given its start estimate.

        Walks the pattern left to right from ``start_rows``: each
        relationship hop multiplies by the expansion factor of its types,
        each labelled interior/target node filters by its label fraction.
        ``elements`` uses the planner's representation (NodePattern /
        RelationshipPattern alternation); only duck-typed attributes
        (``types``, ``labels``, ``min_hops``) are touched.
        """
        estimate = float(start_rows)
        for element in elements[1:]:
            types = getattr(element, "types", None)
            if types is not None:  # a relationship hop
                factor = self.expansion_factor(types)
                hops = getattr(element, "min_hops", None) or 1
                estimate *= factor ** max(int(hops), 1)
            else:  # an interior or target node
                labels = tuple(getattr(element, "labels", ()) or ())
                if labels:
                    estimate *= self.label_fraction(labels)
        return estimate

    def variable_length_cardinality(
        self,
        rel_types: Iterable[str] = (),
        min_hops: int | None = None,
        max_hops: int | None = None,
        hop_cap: int = 15,
    ) -> float:
        """Expected targets of one ``-[:T*min..max]->`` variable-length hop.

        A depth-``d`` expansion reaches ``factor ** d`` candidates, and the
        hop emits a row per depth in the window, so the estimate is the sum
        of ``factor ** d`` over ``d`` in ``[min, max]``.  An unbounded
        ``max`` is capped at ``hop_cap`` — the executor's default traversal
        cap — and ``0.0 ** 0 == 1.0`` makes the zero-hop self row fall out
        of the arithmetic even on an edgeless graph.
        """
        factor = self.expansion_factor(rel_types)
        low = int(min_hops) if min_hops is not None else 1
        low = max(low, 0)
        high = int(max_hops) if max_hops is not None else hop_cap
        estimate = 0.0
        for depth in range(low, max(high, low - 1) + 1):
            estimate += factor**depth
            if estimate > 1e18:  # saturate instead of overflowing
                break
        return estimate

    # -- internals ------------------------------------------------------

    def _call(self, method: str, default: float) -> float:
        candidate = getattr(self.graph, method, None)
        if candidate is None:
            return float(default)
        return float(candidate())

    def _label_count(self, label: str) -> float:
        counter = getattr(self.graph, "count_nodes_with_label", None)
        if counter is None:
            return self.node_cardinality()
        return float(counter(label))

    def _type_count(self, rel_type: str) -> float:
        counter = getattr(self.graph, "count_relationships_with_type", None)
        if counter is None:
            return self._call("relationship_count", 0)
        return float(counter(rel_type))


def describe(graph: PropertyGraph) -> str:
    """Return a short human-readable description of ``graph``."""
    stats = compute_statistics(graph)
    label_text = ", ".join(f"{label}={count}" for label, count in stats.labels.items())
    type_text = ", ".join(
        f"{rel_type}={count}" for rel_type, count in stats.relationship_types.items()
    )
    return (
        f"{graph.name}: {stats.node_count} nodes, {stats.relationship_count} relationships\n"
        f"  labels: {label_text or '(none)'}\n"
        f"  relationship types: {type_text or '(none)'}\n"
        f"  degree: min={stats.min_degree} mean={stats.mean_degree:.2f} max={stats.max_degree}"
    )
