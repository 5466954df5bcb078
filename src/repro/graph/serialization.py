"""JSON serialization for property graphs.

The format is a plain dictionary with ``nodes``, ``relationships`` and
``indexes`` arrays, so dumps are human-inspectable and diffable.  Dates and
datetimes are encoded as tagged objects to survive the round trip.
"""

from __future__ import annotations

import datetime as _dt
import json
from pathlib import Path
from typing import Any

from .store import PropertyGraph

FORMAT_VERSION = 1


def encode_value(value: Any) -> Any:
    """Encode a property value into a JSON-safe representation.

    Dates and datetimes become tagged objects; lists (and tuples, which the
    store normalises to lists) are encoded element-wise.  Values the store
    would reject (dicts, sets, arbitrary objects) raise ``ValueError`` here
    rather than producing a payload that cannot be decoded back — WAL and
    snapshot records must stay round-trippable.
    """
    if isinstance(value, _dt.datetime):
        return {"$type": "datetime", "value": value.isoformat()}
    if isinstance(value, _dt.date):
        return {"$type": "date", "value": value.isoformat()}
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ValueError(f"unserializable property value type: {type(value).__name__}")


def decode_value(value: Any) -> Any:
    """Decode a value previously produced by :func:`encode_value`."""
    if isinstance(value, dict) and "$type" in value:
        if value["$type"] == "datetime":
            return _dt.datetime.fromisoformat(value["value"])
        if value["$type"] == "date":
            return _dt.date.fromisoformat(value["value"])
        raise ValueError(f"unknown tagged value type: {value['$type']}")
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    return value


def graph_to_dict(graph: PropertyGraph) -> dict[str, Any]:
    """Serialize ``graph`` into a JSON-compatible dictionary."""
    return {
        "format_version": FORMAT_VERSION,
        "name": graph.name,
        "nodes": [
            {
                "id": node.id,
                "labels": sorted(node.labels),
                "properties": {k: encode_value(v) for k, v in node.properties.items()},
            }
            for node in sorted(graph.nodes(), key=lambda n: n.id)
        ],
        "relationships": [
            {
                "id": rel.id,
                "type": rel.type,
                "start": rel.start,
                "end": rel.end,
                "properties": {k: encode_value(v) for k, v in rel.properties.items()},
            }
            for rel in sorted(graph.relationships(), key=lambda r: r.id)
        ],
        "indexes": [list(pair) for pair in graph.property_indexes()],
        "range_indexes": [list(pair) for pair in graph.range_indexes()],
        "relationship_indexes": [
            list(pair) for pair in graph.relationship_property_indexes()
        ],
        "composite_indexes": [
            [label, list(props)] for label, props in graph.composite_indexes()
        ],
    }


def graph_from_dict(payload: dict[str, Any]) -> PropertyGraph:
    """Rebuild a :class:`PropertyGraph` from :func:`graph_to_dict` output."""
    version = payload.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported graph format version: {version}")
    graph = PropertyGraph(name=payload.get("name", "graph"))
    for node in payload.get("nodes", ()):
        graph.create_node(
            labels=node.get("labels", ()),
            properties={k: decode_value(v) for k, v in node.get("properties", {}).items()},
            node_id=node["id"],
        )
    for rel in payload.get("relationships", ()):
        graph.create_relationship(
            rel_type=rel["type"],
            start=rel["start"],
            end=rel["end"],
            properties={k: decode_value(v) for k, v in rel.get("properties", {}).items()},
            rel_id=rel["id"],
        )
    for label, prop in payload.get("indexes", ()):
        graph.create_property_index(label, prop)
    for label, prop in payload.get("range_indexes", ()):
        graph.create_range_index(label, prop)
    for rel_type, prop in payload.get("relationship_indexes", ()):
        graph.create_relationship_property_index(rel_type, prop)
    for label, props in payload.get("composite_indexes", ()):
        graph.create_composite_index(label, props)
    return graph


def fingerprint(graph: PropertyGraph) -> str:
    """Canonical JSON of the graph's structural state (name excluded).

    Two graphs with identical nodes, relationships and index catalogs have
    identical fingerprints regardless of their ``name`` or the order their
    contents were inserted — the equality the durability tests assert
    between a surviving graph and its recovered twin.
    """
    payload = graph_to_dict(graph)
    payload.pop("name", None)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def dumps(graph: PropertyGraph, indent: int | None = 2) -> str:
    """Serialize ``graph`` to a JSON string."""
    return json.dumps(graph_to_dict(graph), indent=indent, sort_keys=False)


def loads(text: str) -> PropertyGraph:
    """Deserialize a graph from a JSON string."""
    return graph_from_dict(json.loads(text))


def save(graph: PropertyGraph, path: str | Path) -> None:
    """Write ``graph`` as JSON to ``path``."""
    Path(path).write_text(dumps(graph), encoding="utf-8")


def load(path: str | Path) -> PropertyGraph:
    """Read a graph previously written by :func:`save`."""
    return loads(Path(path).read_text(encoding="utf-8"))
