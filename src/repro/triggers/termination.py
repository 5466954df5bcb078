"""Static termination analysis for trigger sets.

The paper (Section 6.2.3) observes that the ``MoveToNearHospital`` trigger
may not converge and points to the triggering-graph techniques of Baralis,
Ceri and Widom (1994) for termination analysis.  This module implements the
conservative version of that analysis:

1. For every installed trigger, map the *write footprint* of its action
   (:mod:`repro.triggers.footprint`, shared with the batched tier and
   the Section 4.2 check) to the *potential events* it can raise: CREATE
   per created label and relationship type, DELETE of anything, SET or
   REMOVE per added or removed label, and both SET *and* REMOVE per
   written key (``SET x.k = null`` removes).  What cannot be determined
   statically is a wildcard; an unknown footprint raises every event on
   any label and key.
2. Build the *triggering graph*: an edge ``T1 -> T2`` whenever an event
   that T1 can generate matches T2's monitored event.
3. The trigger set is guaranteed to terminate if the triggering graph is
   acyclic.  Cycles identify the trigger subsets that may cascade forever;
   they are reported so the designer can check that a data-dependent
   condition (such as testing bed availability before moving patients)
   bounds the recursion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .ast import EventType, ItemKind, TriggerDefinition
from .footprint import ANY, write_footprint


@dataclass(frozen=True)
class PotentialEvent:
    """An event that a trigger's action may generate.

    ``label`` / ``property`` may be :data:`ANY` when the statement's effect
    cannot be bound to a specific label statically (e.g. ``DELETE c`` where
    ``c`` is a matched relationship variable).
    """

    event: EventType
    item: ItemKind
    label: str = ANY
    property: Optional[str] = None

    def matches(self, trigger: TriggerDefinition) -> bool:
        """True when this event can activate ``trigger``."""
        if trigger.event != self.event or trigger.item != self.item:
            return False
        if self.label != ANY and trigger.label != self.label:
            return False
        if trigger.property is not None:
            # A label-only SET/REMOVE cannot activate a property-targeted trigger.
            if self.property is None:
                return False
            if self.property != ANY and self.property != trigger.property:
                return False
        return True


@dataclass
class TriggeringGraph:
    """The triggering graph over a set of trigger definitions."""

    triggers: list[TriggerDefinition]
    edges: dict[str, set[str]] = field(default_factory=dict)
    potential_events: dict[str, list[PotentialEvent]] = field(default_factory=dict)

    def successors(self, name: str) -> set[str]:
        """Triggers that ``name`` can activate."""
        return set(self.edges.get(name, set()))

    def cycles(self) -> list[list[str]]:
        """All elementary cycles (each reported once, rotated to its minimum)."""
        cycles: set[tuple[str, ...]] = set()

        def dfs(start: str, current: str, path: list[str], visited: set[str]) -> None:
            for successor in sorted(self.edges.get(current, set())):
                if successor == start:
                    cycle = tuple(path)
                    pivot = min(range(len(cycle)), key=lambda i: cycle[i])
                    cycles.add(cycle[pivot:] + cycle[:pivot])
                elif successor not in visited:
                    dfs(start, successor, path + [successor], visited | {successor})

        for trigger in self.triggers:
            dfs(trigger.name, trigger.name, [trigger.name], {trigger.name})
        return [list(c) for c in sorted(cycles)]

    def is_acyclic(self) -> bool:
        """True when no trigger can (transitively) re-activate itself."""
        return not self.cycles()

    def self_activating(self) -> list[str]:
        """Triggers with a direct self-loop."""
        return sorted(name for name, succ in self.edges.items() if name in succ)


@dataclass(frozen=True)
class TerminationReport:
    """Outcome of the termination analysis."""

    guaranteed_termination: bool
    cycles: tuple[tuple[str, ...], ...]
    potential_events: dict[str, tuple[PotentialEvent, ...]]

    def __str__(self) -> str:
        if self.guaranteed_termination:
            return "termination guaranteed: the triggering graph is acyclic"
        rendered = "; ".join(" -> ".join(cycle + (cycle[0],)) for cycle in self.cycles)
        return f"termination NOT guaranteed: cycles {rendered}"


def statement_events(definition: TriggerDefinition) -> list[PotentialEvent]:
    """Potential events generated by a trigger's action statement.

    A mapping of the statement's write footprint (see
    :mod:`repro.triggers.footprint` for the rules); an unknown footprint
    can raise every event.
    """
    footprint = write_footprint(definition.statement)
    if footprint.unknown:
        return [PotentialEvent(event, item, ANY, ANY) for event in EventType for item in ItemKind]
    node, rel = ItemKind.NODE, ItemKind.RELATIONSHIP
    events = [
        PotentialEvent(EventType.CREATE, node, label)
        for labels in footprint.created_label_sets
        for label in sorted(labels)
    ]
    events += [PotentialEvent(EventType.CREATE, rel, t) for t in sorted(footprint.created_types)]
    if footprint.deletes:
        events += [PotentialEvent(EventType.DELETE, node), PotentialEvent(EventType.DELETE, rel)]
    for event, labels in (
        (EventType.SET, footprint.added_labels),
        (EventType.REMOVE, footprint.removed_labels),
    ):
        for label in sorted(labels):
            events += [PotentialEvent(event, node, label), PotentialEvent(event, node)]
    keys = sorted(footprint.written_keys) + ([ANY] if footprint.writes_unknown_keys else [])
    events += [
        PotentialEvent(event, item, ANY, key)
        for key in keys
        for event in (EventType.SET, EventType.REMOVE)
        for item in (node, rel)
    ]
    return events


def build_triggering_graph(definitions: Iterable[TriggerDefinition]) -> TriggeringGraph:
    """Build the triggering graph for ``definitions``."""
    triggers = list(definitions)
    graph = TriggeringGraph(triggers=triggers)
    for source in triggers:
        events = statement_events(source)
        graph.potential_events[source.name] = events
        graph.edges[source.name] = {
            target.name
            for target in triggers
            if any(event.matches(target) for event in events)
        }
    return graph


def analyse_termination(definitions: Iterable[TriggerDefinition]) -> TerminationReport:
    """Run the conservative termination analysis over ``definitions``."""
    graph = build_triggering_graph(definitions)
    cycles = tuple(tuple(cycle) for cycle in graph.cycles())
    return TerminationReport(
        guaranteed_termination=not cycles,
        cycles=cycles,
        potential_events={
            name: tuple(events) for name, events in graph.potential_events.items()
        },
    )
