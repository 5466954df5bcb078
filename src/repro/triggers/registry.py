"""Trigger registry: installation, ordering, enable/disable.

Triggers with the same action time are executed in a total order given by
their creation time (the paper's Section 4.2 prioritisation rule); the
registry records an increasing *sequence number* at installation and hands
back triggers sorted by it.
"""

from __future__ import annotations

import itertools
import threading
from typing import Iterable

from ..cypher.ast import MatchClause, RemoveClause, SetClause, UnwindClause, WithClause
from ..cypher.errors import CypherError
from ..cypher.planner import PLAN_CACHE
from .ast import (
    ActionTime,
    EventType,
    Granularity,
    InstalledTrigger,
    TriggerDefinition,
)
from .errors import TriggerDefinitionError, TriggerRegistrationError
from .footprint import write_footprint
from .parser import parse_trigger


class TriggerRegistry:
    """Holds installed triggers, totally ordered by creation time."""

    def __init__(self) -> None:
        self._triggers: dict[str, InstalledTrigger] = {}
        self._sequence = itertools.count(1)
        # ordered() is on the per-statement hot path of the trigger engine;
        # memoise the sorted, time-filtered sequences (as tuples, so no
        # caller can corrupt an entry) until the trigger set changes.  The
        # `enabled` flag is filtered live on every call — it is a public
        # field that callers may toggle directly, so it must never be baked
        # into a cached result.
        self._order_cache: dict[tuple, tuple[InstalledTrigger, ...]] = {}
        # DDL and the order-cache rebuild may race with trigger evaluation
        # on other graphs' threads that share this registry object; the
        # lock keeps install/drop atomic with respect to cache rebuilds.
        self._lock = threading.RLock()
        # Bumped on every install/drop so derived per-trigger state (the
        # incremental condition views) can prune entries for triggers that
        # were dropped or re-installed without scanning on every delta.
        self._version = 0

    @property
    def version(self) -> int:
        """Monotonic counter of trigger-set changes (install/drop)."""
        return self._version

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def install(self, trigger: TriggerDefinition | str) -> InstalledTrigger:
        """Install a trigger (from a definition or CREATE TRIGGER text).

        Validates the legality constraints of Section 4.2 before accepting
        the trigger; raises :class:`TriggerDefinitionError` on violation and
        :class:`TriggerRegistrationError` on duplicate names.
        """
        definition = parse_trigger(trigger) if isinstance(trigger, str) else trigger
        validate_definition(definition)
        with self._lock:
            if definition.name in self._triggers:
                raise TriggerRegistrationError(
                    f"trigger {definition.name!r} is already installed"
                )
            installed = InstalledTrigger(definition=definition, sequence=next(self._sequence))
            self._triggers[definition.name] = installed
            self._order_cache.clear()
            self._version += 1
            return installed

    def drop(self, name: str) -> TriggerDefinition:
        """Remove a trigger by name, returning its definition."""
        with self._lock:
            installed = self._require(name)
            del self._triggers[name]
            self._order_cache.clear()
            self._version += 1
            return installed.definition

    def drop_all(self) -> int:
        """Remove every trigger, returning how many were removed."""
        with self._lock:
            count = len(self._triggers)
            self._triggers.clear()
            self._order_cache.clear()
            self._version += 1
            return count

    def stop(self, name: str) -> None:
        """Pause a trigger (it stays installed but no longer activates)."""
        self._require(name).enabled = False

    def start(self, name: str) -> None:
        """Resume a paused trigger."""
        self._require(name).enabled = True

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------

    def get(self, name: str) -> InstalledTrigger:
        """Fetch an installed trigger by name."""
        return self._require(name)

    def __contains__(self, name: str) -> bool:
        return name in self._triggers

    def __len__(self) -> int:
        return len(self._triggers)

    def names(self) -> list[str]:
        """Names of all installed triggers, in creation order."""
        return [t.name for t in self.ordered()]

    def ordered(
        self,
        times: Iterable[ActionTime] | None = None,
        enabled_only: bool = False,
    ) -> list[InstalledTrigger]:
        """Installed triggers sorted by creation sequence, optionally filtered."""
        times = tuple(times) if times is not None else None  # may be a one-shot iterator
        with self._lock:
            cached = self._order_cache.get(times)
            if cached is None:
                selected = sorted(self._triggers.values(), key=lambda t: t.sequence)
                if times is not None:
                    wanted = set(times)
                    selected = [t for t in selected if t.definition.time in wanted]
                cached = tuple(selected)
                self._order_cache[times] = cached
        if enabled_only:
            return [t for t in cached if t.enabled]
        return list(cached)

    def definitions(self) -> list[TriggerDefinition]:
        """All definitions in creation order."""
        return [t.definition for t in self.ordered()]

    def _require(self, name: str) -> InstalledTrigger:
        if name not in self._triggers:
            raise TriggerRegistrationError(f"no trigger named {name!r} is installed")
        return self._triggers[name]


# ---------------------------------------------------------------------------
# definition-level validation (Section 4.2 legality constraints)
# ---------------------------------------------------------------------------


def validate_definition(definition: TriggerDefinition) -> None:
    """Check a trigger definition against the paper's legality constraints."""
    _check_property_target(definition)
    _check_referencing(definition)
    _check_statement(definition)


def _check_property_target(definition: TriggerDefinition) -> None:
    if definition.property is not None and definition.event in (
        EventType.CREATE,
        EventType.DELETE,
    ):
        raise TriggerDefinitionError(
            f"trigger {definition.name!r}: property targets are only legal for SET/REMOVE events"
        )


def _check_referencing(definition: TriggerDefinition) -> None:
    for alias in definition.referencing:
        variable = alias.variable
        if definition.granularity == Granularity.EACH and variable.is_set_level:
            raise TriggerDefinitionError(
                f"trigger {definition.name!r}: {variable.value} is a set-level transition "
                "variable and requires FOR ALL granularity"
            )
        if definition.granularity == Granularity.ALL and not variable.is_set_level:
            raise TriggerDefinitionError(
                f"trigger {definition.name!r}: {variable.value} is an item-level transition "
                "variable and requires FOR EACH granularity"
            )
        expected_kind = variable.item_kind
        if expected_kind is not None and expected_kind != definition.item:
            raise TriggerDefinitionError(
                f"trigger {definition.name!r}: {variable.value} refers to "
                f"{expected_kind.value.lower()}s but the trigger is FOR "
                f"{definition.granularity.value} {definition.item.value}"
            )
        if variable.is_old and definition.event == EventType.CREATE:
            raise TriggerDefinitionError(
                f"trigger {definition.name!r}: {variable.value} is undefined for CREATE events"
            )
        if not variable.is_old and definition.event in (EventType.DELETE, EventType.REMOVE):
            raise TriggerDefinitionError(
                f"trigger {definition.name!r}: {variable.value} is undefined for "
                f"{definition.event.value} events"
            )


def _check_statement(definition: TriggerDefinition) -> None:
    """The statement may not set/remove the target label; BEFORE may only SET/REMOVE."""
    try:
        parsed = PLAN_CACHE.parse(definition.statement)
    except CypherError as exc:
        raise TriggerDefinitionError(
            f"trigger {definition.name!r}: cannot parse action statement: {exc}"
        ) from exc
    if definition.label in write_footprint(parsed).written_labels:
        raise TriggerDefinitionError(
            f"trigger {definition.name!r}: the action statement sets or removes the trigger's "
            f"target label {definition.label!r}, which Section 4.2 disallows"
        )
    if definition.time == ActionTime.BEFORE and not parsed.is_read_only:
        for clause in parsed.clauses:
            if not isinstance(
                clause, (SetClause, RemoveClause, MatchClause, UnwindClause, WithClause)
            ):
                raise TriggerDefinitionError(
                    f"trigger {definition.name!r}: BEFORE triggers may only condition NEW "
                    "states (SET/REMOVE); other updates require AFTER, ONCOMMIT or DETACHED"
                )

