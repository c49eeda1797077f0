"""The event spine: one registry for every family of tracer event.

Every subsystem narrates into the same ``tracer.record_event`` stream
with its own frozen dataclass (failure, degradation, serving, cluster,
campaign, storage). :func:`event_family` tags such a class with its
family name; everything on the read side — the per-family views of
:class:`EventLog`, the trace-file blobs of :func:`event_to_blob` /
:func:`event_from_blob` — is derived from that tag and the dataclass
fields. Emitting stays a bare ``list.append``: nothing here runs when an
event is constructed or recorded.
"""

from __future__ import annotations

import dataclasses

#: family name -> event class, filled by :func:`event_family` as the
#: defining modules are imported
EVENT_FAMILIES: dict[str, type] = {}

#: dataclass field -> trace-file key, where the two differ
_BLOB_KEYS = {"op_name": "op", "pass_name": "pass"}

#: family name -> ((field, blob key), ...) in dataclass field order
_FIELDS: dict[str, tuple[tuple[str, str], ...]] = {}


def event_family(name: str):
    """Class decorator registering a frozen event dataclass as ``name``.

    Apply it above ``@dataclass``; the class gains a ``FAMILY`` class
    attribute (no field, nothing per instance).
    """
    def register(cls):
        cls.FAMILY = name
        EVENT_FAMILIES[name] = cls
        _FIELDS[name] = tuple((f.name, _BLOB_KEYS.get(f.name, f.name))
                              for f in dataclasses.fields(cls))
        return cls
    return register


def event_to_blob(event) -> dict:
    """``event`` as a JSON-ready dict, keys in dataclass field order.

    Raises ``ValueError`` for an object of no registered family.
    """
    fields = _FIELDS.get(getattr(event, "FAMILY", None))
    if fields is None:
        raise ValueError(
            f"{type(event).__name__} object belongs to no event family")
    blob = {key: getattr(event, name) for name, key in fields}
    if blob.get("link") is not None:
        blob["link"] = list(blob["link"])
    return blob


def event_from_blob(family: str, blob: dict):
    """Rebuild a ``family`` event from :func:`event_to_blob` output.

    Keys the blob lacks take the dataclass default; keys that are not
    fields (the trace file's ``seq``) are ignored.
    """
    kwargs = {name: blob[key] for name, key in _FIELDS[family]
              if key in blob}
    if kwargs.get("link") is not None:
        kwargs["link"] = tuple(kwargs["link"])
    return EVENT_FAMILIES[family](**kwargs)


class EventLog:
    """Read side of an ordered ``events`` list holding every family.

    The named views partition ``events``: each registered event is in
    exactly one of them (``fleet_events`` is a slice of
    ``serving_events``).
    """

    events: list

    def events_of(self, family: str, kind: str | None = None) -> list:
        """Events of one family in emit order, optionally of one kind."""
        return [e for e in self.events
                if getattr(e, "FAMILY", None) == family
                and (kind is None or e.kind == kind)]

    def failure_events(self, kind: str | None = None) -> list:
        """Recovery actions of the resilient runner."""
        return self.events_of("failure", kind)

    def degradation_events(self, kind: str | None = None) -> list:
        """Self-healing events (tier drops, quarantines, guardrails)."""
        return self.events_of("degradation", kind)

    def serving_events(self, kind: str | None = None) -> list:
        """Serving SLO events: terminal request outcomes, breaker
        transitions, hedges, restarts, and the fleet lifecycle."""
        return self.events_of("serving", kind)

    def fleet_events(self, kind: str | None = None) -> list:
        """The fleet-scoped slice of :meth:`serving_events`: events
        attributed to a ``zone`` or fleet ``server``."""
        return [e for e in self.events_of("serving", kind)
                if e.zone is not None or e.server is not None]

    def cluster_events(self, kind: str | None = None) -> list:
        """Distributed-training events (checkpoints, crashes,
        stragglers, retransmits, fallbacks, membership)."""
        return self.events_of("cluster", kind)

    def campaign_events(self, kind: str | None = None) -> list:
        """Chaos-campaign events (schedules, verdicts, violations)."""
        return self.events_of("campaign", kind)

    def storage_events(self, kind: str | None = None) -> list:
        """Checkpoint-durability events (commits, failovers, repairs,
        scrubs, garbage collection)."""
        return self.events_of("storage", kind)

    def fault_seconds(self) -> float:
        """Time attributed to failed attempts and recovery: the sum of
        ``seconds_lost`` over every event, letting profiles separate
        productive step time from time lost to faults."""
        return sum(e.seconds_lost for e in self.events)
