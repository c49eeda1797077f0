"""Serving request/reply records and SLO observability events.

Every request accepted by the server terminates in exactly one
:class:`Reply` whose ``outcome`` is one of :data:`OUTCOMES`; every
terminal outcome (and every breaker transition, hedge, and replica
restart along the way) is also emitted as a :class:`ServingEvent`
through the same tracer hook that carries
:class:`~repro.framework.resilience.FailureEvent` and
:class:`~repro.framework.session.DegradationEvent` records — so a
serialized trace of a serving run interleaves the SLO story with the
self-healing story in emit order (see
:mod:`repro.profiling.serialize`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.framework.events import event_family

#: terminal request outcomes:
#: ``ok`` — answered within its deadline;
#: ``shed`` — rejected at admission (queue full / deadline hopeless);
#: ``deadline`` — accepted but its reply came (or could only come) late;
#: ``error`` — accepted but every (hedged) execution attempt failed.
OUTCOMES = ("ok", "shed", "deadline", "error")

#: ServingEvent kinds beyond the per-request ``reply``/``shed`` pair
EVENT_KINDS = ("reply", "shed", "hedge", "probe", "replica_restart",
               "breaker_open", "breaker_half_open", "breaker_close")

#: fleet-scoped ServingEvent kinds (see :mod:`repro.serving.fleet`):
#: zone/server lifecycle, load-balancer re-routes, health ejections,
#: autoscaling, and rollout/canary decisions. Fleet events carry the
#: ``zone``/``server`` fields; per-server events leave them ``None``.
FLEET_EVENT_KINDS = (
    "zone_down", "zone_up", "server_down", "server_up", "server_crash",
    "reroute", "blackhole", "blackhole_heal",
    "probe_fail", "eject", "reinstate",
    "drain_start", "drain_done", "scale_up", "scale_down",
    "rollout_start", "rollout_stage", "canary_pass", "canary_fail",
    "rollback", "rollout_done")


@event_family("serving")
@dataclass(frozen=True)
class ServingEvent:
    """One structured serving-layer action, for SLO observability.

    Kinds:

    * ``reply`` — a request reached a terminal outcome (``outcome`` is
      ``ok``/``deadline``/``error``; latency and deadline recorded);
    * ``shed`` — a request was rejected at admission (``outcome`` is
      always ``shed``; ``detail`` carries the reason);
    * ``hedge`` — a request from a failed or straggling batch was
      re-enqueued for retry on a healthy replica;
    * ``probe`` — a half-open replica received a trial batch;
    * ``replica_restart`` — a crashed replica's session was rebuilt;
    * ``breaker_open`` / ``breaker_half_open`` / ``breaker_close`` —
      circuit-breaker transitions for ``replica``;
    * the :data:`FLEET_EVENT_KINDS` — fleet-scoped actions (outages,
      re-routes, ejections, scaling, rollouts), identified by the
      ``zone``/``server`` fields.

    ``step`` is the request id for per-request events and the server's
    dispatch (batch) index for replica/breaker events; fleet events use
    the fleet request id (per-request kinds) or the fleet's pump round.
    """

    step: int
    kind: str
    outcome: str | None = None
    replica: int | None = None
    latency_ms: float = 0.0
    deadline_ms: float = 0.0
    seconds_lost: float = 0.0
    detail: str = ""
    #: fleet scoping: which fault domain / fleet server the event is
    #: about (None for single-server events, PR-4 compatible)
    zone: str | None = None
    server: int | None = None

    def signature(self) -> tuple:
        """Timing-free identity, for determinism comparisons."""
        return (self.step, self.kind, self.outcome, self.replica,
                self.zone, self.server)


@dataclass
class Reply:
    """The terminal result of one serving request.

    ``value`` is the per-request slice of the model's inference output
    for ``ok`` (and late-but-computed ``deadline``) outcomes, ``None``
    for shed/errored requests. ``raise_for_outcome`` converts non-``ok``
    outcomes into the matching :mod:`repro.framework.errors` exception.
    """

    request_id: int
    outcome: str
    value: np.ndarray | None = None
    replica: int | None = None
    latency_ms: float = 0.0
    deadline_ms: float = 0.0
    hedges: int = 0
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"

    def raise_for_outcome(self) -> np.ndarray:
        from repro.framework.errors import (DeadlineExceededError,
                                            RequestRejected, ServingError)
        if self.outcome == "ok":
            return self.value
        if self.outcome == "shed":
            raise RequestRejected(
                f"request {self.request_id} shed: {self.error}",
                reason=self.error or "queue_full")
        if self.outcome == "deadline":
            raise DeadlineExceededError(
                f"request {self.request_id} missed its "
                f"{self.deadline_ms:.1f} ms deadline "
                f"(latency {self.latency_ms:.1f} ms)")
        raise ServingError(
            f"request {self.request_id} failed: {self.error}")


@dataclass
class PendingRequest:
    """A queued request awaiting dispatch (internal to the server)."""

    request_id: int
    feed: dict[Any, np.ndarray]
    deadline_ms: float
    arrival: float          #: clock seconds at admission
    attempts: int = 0       #: completed execution attempts (hedges)

    def deadline_at(self) -> float:
        """Absolute clock time the reply is due."""
        return self.arrival + self.deadline_ms / 1000.0
