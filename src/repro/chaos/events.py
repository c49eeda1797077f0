"""Campaign events: how a chaos campaign narrates itself.

One frozen dataclass per occurrence, the ``campaign`` family of
:mod:`repro.framework.events`, so a saved campaign trace replays its
verdict history exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.framework.events import event_family

#: every campaign event kind, in lifecycle order
CAMPAIGN_EVENT_KINDS = (
    "baseline",   # the fault-free reference run completed
    "schedule",   # one fault schedule executed against the harness
    "verdict",    # one oracle's pass/fail on one schedule
    "violation",  # an oracle failed: the schedule is a counterexample
    "minimized",  # delta debugging shrank a violation to its minimum
)


@event_family("campaign")
@dataclass(frozen=True)
class CampaignEvent:
    """One chaos-campaign occurrence.

    Args:
        step: the campaign's schedule index (-1 for baseline events).
        kind: one of :data:`CAMPAIGN_EVENT_KINDS`.
        oracle: the oracle being judged, for verdict/violation/minimized
            events (``None`` for schedule/baseline events).
        harness: the harness name the campaign is driving.
        ok: the verdict, for verdict events (``None`` otherwise).
        seconds_lost: virtual seconds the schedule's run consumed.
        detail: human-readable specifics (schedule summary, oracle
            failure detail, minimization stats).
    """

    step: int
    kind: str
    oracle: str | None = None
    harness: str | None = None
    ok: bool | None = None
    seconds_lost: float = 0.0
    detail: str = ""

    def signature(self) -> tuple:
        """Timing-free identity, for determinism assertions."""
        return (self.step, self.kind, self.oracle, self.harness,
                self.ok, self.detail)
