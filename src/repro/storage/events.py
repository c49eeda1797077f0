"""Storage events: the durability layer's narration records.

Every consequential storage action — a quorum commit, a failed replica
write, a failover on read, a read-repair, a scrub healing a rotted blob,
garbage collection — is recorded as a :class:`StorageEvent` on the
session tracer (the ``storage`` family of :mod:`repro.framework.events`),
so a trace tells the durability story inline with the rest of the run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.framework.events import event_family

#: every kind a StorageEvent may carry
STORAGE_EVENT_KINDS = (
    "commit",                # checkpoint reached quorum and is durable
    "commit_failed",         # checkpoint missed quorum; not durable
    "replica_write_failed",  # one store rejected its copy
    "failover",              # a read skipped a bad/unavailable replica
    "corrupt_replica",       # a digest check caught a damaged copy
    "read_repair",           # a bad replica was rewritten from a good one
    "scrub",                 # a scrub pass finished
    "scrub_heal",            # scrubbing healed a damaged replica
    "unrecoverable",         # no intact replica remains for a checkpoint
    "gc",                    # superseded checkpoints were collected
)


@event_family("storage")
@dataclass(frozen=True)
class StorageEvent:
    """One durability-relevant action in the checkpoint storage layer.

    Attributes:
        step: the checkpoint id involved, or -1 for whole-archive
            actions (scrub passes, garbage collection).
        kind: one of :data:`STORAGE_EVENT_KINDS`.
        store: the blob-store id acted on, or -1 when the action spans
            the replication group (commit, scrub, gc).
        key: the blob key involved, or "" for group-level actions.
        seconds_lost: virtual seconds the action consumed (failover
            retries, repair writes); 0.0 when untimed.
        detail: one human-readable sentence.
    """

    step: int
    kind: str
    store: int
    key: str
    seconds_lost: float
    detail: str

    def __post_init__(self):
        if self.kind not in STORAGE_EVENT_KINDS:
            raise ValueError(
                f"unknown storage event kind {self.kind!r}; expected "
                f"one of {STORAGE_EVENT_KINDS}")

    def signature(self) -> tuple:
        """Stable identity for cross-run comparisons (drops timing)."""
        return (self.step, self.kind, self.store, self.key)
