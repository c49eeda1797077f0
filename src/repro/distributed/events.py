"""Cluster events: the distributed counterpart of Failure/Serving events.

Every observable action the cluster runtime takes — checkpoints, worker
crashes and restarts, straggler verdicts, backup promotions, message
timeouts and retransmits, collective-to-PS fallback, membership changes,
gradient-attestation verdicts and quarantines/evictions
— is recorded as one :class:`ClusterEvent`, the ``cluster`` family of
:mod:`repro.framework.events`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.framework.events import event_family

#: every kind the runtime emits, for reference and validation
CLUSTER_EVENT_KINDS = (
    "checkpoint",        # coordinated barrier snapshot committed
    "crash",             # a worker died mid-step (injected)
    "restart",           # the crashed worker was re-forked
    "recover",           # cluster rolled back + replayed to the crash point
    "straggler",         # a worker's compute exceeded the straggler bound
    "backup_promote",    # a backup's mirror result beat its primary
    "timeout",           # a gradient/parameter message timed out
    "retransmit",        # the message was retried after seeded backoff
    "corrupt_screened",  # a poisoned gradient was rejected by the screen
    "fallback",          # ring all-reduce degraded to the PS path
    "join",              # a worker joined between steps
    "leave",             # a worker left between steps
    "reshard",           # the data pipeline re-sharded after membership
    "staleness",         # an async worker pulled params after lagging
    "gradient_suspect",  # attestation audit proved a shard corrupted
    "shard_replay",      # a flagged shard was replaced by clean recompute
    "quarantine",        # repeat suspect: shard screened, worker probed
    "quarantine_lift",   # a quarantined worker produced clean audits
    "evict",             # repeat offender scheduled to leave the cluster
)


@event_family("cluster")
@dataclass(frozen=True)
class ClusterEvent:
    """One action of the data-parallel cluster runtime.

    Args:
        step: global training step the event belongs to.
        kind: one of :data:`CLUSTER_EVENT_KINDS`.
        worker: the worker acted on (``None`` for cluster-wide events
            like ``checkpoint``/``reshard``; ``-1`` is the server).
        link: the ``(src, dst)`` link for message-level events.
        strategy: gradient-exchange strategy in force (``"ps"``,
            ``"allreduce"``), where relevant.
        seconds_lost: cluster-clock time attributed to the event
            (timeout waits, backoff sleeps, recovery replay).
        detail: free-text diagnosis for humans.
    """

    step: int
    kind: str
    worker: int | None = None
    link: tuple[int, int] | None = None
    strategy: str | None = None
    seconds_lost: float = 0.0
    detail: str = ""

    def signature(self) -> tuple:
        """Timing-free identity, for determinism comparisons."""
        return (self.step, self.kind, self.worker, self.link, self.strategy)


def events_signature(events) -> tuple:
    """The run's identity: the ordered tuple of event signatures."""
    return tuple(e.signature() for e in events)
