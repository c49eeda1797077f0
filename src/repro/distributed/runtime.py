"""The executed data-parallel cluster runtime.

:class:`ClusterRuntime` trains a Fathom workload across ``K`` worker
replicas — each a real ``Session.fork`` driving real numpy steps — over
the deterministic event-driven :class:`~repro.distributed.clock.
ClusterClock`. One global step:

1. **Membership** — scheduled joins/leaves apply on the step boundary;
   the pipeline re-shards the global batch ``K'`` ways deterministically.
2. **Compute** — every live worker (primaries and ``backup_workers``
   shard mirrors) computes its shard's gradients with the session RNG
   pinned per ``(step, shard)``; injected crashes and straggler delays
   land here.
3. **Select** — per shard, the first finisher wins (drop-slowest backup
   semantics; ties break on worker id). Mirrors compute bit-identical
   gradients, so selection never perturbs arithmetic.
4. **Attest** — when gradient attestation is on, per-shard statistics
   nominate outliers, a recompute audit convicts liars bitwise
   (:mod:`repro.distributed.byzantine`), ``screened_mean`` swaps
   convicted shards for the auditor's clean recompute, and the
   reputation ledger escalates repeat offenders through quarantine to
   eviction.
5. **Exchange** — the strategy (parameter server or ring all-reduce)
   carries the shard gradients past the fault injector; a ring broken by
   a partition degrades to the PS route for the step.
6. **Apply** — every replica applies the canonically-aggregated update,
   keeping all parameters bit-identical; the cluster barriers.
7. **Checkpoint** — every ``checkpoint_every`` steps the cluster takes a
   coordinated barrier snapshot (Chandy-Lamport degenerates to exactly
   this when channels are empty at a barrier), optionally persisted via
   the atomic CRC32-checked :mod:`repro.framework.checkpoint`.

A worker crash restores *all* replicas from the last coordinated
snapshot, replays the committed aggregate log, and re-runs the
interrupted step from the feed cache — so the committed trajectory is
bit-for-bit the fault-free one.

The anchor invariant: fault-free synchronous training is bit-identical
to :func:`single_worker_reference` (gradient accumulation over the same
``K`` shards on one session) for every workload — by construction, since
both paths share the shard pipeline, the per-shard RNG pinning, the
canonical aggregation, and the Apply-op update path.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from repro.framework import checkpoint as checkpoint_lib
from repro.framework.device_model import cpu
from repro.framework.events import event_to_blob
from repro.framework.faults import ClusterFaultInjector, ClusterFaultPlan
from repro.framework.resilience import BackoffPolicy
from repro.framework.session import GuardrailPolicy, SessionSnapshot
from repro.workloads.base import FathomModel

from .byzantine import (AttestationPolicy, GradientAttestor,
                        ReputationLedger, ReputationPolicy)
from .clock import SERVER, ClusterClock, ClusterModel
from .events import ClusterEvent, events_signature
from .membership import MembershipChange, MembershipPlan
from .pipeline import ShardedPipeline
from .strategies import (AGGREGATIONS, AllReduceBroken,
                         ParameterServerStrategy, aggregate_shards,
                         make_aggregator, make_strategy)
from .worker import ClusterWorker

MANIFEST_NAME = "cluster-manifest.json"


def modeled_step_seconds(model: FathomModel, device=None) -> float:
    """Deterministic per-shard compute price: the training plan's ops
    costed on an analytic device model (no wall-clock noise)."""
    device = device or cpu(1)
    plan = model.compile_plan(mode="training")
    return float(sum(device.op_time(step.op.work()) for step in plan.steps))


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs for :class:`ClusterRuntime`.

    Args:
        workers: primary worker count ``K`` (= shard count).
        strategy: ``"ps"`` or ``"allreduce"``.
        staleness: 0 runs synchronously; ``s > 0`` runs the
            bounded-staleness async PS mode, where workers pull fresh
            parameters only after falling ``s`` versions behind.
        backup_workers: extra shard-mirror replicas for drop-slowest
            straggler tolerance.
        seed: master seed: shard RNG pinning, fault draws, and backoff
            jitter all derive from it.
        checkpoint_every: coordinated-snapshot cadence in steps
            (0 = only the initial snapshot).
        checkpoint_dir: when set, coordinated checkpoints are also
            persisted here (atomic CRC32 archives + a JSON manifest).
        checkpoint_replicas: with ``checkpoint_replicas > 1`` each
            coordinated checkpoint is quorum-written to this many
            replica blob stores under ``checkpoint_dir`` (via
            :class:`repro.storage.ReplicatedCheckpointStore`) instead
            of one bare file — surviving torn writes and bit rot on a
            minority of replicas.
        scrub_interval: clock seconds between background scrub passes
            over the replicated archive (``None`` = no scrubbing; only
            meaningful with ``checkpoint_replicas > 1``).
        message_timeout: receiver wait before declaring a delivery lost.
        max_retries: retransmits per message before the exchange fails.
        backoff_base: first retransmit backoff (jittered per worker).
        compute_seconds: per-shard step compute price on the virtual
            clock; default :func:`modeled_step_seconds`.
        straggler_factor: a worker slower than this multiple of the
            median compute time is flagged as a straggler.
        restart_seconds: virtual-clock cost of restarting a crashed
            worker.
        cluster: interconnect pricing model.
        aggregation: one of :data:`~repro.distributed.strategies.
            AGGREGATIONS`. ``screened_mean`` turns gradient attestation
            on (with default policies unless overridden) and is
            bit-identical to ``mean`` whenever no shard is convicted.
        trim: per-coordinate trim count for ``trimmed_mean``
            (``None`` = the largest safe value, ``(K - 1) // 2``).
        attestation: enable gradient attestation with these thresholds
            (``None`` = off, unless ``aggregation="screened_mean"``
            implies the defaults). Synchronous mode only.
        reputation: quarantine/eviction escalation thresholds (used
            when attestation is on).
        guardrail: wire-level payload screen policy; its
            ``overflow_limit`` extends the NaN/Inf screen to reject
            absurd-magnitude *finite* payloads in flight.
    """

    workers: int = 2
    strategy: str = "ps"
    staleness: int = 0
    backup_workers: int = 0
    seed: int = 0
    checkpoint_every: int = 0
    checkpoint_dir: str | os.PathLike | None = None
    checkpoint_replicas: int = 1
    scrub_interval: float | None = None
    message_timeout: float = 0.05
    max_retries: int = 3
    backoff_base: float = 0.01
    compute_seconds: float | None = None
    straggler_factor: float = 3.0
    restart_seconds: float = 0.25
    cluster: ClusterModel = field(default_factory=ClusterModel)
    aggregation: str = "mean"
    trim: int | None = None
    attestation: AttestationPolicy | None = None
    reputation: ReputationPolicy | None = None
    guardrail: GuardrailPolicy | None = None

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.staleness and self.strategy != "ps":
            raise ValueError("bounded-staleness async requires the ps "
                             "strategy")
        if self.backup_workers < 0 or self.staleness < 0:
            raise ValueError("backup_workers and staleness must be >= 0")
        if self.aggregation not in AGGREGATIONS:
            raise ValueError(f"unknown aggregation {self.aggregation!r}; "
                             f"expected one of {list(AGGREGATIONS)}")
        if self.staleness and (self.aggregation != "mean"
                               or self.attestation is not None):
            raise ValueError("robust aggregation and attestation require "
                             "synchronous training (staleness=0)")
        if self.trim is not None and self.aggregation != "trimmed_mean":
            raise ValueError("trim only applies to "
                             "aggregation='trimmed_mean'")
        if self.trim is not None and self.trim < 0:
            raise ValueError(f"trim must be >= 0, got {self.trim}")
        if self.checkpoint_replicas < 1:
            raise ValueError(f"checkpoint_replicas must be >= 1, got "
                             f"{self.checkpoint_replicas}")
        if self.scrub_interval is not None and self.scrub_interval <= 0:
            raise ValueError(f"scrub_interval must be > 0, got "
                             f"{self.scrub_interval}")


@dataclass(frozen=True)
class ClusterRunResult:
    """What one cluster run produced, summarized for reports and tests."""

    workload: str
    strategy: str
    workers: int
    steps: int
    losses: list[float]
    events: list[ClusterEvent]
    elapsed_seconds: float
    injected: tuple

    def signature(self) -> tuple:
        """Ordered timing-free event identities (determinism checks)."""
        return events_signature(self.events)

    def events_of(self, kind: str) -> list[ClusterEvent]:
        return [e for e in self.events if e.kind == kind]

    def to_json(self) -> dict:
        return {"workload": self.workload, "strategy": self.strategy,
                "workers": self.workers, "steps": self.steps,
                "losses": self.losses,
                "elapsed_seconds": self.elapsed_seconds,
                "events": [event_to_blob(e) for e in self.events],
                "injected": [list(sig) for sig in self.injected]}


class _ExchangeContext:
    """Everything a strategy needs to move one step's messages."""

    def __init__(self, runtime: "ClusterRuntime"):
        self.clock = runtime.clock
        self.injector = runtime.injector
        self.cluster = runtime.config.cluster
        self.parameter_bytes = runtime.parameter_bytes
        self.timeout = runtime.config.message_timeout
        self.max_retries = runtime.config.max_retries
        self.emit = runtime._emit_kw
        self.aggregate = runtime._aggregate
        self.overflow_limit = (runtime.config.guardrail.overflow_limit
                               if runtime.config.guardrail is not None
                               else None)
        self._runtime = runtime

    def backoff_for(self, worker: int) -> BackoffPolicy:
        return self._runtime._backoff_for(worker)


class ClusterRuntime:
    """Elastic fault-tolerant data-parallel training over one workload."""

    #: the fault family this harness accepts via :meth:`install_faults`
    #: (the campaign engine's uniform adapter surface; see repro.chaos)
    FAULT_FAMILY = "cluster"

    def __init__(self, model: FathomModel,
                 config: ClusterConfig | None = None,
                 faults: ClusterFaultPlan | None = None,
                 membership: MembershipPlan | None = None,
                 tracer=None):
        self.model = model
        self.config = config or ClusterConfig()
        self.tracer = tracer
        self.membership = membership or MembershipPlan()
        self.injector: ClusterFaultInjector | None = \
            faults.injector() if faults is not None else None
        self.pipeline = ShardedPipeline(model)
        self.parameter_bytes = model.num_parameters() * 4.0
        self.compute_seconds = (self.config.compute_seconds
                                if self.config.compute_seconds is not None
                                else modeled_step_seconds(model))
        self.strategy = make_strategy(self.config.strategy)
        self._ps = (self.strategy
                    if isinstance(self.strategy, ParameterServerStrategy)
                    else ParameterServerStrategy())
        seed = self.config.seed
        self._aggregate = make_aggregator(self.config.aggregation,
                                          self.config.trim)
        # screened_mean implies attestation: screening without a
        # detector would silently be plain mean.
        attestation = self.config.attestation
        if attestation is None and self.config.aggregation == "screened_mean":
            attestation = AttestationPolicy()
        self._attestor = (GradientAttestor(attestation, seed=seed)
                          if attestation is not None else None)
        self._ledger = (ReputationLedger(self.config.reputation)
                        if attestation is not None else None)
        self.workers: dict[int, ClusterWorker] = {}
        for rank in range(self.config.workers + self.config.backup_workers):
            self.workers[rank] = ClusterWorker(rank, model, seed=seed)
        self._primary_ids = list(range(self.config.workers))
        self.clock = ClusterClock(self.workers)
        self._backoffs: dict[int, BackoffPolicy] = {}
        #: every ClusterEvent emitted, in order
        self.events: list[ClusterEvent] = []
        self._reshard()
        # The initial coordinated snapshot: crash recovery always has a
        # consistent state to roll back to, checkpoint cadence or not.
        self._snapshot_step = 0
        self._snapshot: SessionSnapshot = self._any_worker().snapshot()
        #: committed aggregates since the snapshot, for crash replay
        self._replay_log: list[tuple[int, list[np.ndarray]]] = []
        # Async mode: the server owns the authoritative parameters.
        self._server: ClusterWorker | None = None
        self._lags: dict[int, int] = {}
        if self.config.staleness:
            self._server = ClusterWorker(SERVER, model, seed=seed)

    # -- fault arming (campaign adapter surface) ----------------------------

    def install_faults(self, plan: ClusterFaultPlan) -> None:
        """Arm a :class:`~repro.framework.faults.ClusterFaultPlan`.

        Equivalent to passing ``faults=`` at construction; mirrors
        ``InferenceServer.install_faults`` so the chaos campaign engine
        drives every harness through one surface.
        """
        self.injector = plan.injector()

    def uninstall_faults(self) -> None:
        self.injector = None

    # -- events and plumbing -----------------------------------------------

    def _emit(self, event: ClusterEvent) -> None:
        self.events.append(event)
        if self.tracer is not None:
            record = getattr(self.tracer, "record_event", None)
            if record is not None:
                record(event)

    def _emit_kw(self, step: int, kind: str, **kw) -> None:
        self._emit(ClusterEvent(step=step, kind=kind, **kw))

    def _backoff_for(self, worker: int) -> BackoffPolicy:
        policy = self._backoffs.get(worker)
        if policy is None:
            # Per-worker spawn keys keep the jitter streams independent,
            # so simultaneous retransmits de-synchronize.
            policy = BackoffPolicy.for_worker(
                worker, base=self.config.backoff_base,
                seed=self.config.seed)
            self._backoffs[worker] = policy
        return policy

    def _any_worker(self) -> ClusterWorker:
        return self.workers[min(self.workers)]

    def _live_ids(self) -> list[int]:
        return sorted(w for w, worker in self.workers.items()
                      if worker.alive)

    def signature(self) -> tuple:
        return events_signature(self.events)

    # -- membership ---------------------------------------------------------

    def _apply_membership(self, step: int) -> None:
        changes = self.membership.changes_at(step)
        if not changes:
            return
        for change in changes:
            if change.action == "leave":
                if change.worker not in self.workers:
                    raise ValueError(f"step {step}: worker "
                                     f"{change.worker} is not a member")
                if len(self._primary_ids) <= 1 \
                        and change.worker in self._primary_ids:
                    raise ValueError("cannot remove the last primary")
                del self.workers[change.worker]
                self.clock.remove_worker(change.worker)
                if change.worker in self._primary_ids:
                    self._primary_ids.remove(change.worker)
                self._emit_kw(step, "leave", worker=change.worker)
                if self._attestor is not None:
                    self._attestor.forget(change.worker)
                    self._ledger.forget(change.worker)
            else:
                if change.worker in self.workers:
                    raise ValueError(f"step {step}: worker "
                                     f"{change.worker} already a member")
                joiner = ClusterWorker(change.worker, self.model,
                                       seed=self.config.seed)
                # Bootstrap from the current (bit-identical everywhere)
                # parameter state of any live replica.
                joiner.restore(self._any_worker().snapshot())
                self.workers[change.worker] = joiner
                self._primary_ids.append(change.worker)
                self._primary_ids.sort()
                self.clock.add_worker(change.worker)
                self._emit_kw(step, "join", worker=change.worker)
        self._reshard(step)
        # Membership changed under the old snapshot; re-anchor recovery
        # so replay never has to reconstruct departed members.
        self._take_snapshot(step, persist=False, emit=False)

    def _reshard(self, step: int | None = None) -> None:
        primaries = sorted(self._primary_ids)
        backups = sorted(set(self.workers) - set(primaries))
        for shard, worker_id in enumerate(primaries):
            self.workers[worker_id].shard = shard
        for index, worker_id in enumerate(backups):
            self.workers[worker_id].shard = index % len(primaries)
        if step is not None:
            self._emit_kw(step, "reshard",
                          detail=f"{len(primaries)} shards, "
                                 f"{len(backups)} backups")

    # -- checkpoints --------------------------------------------------------

    def _take_snapshot(self, step: int, persist: bool = True,
                       emit: bool = True) -> None:
        self.clock.barrier(self._live_ids())
        self._snapshot_step = step
        self._snapshot = self._any_worker().snapshot()
        self._replay_log.clear()
        self.pipeline.evict_before(step)
        detail = "in-memory"
        if persist and self.config.checkpoint_dir is not None:
            detail = self._persist_checkpoint(step)
        if emit:
            self._emit_kw(step, "checkpoint", detail=detail)

    def _checkpoint_store(self):
        """The replicated archive under ``checkpoint_dir`` (lazy)."""
        if getattr(self, "_ckpt_store", None) is None:
            from repro.storage import open_local_store
            self._ckpt_store = open_local_store(
                os.fspath(self.config.checkpoint_dir),
                replicas=self.config.checkpoint_replicas,
                scrub_interval=self.config.scrub_interval,
                tracer=self.tracer)
        return self._ckpt_store

    def _persist_checkpoint(self, step: int) -> str:
        directory = os.fspath(self.config.checkpoint_dir)
        os.makedirs(directory, exist_ok=True)
        manifest = {"kind": "repro-cluster-checkpoint", "step": step,
                    "workers": len(self._primary_ids),
                    "strategy": self.config.strategy,
                    "seed": self.config.seed,
                    "shard_batch": self.pipeline.shard_batch}
        if self.config.checkpoint_replicas > 1:
            record = self._checkpoint_store().save(
                self._any_worker().session, step=step)
            manifest["storage"] = {
                "replicas": self.config.checkpoint_replicas,
                "checkpoint_id": record.checkpoint_id,
                "digest": record.digest}
            detail = (f"replicated checkpoint {record.checkpoint_id} "
                      f"({record.replicas} replicas)")
        else:
            path = os.path.join(directory, f"cluster-step{step:06d}.npz")
            checkpoint_lib.save(self._any_worker().session, path)
            manifest["checkpoint"] = os.path.basename(path)
            detail = path
        manifest_path = os.path.join(directory, MANIFEST_NAME)
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
        return detail

    # -- crash recovery -----------------------------------------------------

    def _recover(self, step: int, crashed: list[int]) -> None:
        for worker_id in crashed:
            worker = self.workers[worker_id]
            self._emit_kw(step, "crash", worker=worker_id,
                          detail="worker lost mid-step before exchange")
            worker.alive = False
            self.clock.advance(worker_id, self.config.restart_seconds)
            worker.replace_session(self._snapshot)
            self._emit_kw(step, "restart", worker=worker_id,
                          seconds_lost=self.config.restart_seconds,
                          detail=f"re-forked from coordinated snapshot "
                                 f"of step {self._snapshot_step}")
        # Coordinated rollback: every replica returns to the snapshot,
        # then the committed aggregate log replays — the recovered
        # trajectory is bit-for-bit the pre-crash one.
        for worker_id in self._live_ids():
            self.workers[worker_id].restore(self._snapshot)
        for _logged_step, aggregated in self._replay_log:
            for worker_id in self._live_ids():
                self.workers[worker_id].apply_update(aggregated)
        replay_cost = len(self._replay_log) * self.compute_seconds
        for worker_id in self._live_ids():
            self.clock.advance(worker_id, replay_cost)
        self.clock.barrier(self._live_ids())
        self._emit_kw(step, "recover", seconds_lost=replay_cost,
                      detail=f"rolled back to step {self._snapshot_step}, "
                             f"replayed {len(self._replay_log)} steps")

    # -- the training loop --------------------------------------------------

    def run(self, steps: int) -> ClusterRunResult:
        losses: list[float] = []
        for step in range(steps):
            self._apply_membership(step)
            if self.config.staleness:
                losses.append(self._async_step(step))
            else:
                losses.append(self._sync_step(step))
            if self.config.checkpoint_every and \
                    (step + 1) % self.config.checkpoint_every == 0:
                self._take_snapshot(step + 1)
        return ClusterRunResult(
            workload=self.model.name, strategy=self.config.strategy,
            workers=len(self._primary_ids), steps=steps, losses=losses,
            events=list(self.events),
            elapsed_seconds=self.clock.elapsed(),
            injected=(self.injector.signature()
                      if self.injector is not None else ()))

    # -- synchronous stepping ----------------------------------------------

    def _sync_step(self, step: int) -> float:
        num_shards = len(self._primary_ids)
        feeds = self.pipeline.feeds_for_step(step, num_shards)
        while True:
            crashed = []
            if self.injector is not None:
                crashed = [w for w in self._live_ids()
                           if self.injector.should_crash(w, step)]
            if not crashed:
                break
            self._recover(step, crashed)
            # The interrupted step re-runs from the feed cache; the
            # shard-pinned RNG makes the redo bit-identical.
        results = self._compute_phase(step, feeds)
        contributions = self._select_winners(step, results, num_shards)
        contributions = self._attestation_phase(step, contributions, feeds)
        aggregated = self._exchange(step, contributions)
        for worker_id in self._live_ids():
            self.workers[worker_id].apply_update(aggregated)
        self.clock.barrier(self._live_ids())
        self._replay_log.append((step, aggregated))
        return _canonical_loss([c[2] for c in contributions])

    def _compute_phase(self, step: int, feeds: list[dict]) -> dict:
        """Every live worker computes its shard; returns per-worker
        ``(finish_time, shard, loss, grads)``."""
        results: dict[int, tuple] = {}
        times: dict[int, float] = {}
        for worker_id in self._live_ids():
            worker = self.workers[worker_id]
            delay = (self.injector.compute_delay(worker_id, step)
                     if self.injector is not None else 0.0)
            elapsed = self.compute_seconds + delay
            finish = self.clock.advance(worker_id, elapsed)
            times[worker_id] = elapsed
            loss, grads = worker.compute_gradients(
                feeds[worker.shard], step, worker.shard)
            if self.injector is not None:
                corrupt = getattr(self.injector, "corrupt_gradients", None)
                corrupted = (corrupt(worker_id, step, grads)
                             if corrupt is not None else None)
                if corrupted is not None:
                    grads = corrupted
            results[worker_id] = (finish, worker.shard, loss, grads)
        self._detect_stragglers(step, times)
        return results

    def _detect_stragglers(self, step: int, times: dict[int, float]) -> None:
        if len(times) < 2 or self.config.straggler_factor <= 0:
            return
        median = float(np.median(sorted(times.values())))
        for worker_id in sorted(times):
            if times[worker_id] > self.config.straggler_factor * median:
                self._emit_kw(
                    step, "straggler", worker=worker_id,
                    seconds_lost=times[worker_id] - median,
                    detail=f"compute {times[worker_id]:.4f}s vs median "
                           f"{median:.4f}s "
                           f"(x{self.config.straggler_factor:.1f} bound)")

    def _select_winners(self, step: int, results: dict,
                        num_shards: int) -> list[tuple]:
        """Drop-slowest: per shard, the first finisher's result is used.

        Mirrors compute bit-identical gradients (shard-pinned RNG), so
        promotion changes timing and events, never arithmetic.
        """
        contributions = []
        for shard in range(num_shards):
            candidates = sorted(
                (finish, worker_id)
                for worker_id, (finish, worker_shard, _l, _g)
                in results.items() if worker_shard == shard)
            if not candidates:
                raise RuntimeError(f"shard {shard} has no live worker")
            _finish, winner = candidates[0]
            primary = sorted(self._primary_ids)[shard]
            if winner != primary:
                self._emit_kw(
                    step, "backup_promote", worker=winner,
                    detail=f"mirror beat primary {primary} on shard "
                           f"{shard} (drop-slowest)")
            _f, _s, loss, grads = results[winner]
            contributions.append((shard, winner, loss, grads))
        return contributions

    # -- gradient attestation (byzantine detection) -------------------------

    def _attestation_phase(self, step: int, contributions: list[tuple],
                           feeds: list[dict]) -> list[tuple]:
        """Statistics nominate, recompute audits convict.

        Per-shard statistics (:meth:`GradientAttestor.attest`) plus a
        seeded round-robin probe nominate shards; each nominee is
        recomputed by another live worker and compared **bitwise** —
        legal because a shard's gradient is a pure function of
        ``(seed, step, shard)``, and trustworthy because the audit
        recompute goes straight through ``compute_gradients`` (the
        injector corrupts only original contributions, modelling
        re-execution attestation on coordinator-verified hardware).
        Honest workers are always exonerated; convicted shards emit
        ``gradient_suspect`` and — under ``screened_mean``, or whenever
        the offender is quarantined — are replaced by the auditor's
        clean recompute (``shard_replay``), keeping the committed
        aggregate bitwise fault-free. Convictions feed the reputation
        ledger, which escalates quarantine → eviction.
        """
        attestor = self._attestor
        if attestor is None \
                or len(contributions) < attestor.policy.min_peers:
            return contributions
        records = attestor.attest(step, contributions)
        probe = attestor.probe_shard(step, len(contributions))
        quarantined = set(self._ledger.quarantined)
        out = list(contributions)
        suspects: set[int] = set()
        for index, record in enumerate(records):
            shard, worker, _loss, grads = contributions[index]
            nominated = bool(record.reasons) or index == probe \
                or worker in quarantined
            if not nominated:
                continue
            auditor = next((w for w in self._live_ids() if w != worker),
                           None)
            if auditor is None:
                continue
            audit_loss, audit_grads = self.workers[auditor] \
                .compute_gradients(feeds[shard], step, shard)
            self.clock.advance(auditor, self.compute_seconds)
            if _grads_equal(grads, audit_grads):
                continue  # exonerated
            suspects.add(worker)
            reason = "; ".join(record.reasons) or "round-robin probe"
            self._emit_kw(
                step, "gradient_suspect", worker=worker,
                detail=f"shard {shard}: audit recompute on worker "
                       f"{auditor} diverged ({reason}; "
                       f"norm_ratio={record.norm_ratio:.2f}, "
                       f"cosine={record.cosine:.2f})")
            if self.config.aggregation == "screened_mean" \
                    or worker in quarantined:
                out[index] = (shard, worker, audit_loss, audit_grads)
                self._emit_kw(
                    step, "shard_replay", worker=worker,
                    seconds_lost=self.compute_seconds,
                    detail=f"shard {shard} replaced by clean recompute "
                           f"from worker {auditor}")
        self._apply_reputation(step, suspects,
                               {c[1] for c in contributions})
        return out

    def _apply_reputation(self, step: int, suspects: set[int],
                          participants: set[int]) -> None:
        for action, worker in self._ledger.observe(step, suspects,
                                                   participants):
            if action == "quarantine":
                self._emit_kw(
                    step, "quarantine", worker=worker,
                    detail=f"suspect streak reached "
                           f"{self._ledger.policy.quarantine_after}; "
                           f"shard screened, worker still probed")
            elif action == "lift":
                self._emit_kw(
                    step, "quarantine_lift", worker=worker,
                    detail=f"{self._ledger.policy.lift_after} consecutive "
                           f"clean audits; worker readmitted")
            else:  # evict
                self._schedule_eviction(step, worker)

    def _schedule_eviction(self, step: int, worker: int) -> None:
        if worker in self._primary_ids and len(self._primary_ids) <= 1:
            # Never evict the last primary: keep it quarantined so its
            # shard stays screened every step.
            self._ledger.evicted.discard(worker)
            self._ledger.quarantined.add(worker)
            self._emit_kw(step, "quarantine", worker=worker,
                          detail="eviction skipped: last primary stays "
                                 "quarantined")
            return
        scheduled = any(c.step == step + 1 and c.action == "leave"
                        and c.worker == worker
                        for c in self.membership.changes)
        if not scheduled:
            self.membership = self.membership.adding(
                MembershipChange(step + 1, "leave", worker))
        self._emit_kw(step, "evict", worker=worker,
                      detail=f"suspect streak reached "
                             f"{self._ledger.policy.evict_after}; leaves "
                             f"before step {step + 1} and the pipeline "
                             f"re-shards")

    def _exchange(self, step: int, contributions: list[tuple]
                  ) -> list[np.ndarray]:
        ctx = _ExchangeContext(self)
        wire = [(shard, worker, grads)
                for shard, worker, _loss, grads in contributions]
        participants = self._live_ids()
        try:
            return self.strategy.exchange(ctx, step, wire, participants)
        except AllReduceBroken as exc:
            # Partitioned worker<->worker links don't block the
            # worker<->server routes: degrade to the (slower,
            # serializing) PS path for this step.
            self._emit_kw(step, "fallback", link=exc.link,
                          strategy="allreduce",
                          detail=f"ring broken ({exc}); degrading to "
                                 f"parameter-server exchange")
            return self._ps.exchange(ctx, step, wire, participants)

    # -- bounded-staleness async stepping -----------------------------------

    def _async_step(self, step: int) -> float:
        """Async PS: the server applies arrivals immediately; workers
        pull fresh parameters only after lagging ``staleness`` versions."""
        num_shards = len(self._primary_ids)
        feeds = self.pipeline.feeds_for_step(step, num_shards)
        ctx = _ExchangeContext(self)
        server = self._server
        arrivals = []
        for worker_id in sorted(self._primary_ids):
            worker = self.workers[worker_id]
            delay = (self.injector.compute_delay(worker_id, step)
                     if self.injector is not None else 0.0)
            finish = self.clock.advance(worker_id,
                                        self.compute_seconds + delay)
            loss, grads = worker.compute_gradients(
                feeds[worker.shard], step, worker.shard)
            arrivals.append((finish, worker_id, loss, grads))
        # The server consumes gradients in (virtual) arrival order —
        # deterministic: the clock is, and ties break on worker id.
        losses = []
        for _finish, worker_id, loss, grads in sorted(
                arrivals, key=lambda a: (a[0], a[1])):
            delivered = self._ps.push(ctx, step, worker_id, grads)
            server.apply_update(delivered)
            losses.append(loss)
        for worker_id in sorted(self._primary_ids):
            lag = self._lags.get(worker_id, 0) + 1
            if lag > self.config.staleness:
                values = [v for v in server.session._variables.values()]
                self._ps.pull(ctx, step, worker_id, values or
                              [np.zeros(1, dtype=np.float32)])
                self.workers[worker_id].pull_from(server)
                self._emit_kw(step, "staleness", worker=worker_id,
                              strategy="ps",
                              detail=f"pulled parameters after lagging "
                                     f"{lag} versions")
                lag = 0
            self._lags[worker_id] = lag
        return _canonical_loss(losses)


def _canonical_loss(shard_losses: list[float]) -> float:
    """Global loss: fixed-order mean of the shard losses."""
    return float(sum(shard_losses) / len(shard_losses))


def _grads_equal(a: list[np.ndarray], b: list[np.ndarray]) -> bool:
    """Bitwise equality of two gradient lists (the audit verdict)."""
    return len(a) == len(b) and all(
        np.array_equal(np.asarray(x), np.asarray(y))
        for x, y in zip(a, b))


def single_worker_reference(model: FathomModel, steps: int, shards: int,
                            seed: int = 0) -> tuple[list[float],
                                                    ClusterWorker]:
    """Single-worker training on the same global batch.

    Gradient accumulation over the ``shards`` per-step minibatches in
    canonical order on one session — the anchor the bit-identity
    invariant is stated against. Shares the pipeline, the per-shard RNG
    pinning, :func:`~repro.distributed.strategies.aggregate_shards`,
    and the Apply-op update path with the cluster runtime, so equality
    is structural rather than coincidental.

    Returns ``(per-step losses, the worker)`` so callers can compare
    final parameters bit-for-bit.
    """
    worker = ClusterWorker(0, model, seed=seed)
    pipeline = ShardedPipeline(model)
    losses = []
    for step in range(steps):
        feeds = pipeline.feeds_for_step(step, shards)
        shard_losses, shard_grads = [], []
        for shard in range(shards):
            loss, grads = worker.compute_gradients(feeds[shard], step, shard)
            shard_losses.append(loss)
            shard_grads.append(grads)
        worker.apply_update(aggregate_shards(shard_grads))
        losses.append(_canonical_loss(shard_losses))
    return losses, worker


def restore_cluster(model: FathomModel,
                    directory: str | os.PathLike,
                    config: ClusterConfig | None = None,
                    **kw) -> tuple["ClusterRuntime", dict]:
    """Resume a cluster from a persisted coordinated checkpoint.

    The new cluster may have a *different* worker count: checkpoints are
    keyed by variable name, and every replica restores the identical
    archive, so the restored parameters are bit-identical regardless of
    ``config.workers``. Returns ``(runtime, manifest)``.
    """
    directory = os.fspath(directory)
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    if manifest.get("kind") != "repro-cluster-checkpoint":
        raise ValueError(f"{manifest_path}: not a cluster checkpoint "
                         f"manifest")
    runtime = ClusterRuntime(model, config=config, **kw)
    if "storage" in manifest:
        # Replicated archive: restore through the durable store, which
        # digest-verifies and fails over/repairs damaged replicas.
        from repro.storage import open_local_store
        store = open_local_store(
            directory, replicas=manifest["storage"]["replicas"])
        checkpoint_id = manifest["storage"]["checkpoint_id"]
        for worker in runtime.workers.values():
            store.restore(worker.session, checkpoint_id)
        if runtime._server is not None:
            store.restore(runtime._server.session, checkpoint_id)
    else:
        archive = os.path.join(directory, manifest["checkpoint"])
        for worker in runtime.workers.values():
            checkpoint_lib.restore(worker.session, archive)
        if runtime._server is not None:
            checkpoint_lib.restore(runtime._server.session, archive)
    # Re-anchor recovery on the restored state.
    runtime._snapshot = runtime._any_worker().snapshot()
    runtime._snapshot_step = 0
    return runtime, manifest
