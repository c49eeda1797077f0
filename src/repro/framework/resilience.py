"""Resilient training: retries, NaN guards, watchdog, checkpoint recovery.

The original TensorFlow design treats fault tolerance as a user-level
concern: checkpoint the variables, restart the computation, resume from
the last consistent state. :class:`ResilientRunner` brings that recipe
to the Fathom training loop:

* **Per-step rollback.** Before every training step the runner captures
  a :class:`~repro.framework.session.SessionSnapshot` (variables + RNG
  state) and samples the minibatch once. A failed attempt restores the
  snapshot and re-runs the *identical* step, so a recovered run is
  bit-for-bit equal to a fault-free run.
* **Bounded retry with backoff.** Transient
  :class:`~repro.framework.errors.ExecutionError`\\ s (e.g. injected
  chaos faults) are retried up to ``max_retries`` times with
  exponential backoff and seeded jitter — deterministic delays given the
  config seed.
* **NaN/Inf guard.** A non-finite training loss raises
  :class:`NonFiniteLossError`; the step is rolled back and retried, and
  if the loss is *persistently* non-finite the poisoned update is
  dropped (rollback-and-skip) instead of corrupting the parameters.
* **Watchdog.** Steps slower than ``watchdog_seconds`` emit a
  ``watchdog`` event so profiles can flag stragglers.
* **Periodic atomic checkpoints.** Every ``checkpoint_every`` steps the
  runner checkpoints (atomically, via :func:`repro.framework.checkpoint.
  save`) and keeps an in-memory last-good snapshot; when retries are
  exhausted it restores the last-good state and keeps training.

Every recovery action is emitted as a structured :class:`FailureEvent`
through the tracer hook, so :mod:`repro.profiling` can attribute time
lost to faults.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Protocol

import numpy as np

from . import checkpoint as checkpoint_lib
from .clock import SystemClock
from .errors import ExecutionError, FrameworkError
from .events import event_family
from .session import (DegradationEvent, GuardrailPolicy, HealingConfig,
                      HealingPolicy)

if TYPE_CHECKING:  # pragma: no cover
    from .graph import Tensor
    from .session import Session


class NonFiniteLossError(FrameworkError):
    """Raised by the NaN/Inf guard when a training loss is not finite."""

    def __init__(self, step: int, value: float):
        super().__init__(
            f"non-finite training loss at step {step}: {value}")
        self.step = step
        self.value = value


@event_family("failure")
@dataclass(frozen=True)
class FailureEvent:
    """One structured recovery action taken by the resilient runner.

    Kinds: ``retry`` (transient op failure rolled back and retried),
    ``nan_rollback`` (non-finite loss rolled back and retried), ``skip``
    (persistently poisoned step dropped), ``restore`` (last-good
    checkpoint restored after retries were exhausted), ``watchdog``
    (step exceeded its wall-clock budget), ``checkpoint`` (periodic
    checkpoint written), ``checkpoint_failed`` (a durable checkpoint
    missed its write quorum; training continued), ``resume`` (training
    resumed from a checkpoint file or the replicated store).
    """

    step: int
    kind: str
    op_name: str | None = None
    attempt: int = 0
    seconds_lost: float = 0.0
    detail: str = ""

    def signature(self) -> tuple:
        """Timing-free identity, for determinism comparisons."""
        return (self.step, self.kind, self.op_name, self.attempt)


class BackoffPolicy:
    """Deterministic exponential backoff with seeded jitter.

    The delay before retry ``attempt`` (0-based) is
    ``base * factor ** attempt``, scaled by ``1 +/- jitter`` drawn from
    a private generator seeded with ``(seed, spawn_key)`` — so two
    policies built from the same config produce identical delay
    sequences, and recovery traces reproduce run-to-run. Shared by the
    :class:`ResilientRunner` retry loop, the serving layer's circuit
    breakers (:mod:`repro.serving.breaker`), and the distributed
    runtime's retransmit loops (:mod:`repro.distributed`).

    When one config fans out across many workers, build each worker's
    policy with :meth:`for_worker` — the worker id becomes part of the
    spawn key, so the jitter streams are *independent* and a retry
    storm de-synchronizes instead of having every worker sleep the
    identical jittered delay and stampede the network in lockstep.
    """

    def __init__(self, base: float, factor: float = 2.0,
                 jitter: float = 0.1, seed: int = 0,
                 max_delay: float | None = None,
                 spawn_key: int | tuple[int, ...] = 0xB0FF):
        self.base = base
        self.factor = factor
        self.jitter = jitter
        self.max_delay = max_delay
        if isinstance(spawn_key, int):
            spawn_key = (spawn_key,)
        self._rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=tuple(spawn_key)))
        #: every jittered delay drawn, for reproducibility assertions
        self.delays: list[float] = []

    @classmethod
    def for_worker(cls, worker_id: int, base: float, factor: float = 2.0,
                   jitter: float = 0.1, seed: int = 0,
                   max_delay: float | None = None) -> "BackoffPolicy":
        """A policy whose jitter stream is private to ``worker_id``.

        Two workers built from the same config draw *different* (but
        individually reproducible) delay sequences; the same worker id
        always reproduces the same stream.
        """
        return cls(base=base, factor=factor, jitter=jitter, seed=seed,
                   max_delay=max_delay,
                   spawn_key=(0xB0FF, int(worker_id) + 1))

    def delay(self, attempt: int) -> float:
        delay = self.base * self.factor ** attempt
        if delay <= 0.0:
            return 0.0
        if self.jitter:
            swing = float(self._rng.uniform(-1.0, 1.0))
            delay *= 1.0 + self.jitter * swing
        delay = max(0.0, delay)
        if self.max_delay is not None:
            delay = min(delay, self.max_delay)
        self.delays.append(delay)
        return delay


@dataclass(frozen=True)
class ResilienceConfig:
    """Policy knobs for :class:`ResilientRunner`.

    Args:
        max_retries: failed-step re-executions before giving up.
        backoff_base: first retry delay in seconds (0 disables sleeping).
        backoff_factor: multiplier applied per additional attempt.
        backoff_jitter: +/- fraction of jitter drawn from a generator
            seeded with ``seed`` — deterministic across identical runs.
        nan_guard: enable the non-finite-loss guard.
        check_numerics: run steps under ``Session.run(check_numerics=
            True)`` so the *first offending op* is named (slower).
        retry_all_execution_errors: retry every ExecutionError, not just
            those flagged ``transient``.
        checkpoint_path: where periodic checkpoints are written (``None``
            keeps last-good state in memory only).
        checkpoint_store: a :class:`repro.storage.
            ReplicatedCheckpointStore` periodic checkpoints are
            quorum-written to instead of (or alongside) the file path —
            the durable option: replicated, digest-verified,
            self-scrubbing. A failed quorum is a recoverable event
            (training continues; the checkpoint is just not durable).
        checkpoint_every: checkpoint cadence in steps (0 disables).
        watchdog_seconds: per-step wall-clock budget (None disables).
        resume_from: checkpoint file restored before the first step —
            or, with a ``checkpoint_store``, the string ``"latest"`` to
            restore the newest intact archived checkpoint.
        healing: enable self-healing (``True`` for
            :class:`~repro.framework.session.HealingConfig` defaults, or
            a config instance): plan-step failures are blame-localized
            and repeated offenders trigger tiered de-optimization and
            pass quarantine instead of blind same-plan retries.
        guardrails: a :class:`~repro.framework.session.GuardrailPolicy`
            (or policy name) applied to every ``Session.run`` the runner
            issues — op-level NaN/Inf/overflow screening.
    """

    max_retries: int = 2
    backoff_base: float = 0.0
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.1
    seed: int = 0
    nan_guard: bool = True
    check_numerics: bool = False
    retry_all_execution_errors: bool = False
    checkpoint_path: str | os.PathLike | None = None
    checkpoint_store: Any = None
    checkpoint_every: int = 0
    watchdog_seconds: float | None = None
    resume_from: str | os.PathLike | None = None
    healing: HealingConfig | bool | None = None
    guardrails: GuardrailPolicy | str | None = None


class TrainableModel(Protocol):
    """What the runner needs from a workload (FathomModel satisfies it)."""

    session: "Session"
    loss: "Tensor"
    train_step: "Tensor"

    def sample_feed(self, training: bool = True) -> dict:  # pragma: no cover
        ...


class ResilientRunner:
    """Drives a workload's training loop with fault recovery.

    Used by :meth:`repro.workloads.base.FathomModel.run_training` when a
    :class:`ResilienceConfig` is supplied; can also be constructed
    directly for access to the recorded :attr:`events`.
    """

    #: the fault family this harness accepts via :meth:`install_faults`
    #: (the campaign engine's uniform adapter surface; see repro.chaos)
    FAULT_FAMILY = "op"

    def __init__(self, model: TrainableModel,
                 config: ResilienceConfig | None = None,
                 tracer: Any | None = None, clock: Any | None = None):
        self.model = model
        self.config = config or ResilienceConfig()
        self.tracer = tracer
        # All step/attempt timing and backoff sleeping flows through an
        # injectable clock (now()/sleep()), matching the serving path's
        # design — so chaos runs under a VirtualClock are fully
        # deterministic: watchdog verdicts and seconds_lost become exact
        # functions of the fault schedule instead of wall-clock noise.
        self.clock = clock if clock is not None else SystemClock()
        #: every recovery action taken, in order
        self.events: list[FailureEvent] = []
        #: every self-healing action taken (tier drops, quarantines,
        #: re-escalations), in order; empty unless ``healing`` is set
        self.degradations: list[DegradationEvent] = []
        self.guardrails = GuardrailPolicy.coerce(self.config.guardrails)
        healing_config = HealingConfig.coerce(self.config.healing)
        self.healing: HealingPolicy | None = (
            HealingPolicy(model.session, healing_config,
                          sink=self._emit_degradation)
            if healing_config is not None else None)
        # Dedicated jitter stream (decorrelated from the session RNG by
        # the spawn key), so recovery traces reproduce run-to-run.
        self._backoff = BackoffPolicy(
            base=self.config.backoff_base,
            factor=self.config.backoff_factor,
            jitter=self.config.backoff_jitter, seed=self.config.seed)
        self._last_good: tuple[int, Any] | None = None

    @property
    def backoff_delays(self) -> list[float]:
        """Every jittered delay drawn, for reproducibility assertions."""
        return self._backoff.delays

    # -- fault arming (campaign adapter surface) ---------------------------

    def install_faults(self, plan) -> None:
        """Arm an op-level :class:`~repro.framework.faults.FaultPlan`.

        Mirrors ``InferenceServer.install_faults`` so the chaos campaign
        engine drives every harness through one surface; the injector is
        reachable as ``model.session.fault_injector`` afterwards.
        """
        self.model.session.fault_injector = plan.injector()

    def uninstall_faults(self) -> None:
        self.model.session.fault_injector = None

    # -- events ------------------------------------------------------------

    def _emit(self, event: FailureEvent) -> None:
        self.events.append(event)
        record = getattr(self.tracer, "record_event", None)
        if record is not None:
            record(event)

    def event_signatures(self) -> tuple:
        """Timing-free event sequence, for determinism assertions."""
        return tuple(event.signature() for event in self.events)

    def _emit_degradation(self, event: DegradationEvent) -> None:
        self.degradations.append(event)
        record = getattr(self.tracer, "record_event", None)
        if record is not None:
            record(event)

    def degradation_signatures(self) -> tuple:
        """Timing-free healing-event sequence, for determinism assertions."""
        return tuple(event.signature() for event in self.degradations)

    # -- retry policy ------------------------------------------------------

    def backoff_delay(self, attempt: int) -> float:
        """Deterministic exponential backoff with seeded jitter.

        ``attempt`` is 0-based: the delay before the first retry is
        ``backoff_base``, the next ``backoff_base * backoff_factor``, ...
        """
        return self._backoff.delay(attempt)

    def _retryable(self, exc: Exception) -> bool:
        if isinstance(exc, NonFiniteLossError):
            return True
        if self.healing is not None and isinstance(exc, ExecutionError):
            # Under healing every plan-step failure is worth a retry:
            # the policy may have just recompiled at a safer tier, so
            # re-running the same step is not "blind".
            return True
        return (self.config.retry_all_execution_errors
                or getattr(exc, "transient", False))

    # -- the training loop -------------------------------------------------

    def run(self, steps: int) -> list[float]:
        """Run ``steps`` training steps, surviving recoverable failures.

        Returns per-step losses; a skipped step contributes ``nan``.
        """
        session = self.model.session
        config = self.config
        if config.resume_from is not None:
            if config.checkpoint_store is not None \
                    and config.resume_from == "latest":
                record = config.checkpoint_store.restore(session)
                self._emit(FailureEvent(
                    step=-1, kind="resume",
                    detail=f"restored checkpoint {record.checkpoint_id} "
                           f"from the replicated store "
                           f"(digest {record.digest[:12]}…)"))
            else:
                restored = checkpoint_lib.restore(session,
                                                  config.resume_from)
                self._emit(FailureEvent(
                    step=-1, kind="resume",
                    detail=f"restored {len(restored)} variables from "
                           f"{os.fspath(config.resume_from)}"))
        losses: list[float] = []
        for step in range(steps):
            feed = self.model.sample_feed(training=True)
            snapshot = session.state_snapshot()
            step_start = self.clock.now()
            losses.append(self._run_step(step, feed, snapshot))
            elapsed = self.clock.now() - step_start
            if (config.watchdog_seconds is not None
                    and elapsed > config.watchdog_seconds):
                self._emit(FailureEvent(
                    step=step, kind="watchdog",
                    seconds_lost=elapsed - config.watchdog_seconds,
                    detail=f"step took {elapsed:.4f}s "
                           f"(budget {config.watchdog_seconds:.4f}s)"))
            if config.checkpoint_every and \
                    (step + 1) % config.checkpoint_every == 0:
                self._checkpoint(step)
        return losses

    def _run_step(self, step: int, feed: dict, snapshot) -> float:
        """Execute one step with rollback/retry; returns its loss."""
        session = self.model.session
        config = self.config
        attempt = 0
        while True:
            attempt_start = self.clock.now()
            try:
                loss_value, _ = session.run(
                    [self.model.loss, self.model.train_step],
                    feed_dict=feed, tracer=self.tracer,
                    check_numerics=config.check_numerics,
                    guardrails=self.guardrails)
                loss_value = float(np.asarray(loss_value))
                if config.nan_guard and not math.isfinite(loss_value):
                    raise NonFiniteLossError(step, loss_value)
                if self.healing is not None:
                    self.healing.on_success(step)
                return loss_value
            except (ExecutionError, NonFiniteLossError) as exc:
                lost = self.clock.now() - attempt_start
                if self.healing is not None \
                        and isinstance(exc, ExecutionError):
                    # Blame-localize and maybe demote/quarantine before
                    # deciding whether (and how) to retry.
                    self.healing.on_failure(exc, step)
                if not self._retryable(exc):
                    return self._unrecoverable(step, exc, attempt, lost)
                if attempt < config.max_retries:
                    session.restore_snapshot(snapshot)
                    kind = ("nan_rollback"
                            if isinstance(exc, NonFiniteLossError)
                            else "retry")
                    attempt += 1
                    self._emit(FailureEvent(
                        step=step, kind=kind,
                        op_name=getattr(exc, "op_name", None),
                        attempt=attempt, seconds_lost=lost,
                        detail=str(exc)))
                    delay = self.backoff_delay(attempt - 1)
                    if delay:
                        self.clock.sleep(delay)
                    continue
                if isinstance(exc, NonFiniteLossError):
                    # Persistently poisoned step: drop the update rather
                    # than corrupt the parameters (rollback-and-skip).
                    session.restore_snapshot(snapshot)
                    self._emit(FailureEvent(
                        step=step, kind="skip", attempt=attempt,
                        seconds_lost=lost, detail=str(exc)))
                    return math.nan
                return self._unrecoverable(step, exc, attempt, lost)

    def _unrecoverable(self, step: int, exc: Exception, attempt: int,
                       lost: float) -> float:
        """Restore the last-good checkpoint state, or re-raise."""
        if self._last_good is None:
            raise exc
        good_step, good_snapshot = self._last_good
        self.model.session.restore_snapshot(good_snapshot)
        self._emit(FailureEvent(
            step=step, kind="restore",
            op_name=getattr(exc, "op_name", None), attempt=attempt,
            seconds_lost=lost,
            detail=f"restored last-good state from step {good_step} "
                   f"after: {exc}"))
        return math.nan

    def _checkpoint(self, step: int) -> None:
        config = self.config
        detail = "in-memory"
        durable_failed = False
        if config.checkpoint_store is not None:
            from .errors import StorageError
            try:
                record = config.checkpoint_store.save(
                    self.model.session, step=step)
            except StorageError as exc:
                # Not durable this round — keep training; the next
                # cadence tick tries again with a fresh id.
                durable_failed = True
                self._emit(FailureEvent(
                    step=step, kind="checkpoint_failed",
                    detail=f"durable checkpoint missed quorum: {exc}"))
            else:
                detail = (f"store checkpoint {record.checkpoint_id} "
                          f"({record.replicas} replicas)")
        if config.checkpoint_path is not None:
            checkpoint_lib.save(self.model.session, config.checkpoint_path)
            detail = os.fspath(config.checkpoint_path)
        # The in-memory snapshot still lands either way (it backs retry
        # rollback), but a failed durable write is not narrated as a
        # successful checkpoint.
        self._last_good = (step, self.model.session.state_snapshot())
        if not durable_failed:
            self._emit(FailureEvent(step=step, kind="checkpoint",
                                    detail=detail))
