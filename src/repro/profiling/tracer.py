"""Operation-level execution tracing.

The paper's measurement methodology (Section V-A) hinges on instrumenting
the framework's primitive operations rather than profiling at the script
or hardware-counter level, because only the operation level can ascribe
runtime behaviour to model features. :class:`Tracer` plugs into
``Session.run`` and records one :class:`OpRecord` per executed operation
per step, plus per-step totals for framework-overhead accounting. The
recovery/SLO events that subsystems attach through ``record_event`` are
read back through the family views of
:class:`~repro.framework.events.EventLog`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.framework.events import EventLog
from repro.framework.graph import OpClass, Operation
from repro.framework.ops.state_ops import Const, Group, Placeholder, VariableOp

# Structural ops whose "execution" is bookkeeping, excluded from profiles
# the way the paper's tools ignore framework scaffolding.
_STRUCTURAL_TYPES = (Const, Placeholder, VariableOp, Group)


@dataclass(frozen=True)
class OpRecord:
    """One operation execution observed during one step."""

    op: Operation
    seconds: float
    step: int

    @property
    def op_type(self) -> str:
        return self.op.type_name

    @property
    def op_class(self) -> OpClass:
        return self.op.op_class


class StepLog(EventLog):
    """Step summaries a live :class:`Tracer` and a loaded trace share."""

    step_totals: list[float]

    @property
    def num_steps(self) -> int:
        return len(self.step_totals)

    def framework_overhead_fraction(self) -> float:
        """Fraction of wall time spent *outside* operations.

        The paper reports this is typically below 1-2% for TensorFlow;
        the executor's scheduling loop is similarly thin.
        """
        total = sum(self.step_totals)
        if total == 0.0:
            return 0.0
        return max(0.0, total - self.total_op_seconds()) / total


@dataclass
class Tracer(StepLog):
    """Collects per-operation timing records across session runs.

    Pass an instance as ``Session.run(..., tracer=tracer)``. Each ``run``
    call is one *step* (one minibatch / one inference), matching the
    paper's observation that deep learning programs are naturally
    separable on update-step boundaries.
    """

    records: list[OpRecord] = field(default_factory=list)
    step_totals: list[float] = field(default_factory=list)
    step_peak_bytes: list[int] = field(default_factory=list)
    #: every subsystem's events in emit order, one list for all
    #: families (see :mod:`repro.framework.events`)
    events: list = field(default_factory=list)
    #: plan-compilation summaries (one dict per compilation the session
    #: performed while this tracer was attached; see ExecutionPlan.summary)
    compile_records: list[dict] = field(default_factory=list)
    _current_step: int = 0

    def record(self, op: Operation, seconds: float) -> None:
        self.records.append(OpRecord(op=op, seconds=seconds,
                                     step=self._current_step))

    def record_compile(self, summary: dict) -> None:
        """Attach one plan-compilation summary (the session's hook)."""
        self.compile_records.append(summary)

    def finish_step(self, total_seconds: float,
                    peak_live_bytes: int = 0) -> None:
        self.step_totals.append(total_seconds)
        self.step_peak_bytes.append(peak_live_bytes)
        self._current_step += 1

    def record_event(self, event) -> None:
        """Attach a recovery/failure event (the resilient-runner hook)."""
        self.events.append(event)

    # -- summaries ---------------------------------------------------------

    def compute_records(self) -> list[OpRecord]:
        """Records for real compute ops (structural bookkeeping removed)."""
        return [r for r in self.records
                if not isinstance(r.op, _STRUCTURAL_TYPES)]

    def total_op_seconds(self) -> float:
        return sum(r.seconds for r in self.records)

    def records_for_step(self, step: int) -> list[OpRecord]:
        return [r for r in self.records if r.step == step]

    def peak_live_bytes(self) -> int:
        """Largest intermediate-tensor footprint seen in any step."""
        return max(self.step_peak_bytes, default=0)

    def clear(self) -> None:
        self.records.clear()
        self.step_totals.clear()
        self.step_peak_bytes.clear()
        self.events.clear()
        self.compile_records.clear()
        self._current_step = 0
