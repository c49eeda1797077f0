"""Trace serialization: persist op-level traces as JSON-lines files.

Fathom's purpose is comparative measurement — across machines, hardware
proposals, or framework versions. That requires traces to outlive the
process that produced them. This module writes a
:class:`~repro.profiling.tracer.Tracer` to a self-contained ``.jsonl``
file (op name/type/class, measured seconds, step, and the full analytic
work estimate) and loads it back as a :class:`SavedTrace` that is
drop-in compatible with :class:`~repro.profiling.profile.OperationProfile`
— so a profile captured on one machine can be re-priced under any device
model on another.
"""

from __future__ import annotations

import importlib
import json
import os
from dataclasses import dataclass

from repro.framework.cost_model import WorkEstimate
from repro.framework.events import event_from_blob, event_to_blob
from repro.framework.graph import OpClass

from .tracer import OpRecord, StepLog, Tracer

FORMAT_VERSION = 1

#: event family -> module whose import registers it, in header order:
#: the file holds one ``<family>_events`` list per row. Domain packages
#: are named here and nowhere below, and imported only to load a trace
#: that has events of theirs.
FAMILY_MODULES = {
    "failure": "repro.framework.resilience",
    "degradation": "repro.framework.session",
    "serving": "repro.serving.events",
    "cluster": "repro.distributed.events",
    "campaign": "repro.chaos.events",
    "storage": "repro.storage.events",
}


@dataclass(frozen=True)
class SavedOp:
    """Stand-in for a live Operation: just enough for profiling."""

    name: str
    type_name: str
    op_class: OpClass
    _work: WorkEstimate

    def work(self) -> WorkEstimate:
        return self._work


class SavedTrace(StepLog):
    """A deserialized trace, API-compatible with Tracer for profiling."""

    def __init__(self, records: list[OpRecord], step_totals: list[float],
                 step_peak_bytes: list[int], metadata: dict,
                 total_op_seconds: float | None = None,
                 events: list | None = None,
                 compile_records: list[dict] | None = None):
        self.records = records
        self.step_totals = step_totals
        self.step_peak_bytes = step_peak_bytes
        self.metadata = metadata
        self.events = events or []
        self.compile_records = compile_records or []
        self._total_op_seconds = total_op_seconds

    def compute_records(self) -> list[OpRecord]:
        # Structural ops are filtered at save time.
        return self.records

    def total_op_seconds(self) -> float:
        if self._total_op_seconds is not None:
            return self._total_op_seconds
        return sum(r.seconds for r in self.records)


def save_trace(tracer: Tracer, path: str | os.PathLike,
               metadata: dict | None = None) -> int:
    """Write a tracer's compute records to ``path``; returns record count."""
    records = tracer.compute_records()
    # Every family shares one ordered stream in the tracer; persist them
    # as one header list per family (each carries different fields)
    # tagged with a shared ``seq`` so loading restores the interleaved
    # emit order exactly.
    blobs: dict[str, list[dict]] = {family: [] for family in FAMILY_MODULES}
    for seq, event in enumerate(tracer.events):
        blob = {"seq": seq, **event_to_blob(event)}
        blobs[event.FAMILY].append(blob)
    with open(path, "w") as handle:
        header = {"kind": "repro-trace", "version": FORMAT_VERSION,
                  "num_steps": tracer.num_steps,
                  "step_totals": list(tracer.step_totals),
                  "step_peak_bytes": list(tracer.step_peak_bytes),
                  # includes structural ops, which records below omit
                  "total_op_seconds": tracer.total_op_seconds(),
                  **{f"{family}_events": blobs[family]
                     for family in FAMILY_MODULES},
                  # plan-compilation summaries (pass stats, memory plan)
                  "compile_records": list(
                      getattr(tracer, "compile_records", [])),
                  "metadata": metadata or {}}
        handle.write(json.dumps(header) + "\n")
        for record in records:
            work = record.op.work()
            handle.write(json.dumps({
                "op": record.op.name,
                "type": record.op_type,
                "class": record.op_class.name,
                "seconds": record.seconds,
                "step": record.step,
                "flops": work.flops,
                "bytes": work.bytes_moved,
                "trips": work.trip_count,
            }) + "\n")
    return len(records)


def load_trace(path: str | os.PathLike) -> SavedTrace:
    """Load a trace written by :func:`save_trace`."""
    with open(path) as handle:
        header = json.loads(handle.readline())
        if header.get("kind") != "repro-trace":
            raise ValueError(f"{path}: not a repro trace file")
        if header.get("version") != FORMAT_VERSION:
            raise ValueError(
                f"{path}: unsupported trace version {header.get('version')}")
        records = []
        for line in handle:
            if not line.strip():
                continue
            blob = json.loads(line)
            op = SavedOp(name=blob["op"], type_name=blob["type"],
                         op_class=OpClass[blob["class"]],
                         _work=WorkEstimate(flops=blob["flops"],
                                            bytes_moved=blob["bytes"],
                                            trip_count=blob["trips"]))
            records.append(OpRecord(op=op, seconds=blob["seconds"],
                                    step=blob["step"]))
    tagged: list[tuple[int, object]] = []
    for family, module in FAMILY_MODULES.items():
        family_blobs = header.get(f"{family}_events")
        if not family_blobs:
            continue
        importlib.import_module(module)  # registers the family
        for blob in family_blobs:
            tagged.append((blob.get("seq", len(tagged)),
                           event_from_blob(family, blob)))
    tagged.sort(key=lambda pair: pair[0])
    events = [event for _, event in tagged]
    return SavedTrace(records=records,
                      step_totals=header["step_totals"],
                      step_peak_bytes=header.get("step_peak_bytes", []),
                      metadata=header.get("metadata", {}),
                      total_op_seconds=header.get("total_op_seconds"),
                      events=events,
                      compile_records=header.get("compile_records", []))
