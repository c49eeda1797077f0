"""Cluster events: tracer family separation and trace persistence."""

import json

from repro.distributed import (CLUSTER_EVENT_KINDS, ClusterEvent,
                               ClusterRunResult, events_signature)
from repro.framework.resilience import FailureEvent
from repro.profiling.serialize import load_trace, save_trace
from repro.profiling.tracer import Tracer


def make_events():
    return [
        ClusterEvent(step=0, kind="checkpoint", detail="in-memory"),
        ClusterEvent(step=1, kind="crash", worker=1, detail="injected"),
        ClusterEvent(step=2, kind="timeout", worker=1, link=(0, 1),
                     strategy="allreduce", seconds_lost=0.05),
        ClusterEvent(step=2, kind="fallback", link=(0, 1),
                     strategy="allreduce", detail="ring broken"),
    ]


class TestClusterEvent:

    def test_signature_is_timing_free(self):
        a = ClusterEvent(step=2, kind="timeout", worker=1, link=(0, 1),
                         strategy="ps", seconds_lost=0.05, detail="x")
        b = ClusterEvent(step=2, kind="timeout", worker=1, link=(0, 1),
                         strategy="ps", seconds_lost=99.0, detail="y")
        assert a.signature() == b.signature()

    def test_events_signature_preserves_order(self):
        events = make_events()
        signature = events_signature(events)
        assert len(signature) == len(events)
        assert signature[1][1] == "crash"

    def test_every_runtime_kind_is_documented(self):
        assert "checkpoint" in CLUSTER_EVENT_KINDS
        assert "staleness" in CLUSTER_EVENT_KINDS


class TestTracerFamilies:

    def test_cluster_events_separated_from_failures(self):
        tracer = Tracer()
        tracer.record_event(FailureEvent(step=0, kind="retry",
                                         op_name="x"))
        for event in make_events():
            tracer.record_event(event)
        assert len(tracer.cluster_events()) == 4
        assert len(tracer.failure_events()) == 1
        assert [e.kind for e in tracer.cluster_events("crash")] == ["crash"]

    def test_fault_seconds_includes_cluster_losses(self):
        tracer = Tracer()
        for event in make_events():
            tracer.record_event(event)
        assert tracer.fault_seconds() == 0.05


class TestSerialization:

    def test_round_trip_preserves_cluster_events(self, tmp_path):
        tracer = Tracer()
        tracer.record_event(FailureEvent(step=0, kind="retry",
                                         op_name="x"))
        for event in make_events():
            tracer.record_event(event)
        path = tmp_path / "trace.jsonl"
        save_trace(tracer, path)
        loaded = load_trace(path)
        assert len(loaded.cluster_events()) == 4
        assert len(loaded.failure_events()) == 1
        restored = loaded.cluster_events()
        assert events_signature(restored) == \
            events_signature(make_events())
        # link tuples survive the JSON round trip as tuples
        assert restored[2].link == (0, 1)
        assert restored[2].seconds_lost == 0.05

    def test_interleaved_emit_order_restored(self, tmp_path):
        tracer = Tracer()
        tracer.record_event(make_events()[0])
        tracer.record_event(FailureEvent(step=1, kind="retry",
                                         op_name="x"))
        tracer.record_event(make_events()[1])
        path = tmp_path / "trace.jsonl"
        save_trace(tracer, path)
        loaded = load_trace(path)
        kinds = [e.kind for e in loaded.events]
        assert kinds == ["checkpoint", "retry", "crash"]

    def test_report_json_and_trace_write_the_same_blob(self, tmp_path):
        events = make_events()
        result = ClusterRunResult(
            workload="memnet", strategy="allreduce", workers=2, steps=3,
            losses=[], events=events, elapsed_seconds=0.0, injected=())
        tracer = Tracer()
        for event in events:
            tracer.record_event(event)
        path = tmp_path / "trace.jsonl"
        save_trace(tracer, path)
        header = json.loads(path.read_text().splitlines()[0])
        traced = [{key: value for key, value in blob.items() if key != "seq"}
                  for blob in header["cluster_events"]]
        reported = result.to_json()["events"]
        assert reported == traced
        assert list(reported[2]) == ["step", "kind", "worker", "link",
                                     "strategy", "seconds_lost", "detail"]
        assert reported[2]["link"] == [0, 1] and reported[0]["link"] is None
