"""Tests for trace serialization."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import workloads
from repro.chaos.events import CampaignEvent
from repro.distributed.events import ClusterEvent
from repro.framework.device_model import cpu, gpu
from repro.framework.events import (EVENT_FAMILIES, event_from_blob,
                                    event_to_blob)
from repro.framework.resilience import FailureEvent
from repro.framework.session import DegradationEvent
from repro.profiling.profile import OperationProfile
from repro.profiling.serialize import FAMILY_MODULES, load_trace, save_trace
from repro.profiling.tracer import Tracer
from repro.serving.events import ServingEvent
from repro.storage.events import StorageEvent

#: written once by the parent of the commit that introduced the family
#: registry (the hand-written per-family save_trace): a 2-step
#: memnet/tiny training trace plus GOLDEN_EVENTS, recorded in this order
GOLDEN_TRACE = Path(__file__).with_name("golden_trace_v1.jsonl")

#: every family at least once, every field off its default
GOLDEN_EVENTS = [
    FailureEvent(step=1, kind="retry", op_name="hop0/matmul", attempt=2,
                 seconds_lost=0.125, detail="injected fault"),
    ServingEvent(step=7, kind="reroute", outcome="ok", replica=1,
                 latency_ms=3.25, deadline_ms=50.0, seconds_lost=0.5,
                 detail="zone-a drained", zone="zone-a", server=2),
    DegradationEvent(step=1, kind="quarantine", op_name="fold_3",
                     tier="structural", pass_name="constant_fold",
                     attempt=3, seconds_lost=0.25,
                     detail="2 failures blamed on pass"),
    StorageEvent(step=4, kind="read_repair", store=2,
                 key="ckpt/000004/payload", seconds_lost=0.0625,
                 detail="rewrote from store 0"),
    ClusterEvent(step=3, kind="timeout", worker=1, link=(0, 1),
                 strategy="allreduce", seconds_lost=0.05,
                 detail="gradient message lost"),
    CampaignEvent(step=5, kind="verdict", oracle="bit_identity",
                  harness="cluster", ok=False, seconds_lost=1.5,
                  detail="loss diverged at step 3"),
    ServingEvent(step=8, kind="reply", outcome="deadline", replica=0,
                 latency_ms=61.5, deadline_ms=50.0, seconds_lost=0.0115,
                 detail="late"),
]


@pytest.fixture(scope="module")
def traced_model():
    model = workloads.create("memnet", config="tiny", seed=0)
    tracer = Tracer()
    model.run_training(3, tracer=tracer)
    return model, tracer


class TestRoundtrip:
    def test_record_count_preserved(self, traced_model, tmp_path):
        _, tracer = traced_model
        path = tmp_path / "trace.jsonl"
        count = save_trace(tracer, path, metadata={"workload": "memnet"})
        loaded = load_trace(path)
        assert len(loaded.records) == count == len(tracer.compute_records())
        assert loaded.num_steps == 3
        assert loaded.metadata["workload"] == "memnet"

    def test_measured_profile_identical(self, traced_model, tmp_path):
        _, tracer = traced_model
        path = tmp_path / "trace.jsonl"
        save_trace(tracer, path)
        loaded = load_trace(path)
        original = OperationProfile.from_trace(tracer, "memnet")
        restored = OperationProfile.from_trace(loaded, "memnet")
        assert set(original.seconds_by_type) == set(restored.seconds_by_type)
        for op_type, seconds in original.seconds_by_type.items():
            assert restored.seconds_by_type[op_type] == \
                pytest.approx(seconds)

    def test_modeled_profile_from_saved_work(self, traced_model, tmp_path):
        """Work estimates survive the round trip, so a saved trace can be
        re-priced under any device model."""
        _, tracer = traced_model
        path = tmp_path / "trace.jsonl"
        save_trace(tracer, path)
        loaded = load_trace(path)
        for device in (cpu(1), cpu(8), gpu()):
            original = OperationProfile.from_trace(tracer, device=device)
            restored = OperationProfile.from_trace(loaded, device=device)
            assert original.total_seconds == \
                pytest.approx(restored.total_seconds)

    def test_overhead_fraction_preserved(self, traced_model, tmp_path):
        _, tracer = traced_model
        path = tmp_path / "trace.jsonl"
        save_trace(tracer, path)
        loaded = load_trace(path)
        assert loaded.framework_overhead_fraction() == \
            pytest.approx(tracer.framework_overhead_fraction())

    def test_peak_bytes_preserved(self, traced_model, tmp_path):
        _, tracer = traced_model
        path = tmp_path / "trace.jsonl"
        save_trace(tracer, path)
        loaded = load_trace(path)
        assert loaded.step_peak_bytes == tracer.step_peak_bytes


class TestFailureEvents:
    def test_failure_events_round_trip(self, tmp_path):
        from repro.framework.resilience import FailureEvent
        tracer = Tracer()
        tracer.record_event(FailureEvent(step=2, kind="retry",
                                         op_name="proj", attempt=1,
                                         seconds_lost=0.25,
                                         detail="injected fault"))
        tracer.record_event(FailureEvent(step=4, kind="checkpoint",
                                         op_name=None, attempt=0,
                                         seconds_lost=0.0))
        path = tmp_path / "faulty.jsonl"
        save_trace(tracer, path)
        loaded = load_trace(path)
        assert [e.signature() for e in loaded.failure_events()] == \
            [e.signature() for e in tracer.events]
        assert loaded.fault_seconds() == pytest.approx(0.25)
        assert loaded.failure_events("retry")[0].detail == "injected fault"

    def test_trace_without_events_loads_empty(self, traced_model,
                                              tmp_path):
        _, tracer = traced_model
        path = tmp_path / "clean.jsonl"
        save_trace(tracer, path)
        assert load_trace(path).failure_events() == []


class TestErrors:
    def test_rejects_non_trace_file(self, tmp_path):
        path = tmp_path / "junk.jsonl"
        path.write_text(json.dumps({"kind": "something-else"}) + "\n")
        with pytest.raises(ValueError, match="not a repro trace"):
            load_trace(path)

    def test_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "old.jsonl"
        path.write_text(json.dumps({"kind": "repro-trace", "version": 99,
                                    "step_totals": []}) + "\n")
        with pytest.raises(ValueError, match="version"):
            load_trace(path)


class TestCrossMachineWorkflow:
    def test_compare_saved_trace_against_live(self, traced_model, tmp_path):
        """The regression workflow: save a baseline trace, later compare a
        new run's profile against the loaded baseline."""
        from repro.profiling.comparison import compare_profiles
        model, tracer = traced_model
        path = tmp_path / "baseline.jsonl"
        save_trace(tracer, path)
        baseline = OperationProfile.from_trace(load_trace(path),
                                               "baseline", device=cpu(1))
        fresh_tracer = Tracer()
        model.run_training(2, tracer=fresh_tracer)
        candidate = OperationProfile.from_trace(fresh_tracer, "candidate",
                                                device=cpu(1))
        comparison = compare_profiles(baseline, candidate)
        # Same graph, same device model: profiles are identical.
        assert comparison.cosine_distance == pytest.approx(0.0, abs=1e-9)
        assert comparison.speedup == pytest.approx(1.0, rel=1e-6)


class TestCompileRecords:
    def test_compile_records_roundtrip(self, tmp_path):
        model = workloads.create("memnet", config="tiny", seed=0)
        tracer = Tracer()
        model.run_training(2, tracer=tracer)
        assert tracer.compile_records, "session should report compilations"
        path = tmp_path / "trace.jsonl"
        save_trace(tracer, path)
        loaded = load_trace(path)
        assert loaded.compile_records == tracer.compile_records
        record = loaded.compile_records[0]
        assert record["options"] == "full"
        assert {"ops_in", "num_steps", "memory", "passes"} <= set(record)

    def test_traces_without_compile_records_still_load(self, tmp_path):
        """Backward compatibility with pre-compiler trace files."""
        model = workloads.create("memnet", config="tiny", seed=0)
        tracer = Tracer()
        model.run_training(1, tracer=tracer)
        path = tmp_path / "trace.jsonl"
        save_trace(tracer, path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header.pop("compile_records")
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        loaded = load_trace(path)
        assert loaded.compile_records == []


class TestServingEvents:
    def test_serving_events_round_trip(self, tmp_path):
        from repro.serving.events import ServingEvent
        tracer = Tracer()
        events = [
            ServingEvent(step=0, kind="reply", outcome="ok", replica=1,
                         latency_ms=3.25, deadline_ms=100.0),
            ServingEvent(step=1, kind="shed", outcome="shed",
                         detail="queue_full"),
            ServingEvent(step=2, kind="breaker_open", replica=0,
                         detail="2 consecutive failures"),
            ServingEvent(step=3, kind="hedge", detail="attempt 2"),
        ]
        for event in events:
            tracer.record_event(event)
        path = tmp_path / "serving.jsonl"
        save_trace(tracer, path)
        loaded = load_trace(path)
        restored = loaded.serving_events()
        assert [e.signature() for e in restored] == \
            [e.signature() for e in events]
        assert restored[0].latency_ms == pytest.approx(3.25)
        assert restored[1].detail == "queue_full"
        # the family filters stay disjoint
        assert loaded.failure_events() == []
        assert loaded.degradation_events() == []

    def test_mixed_event_families_stay_separated(self, tmp_path):
        from repro.framework.resilience import FailureEvent
        from repro.framework.session import DegradationEvent
        from repro.serving.events import ServingEvent
        tracer = Tracer()
        tracer.record_event(FailureEvent(step=0, kind="retry",
                                         detail="boom"))
        tracer.record_event(DegradationEvent(step=1, kind="tier_drop",
                                             tier="structural"))
        tracer.record_event(ServingEvent(step=2, kind="reply",
                                         outcome="ok"))
        path = tmp_path / "mixed.jsonl"
        save_trace(tracer, path)
        loaded = load_trace(path)
        assert len(loaded.failure_events()) == 1
        assert len(loaded.degradation_events()) == 1
        assert len(loaded.serving_events()) == 1
        assert loaded.serving_events()[0].outcome == "ok"


class TestEventFamilies:
    def test_golden_trace_loads_the_exact_events(self):
        loaded = load_trace(GOLDEN_TRACE)
        assert loaded.events == GOLDEN_EVENTS
        assert loaded.num_steps == 2
        assert loaded.metadata == {"workload": "memnet", "config": "tiny"}
        assert loaded.fleet_events() == [GOLDEN_EVENTS[1]]

    def test_golden_trace_resaves_byte_for_byte(self, tmp_path):
        loaded = load_trace(GOLDEN_TRACE)
        path = tmp_path / "resaved.jsonl"
        save_trace(loaded, path, metadata=loaded.metadata)
        assert path.read_bytes() == GOLDEN_TRACE.read_bytes()

    def test_registry_and_trace_file_agree(self):
        assert set(EVENT_FAMILIES) == set(FAMILY_MODULES)

    @pytest.mark.parametrize("family", list(EVENT_FAMILIES))
    def test_blob_round_trip(self, family):
        samples = [e for e in GOLDEN_EVENTS if e.FAMILY == family]
        assert samples, f"add a {family} event to GOLDEN_EVENTS"
        for event in samples:
            blob = json.loads(json.dumps(event_to_blob(event)))
            assert event_from_blob(family, blob) == event

    def test_views_partition_the_stream(self):
        tracer = Tracer()
        for event in GOLDEN_EVENTS:
            tracer.record_event(event)
        views = [tracer.events_of(family) for family in EVENT_FAMILIES]
        assert sorted(map(id, sum(views, []))) == \
            sorted(map(id, tracer.events))
        assert views == [
            getattr(tracer, f"{family}_events")()
            for family in EVENT_FAMILIES]
        assert tracer.serving_events("reply") == [GOLDEN_EVENTS[6]]

    def test_object_of_no_family_is_refused_by_name(self, tmp_path):
        class Stray:
            step, kind, seconds_lost = 0, "retry", 0.0

        tracer = Tracer()
        tracer.record_event(Stray())
        assert tracer.failure_events() == []
        with pytest.raises(ValueError, match="Stray"):
            save_trace(tracer, tmp_path / "stray.jsonl")

    def test_tracer_import_loads_no_domain_package(self):
        """framework.events and the tracer sit below serving, distributed,
        storage and chaos: importing them must load none of those."""
        code = ("import sys, repro.framework.events, repro.profiling.tracer\n"
                "print([m for m in sys.modules if m.startswith(("
                "'repro.serving', 'repro.distributed', 'repro.storage', "
                "'repro.chaos'))])")
        src = str(Path(repro.__file__).parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True,
            text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "[]"
