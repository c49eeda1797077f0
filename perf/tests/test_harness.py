"""Tests of the benchmark harness itself.

Run with ``python -m pytest perf/tests`` from the repository root.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perf import BLAS_ENV  # noqa: E402

for _name in BLAS_ENV:  # as perf/run.py does, before numpy is imported
    os.environ.setdefault(_name, "1")

from perf import (BENCHMARK_JSON, OUT_DIR, cluster, harness,  # noqa: E402
                  load_benchmark, run, serve, train)
from repro.framework.clock import VirtualClock  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# -- arithmetic on hand-made inputs ------------------------------------------

def test_percentile_interpolates_linearly():
    assert harness.percentile([1, 2, 3, 4, 5], 50) == 3.0
    assert harness.percentile([10, 20], 90) == pytest.approx(19.0)
    assert harness.percentile([7], 99) == 7.0
    with pytest.raises(ValueError):
        harness.percentile([], 50)


def test_geomean():
    assert harness.geomean([2, 8]) == pytest.approx(4.0)
    assert harness.geomean([5, 5, 5]) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        harness.geomean([1.0, 0.0])


def test_median_of_reps_and_spread():
    median, spread = harness.median_of_reps([10.0, 12.0, 11.0])
    assert median == 11.0
    assert spread == pytest.approx(2.0 / 11.0)


def test_stability_flags_drift_beyond_the_limit():
    steady = harness.stability("x", [1.0, 1.1, 0.9, 1.0, 1.1, 0.9])
    assert not steady["non_stationary"]
    assert steady["drift"] == pytest.approx(0.0)
    drifting = harness.stability("x", [1.0, 1.0, 1.0, 1.2, 1.2, 1.2])
    assert drifting["drift"] == pytest.approx(0.2)
    assert drifting["non_stationary"]
    assert drifting["iqr_over_median"] == pytest.approx(0.2 / 1.1)


def test_speed_correction_divides_times_and_multiplies_rates():
    raw = {"setup_s": 2.0, "latency_p50_ms": 30.0, "throughput_per_s": 100.0,
           "ckpt_commit_mb_per_s": 200.0}
    assert harness.speed_corrected(raw, 1.25) == {
        "setup_s": 1.6, "latency_p50_ms": 24.0, "throughput_per_s": 125.0,
        "ckpt_commit_mb_per_s": 250.0}


def test_speed_reference_ticks_at_most_once_per_interval():
    ref = harness.SpeedReference()
    ref.INTERVAL_SECONDS = 60.0
    ref.burst(5)
    assert len(ref.seconds) == 5
    assert ref.slowdown() > 0
    for _ in range(3):
        ref.tick()                      # too soon after the burst
    assert len(ref.seconds) == 5
    ref.INTERVAL_SECONDS = 0.0
    ref.tick()
    assert len(ref.seconds) == 6
    ref.reset()
    assert ref.seconds == []
    ref.seconds = [0.5 * ref.NOMINAL_SECONDS, 2.0 * ref.NOMINAL_SECONDS,
                   3.0 * ref.NOMINAL_SECONDS]
    assert ref.slowdown() == pytest.approx(2.0)     # the median sample


def test_span_self_time_subtracts_direct_children():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 6.0, 6.0, 10.0, 12.0])
    spans = harness.SpanRecorder(clock=lambda: next(ticks))
    with spans.span("root"):                     # 0 .. 12
        with spans.span("layer.a", item_id=7):   # 1 .. 6
            with spans.span("layer.b"):          # 2 .. 3
                pass
            with spans.span("layer.b"):          # 5 .. 6
                pass
        with spans.span("layer.b"):              # 6 .. 10
            pass
    own = spans.self_times()
    assert own == {"root": 12 - 5 - 4, "layer.a": 5 - 1 - 1,
                   "layer.b": 1 + 1 + 4}
    assert sum(own.values()) == spans.root_seconds() == 12.0
    assert spans.total("layer.b") == 6.0
    events = spans.chrome_trace()["traceEvents"]
    first_b = next(e for e in events if e["name"] == "layer.b")
    assert first_b["ph"] == "X" and first_b["dur"] == 1e6
    assert first_b["args"]["parent"] == 1
    assert events[1]["args"]["item_id"] == 7


def test_wrap_records_a_span_per_call_on_the_instance_only():
    class Layer:
        def work(self, x):
            return x + 1

    spans = harness.SpanRecorder()
    traced, untouched = Layer(), Layer()
    spans.wrap(traced, "work", "layer.work")
    assert traced.work(1) == 2 and untouched.work(1) == 2
    assert [span[0] for span in spans.spans] == ["layer.work"]


# -- the open-loop scheduler -------------------------------------------------

class StallingServer:
    """Replies instantly, except that its first pump stalls 50 ms."""

    def __init__(self, clock):
        self.clock = clock
        self.queue, self.replies, self.arrival = [], {}, {}
        self.stalled = False

    def submit(self, feed):
        request_id = len(self.arrival)
        self.arrival[request_id] = self.clock.now()
        self.queue.append(request_id)
        return request_id

    def pump(self):
        if not self.queue:
            return 0
        if not self.stalled:
            self.stalled = True
            self.clock.sleep(0.050)
        for request_id in self.queue:
            waited = self.clock.now() - self.arrival[request_id]
            self.replies[request_id] = SimpleNamespace(
                latency_ms=waited * 1000.0)
        self.queue.clear()
        return 1

    drain = pump

    def result(self, request_id):
        return self.replies[request_id]


def test_open_loop_charges_a_stall_to_the_requests_due_during_it():
    clock = VirtualClock()
    server = StallingServer(clock)
    due = [0.0, 0.010, 0.020, 0.030, 0.040, 0.100]
    latency_ms, late_ms, ids = harness.run_open_loop(
        server, [{}] * len(due), due, clock)
    assert ids == list(range(len(due)))
    # Request 0 is inside the stalled batch. Requests 1-4 fell due while
    # the server was stalled: they are submitted at t=50 ms and answered
    # at once, so timed from submit they would read 0 ms; timed from when
    # they were due they carry what is left of the stall.
    assert latency_ms[0] == pytest.approx(50.0)
    assert list(latency_ms[1:5]) == pytest.approx([40.0, 30.0, 20.0, 10.0])
    assert list(late_ms[1:5]) == pytest.approx([40.0, 30.0, 20.0, 10.0])
    # Due after the stall: on time again.
    assert latency_ms[5] == pytest.approx(0.0, abs=harness.POLL_SECONDS * 1e3)


def test_poisson_schedule_is_seeded_and_increasing():
    import numpy as np
    a = harness.poisson_schedule(np.random.default_rng(3), 1000.0, 500)
    b = harness.poisson_schedule(np.random.default_rng(3), 1000.0, 500)
    assert (a == b).all() and (np.diff(a) > 0).all()
    assert a[-1] == pytest.approx(0.5, rel=0.2)


# -- the contract file -------------------------------------------------------

def test_benchmark_json_round_trips_and_names_are_well_formed():
    text = BENCHMARK_JSON.read_text()
    bench = json.loads(text)
    assert json.loads(json.dumps(bench)) == bench
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    names = [entry["name"] for group in ("workloads", "end_to_end",
                                         "per_layer")
             for entry in bench[group]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    bounds = {}
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        bounds[metric["name"]] = metric["bound"]
    # No timing may move by more than a tenth unnoticed; set-up, the
    # noisiest, has the largest bound.
    assert bounds.pop("setup_s") == 0.15
    assert all(0 < bound <= 0.10 for bound in bounds.values()), bounds
    for metric in bench["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() \
        <= bench["end_to_end"][0].items()
    assert len(text.encode()) < 64 * 1024


def test_each_workload_measures_only_the_layers_it_enters():
    bench = load_benchmark()
    expected = {w["name"]: run.expected_layer_names(w["name"], bench)
                for w in bench["workloads"]}
    assert set().union(*expected.values()) == \
        {m["name"] for m in bench["per_layer"]}
    for workload, names in expected.items():
        elsewhere = {name for name in names if name.startswith(
            ("storage.", "distributed.", "framework.checkpoint."))}
        assert bool(elsewhere) == (workload == "cluster_ckpt"), workload
        assert "perf.trace.overhead_frac" in names
    assert not any(name.startswith("serving.")
                   for name in expected["train_tiny"])


# -- the output checks can fail ----------------------------------------------

def test_train_check_counts_a_corrupted_reference_loss():
    workload = train.TrainWorkload("tiny", "interp")
    ref = harness.SpeedReference()
    clean = workload.rep(0, 0.1, harness.NULL_SPANS, ref)
    assert clean["failed"] == 0 and clean["attempted"] >= 2 * 8 + 3 * 8
    workload.reference_losses(0)["memnet"][1] += 1e-6
    assert workload.rep(0, 0.1, harness.NULL_SPANS, ref)["failed"] == 1


def test_serve_check_counts_a_corrupted_expected_row():
    class Corrupted(serve.ServeWorkload):
        def expected_rows(self, model, pool_batches, extract_row):
            rows = super().expected_rows(model, pool_batches, extract_row)
            rows[0] = rows[0] + 1.0
            return rows

    arguments = ("memnet", "tiny", 2000.0, 400)
    ref = harness.SpeedReference()
    clean = serve.ServeWorkload(*arguments).rep(
        0, 0.1, harness.NULL_SPANS, ref)
    assert clean["failed"] == 0 and clean["attempted"] > 400
    assert all(value == 0 for value in clean["counters"].values())
    assert Corrupted(*arguments).rep(
        0, 0.1, harness.NULL_SPANS, ref)["failed"] > 0


def test_cluster_check_counts_a_corrupted_reference_loss():
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        workload = cluster.ClusterCkptWorkload(scratch)
        workload.reference_losses(0)[3] += 1e-3
        rep = workload.rep(0, 0.1, harness.NULL_SPANS,
                           harness.SpeedReference())
    assert rep["failed"] == cluster.CLUSTER_RUNS    # once per runtime
    assert all(value == 0 for value in rep["counters"].values())


# -- end to end --------------------------------------------------------------

def test_quick_pass_runs_all_five_workloads_and_emits_every_metric():
    """Untraced and traced: every end-to-end metric, and for each
    workload exactly the per-layer metrics of the layers it enters."""
    bench = load_benchmark()
    done = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"), "--quick",
         "--traced"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert done.returncode == 0, done.stdout + done.stderr
    results = json.loads((OUT_DIR / "results.json").read_text())
    (first_set,) = results["sets"]
    assert set(first_set) == {w["name"] for w in bench["workloads"]}
    for name, detail in first_set.items():
        assert detail["failed"] == 0 and detail["attempted"] >= 1, name
        assert detail["provenance"]["clock"] == "real"
        for metric in bench["end_to_end"]:
            assert detail["metrics"][metric["name"]] > 0, (name, metric)
    assert set(results["traced"]) == set(first_set)
    for name, detail in results["traced"].items():
        assert detail["failed"] == 0, name
        assert set(detail["metrics"]) == \
            run.expected_layer_names(name, bench), name
        assert 0.95 < detail["trace_coverage"] <= 1.0, name
        assert (ROOT / detail["trace_file"]).exists()


def test_a_failing_child_is_a_failed_workload_not_a_partial_row():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perf" / "run.py"), "--quick",
         "--workload", "no_such_workload"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode != 0
    assert "failed_frac = 1" in done.stdout
    results = json.loads((OUT_DIR / "results.json").read_text())
    assert results["sets"] == [{"no_such_workload": None}]
