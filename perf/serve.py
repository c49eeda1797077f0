"""`serve_light` and `serve_heavy`: one `InferenceServer`, two replicas.

Each repetition has an open-loop phase (Poisson arrivals at a fixed
rate, every request timed from the instant it was due) and a saturation
phase (all requests submitted up front, then drained). `serve_light`
(memnet/tiny, ~0.2 ms per batch) is bound by the serving layer's own
per-request work; `serve_heavy` (speech/default, ~4 ms per batch,
time-major output) is bound by the replica.
"""

from __future__ import annotations

import time

import numpy as np

from repro import workloads
from repro.serving.balancer import TenantSpec
from repro.serving.fleet import FleetConfig, ServingFleet
from repro.serving.server import ServingConfig

from .harness import (NULL_SPANS, RealClock, percentile,
                      poisson_schedule, run_open_loop, stability)

REPLICAS = 2
WARMUP_BATCHES = 3
POOL_BATCHES = 16
#: "unbounded": nothing may be shed, every request must be answered
NO_LIMIT = 10 ** 9
#: share of a repetition's measuring time given to the open-loop phase;
#: the saturation phase, a fixed number of requests, takes about the rest
OPEN_SHARE = 0.7
#: the open loop runs in segments this long, the box's speed sampled
#: between them: the engine is synchronous, so nothing else can be
#: timed while requests are in flight
SEGMENT_SECONDS = 0.25
#: the saturation phase queues its requests in this many bursts, the
#: box's speed sampled between them
SATURATION_BURSTS = 3
#: set-ups per repetition, the last one used: `serve_light` sets up in
#: 10 ms, too short to time once. A constant, so that the memory peak
#: does not depend on how fast the box was.
SETUP_SAMPLES = 3

now = time.perf_counter


def _serving_config(replicas: int) -> ServingConfig:
    return ServingConfig(replicas=replicas, default_deadline_ms=0,
                         queue_limit=NO_LIMIT)


def _saturate(server, feeds, spans) -> float:
    """Submit everything up front, drain; wall from first submit."""
    start = now()
    for index, feed in enumerate(feeds):
        with spans.span("serving.server.submit", index):
            server.submit(feed)
    with spans.span("serving.server.drain"):
        server.drain()
    return now() - start


class ServeWorkload:
    def __init__(self, model: str, config: str, rate: float,
                 saturation_requests: int):
        self.model = model
        self.config = config
        #: open-loop arrival rate, requests per second
        self.rate = rate
        #: requests a saturation burst queues up front. A constant: each
        #: dispatch scans the whole queue for expired requests, so
        #: saturation throughput depends on how many are queued.
        self.saturation_requests = saturation_requests

    def expected_rows(self, model, pool_batches, extract_row) -> list:
        """The pool's replies as a direct run on each unsplit batch
        gives them, in pool order."""
        expected = []
        for batch in pool_batches:
            output = model.session.run(model.inference_output,
                                       feed_dict=batch)
            expected.extend(extract_row(output, row)
                            for row in range(model.batch_size))
        return expected

    def _set_up(self, seed: int):
        model = workloads.create(self.model, config=self.config, seed=seed)
        clock = RealClock()
        server = model.serve(_serving_config(REPLICAS), clock=clock)
        pool_batches = [model.sample_feed(training=False)
                        for _ in range(POOL_BATCHES)]
        # Every replica is warmed directly: EWMA routing would otherwise
        # never visit the slower one.
        for replica in server.replicas:
            for batch in pool_batches[:WARMUP_BATCHES]:
                replica.run_batch(batch)
        return model, clock, server, pool_batches

    def rep(self, seed: int, seconds: float, spans, ref) -> dict:
        rng = np.random.default_rng(seed)
        segments = max(1, round(OPEN_SHARE * seconds / SEGMENT_SECONDS))
        per_segment = max(40, round(self.rate * SEGMENT_SECONDS))
        open_count = segments * per_segment
        sat_count = SATURATION_BURSTS * self.saturation_requests

        setup_s = []
        with spans.span("perf.setup"):
            for _ in range(SETUP_SAMPLES):
                ref.sample()
                start = now()
                model, clock, server, pool_batches = self._set_up(seed)
                setup_s.append(now() - start)
        pool = [single for batch in pool_batches
                for single in server.codec.split_feed(batch)]
        extract_row = server.codec.extract  # the check's, unwrapped

        spans.wrap(server.codec, "assemble", "serving.codec.assemble")
        spans.wrap(server.codec, "extract", "serving.codec.extract")
        for replica in server.replicas:
            spans.wrap(replica, "run_batch", "serving.replica.run_batch")

        order = rng.integers(0, len(pool), open_count + sat_count)
        feeds = [pool[i] for i in order]
        latency_ms, late_ms, windows = [], [], []
        with spans.span("perf.serve.open_loop"):
            for segment in range(segments):
                ref.burst()
                first = segment * per_segment
                due = poisson_schedule(rng, self.rate, per_segment)
                start = now()
                latency, late, _ids = run_open_loop(
                    server, feeds[first:first + per_segment], due, clock,
                    spans)
                windows.append((start, now()))
                latency_ms.append(latency)
                late_ms.append(late)
        latency_ms = np.concatenate(latency_ms)
        late_ms = np.concatenate(late_ms)
        bursts = []
        with spans.span("perf.serve.saturation"):
            for burst in range(SATURATION_BURSTS):
                ref.burst()
                first = open_count + burst * self.saturation_requests
                start = now()
                _saturate(server,
                          feeds[first:first + self.saturation_requests], spans)
                bursts.append((start, now()))
        ref.burst()

        # Output check on the timed server's own replies: exactly one
        # terminal reply per request, outcome ok, value equal to the
        # matching row of a direct run on the unsplit pool batch.
        with spans.span("perf.check"):
            expected = self.expected_rows(model, pool_batches, extract_row)
            failed = 0
            for request_id, pool_index in enumerate(order):
                reply = server.replies.get(request_id)
                if reply is None or reply.outcome != "ok" or not np.allclose(
                        reply.value, expected[pool_index], rtol=1e-5):
                    failed += 1
            failed += abs(len(server.replies) - len(order))

        return {
            "setup_s": percentile(setup_s, 50),
            "metrics": {
                "throughput_per_s": percentile(
                    [self.saturation_requests / (end - start)
                     for start, end in bursts], 50),
                "latency_p50_ms": percentile(latency_ms, 50),
                "latency_p90_ms": percentile(latency_ms, 90)},
            "attempted": len(order), "failed": failed,
            "sample_counts": {"latency_p50_ms": open_count,
                              "latency_p90_ms": open_count,
                              "setup_s": len(setup_s),
                              "throughput_per_s": SATURATION_BURSTS},
            "stability": stability("open_loop_latency_ms", latency_ms),
            "counters": {
                "serving.counters.shed": server.counters["shed"],
                "serving.counters.hedges": server.counters["hedges"],
                "serving.counters.breaker_opens": sum(
                    replica.breaker.opens for replica in server.replicas)},
            "state": {"model": model, "server": server, "pool": pool,
                      "pool_batch": pool_batches[0],
                      "latency_ms": latency_ms, "late_ms": late_ms,
                      "open_windows": windows, "sat_windows": bursts},
        }

    # -- the traced run's per-layer numbers ----------------------------------

    def layers(self, seed: int, traced: dict, spans) -> dict:
        state = traced["state"]
        server, model = state["server"], state["model"]
        pool = state["pool"]
        requests = len(server.replies)
        out = {}

        def mean_us(name):
            durations = spans.durations(name)
            return sum(durations) / len(durations) * 1e6

        out["serving.server.submit_us"] = mean_us("serving.server.submit")
        out["serving.codec.assemble_us_per_batch"] = \
            mean_us("serving.codec.assemble")
        out["serving.codec.extract_us_per_req"] = \
            mean_us("serving.codec.extract")
        start = now()
        splits = 200
        for _ in range(splits):
            server.codec.split_feed(state["pool_batch"])
        out["serving.codec.split_us_per_req"] = \
            (now() - start) / (splits * model.batch_size) * 1e6

        # Replica time inside each phase's windows (the open loop's
        # segments, the saturation bursts); a request's queue wait is
        # its reply latency minus the run_batch span that served it.
        # Replies are stored in finish order and every reply follows one
        # extract call, so the n-th extract span belongs to the n-th reply.
        open_windows, sat_windows = \
            state["open_windows"], state["sat_windows"]
        open_end = open_windows[-1][1]
        batches, batch_ms, waits = [], [], []
        replies = iter(server.replies.values())
        for name, start, end, _parent, _item in spans.spans:
            if name == "serving.replica.run_batch":
                batches.append((start, end))
                batch_ms.append((end - start) * 1000.0)
            elif name == "serving.codec.extract":
                wait = next(replies).latency_ms - batch_ms[-1]
                if start < open_end:  # a saturated queue is all wait
                    waits.append(wait)

        def wall(windows):
            return sum(end - start for start, end in windows)

        def busy(windows):
            return sum(end - start for start, end in batches
                       if any(first <= start < last
                              for first, last in windows))

        overhead = wall(sat_windows) - busy(sat_windows)
        out["serving.server.overhead_us_per_req"] = \
            overhead / (len(sat_windows) * self.saturation_requests) * 1e6
        out["serving.server.overhead_frac"] = overhead / wall(sat_windows)
        out["serving.queue.wait_ms_p50"] = percentile(waits, 50)
        out["serving.replica.run_batch_ms"] = percentile(batch_ms, 50)
        out["serving.replica.busy_frac"] = \
            busy(open_windows) / wall(open_windows)
        out["serving.batcher.mean_batch"] = requests / len(batch_ms)
        out["serving.batcher.pad_frac"] = \
            1.0 - requests / (len(batch_ms) * model.batch_size)
        out["serving.events.per_req"] = len(server.events) / requests
        out["serving.latency_p99_ms"] = percentile(state["latency_ms"], 99)
        out["serving.latency_p99_samples"] = len(state["latency_ms"])
        out["serving.loadgen.late_ms_p99"] = percentile(state["late_ms"], 99)

        # One client, one request in flight: a batch of one padded to the
        # plan batch — the batching path used the opposite way.
        closed = []
        for index in range(max(20, self.saturation_requests // 10)):
            request_id = server.submit(pool[index % len(pool)])
            server.drain()
            closed.append(server.result(request_id).latency_ms)
        out["serving.closed_loop.latency_p50_ms"] = percentile(closed, 50)

        # A saturation burst through a default fleet (three zones, one
        # single-replica server each) and through a fresh bare server,
        # same requests, same no-shed limits: what the fleet costs per
        # request.
        burst = [pool[index % len(pool)]
                 for index in range(self.saturation_requests)]
        walls = {}
        for name, front in (
                ("bare", model.serve(_serving_config(REPLICAS),
                                     clock=RealClock())),
                ("fleet", ServingFleet(model, FleetConfig(
                    server=_serving_config(1),
                    tenants=(TenantSpec("default",
                                        max_outstanding=NO_LIMIT),)),
                    clock=RealClock()))):
            _saturate(front, pool[:8 * model.batch_size], NULL_SPANS)
            walls[name] = _saturate(front, burst, NULL_SPANS)
        out["serving.fleet.overhead_us_per_req"] = \
            (walls["fleet"] - walls["bare"]) / len(burst) * 1e6
        return out
