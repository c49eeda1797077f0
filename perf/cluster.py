"""`cluster_ckpt`: a 4-worker all-reduce cluster, then checkpoint round trips.

The only workload where `distributed` (sharded pipeline, gradient
extraction, aggregation, apply) and `storage` (serialize, digest,
replicated put/get with fsync) do the work. Phase (a) trains
autoenc/default on a `ClusterRuntime` that checkpoints through an N=3
replicated store; phase (b) saves and restores vgg/default state
(a 14.7 MB archive) on an N=3 local store, so the store is exercised
both ways and a commit-path gain that slows restore shows.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import time

import numpy as np

from repro import workloads
from repro.distributed.runtime import (ClusterConfig, ClusterRuntime,
                                       single_worker_reference)
from repro.distributed.strategies import aggregate_shards
from repro.framework import checkpoint as checkpoint_lib
from repro.framework.ops.state_ops import VariableOp
from repro.storage import (MemoryStore, ReplicatedCheckpointStore,
                           open_local_store, state_digests)

from .harness import percentile, stability

WORKERS = 4
REPLICAS = 3
CHECKPOINT_EVERY = 20
#: archives the round-trip store retains (bounds the disk it uses)
KEEP_LAST = 2
#: cluster losses compared bitwise against the single-worker reference
REFERENCE_STEPS = 10
#: the cluster phase: this many fresh runtimes run one checkpoint
#: interval each, the box's speed sampled between them. Constants,
#: because a `ClusterRuntime` runs once, cannot be stopped by a clock,
#: and nothing else can be timed while it runs.
CLUSTER_RUNS = 3
#: share of a repetition's measuring time given to the round trips; the
#: cluster phase takes about the rest
ROUND_TRIP_SHARE = 0.5
MIN_ROUND_TRIPS = 3
#: times each variant of the traced run's differential cluster runs is run
DIFFERENTIAL_REPEATS = 2

now = time.perf_counter


def _cluster(model, seed: int, directory=None, **overrides) -> ClusterRuntime:
    # Checkpointing stays on even without a directory: the in-memory
    # snapshot is what trims the crash-replay log (3.3 MB per step).
    config = ClusterConfig(
        workers=WORKERS, seed=seed, checkpoint_every=CHECKPOINT_EVERY,
        checkpoint_dir=directory,
        checkpoint_replicas=REPLICAS if directory else 1,
        **{"strategy": "allreduce", **overrides})
    return ClusterRuntime(model, config)


def _warm(runtime: ClusterRuntime) -> list:
    """Every worker compiles its gradient plan by computing step 0 (a
    pure function of (seed, step, shard): the run recomputes it from the
    cached feeds); returns the shard gradients."""
    feeds = runtime.pipeline.feeds_for_step(0, WORKERS)
    return [worker.compute_gradients(feeds[worker.shard], 0, worker.shard)[1]
            for worker in runtime.workers.values()]


def _timed_run(runtime: ClusterRuntime, steps: int) -> float:
    start = now()
    runtime.run(steps)
    return now() - start


def _median_ms(call, times: int) -> float:
    seconds = []
    for _ in range(times):
        start = now()
        call()
        seconds.append(now() - start)
    return percentile(seconds, 50) * 1000.0


class ClusterCkptWorkload:
    def __init__(self, scratch: str):
        #: directory (inside the checkout) for checkpoint archives
        self.scratch = scratch
        self._rep_dir: str | None = None
        self._reference: dict[int, list[float]] = {}

    def reference_losses(self, seed: int) -> list[float]:
        if seed not in self._reference:
            model = workloads.create("autoenc", config="default", seed=seed)
            self._reference[seed], _worker = single_worker_reference(
                model, REFERENCE_STEPS, WORKERS, seed=seed)
        return self._reference[seed]

    def rep(self, seed: int, seconds: float, spans, ref) -> dict:
        if self._rep_dir is not None:
            shutil.rmtree(self._rep_dir)  # the previous rep's archives
        self._rep_dir = tempfile.mkdtemp(dir=self.scratch)

        with spans.span("perf.setup"):
            setup_start = now()
            saved = workloads.create("vgg", config="default", seed=seed)
            store = open_local_store(f"{self._rep_dir}/store",
                                     replicas=REPLICAS, keep_last=KEEP_LAST)
            # Warm-up: the store takes round trips until retention is
            # collecting one archive per commit (the first commits, into
            # fresh files, take 2-3x as long), and every worker of every
            # runtime compiles its gradient plan.
            for _ in range(KEEP_LAST + 1):
                store.restore(saved.session,
                              store.save(saved.session).checkpoint_id)
                ref.tick()
            runtimes = []
            for index in range(CLUSTER_RUNS):
                trained = workloads.create("autoenc", config="default",
                                           seed=seed)
                runtimes.append(_cluster(
                    trained, seed, f"{self._rep_dir}/cluster-{index}"))
                grads = _warm(runtimes[-1])
                ref.tick()
            setup_s = now() - setup_start

        for runtime in runtimes:
            spans.wrap(runtime.pipeline, "feeds_for_step",
                       "distributed.pipeline.feeds_for_step")
            spans.wrap(runtime.strategy, "exchange",
                       "distributed.strategies.exchange")
            for worker in runtime.workers.values():
                spans.wrap(worker, "compute_gradients",
                           "distributed.worker.compute_gradients")
                spans.wrap(worker, "apply_update",
                           "distributed.worker.apply_update")
        for blob_store in store.stores:
            spans.wrap(blob_store, "put", "storage.blobstore.put")
            spans.wrap(blob_store, "get", "storage.blobstore.get")

        # The round trips come first, straight after the store's warm-up:
        # the first commit after a pause in writes (such as the cluster
        # phase) takes 3x as long and made every repetition drift.
        variable = next(op.output for op in saved.graph.operations
                        if isinstance(op, VariableOp))
        save_s, restore_s, mismatched = [], [], 0
        with spans.span("perf.ckpt.round_trips"):
            deadline = now() + ROUND_TRIP_SHARE * seconds
            while len(save_s) < MIN_ROUND_TRIPS or now() < deadline:
                trip = len(save_s)
                ref.tick()
                start = now()
                with spans.span("storage.replicated.save", trip):
                    record = store.save(saved.session, step=trip)
                save_s.append(now() - start)
                digests = state_digests(saved.session)
                saved.session.set_variable(
                    variable, saved.session.variable_value(variable) + 1.0)
                start = now()
                with spans.span("storage.replicated.restore", trip):
                    store.restore(saved.session, record.checkpoint_id)
                restore_s.append(now() - start)
                mismatched += state_digests(saved.session) != digests
        trips = len(save_s)

        run_s, results = [], []
        with spans.span("perf.cluster.run"):
            for runtime in runtimes:
                ref.burst()
                start = now()
                with spans.span("distributed.runtime.run"):
                    results.append(runtime.run(CHECKPOINT_EVERY))
                run_s.append(now() - start)
        ref.burst()

        # Output check on what the timed instances produced: every
        # cluster's first losses bitwise equal to the single-worker
        # reference, every restored state digest-equal to what was saved.
        with spans.span("perf.check"):
            reference = self.reference_losses(seed)
            failed = mismatched + sum(
                a != b for result in results
                for a, b in zip(result.losses, reference))
            archive_mb = len(checkpoint_lib.save_bytes(saved.session)) / 1e6

        save_s, restore_s = np.array(save_s), np.array(restore_s)
        round_trip_ms = (save_s + restore_s) * 1000.0
        # Saves and restores in the order they ran, each relative to its
        # own median: twice the samples the round trips have for the
        # stationarity numbers.
        in_order = np.ravel([save_s / percentile(save_s, 50),
                             restore_s / percentile(restore_s, 50)], "F")
        return {
            "setup_s": setup_s,
            "metrics": {
                "throughput_per_s": CHECKPOINT_EVERY / percentile(run_s, 50),
                "latency_p50_ms": percentile(round_trip_ms, 50),
                "latency_p90_ms": percentile(round_trip_ms, 90)},
            "extras": {
                "ckpt_commit_mb_per_s": archive_mb / percentile(save_s, 50),
                "ckpt_restore_mb_per_s":
                    archive_mb / percentile(restore_s, 50)},
            "attempted": CLUSTER_RUNS * CHECKPOINT_EVERY + trips,
            "failed": failed,
            "sample_counts": {"latency_p50_ms": trips,
                              "latency_p90_ms": trips,
                              "throughput_per_s": CLUSTER_RUNS},
            "stability": stability("save_and_restore_relative", in_order),
            "counters": {f"storage.counters.{name}": store.counters[name]
                         for name in ("failovers", "commit_failures",
                                      "read_repairs")},
            "state": {"runtime": runtimes[0], "results": results,
                      "run_seconds": sum(run_s),
                      "grads": grads, "store": store, "saved": saved,
                      "save_s": save_s, "restore_s": restore_s,
                      "archive_mb": archive_mb},
        }

    # -- the traced run's per-layer numbers ----------------------------------

    def layers(self, seed: int, traced: dict, spans) -> dict:
        state = traced["state"]
        runtime, wall = state["runtime"], state["run_seconds"]
        steps, trips = CLUSTER_RUNS * CHECKPOINT_EVERY, len(state["save_s"])
        out = {}

        def per_step_ms(name):
            return spans.total(name) / steps * 1000.0

        out["distributed.pipeline.feeds_ms"] = \
            per_step_ms("distributed.pipeline.feeds_for_step")
        out["distributed.worker.compute_gradients_ms"] = \
            per_step_ms("distributed.worker.compute_gradients")
        out["distributed.strategies.exchange_ms"] = \
            per_step_ms("distributed.strategies.exchange")
        out["distributed.worker.apply_update_ms"] = \
            per_step_ms("distributed.worker.apply_update")
        out["distributed.strategies.aggregate_ms"] = _median_ms(
            lambda: aggregate_shards(state["grads"]), 20)
        # Step wall outside those four calls; checkpoint stalls included.
        out["distributed.runtime.overhead_frac"] = \
            spans.self_times()["distributed.runtime.run"] / wall
        out["distributed.events.per_step"] = \
            sum(len(result.events) for result in state["results"]) / steps
        # Computed from tensor sizes, not measured on a wire: a ring
        # all-reduce moves 2(K-1)/K of the parameters per worker.
        out["distributed.exchange.mb_per_step"] = \
            2.0 * (WORKERS - 1) * runtime.parameter_bytes / 1e6

        # Differential cluster runs, one checkpoint interval each:
        # persisted vs in-memory checkpoints, screened vs plain mean (no
        # attacker), parameter server vs ring. A runtime runs once, so
        # every run gets a fresh one, warmed like the main one (no wall
        # includes a cold plan compile); the variants alternate, so that
        # box drift hits all of them alike.
        scratch = tempfile.mkdtemp(dir=self.scratch)
        variants = {"plain": {}, "persisted": {},
                    "screened": {"aggregation": "screened_mean"},
                    "ps": {"strategy": "ps"}}
        walls = {name: [] for name in variants}
        for repeat in range(DIFFERENTIAL_REPEATS):
            for name, overrides in variants.items():
                directory = f"{scratch}/{repeat}" \
                    if name == "persisted" else None
                model = workloads.create("autoenc", config="default",
                                         seed=seed)
                variant = _cluster(model, seed, directory, **overrides)
                _warm(variant)
                walls[name].append(_timed_run(variant, CHECKPOINT_EVERY))
        plain, persisted, screened, ps = (
            percentile(walls[name], 50) for name in variants)
        out["distributed.runtime.ckpt_stall_frac"] = 1.0 - plain / persisted
        out["distributed.byzantine.screened_overhead_frac"] = \
            screened / plain - 1.0
        out["distributed.transport.ps_over_allreduce"] = ps / plain

        # Storage: the round trips' own spans, then the same commit with
        # one replica (price of replication) and on memory stores (the
        # CPU part without the disk).
        store, session = state["store"], state["saved"].session
        out["storage.checkpoint_mb"] = state["archive_mb"]
        out["storage.replicated.commit_ms"] = \
            percentile(state["save_s"], 50) * 1000.0
        out["storage.replicated.restore_ms"] = \
            percentile(state["restore_s"], 50) * 1000.0
        out["storage.blobstore.put_ms"] = \
            spans.total("storage.blobstore.put") / trips * 1000.0
        out["storage.blobstore.get_ms"] = \
            spans.total("storage.blobstore.get") / trips * 1000.0
        payload = checkpoint_lib.save_bytes(session)
        out["framework.checkpoint.serialize_ms"] = _median_ms(
            lambda: checkpoint_lib.save_bytes(session), 5)
        out["framework.checkpoint.deserialize_ms"] = _median_ms(
            lambda: checkpoint_lib.restore_bytes(session, payload), 5)
        # The digest the store takes of every payload, timed on its own.
        out["storage.replicated.digest_ms"] = _median_ms(
            lambda: hashlib.sha256(payload).hexdigest(), 5)
        single = open_local_store(f"{scratch}/single", replicas=1,
                                  keep_last=KEEP_LAST)
        out["storage.replicated.commit_n1_ms"] = _median_ms(
            lambda: single.save(session), 5)
        memory = ReplicatedCheckpointStore(
            [MemoryStore(store_id=i) for i in range(REPLICAS)],
            keep_last=KEEP_LAST)
        out["storage.replicated.memstore_commit_ms"] = _median_ms(
            lambda: memory.save(session), 5)
        out["storage.replicated.scrub_ms"] = _median_ms(store.scrub, 3)
        shutil.rmtree(scratch)
        return out
