"""`train_default` and `train_tiny`: closed-loop training of all 8 models.

One load-generating thread round-robins ``sample_feed`` ->
``Session.run([loss, train_step])`` over the eight Fathom models. The
two workloads use the same layer the opposite way: `train_default`
(codegen backend, default config) is kernel-bound, `train_tiny`
(interpreter, tiny config) is dispatch-bound.
"""

from __future__ import annotations

import math
import time
import warnings

import numpy as np

from repro import workloads
from repro.framework.faults import FaultInjector, FaultPlan
from repro.framework.graph import OpClass
from repro.framework.resilience import ResilienceConfig
from repro.profiling.tracer import Tracer

from .harness import geomean, percentile, stability

WARMUP_STEPS = 3
#: timed rounds a repetition has at least, however short its time
MIN_ROUNDS = 2
#: the paper's Fig. 3 groups A-G
OP_CLASSES = (OpClass.MATRIX, OpClass.CONVOLUTION, OpClass.ELEMENTWISE,
              OpClass.REDUCTION_EXPANSION, OpClass.RANDOM_SAMPLING,
              OpClass.OPTIMIZATION, OpClass.DATA_MOVEMENT)
OTHER_BACKEND = {"interp": "codegen", "codegen": "interp"}

now = time.perf_counter


def _train_step(model, **run_args) -> float:
    loss, _ = model.session.run([model.loss, model.train_step],
                                feed_dict=model.sample_feed(training=True),
                                **run_args)
    return float(np.asarray(loss))


def _timed_step(model, **run_args) -> float:
    start = now()
    _train_step(model, **run_args)
    return now() - start


def _build(config: str, backend: str, seed: int, tick=lambda: None) \
        -> tuple[list, dict]:
    """Construct, compile and warm all 8 models, calling ``tick``
    between them; the set-up breakdown costs three clock reads per
    model, so every repetition records it."""
    models, warmup_losses = [], {}
    build_s = compile_s = 0.0
    plan_steps = regions = planned_peak = 0
    for name in workloads.WORKLOAD_NAMES:
        start = now()
        model = workloads.create(name, config=config, seed=seed,
                                 backend=backend)
        built = now()
        plan = model.session.compile([model.loss, model.train_step])
        compiled = now()
        build_s += built - start
        compile_s += compiled - built
        plan_steps += plan.num_steps
        regions += len(plan.regions)
        planned_peak += plan.memory.planned_peak_bytes
        warmup_losses[name] = [_train_step(model)
                               for _ in range(WARMUP_STEPS)]
        models.append(model)
        tick()
    breakdown = {"build_s": build_s, "compile_s": compile_s,
                 "plan_steps": plan_steps, "regions": regions,
                 "planned_peak_bytes": planned_peak}
    return models, {"warmup_losses": warmup_losses, "breakdown": breakdown}


def _p50_ms(seconds) -> float:
    return percentile(seconds, 50) * 1000.0


def _ratio_overhead(variant: dict, base: dict) -> float:
    """Geomean over models of p50(variant) / p50(base), minus one."""
    return geomean(_p50_ms(variant[name]) / _p50_ms(base[name])
                   for name in base) - 1.0


class TrainWorkload:
    def __init__(self, config: str, backend: str):
        self.config = config
        self.backend = backend
        self._reference: dict[int, dict] = {}

    def reference_losses(self, seed: int) -> dict[str, list[float]]:
        """Warm-up losses of a second instance at the safe tier
        (op-at-a-time structural plan): the execution path furthest from
        the one being timed, which must agree with it bit for bit."""
        if seed not in self._reference:
            losses = {}
            for name in workloads.WORKLOAD_NAMES:
                model = workloads.create(name, config=self.config, seed=seed)
                model.session.safe_mode = True
                losses[name] = [_train_step(model)
                                for _ in range(WARMUP_STEPS)]
            self._reference[seed] = losses
        return self._reference[seed]

    def rep(self, seed: int, seconds: float, spans, ref) -> dict:
        with spans.span("perf.setup"):
            setup_start = now()
            models, built = _build(self.config, self.backend, seed, ref.tick)
            setup_s = now() - setup_start

        # A stopwatch, not a count, ends the loop: the metrics are
        # per-model medians, which do not depend on how many rounds a
        # slow box gets through, and a run's length stays bounded.
        step_s = {model.name: [] for model in models}
        losses = []
        feed_total = 0.0
        with spans.span("perf.train.round_robin"):
            rounds, deadline = 0, now() + seconds
            while rounds < MIN_ROUNDS or now() < deadline:
                for model in models:
                    item = f"{model.name}#{rounds}"
                    start = now()
                    with spans.span("workloads.sample_feed", item):
                        feed = model.sample_feed(training=True)
                    fed = now()
                    with spans.span("framework.session.run", item):
                        loss, _ = model.session.run(
                            [model.loss, model.train_step], feed_dict=feed)
                    end = now()
                    feed_total += fed - start
                    step_s[model.name].append(end - start)
                    losses.append(float(np.asarray(loss)))
                    ref.tick()
                rounds += 1

        # Output check, on the values the timed instances produced: every
        # loss finite, and the warm-up losses bitwise equal to the
        # safe-tier reference.
        with spans.span("perf.check"):
            reference = self.reference_losses(seed)
            failed = sum(not math.isfinite(loss) for loss in losses)
            for name, produced in built["warmup_losses"].items():
                failed += sum(a != b
                              for a, b in zip(produced, reference[name]))
        attempted = len(losses) + WARMUP_STEPS * len(models)

        # The median is per model (the geometric mean weights the eight
        # alike); the tail is over all timed steps pooled, so it falls
        # among the steps of the dearest models and says what the
        # geometric mean hides.
        p50 = geomean(_p50_ms(s) for s in step_s.values())
        p90 = percentile(np.concatenate(list(step_s.values())), 90) * 1000.0
        round_s = np.sum(list(step_s.values()), axis=0)
        return {
            "setup_s": setup_s,
            "metrics": {"throughput_per_s": 1000.0 / p50,
                        "latency_p50_ms": p50,
                        "latency_p90_ms": p90},
            "attempted": attempted, "failed": failed,
            "sample_counts": {"latency_p50_ms": rounds,
                              "latency_p90_ms": len(losses)},
            "stability": stability("round_seconds", round_s),
            "state": {"models": models, "step_s": step_s,
                      "feed_frac": feed_total / round_s.sum(), **built},
        }

    # -- the traced run's per-layer numbers ----------------------------------

    def layers(self, seed: int, traced: dict, spans) -> dict:
        state = traced["state"]
        models = state["models"]
        main = state["breakdown"]
        # the differential passes get a fifth of the rounds the traced
        # repetition had
        rounds = max(2, len(state["step_s"]["memnet"]) // 5)
        out = {f"workloads.{name}.step_ms": _p50_ms(seconds)
               for name, seconds in state["step_s"].items()}
        out["workloads.sample_feed.time_frac"] = state["feed_frac"]

        # The same rounds under the other backend: the off-diagonal
        # cells (interp x default, codegen x tiny) and the cold-compile
        # cost of each backend.
        others, other_built = _build(self.config,
                                     OTHER_BACKEND[self.backend], seed)
        other = other_built["breakdown"]
        interp, codegen = ((main, other) if self.backend == "interp"
                           else (other, main))
        out["framework.graph.build_ms"] = main["build_s"] * 1000.0
        out["framework.compiler.compile_ms"] = interp["compile_s"] * 1000.0
        out["framework.codegen.compile_extra_ms"] = \
            (codegen["compile_s"] - interp["compile_s"]) * 1000.0
        out["framework.compiler.plan_steps"] = interp["plan_steps"]
        out["framework.codegen.regions"] = codegen["regions"]

        # Differential passes, interleaved step by step so machine drift
        # hits every variant alike: plain, repo Tracer attached, op-level
        # guardrails, and an installed-but-empty fault injector.
        tracers = {model.name: Tracer() for model in models}
        idle = FaultInjector(FaultPlan([], seed=seed))
        variants = {key: {model.name: [] for model in models}
                    for key in ("base", "tracer", "guard", "injector")}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(rounds):
                for model in models:
                    name = model.name
                    variants["base"][name].append(_timed_step(model))
                    variants["tracer"][name].append(
                        _timed_step(model, tracer=tracers[name]))
                    variants["guard"][name].append(
                        _timed_step(model, guardrails="raise"))
                    model.session.fault_injector = idle
                    variants["injector"][name].append(_timed_step(model))
                    model.session.fault_injector = None
        out["framework.ops.runtime_warnings"] = sum(
            issubclass(w.category, RuntimeWarning) for w in caught)
        base = variants["base"]
        out["profiling.tracer.overhead_frac"] = \
            _ratio_overhead(variants["tracer"], base)
        out["framework.guardrails.overhead_frac"] = \
            _ratio_overhead(variants["guard"], base)
        out["framework.faults.idle_injector_overhead_frac"] = \
            _ratio_overhead(variants["injector"], base)

        # Dispatch: what the repo's Tracer sees outside operations.
        out["framework.session.dispatch_frac"] = float(np.mean(
            [t.framework_overhead_fraction() for t in tracers.values()]))
        outside = sum(sum(t.step_totals) - t.total_op_seconds()
                      for t in tracers.values())
        dispatched = 0
        for model in models:
            plan = model.session.compile([model.loss, model.train_step])
            entries = plan.steps if plan.program is None else plan.program
            dispatched += len(entries) * rounds
        out["framework.session.dispatch_us_per_planstep"] = \
            outside / dispatched * 1e6
        out["profiling.tracer.records_per_step"] = \
            sum(len(t.records) for t in tracers.values()) \
            / sum(t.num_steps for t in tracers.values())
        out["framework.memory.planned_peak_mb"] = \
            main["planned_peak_bytes"] / 1e6
        out["framework.memory.peak_live_mb"] = sum(
            model.session.last_peak_live_bytes for model in models) / 1e6

        # Resilient runner, fault-free, against the plain loop.
        plain = {model.name: [] for model in models}
        resilient = {model.name: [] for model in models}
        for _ in range(2):
            for model in models:
                start = now()
                model.run_training(rounds)
                plain[model.name].append(now() - start)
                start = now()
                model.run_training(rounds, resilience=ResilienceConfig())
                resilient[model.name].append(now() - start)
        out["framework.resilience.overhead_frac"] = \
            _ratio_overhead(resilient, plain)

        # Inference against training (paper Fig. 5), the other backend,
        # and the op-class shares (Fig. 3), which need op-by-op timing
        # and so come from whichever instance runs the interpreter.
        infer = {model.name: [] for model in models}
        other_s = {model.name: [] for model in others}
        class_tracers = tracers if self.backend == "interp" else \
            {model.name: Tracer() for model in others}
        for _ in range(rounds):
            for model, twin in zip(models, others):
                start = now()
                model.run_inference(1)
                infer[model.name].append(now() - start)
                other_s[twin.name].append(_timed_step(twin))
                if self.backend != "interp":
                    _train_step(twin, tracer=class_tracers[twin.name])
        infer_ms = geomean(_p50_ms(s) for s in infer.values())
        train_ms = geomean(_p50_ms(s) for s in base.values())
        other_ms = geomean(_p50_ms(s) for s in other_s.values())
        out["framework.session.infer_step_ms"] = infer_ms
        out["framework.session.train_over_infer"] = train_ms / infer_ms
        out["framework.backend.other_step_ms"] = other_ms
        out["framework.codegen.speedup"] = (
            train_ms / other_ms if self.backend == "interp"
            else other_ms / train_ms)
        by_class = dict.fromkeys(OP_CLASSES, 0.0)
        for tracer in class_tracers.values():
            for record in tracer.compute_records():
                if record.op_class in by_class:
                    by_class[record.op_class] += record.seconds
        total = sum(by_class.values())
        for op_class, seconds in by_class.items():
            out[f"framework.ops.{op_class.name.lower()}.time_frac"] = \
                seconds / total
        return out
