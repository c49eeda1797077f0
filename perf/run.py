"""One real-clock benchmark for the whole stack (see perf/README.md).

Two ways to run it:

``python perf/run.py [--seed N] [--workload NAME] [--traced] [--quick]
[--check]`` runs every workload (or the named one), each in its own
child process, prints every metric by name with its unit and spread,
and writes ``perf/out/results.json``. ``--traced`` adds a traced run per
workload (per-layer metrics, ``perf/out/trace-<workload>.json``);
``--check`` runs two untraced sets and fails when they disagree by more
than a metric's bound; ``--record`` appends the run's numbers to
``perf/trajectory.json``.

``python perf/run.py --workload NAME --seed N --seconds S --trace 0|1``
is what those children run, and what BENCHMARK.json names as the
benchmark command: one workload in this process, its result as one JSON
object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perf import (BLAS_ENV, OUT_DIR, ROOT, TRAJECTORY_JSON,  # noqa: E402
                  load_benchmark)

REPS = 3
#: runs of every workload in each of `--check`'s two sets
CHECK_RUNS = 5
HEADLINE = "throughput_per_s"
#: numbers only `cluster_ckpt` has, printed and stored but not gated
EXTRA_UNITS = {"ckpt_commit_mb_per_s": "MB/s",
               "ckpt_restore_mb_per_s": "MB/s"}
#: the layers each workload enters, as prefixes of per-layer metric
#: names; a traced run must emit exactly the names under its prefixes
TRAIN_LAYERS = ("workloads.", "profiling.", "perf.") + tuple(
    f"framework.{module}." for module in (
        "graph", "compiler", "codegen", "session", "backend", "ops",
        "memory", "guardrails", "faults", "resilience"))
LAYERS = {
    "train_default": TRAIN_LAYERS,
    "train_tiny": TRAIN_LAYERS,
    "serve_light": ("serving.", "perf."),
    "serve_heavy": ("serving.", "perf."),
    "cluster_ckpt": ("distributed.", "storage.", "framework.checkpoint.",
                     "perf."),
}


def _import_benchmark():
    """Pin BLAS to one thread, then import numpy and the program."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perf: {ROOT / 'src' / 'repro'} not found; the benchmark "
                 f"runs from the root of a checkout of the repository")
    for name in BLAS_ENV:
        os.environ[name] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from perf import cluster, harness, serve, train
    factories = {
        "train_default": lambda scratch: train.TrainWorkload(
            "default", "codegen"),
        "train_tiny": lambda scratch: train.TrainWorkload("tiny", "interp"),
        "serve_light": lambda scratch: serve.ServeWorkload(
            "memnet", "tiny", rate=3000.0, saturation_requests=4000),
        "serve_heavy": lambda scratch: serve.ServeWorkload(
            "speech", "default", rate=200.0, saturation_requests=300),
        "cluster_ckpt": cluster.ClusterCkptWorkload,
    }
    return harness, factories


# -- one workload, in this process -------------------------------------------

def _fmt(value: float) -> str:
    return f"{value:.6g}"


def expected_layer_names(workload: str, bench: dict) -> set[str]:
    """The per-layer names ``workload`` measures."""
    return {metric["name"] for metric in bench["per_layer"]
            if metric["name"].startswith(LAYERS[workload])}


def run_workload(args) -> int:
    harness, factories = _import_benchmark()
    bench = load_benchmark()
    if args.workload not in factories:
        sys.exit(f"perf: unknown workload {args.workload!r}; "
                 f"choose from {sorted(factories)}")
    reps = 1 if args.quick else REPS
    seconds = args.seconds / REPS / (10.0 if args.quick else 1.0)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        workload = factories[args.workload](scratch)
        if args.trace:
            detail = _traced(harness, workload, args, seconds)
            declared = bench["per_layer"]
            expected = expected_layer_names(args.workload, bench)
        else:
            detail = _untraced(harness, workload, args, seconds, reps)
            declared = bench["end_to_end"]
            expected = {metric["name"] for metric in declared}
    detail.update(workload=args.workload, trace=args.trace,
                  seconds=args.seconds, reps=1 if args.trace else reps,
                  provenance=harness.provenance(args.seed))

    # A metric that stops being emitted fails the run; it never reads 0.
    if set(detail["metrics"]) != expected:
        raise KeyError(
            f"{args.workload}: not measured: "
            f"{sorted(expected - set(detail['metrics']))}; not declared "
            f"for it: {sorted(set(detail['metrics']) - expected)}")
    units = {m["name"]: m["unit"] for m in declared}
    _print_detail(detail, units)
    suffix = "-traced" if args.trace else ""
    path = OUT_DIR / f"{args.workload}{suffix}.json"
    path.write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    # The contract's result line. It must carry every declared name as a
    # number, so on a traced run the layers this workload never enters
    # (checked above to be exactly the ones outside LAYERS) read 0 here,
    # and only here: the table above and the detail file leave them out.
    print(json.dumps({
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"], "failed": detail["failed"],
        "metrics": {name: {"value": detail["metrics"].get(name, 0.0),
                           "unit": unit}
                    for name, unit in units.items()}}))
    return 0


def _one_rep(harness, workload, args, seconds, spans, ref) -> dict:
    """One repetition: its timings as measured (``raw``) and corrected
    for the speed of the box while it ran (``metrics``)."""
    gc.collect()
    ref.reset()
    spans.wrap(ref, "sample", "perf.reference.sample")
    start = time.perf_counter()
    rep = workload.rep(args.seed, seconds, spans, ref)
    rep["wall_s"] = time.perf_counter() - start
    ref.__dict__.pop("sample", None)  # the traced run's wrapper
    rep["slowdown"] = ref.slowdown()
    rep["raw"] = {"setup_s": rep.pop("setup_s"), **rep["metrics"],
                  **rep.pop("extras", {})}
    rep["metrics"] = harness.speed_corrected(rep["raw"], rep["slowdown"])
    return rep


def _untraced(harness, workload, args, seconds, reps) -> dict:
    """Median of ``reps`` repetitions. The first repetition whose
    per-item samples drift (the paper's Fig. 1 test) is rerun and both
    are reported; one rerun per run, so that a run's length is bounded."""
    ref = harness.SpeedReference()
    kept, flagged = [], []
    for _ in range(reps):
        rep = _one_rep(harness, workload, args, seconds,
                       harness.NULL_SPANS, ref)
        del rep["state"]
        if rep["stability"]["non_stationary"] and not flagged:
            flagged.append(rep)
            rep = _one_rep(harness, workload, args, seconds,
                           harness.NULL_SPANS, ref)
            del rep["state"]
        kept.append(rep)
    per_rep = {name: [rep["metrics"][name] for rep in kept]
               for name in kept[0]["metrics"]}
    metrics, spreads = {}, {}
    for name, values in per_rep.items():
        metrics[name], spreads[name] = harness.median_of_reps(values)
    metrics["peak_rss_mb"] = harness.peak_rss_mb()
    extras = {name: metrics.pop(name) for name in EXTRA_UNITS
              if name in metrics}
    counters = {name: sum(rep["counters"][name] for rep in kept + flagged)
                for name in kept[0].get("counters", {})}
    return {
        "metrics": metrics, "extras": extras, "spread": spreads,
        "per_rep": per_rep,
        "raw": {name: harness.median_of_reps(
                    [rep["raw"][name] for rep in kept])[0]
                for name in per_rep},
        "slowdown": [rep["slowdown"] for rep in kept],
        "counters": counters,
        "attempted": sum(rep["attempted"] for rep in kept + flagged),
        "failed": sum(rep["failed"] for rep in kept + flagged),
        "sample_counts": kept[0]["sample_counts"],
        "stability": [rep["stability"] for rep in kept],
        "non_stationary_reps": [
            {"stability": rep["stability"], "metrics": rep["metrics"]}
            for rep in flagged],
    }


def _traced(harness, workload, args, seconds) -> dict:
    """An untraced, a traced and another untraced repetition of the same
    size; the traced one against the mean of its two neighbours, on the
    speed-corrected headline metric, is the tracing overhead."""
    ref = harness.SpeedReference()

    def plain() -> dict:
        rep = _one_rep(harness, workload, args, seconds,
                       harness.NULL_SPANS, ref)
        del rep["state"]
        return rep

    before = plain()
    spans = harness.SpanRecorder()
    traced = _one_rep(harness, workload, args, seconds, spans, ref)
    covered = spans.root_seconds() / traced["wall_s"]
    self_times = spans.self_times()
    trace_path = OUT_DIR / f"trace-{args.workload}.json"
    trace_path.write_text(json.dumps(spans.chrome_trace()))
    metrics = workload.layers(args.seed, traced, spans)
    del traced["state"]
    after = plain()
    metrics.update(traced.get("counters", {}))
    untraced = (before["metrics"][HEADLINE] + after["metrics"][HEADLINE]) / 2
    metrics["perf.trace.overhead_frac"] = \
        untraced / traced["metrics"][HEADLINE] - 1.0
    reps = (before, traced, after)
    return {
        "metrics": {name: float(value) for name, value in metrics.items()},
        "attempted": sum(rep["attempted"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "slowdown": [rep["slowdown"] for rep in reps],
        "trace_file": str(trace_path.relative_to(ROOT)),
        "spans": len(spans.spans), "trace_coverage": covered,
        "self_seconds": dict(sorted(self_times.items(),
                                    key=lambda item: -item[1])),
    }


def _print_detail(detail: dict, units: dict) -> None:
    prov = detail["provenance"]
    print(f"== {detail['workload']}  trace={detail['trace']}  "
          f"seed={prov['seed']}  reps={detail['reps']}  clock={prov['clock']}"
          f"  commit={prov['commit'][:12]}  nproc={prov['nproc']}  "
          f"python={prov['python']}  numpy={prov['numpy']}  "
          f"blas_threads={prov['blas_threads']['OMP_NUM_THREADS']}")
    spread = detail.get("spread", {})
    counts = detail.get("sample_counts", {})
    raw = detail.get("raw", {})
    rows = {**detail["metrics"], **detail.get("extras", {})}
    for name, value in sorted(rows.items()):
        line = f"  {name:<48s} {_fmt(value):>12s} " \
               f"{units.get(name) or EXTRA_UNITS[name]}"
        if name in spread:
            line += f"   spread {spread[name]:.1%}"
        if name in raw:
            line += f"   uncorrected {_fmt(raw[name])}"
        if name in counts:
            line += f"   n={counts[name]}/rep"
        print(line)
    print("  box slowdown per repetition (reference kernel / nominal): "
          + " ".join(f"{value:.3f}" for value in detail["slowdown"]))
    print(f"  {'failed_frac':<48s} "
          f"{_fmt(detail['failed'] / detail['attempted']):>12s} fraction"
          f"   ({detail['failed']}/{detail['attempted']} items)")
    for index, stats in enumerate(detail.get("stability", [])):
        print(f"  rep {index}: {stats['series']} n={stats['samples']} "
              f"iqr_over_median={stats['iqr_over_median']:.3f} "
              f"drift={stats['drift']:.3f}")
    for flagged in detail.get("non_stationary_reps", []):
        stats = flagged["stability"]
        print(f"  non_stationary rep (rerun): drift={stats['drift']:.3f} "
              + " ".join(f"{k}={_fmt(v)}"
                         for k, v in flagged["metrics"].items()))
    if "trace_coverage" in detail:
        print(f"  trace: {detail['spans']} spans -> {detail['trace_file']}; "
              f"root spans cover {detail['trace_coverage']:.1%} of the "
              f"traced wall; self time by span:")
        for name, seconds in detail["self_seconds"].items():
            print(f"    {name:<46s} {seconds:10.4f} s")


# -- every workload, each in its own child process ---------------------------

def _child(workload: str, args, trace: int) -> dict | None:
    """Run one workload in a fresh process; its detail, or None when
    the child failed (an exception there is a failed workload, never a
    partial row)."""
    command = [sys.executable, __file__, "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace)] + (["--quick"] if args.quick else [])
    suffix = "-traced" if trace else ""
    detail_path = OUT_DIR / f"{workload}{suffix}.json"
    detail_path.unlink(missing_ok=True)
    done = subprocess.run(command, cwd=ROOT)
    if done.returncode != 0 or not detail_path.exists():
        print(f"== {workload}: child exited with code {done.returncode}; "
              f"failed_frac = 1")
        return None
    return json.loads(detail_path.read_text())


def _run_set(workloads, args, trace: int) -> dict:
    return {name: _child(name, args, trace) for name in workloads}


def _set_failures(results: dict) -> list[str]:
    problems = []
    for name, detail in results.items():
        if detail is None:
            problems.append(f"{name}: child process failed (failed_frac 1)")
            continue
        if detail["failed"]:
            problems.append(f"{name}: {detail['failed']} of "
                            f"{detail['attempted']} items failed")
        for counter, value in detail.get("counters", {}).items():
            if value:
                problems.append(f"{name}: {counter} = {value}, must be 0")
    return problems


def _compare_sets(first: dict, second: dict, bench: dict) -> list[str]:
    """The A/A gate: two sets of runs of the same code must agree on
    every end-to-end metric within that metric's own bound."""
    problems = []
    print(f"{'workload':<14s} {'metric':<18s} {'first':>12s} "
          f"{'second':>12s} {'diff':>8s} {'bound':>6s}")
    for name in first:
        if first[name] is None or second[name] is None:
            continue
        for metric in bench["end_to_end"]:
            a = first[name]["metrics"][metric["name"]]
            b = second[name]["metrics"][metric["name"]]
            diff = abs(b - a) / a
            verdict = "" if diff <= metric["bound"] else "  DISAGREE"
            print(f"{name:<14s} {metric['name']:<18s} {_fmt(a):>12s} "
                  f"{_fmt(b):>12s} {diff:>8.1%} {metric['bound']:>6.2f}"
                  f"{verdict}")
            if verdict:
                problems.append(f"{name}: {metric['name']} differs by "
                                f"{diff:.1%} (bound {metric['bound']})")
    return problems


def _median_of_runs(runs: list[dict]) -> dict:
    """One set out of several runs of every workload: each metric's
    median over the runs. A workload any of whose runs failed is failed."""
    merged = {}
    for name in runs[0]:
        details = [run[name] for run in runs]
        if None in details:
            merged[name] = None
            continue
        merged[name] = {
            "metrics": {
                metric: statistics.median(d["metrics"][metric]
                                          for d in details)
                for metric in details[0]["metrics"]},
            "attempted": sum(d["attempted"] for d in details),
            "failed": sum(d["failed"] for d in details),
            "counters": {counter: sum(d["counters"][counter]
                                      for d in details)
                         for counter in details[0]["counters"]},
            "runs": len(details)}
    return merged


def _record(sets: list, traced: dict | None, args) -> None:
    """Append this run's numbers to the tracked trajectory file."""
    point = {"provenance": None, "seconds": args.seconds, "workloads": {}}
    for name, detail in sets[0].items():
        point["provenance"] = detail["provenance"]
        point["workloads"][name] = {
            "end_to_end": detail["metrics"], "uncorrected": detail["raw"],
            "spread": detail["spread"], "extras": detail["extras"],
            "failed": detail["failed"], "attempted": detail["attempted"]}
        if traced:
            point["workloads"][name]["per_layer"] = traced[name]["metrics"]
    points = json.loads(TRAJECTORY_JSON.read_text()) \
        if TRAJECTORY_JSON.exists() else []
    TRAJECTORY_JSON.write_text(
        json.dumps(points + [point], indent=1, sort_keys=True) + "\n")
    print(f"point {len(points) + 1} recorded in "
          f"{TRAJECTORY_JSON.relative_to(ROOT)}")


def run_all(args) -> int:
    bench = load_benchmark()
    workloads = [args.workload] if args.workload else \
        [w["name"] for w in bench["workloads"]]
    if args.check:
        # The two sets' runs alternate, so that both see the same phases
        # of the box; a set's value is the median over its runs.
        runs = ([], [])
        for _ in range(CHECK_RUNS):
            for side in runs:
                side.append(_run_set(workloads, args, 0))
        sets = [_median_of_runs(side) for side in runs]
        problems = _set_failures(sets[0]) + _set_failures(sets[1])
        problems += _compare_sets(sets[0], sets[1], bench)
    else:
        sets = [_run_set(workloads, args, 0)]
        problems = _set_failures(sets[0])
    traced = _run_set(workloads, args, 1) if args.traced else None
    if traced:
        problems += _set_failures(traced)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / "results.json"
    out.write_text(json.dumps({"sets": sets, "traced": traced},
                              indent=1, sort_keys=True) + "\n")
    print(f"results written to {out.relative_to(ROOT)}")
    for problem in problems:
        print(f"FAIL {problem}")
    if args.record and not problems:
        _record(sets, traced, args)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds model initialisation, request-pool "
                             "order and the arrival schedule")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time of one run (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="run --workload in this process; 1 records "
                             "spans and reports the per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="add a traced run of each workload")
    parser.add_argument("--quick", action="store_true",
                        help="1 repetition of a tenth of the items")
    parser.add_argument("--check", action="store_true",
                        help="run two untraced sets; fail when they "
                             "disagree beyond a metric's bound")
    parser.add_argument("--record", action="store_true",
                        help="append the numbers of a run without "
                             "failures to perf/trajectory.json")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(load_benchmark()["run_seconds"])
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return run_workload(args)
    if args.record and (args.check or args.quick or args.workload):
        parser.error("--record takes one full run of every workload")
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
