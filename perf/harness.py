"""Measurement primitives shared by the perf workloads.

Statistics (percentiles, geometric mean, median of repetitions, the
paper's Fig. 1 stationarity numbers), the box-speed reference every
timing is corrected by, the in-memory span recorder behind the traced
run, the open-loop request scheduler, and the provenance block every
result carries. Nothing in here knows about a particular workload.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import time
from contextlib import contextmanager

import numpy as np

from repro.profiling.stability import StabilityStats

from . import BLAS_ENV, ROOT

#: a repetition whose first-half and second-half means differ by more
#: than this is marked non-stationary and rerun once
DRIFT_LIMIT = 0.10


# -- statistics --------------------------------------------------------------

def percentile(samples, q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] of ``samples``."""
    if len(samples) == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def geomean(values) -> float:
    """Geometric mean of strictly positive values."""
    values = [float(v) for v in values]
    if not values or min(values) <= 0.0:
        raise ValueError(f"geomean needs positive values, got {values}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def median_of_reps(values) -> tuple[float, float]:
    """``(median, (max - min) / median)`` over per-repetition values."""
    values = [float(v) for v in values]
    median = statistics.median(values)
    spread = (max(values) - min(values)) / median if median else 0.0
    return median, spread


def stability(name: str, samples) -> dict:
    """The paper's Fig. 1 evidence for one series of per-item timings."""
    stats = StabilityStats(op_type=name,
                           samples=np.asarray(samples, dtype=float))
    drift = stats.drift()
    return {"series": name, "samples": len(stats.samples),
            "iqr_over_median": stats.robust_dispersion, "drift": drift,
            "non_stationary": drift > DRIFT_LIMIT}


# -- box speed ---------------------------------------------------------------

class SpeedReference:
    """A fixed kernel of interpreter and numpy work, timed between the
    items of a repetition, that says how fast the box was during it.

    This shared 2-core box changes speed: for a tenth of a second or for
    minutes, every workload, and this kernel with them, runs 20-40%
    slower (a neighbour on the host; the guest sees it as plain CPU
    time). Raw wall times of two sets of runs of the same code therefore
    disagree by more than any useful bound. So a repetition's times are
    divided (its rates multiplied) by its slowdown: the median duration
    of this kernel over the samples spread through the repetition, over
    ``NOMINAL_SECONDS``, its duration on this box when it is quiet. A
    corrected value reads as real milliseconds on a quiet box, and a
    change to the program under test cannot move the kernel, which uses
    nothing of the program. (Correcting each item by the samples next
    to it was tried and was no steadier: hiccups are shorter than any
    affordable sampling interval.)
    """

    #: the kernel's median duration on this box when it is quiet
    NOMINAL_SECONDS = 0.00102
    #: `tick` samples at most this often: about 6% of a closed loop
    INTERVAL_SECONDS = 0.030

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random((128, 256), dtype=np.float32)
        self._b = rng.random((256, 256), dtype=np.float32)
        self._ab = np.empty((128, 256), dtype=np.float32)
        self._e = rng.random(65536, dtype=np.float32)
        self._x = np.empty_like(self._e)
        self._t = rng.random((256, 512), dtype=np.float32)
        self._tt = np.empty((512, 256), dtype=np.float32)
        self.reset()

    def reset(self) -> None:
        self.times: list[float] = []
        self.seconds: list[float] = []

    def _kernel(self) -> None:
        # Interpreter work of the kind dispatch loops do: dict access,
        # method calls, list appends.
        seen, order = {}, []
        for index in range(3500):
            seen[index & 63] = index
            order.append(seen.get(index & 31, 0))
        # numpy work of the kind the op kernels do: matrix products,
        # element-wise arithmetic, a strided copy. Every result goes
        # into a buffer made once: what a fresh allocation costs depends
        # on where it lands, and that is not the box's speed.
        for _ in range(2):
            np.matmul(self._a, self._b, out=self._ab)
        for _ in range(4):
            np.multiply(self._e, self._e, out=self._x)
            np.add(self._x, self._e, out=self._x)
            np.maximum(self._x, 0.5, out=self._x)
        np.copyto(self._tt, self._t.T)

    def sample(self) -> None:
        """One sample: the kernel run twice, the second run timed, so
        that the caches hold the kernel's data whatever ran before."""
        self._kernel()
        start = time.perf_counter()
        self._kernel()
        end = time.perf_counter()
        self.times.append(end)
        self.seconds.append(end - start)

    def tick(self) -> None:
        """Sample, unless the last sample is recent: for calling between
        the items of a closed loop."""
        if not self.times or \
                time.perf_counter() - self.times[-1] >= self.INTERVAL_SECONDS:
            self.sample()

    def burst(self, count: int = 3) -> None:
        """Samples in a row: for the gaps between stretches that cannot
        be interrupted (an open-loop segment, a cluster run)."""
        for _ in range(count):
            self.sample()

    def slowdown(self) -> float:
        """The median sample since `reset`, over the nominal one."""
        return statistics.median(self.seconds) / self.NOMINAL_SECONDS


#: end-to-end numbers that are rates; every other one but the memory
#: peak is a time
RATES = ("throughput_per_s", "ckpt_commit_mb_per_s", "ckpt_restore_mb_per_s")


def speed_corrected(raw: dict, slowdown: float) -> dict:
    """``raw`` as it would read on a quiet box."""
    return {name: value * slowdown if name in RATES else value / slowdown
            for name, value in raw.items()}


# -- spans -------------------------------------------------------------------

class SpanRecorder:
    """In-memory spans ``[name, start, end, parent, item_id]``.

    ``parent`` is the index of the span that was open when this one
    began (-1 for a root), so a layer's self time is its span minus its
    direct children. Spans are kept in a list and written out once, at
    the end of the run.
    """

    def __init__(self, clock=time.perf_counter):
        self.spans: list[list] = []
        self._clock = clock
        self._open = -1

    def begin(self, name: str, item_id=None) -> int:
        index = len(self.spans)
        self.spans.append([name, self._clock(), None, self._open, item_id])
        self._open = index
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span[2] = self._clock()
        self._open = span[3]

    @contextmanager
    def span(self, name: str, item_id=None):
        index = self.begin(name, item_id)
        try:
            yield
        finally:
            self.end(index)

    def wrap(self, obj, attr: str, name: str) -> None:
        """Record a span around every call of the bound method
        ``obj.attr``, by shadowing it on the instance."""
        inner = getattr(obj, attr)

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return inner(*args, **kwargs)
            finally:
                self.end(index)

        setattr(obj, attr, traced)

    # -- summaries -----------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _p, _i in self.spans
                if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, children's time subtracted."""
        own = [end - start for _n, start, end, _p, _i in self.spans]
        for _n, start, end, parent, _i in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: dict[str, float] = {}
        for (name, *_), seconds in zip(self.spans, own):
            totals[name] = totals.get(name, 0.0) + seconds
        return totals

    def root_seconds(self) -> float:
        return sum(end - start for _n, start, end, parent, _i in self.spans
                   if parent < 0)

    def chrome_trace(self) -> dict:
        """The Chrome trace-event form (load in chrome://tracing or
        Perfetto): one complete event per span, one row per layer."""
        if not self.spans:
            return {"traceEvents": []}
        origin = self.spans[0][1]
        layers: dict[str, int] = {}
        events = []
        for index, (name, start, end, parent, item) in enumerate(self.spans):
            layer = name.rsplit(".", 1)[0]
            tid = layers.setdefault(layer, len(layers) + 1)
            events.append({
                "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": tid,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {"span": index, "parent": parent, "item_id": item}})
        for layer, tid in layers.items():
            events.append({"name": "thread_name", "ph": "M", "pid": 1,
                           "tid": tid, "args": {"name": layer}})
        return {"traceEvents": events, "displayTimeUnit": "ms"}


class _NullSpan:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


class _NullSpans:
    """The untraced run: every span is a shared no-op."""

    _span = _NullSpan()

    def span(self, name, item_id=None):
        return self._span

    def wrap(self, obj, attr, name):
        pass


NULL_SPANS = _NullSpans()


# -- open-loop load ----------------------------------------------------------

class RealClock:
    """The serving clock protocol on ``time.perf_counter``."""

    now = staticmethod(time.perf_counter)

    @staticmethod
    def sleep(seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


#: idle polling interval of the open-loop scheduler: short enough that a
#: partial batch is dispatched when its max-wait expires, not when the
#: next request happens to arrive
POLL_SECONDS = 0.0002


def poisson_schedule(rng, rate: float, count: int) -> np.ndarray:
    """Due times (seconds from the start) of ``count`` Poisson arrivals."""
    return np.cumsum(rng.exponential(1.0 / rate, count))


def run_open_loop(server, feeds, due, clock, spans=NULL_SPANS):
    """Submit ``feeds[i]`` at ``due[i]`` seconds from now, regardless of
    how the server is coping; returns ``(latency_ms, late_ms, ids)``.

    The engine is synchronous, so an arrival that falls inside a running
    batch is submitted late. Each request is timed from the instant it
    was *due* — the lateness counts — and ``late_ms`` reports how late
    the generator ran.
    """
    count = len(feeds)
    start = clock.now()
    ids = [0] * count
    late_ms = np.empty(count)
    index = 0
    while index < count:
        gap = start + due[index] - clock.now()
        if gap <= 0.0:
            late_ms[index] = (clock.now() - start - due[index]) * 1000.0
            with spans.span("serving.server.submit", index):
                ids[index] = server.submit(feeds[index])
            index += 1
            continue
        with spans.span("serving.server.pump"):
            ran = server.pump()
        if not ran:
            clock.sleep(min(gap, POLL_SECONDS))
    with spans.span("serving.server.drain"):
        server.drain()
    latency_ms = np.array([late_ms[i] + server.result(ids[i]).latency_ms
                           for i in range(count)])
    return latency_ms, late_ms, ids


# -- provenance --------------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance(seed: int) -> dict:
    """Where a result came from; ``clock: real`` sets these numbers
    apart from the virtual-clock BENCH files under benchmarks/."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {"clock": "real", "commit": commit, "seed": seed,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": {name: os.environ.get(name) for name in BLAS_ENV}}
