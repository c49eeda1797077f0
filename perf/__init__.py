"""Real-clock benchmark for the Fathom reproduction (see perf/README.md).

This module imports nothing heavy: perf/run.py reads it before numpy
may be imported.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
#: the numbers of each recorded run, first point first (BENCHMARK.json
#: itself may hold nothing but the benchmark's definition)
TRAJECTORY_JSON = Path(__file__).resolve().parent / "trajectory.json"

#: BLAS thread pins, set before numpy is imported: on a 2-core shared box
#: multi-threaded BLAS widened the A/A spread of the training geomean
#: from 3% to 10% for no speed-up.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def load_benchmark() -> dict:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)
