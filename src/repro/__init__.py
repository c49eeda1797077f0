"""Fathom: reference workloads for modern deep learning methods.

A from-scratch reproduction of Adolf et al., IISWC 2016. The package
provides:

* :mod:`repro.framework` — a TensorFlow-style dataflow framework with
  operation-level tracing, symbolic autodiff, and analytic device models;
* :mod:`repro.workloads` — the eight Fathom reference models behind the
  paper's standard model interface;
* :mod:`repro.data` — seeded synthetic stand-ins for each dataset;
* :mod:`repro.rl` — the Atari-substitute arcade environment, replay
  buffer, and DQN agent used by ``deepq``;
* :mod:`repro.profiling` — op-level tracing and the Fig. 3 taxonomy;
* :mod:`repro.analysis` — everything needed to regenerate the paper's
  tables and figures (dominance curves, similarity clustering,
  training-vs-inference, parallelism sweeps, the architecture survey).
"""

__version__ = "1.0.0"

from . import data, framework, profiling, rl, workloads

__all__ = ["framework", "workloads", "data", "rl", "profiling", "analysis"]


def __getattr__(name):
    # analysis sits on top of everything, the cluster runtime included;
    # loading it on first use keeps ``import repro.framework`` (and the
    # tracer) from pulling in the domain packages.
    if name == "analysis":
        import importlib
        return importlib.import_module(".analysis", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
