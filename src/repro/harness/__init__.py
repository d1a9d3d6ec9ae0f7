"""Experiment harness: regenerates every table and figure of the paper.

Simulation points are submitted through the campaign layer
(:mod:`repro.harness.campaign`): a multiprocessing fan-out plus a
content-addressed on-disk result cache (:mod:`repro.harness.cache`).
See ``python -m repro.harness --help`` for the CLI.

Re-exports resolve lazily (PEP 562): importing one harness module (the
campaign layer, say) does not import the experiments or the kernel
benchmark.
"""

from __future__ import annotations

from repro.common.lazy import lazy_exports

_EXPORTS = {
    "ResultCache": "repro.harness.cache",
    "Campaign": "repro.harness.campaign",
    "CrashSpec": "repro.harness.campaign",
    "crash_grid": "repro.harness.campaign",
    "crash_sweep": "repro.harness.campaign",
    "EXPERIMENTS": "repro.harness.experiments",
    "run_experiment": "repro.harness.experiments",
    "run_perf": "repro.harness.perf",
    "RunSpec": "repro.harness.runner",
    "run_spec": "repro.harness.runner",
}

__all__ = sorted(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
