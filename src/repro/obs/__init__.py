"""Observability for the simulated machine and the campaign fabric.

Three layers, one package:

* :mod:`repro.obs.trace` — a :class:`~repro.obs.trace.Tracer` threaded
  through the simulated machine at injector-style hook points,
  recording per-transaction lifecycle spans in simulated cycles and
  exporting Chrome-trace/Perfetto JSON.
* :mod:`repro.obs.sample` — a :class:`~repro.obs.sample.StatSampler`
  that delta-samples :class:`~repro.common.stats.StatDomain` counters
  on an engine-scheduled tick, producing occupancy/throughput
  timelines.
* :mod:`repro.obs.fabric` — :class:`~repro.obs.fabric.FabricTelemetry`,
  the campaign supervisor's structured event log (dispatch, retry,
  watchdog kill, quarantine, cache hit/miss) and ``Campaign.metrics``.

Two derived layers fold the raw streams into answers:

* :mod:`repro.obs.analyze` — per-transaction latency decompositions
  from Chrome traces (an exact partition of each txn's span), recovery
  cost aggregation into the mean-cycles-vs-crash-cycle figure, and
  cross-design differentials.
* :mod:`repro.obs.dash` — a static, self-contained HTML dashboard over
  every artifact kind the harness writes.

The tracer and sampler are strictly opt-in: every hook in the
simulator is a nullable attribute checked with one predictable branch
(the same gate the fault injector pays), and an installed tracer only
*reads* simulated state — golden kernel digests are bit-identical with
tracing on and off.

Re-exports resolve lazily (PEP 562): the campaign layer imports
:mod:`repro.obs.fabric`, and a sweep should not pay for the dashboard,
the sampler or the analyzers until it calls one.
"""

from __future__ import annotations

from repro.common.lazy import lazy_exports

_EXPORTS = {
    "aggregate_breakdowns": "repro.obs.analyze",
    "decompose_trace": "repro.obs.analyze",
    "differential": "repro.obs.analyze",
    "recovery_figure": "repro.obs.analyze",
    "build_dashboard": "repro.obs.dash",
    "external_references": "repro.obs.dash",
    "FabricTelemetry": "repro.obs.fabric",
    "StatSampler": "repro.obs.sample",
    "Tracer": "repro.obs.trace",
    "validate_chrome_trace": "repro.obs.trace",
}

__all__ = sorted(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
