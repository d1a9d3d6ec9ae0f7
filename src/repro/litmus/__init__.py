"""Persistency litmus subsystem: declarative crash-consistency scenarios.

A *litmus test* is a small multi-core program over named symbolic cache
lines plus a postcondition classifying every recovered memory state as
**allowed** or **forbidden** — the framing persistency-model validation
work uses to stress-test designs ("store A persists, crash, B must not
be visible").  The subsystem has three layers:

* :mod:`repro.litmus.spec` — the declarative DSL: per-core instruction
  sequences (stores/loads/atomic-region boundaries/flushes/locks over
  symbolic variables) and safe postcondition expressions.
* :mod:`repro.workloads.litmus` — the compiler: a programmable workload
  that lowers a spec to the existing :mod:`repro.cpu.ops` op streams, so
  litmus programs run through the very same cores/caches/log machinery
  as every benchmark.
* :mod:`repro.litmus.explorer` — the checker: enumerates crash points
  across a spec's whole execution, recovers each crashed machine, dedups
  recovered images by digest and reports the reachable-outcome set per
  design, fanned out through the campaign pool + result cache.
* :mod:`repro.litmus.generator` — seeded random program generation over
  the same DSL, with exhaustive golden-model-derived allow-lists and a
  crash-window coverage metric over the explorer's grids.

``python -m repro.harness litmus`` runs the built-in catalog
(:mod:`repro.litmus.catalog`) and writes a per-test × design verdict
table as a JSON artifact.

Re-exports resolve lazily (PEP 562): the litmus compiler imports
:mod:`repro.litmus.spec`, and a catalog run should not pay for the
generator.
"""

from __future__ import annotations

from repro.common.lazy import lazy_exports

_EXPORTS = {
    "CATALOG": "repro.litmus.catalog",
    "catalog_by_name": "repro.litmus.catalog",
    "LITMUS_DESIGNS": "repro.litmus.explorer",
    "LitmusPoint": "repro.litmus.explorer",
    "LitmusReport": "repro.litmus.explorer",
    "execute_litmus_point": "repro.litmus.explorer",
    "explore": "repro.litmus.explorer",
    "GeneratorParams": "repro.litmus.generator",
    "generate": "repro.litmus.generator",
    "generate_spec": "repro.litmus.generator",
    "reachable_states": "repro.litmus.generator",
    "LitmusError": "repro.litmus.spec",
    "LitmusSpec": "repro.litmus.spec",
    "begin": "repro.litmus.spec",
    "br_ne": "repro.litmus.spec",
    "commit": "repro.litmus.spec",
    "compile_condition": "repro.litmus.spec",
    "compute": "repro.litmus.spec",
    "fill": "repro.litmus.spec",
    "flush": "repro.litmus.spec",
    "load": "repro.litmus.spec",
    "loadr": "repro.litmus.spec",
    "lock": "repro.litmus.spec",
    "store": "repro.litmus.spec",
    "unlock": "repro.litmus.spec",
}

__all__ = sorted(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
