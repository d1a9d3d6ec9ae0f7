"""Fault-injection subsystem: partial failures and recovery analytics.

Every crash the simulator could produce before this package existed was
a *whole-machine* power cut: all volatile state vanishes at once, every
controller's queued writes are dropped wholesale, and the ADR flush of
the LogM critical structures always completes.  Real persistent-memory
failures are messier — one controller can lose power while the others
drain cleanly, a log line can persist only a prefix of its bytes, the
ADR power budget can run out mid-flush, and NVM cells can simply go bad.
ATOM's evaluation (paper section VI-E) also cares about *recovery
behaviour* — how much log scanning and undo work a failure costs — which
final-state checking alone never measures.

This package provides both halves:

* :mod:`repro.faults.models` — declarative :class:`FaultModel`\\ s
  (single-controller loss, torn log-line writes, ADR drain truncation,
  log-region corruption, and ``a+b`` :class:`MultiFault` composites
  striking in one power failure), the passive :class:`FaultTaps` that
  record the writes in flight, and the :class:`FaultInjector` that
  applies a model to ``System.power_cut(injector)`` or
  ``System.crash()``;
* :mod:`repro.faults.analytics` — :class:`RecoveryCost`, the
  per-controller recovery cost report (lines scanned, records
  undone/applied, modeled recovery cycles) that
  :func:`repro.atom.recovery.recover` now attaches to every crash,
  litmus, and fault outcome;
* :mod:`repro.faults.sweep` — the (design x workload x fault-model x
  injection-point) matrix, run through the campaign pool and the
  content-addressed result cache exactly like crash and litmus sweeps;
* :mod:`repro.faults.cli` — ``python -m repro.harness faults``.

Re-exports resolve lazily (PEP 562): :mod:`repro.atom.recovery` imports
:mod:`repro.faults.analytics` — which executes this ``__init__`` — so an
eager import of :mod:`repro.faults.models` here would close a cycle
through the design-policy modules.
"""

from __future__ import annotations

from repro.common.lazy import lazy_exports

_EXPORTS = {
    "RecoveryCost": "repro.faults.analytics",
    "FAULT_MODELS": "repro.faults.models",
    "AdrTruncation": "repro.faults.models",
    "ControllerLoss": "repro.faults.models",
    "FaultInjector": "repro.faults.models",
    "FaultModel": "repro.faults.models",
    "LogCorruption": "repro.faults.models",
    "MultiFault": "repro.faults.models",
    "TornLogWrite": "repro.faults.models",
    "default_fault_models": "repro.faults.models",
    "fault_from_dict": "repro.faults.models",
    "FAULT_DESIGNS": "repro.faults.sweep",
    "FAULT_WORKLOADS": "repro.faults.sweep",
    "FaultOutcome": "repro.faults.sweep",
    "FaultSpec": "repro.faults.sweep",
    "FaultSweepResult": "repro.faults.sweep",
    "execute_fault_point": "repro.faults.sweep",
    "fault_grid": "repro.faults.sweep",
    "fault_sweep": "repro.faults.sweep",
}

__all__ = sorted(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
