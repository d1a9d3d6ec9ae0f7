"""The fault matrix: (design x workload x fault-model x injection-point).

Mirrors the crash sweep (:mod:`repro.harness.campaign`): every
:class:`FaultSpec` is one fully-serialisable point.
:meth:`~repro.harness.campaign.Campaign.run_faults` runs it through
:func:`execute_fault_point`, inline or in a pool worker, and memoises
its :class:`FaultOutcome` in the content-addressed result cache under
the ``"fault"`` kind, so a warm re-run of a whole matrix is served from
disk.

The points of one (design, workload, seed) run share it: the run's
scaled-down machine is built once with the fault taps every model reads
(:class:`~repro.faults.models.FaultTaps`) and paused at each injection
cycle in turn.  There each point takes a power cut of the running
machine with its own fault injector applied
(``System.power_cut(injector)``), recovers the cut, re-recovers it (the
double-crash idempotence check), and judges the outcome by the model's
contract:

* **consistency-preserving** models (``controller-loss``,
  ``torn-log-write``) must still pass the golden-model differential
  check — the fault only removes or invalidates state a whole-machine
  power cut could also have removed;
* **detection** models (``adr-truncation``, ``log-corruption``) destroy
  information recovery needs, so the durable structure is *expected* to
  be unrecoverable — the contract is that recovery **notices**
  (``checksum_rejected``/``adr_invalid``/``line_checksum_rejected`` in
  the :class:`~repro.faults.analytics.RecoveryCost`) instead of silently
  acting on garbage, and that a second recovery pass is a no-op;
* **media** models (``torn-data-write``, ``bit-rot``) damage lines with
  no format CRC, so their detection contract binds only when the spec
  enables the per-data-line checksum plane (``checksums=True``).
  Either way the sweep diffs the injector's damage ground truth against
  the recovered image and the flagged ``corrupt_lines``: damage that
  recovery neither healed nor flagged is **silent corruption** — a
  hard failure with the plane enabled, an accounted ``silent`` verdict
  without it (never ``ok``).

A spec with ``storm`` set replaces the single recovery pass with a
seeded crash storm (:mod:`repro.faults.storm`): recovery is interrupted
mid-pass repeatedly and must still converge to a fixpoint.

Verdicts aggregate per (design, workload, fault) cell: ``ok``,
``detected`` (ok with validation hits observed), ``contained`` (ok and
recovery confined damage to the affected AUSes), ``silent`` (unflagged
damage survived, checksum plane off), ``vacuous`` (the fault never
actually applied at any injection point — e.g. no log write was ever in
flight at the chosen cycles), or ``FAIL``.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from repro.common.errors import SimulationError, WorkloadError
from repro.config import Design
from repro.faults.analytics import RecoveryCost
from repro.faults.models import (FaultInjector, FaultTaps,
                                 default_fault_models, fault_from_dict)
from repro.harness.report import format_table

#: Default design axis: every design with a recovery story.
FAULT_DESIGNS = [Design.BASE, Design.ATOM, Design.ATOM_OPT, Design.REDO]
#: Default workload axis (smaller than the crash sweep's: the fault
#: axis multiplies the grid by the model count).
FAULT_WORKLOADS = ["hash", "rbtree"]
#: Default injection-point grid (crash cycles), same as the crash sweep.
FAULT_CYCLES = range(2_000, 30_001, 4_000)


@dataclass
class FaultSpec:
    """One point of the fault matrix."""

    design: Design
    workload: str
    #: Canonical fault-model encoding (``FaultModel.to_dict``) — part of
    #: the cache key, so editing a model invalidates exactly its points.
    fault: dict
    crash_cycle: int
    seed: int = 7
    entry_bytes: int = 512
    threads: int = 4
    txns_per_thread: int = 8
    initial_items: int = 12
    num_cores: int = 4
    workload_kw: dict = field(default_factory=dict)
    #: Enable the per-data-line checksum plane (media-fault detection).
    checksums: bool = False
    #: When set, recover through a seeded crash storm instead of a
    #: single pass (see :mod:`repro.faults.storm`).
    storm: int | None = None


@dataclass
class FaultOutcome:
    """Verdict + recovery analytics for one fault point."""

    spec: FaultSpec
    ok: bool = False
    #: The fault actually changed something (vacuity marker).
    applied: bool = False
    #: Validation hits recovery reported (checksum + ADR rejections).
    detections: int = 0
    commits: int = 0
    rolled_back: int = 0
    recovery_cost: dict = field(default_factory=dict)
    #: Second recovery pass left the durable image byte-identical.
    idempotent: bool = True
    #: Damaged lines recovery neither healed nor flagged (ground truth
    #: diff against the injector's planted damage).
    silent: int = 0
    #: AUSes whose damage recovery contained instead of aborting.
    contained: int = 0
    #: Crash-storm bookkeeping (zero when the spec ran a single pass).
    storm_attempts: int = 0
    storm_interrupted: int = 0
    #: Storm converged to a recovery fixpoint (vacuously True without).
    storm_fixpoint: bool = True
    #: Injector's description of what was injected.
    detail: str = ""
    error: str = ""


def execute_fault_point(spec: FaultSpec) -> FaultOutcome:
    """Run one point: inject at a power cut, recover, re-recover, judge.

    The point is checked on a ``System.power_cut`` of this process's
    live run of ``spec``'s (design, workload, seed, ...) run
    (:func:`repro.harness.campaign.cut_point`), which leaves out the
    fault model, crash cycle and storm seed: the run is built with the
    fault taps every model reads, so the points of one run submitted in
    ascending crash-cycle order simulate it once, whatever their model.

    A failed check (or a modelled-hardware deadlock) is an *outcome*,
    recorded with ``ok=False`` — a sweep reports every divergence
    instead of dying on the first one.  A model naming a controller the
    machine lacks raises :class:`~repro.common.errors.ConfigError`.
    """
    from repro.harness.campaign import cut_point
    from repro.harness.testbed import (CRASH_RUN_MAX_CYCLES,
                                       recover_power_failure,
                                       start_crash_run)

    model = fault_from_dict(spec.fault)
    if not model.applicable(spec.design):
        return FaultOutcome(spec=spec, ok=True, applied=False,
                            detail="model inapplicable to design")
    injector = FaultInjector(model)

    def start():
        system, workload = start_crash_run(
            spec.workload, spec.design, seed=spec.seed,
            entry_bytes=spec.entry_bytes, threads=spec.threads,
            txns_per_thread=spec.txns_per_thread,
            initial_items=spec.initial_items, num_cores=spec.num_cores,
            instrument=FaultTaps().install, line_checksums=spec.checksums,
            **spec.workload_kw,
        )
        return system, workload, CRASH_RUN_MAX_CYCLES

    def check(system, workload, cut) -> FaultOutcome:
        report = recover_power_failure(system, cut, storm_seed=spec.storm)
        return judge_fault_point(spec, injector, system, workload, report,
                                 cut)

    try:
        return cut_point(
            dataclasses.replace(spec, fault={}, crash_cycle=0, storm=None),
            spec.crash_cycle, start, check, injector=injector,
        )
    except (WorkloadError, SimulationError) as exc:
        return FaultOutcome(spec=spec, ok=False, applied=injector.applied,
                            detail=injector.detail,
                            error=f"{type(exc).__name__}: {exc}")


def judge_fault_point(spec: FaultSpec, injector: FaultInjector, system,
                      workload, report, cut=None) -> FaultOutcome:
    """Judge a recovered fault point by its model's contract.

    ``report`` is the first recovery (or the storm's merged report) of
    ``cut`` (a ``System.power_cut``), or of the machine itself after
    ``System.crash`` when ``cut`` is ``None``; ``injector`` applied the
    fault at that power failure.
    """
    model = injector.model
    image = system.image if cut is None else cut.image
    cost: RecoveryCost = report.cost
    storm = report.storm
    # Double-crash path: a second recovery (the state a crash during the
    # first one leads to) must change no durable line — in particular,
    # a rejected torn/corrupt record must stay rejected.
    idempotent = system.recover(cut).lines_changed == 0

    # Silent-corruption accounting: every line the injector damaged must
    # end up healed (recovery overwrote it) or flagged (in the report's
    # corrupt_lines).  What is neither survived *undetected*.
    flagged = set(report.corrupt_lines)
    silent = 0
    for addr, damaged in injector.damage.items():
        if addr in flagged:
            continue
        if bytes(image.durable_read(addr, len(damaged))) != damaged:
            continue  # healed: undo/replay wrote over the damage
        silent += 1
    cost.silent_corruption = silent

    # The detection contract binds only when the model's damage is
    # checksummable with the current spec (media models need the plane).
    expects_detection = model.expects_detection and (
        spec.checksums or not getattr(model, "detection_needs_checksums",
                                      False)
    )

    ok = True
    error = ""
    if model.preserves_consistency:
        try:
            workload.verify_durable(image)
        except WorkloadError as exc:
            ok = False
            error = f"{type(exc).__name__}: {exc}"
    if expects_detection and injector.applied and cost.detections == 0:
        ok = False
        error = (error + "; " if error else "") + (
            "fault applied but recovery validated nothing "
            f"({injector.detail})"
        )
    if spec.checksums and silent:
        ok = False
        error = (error + "; " if error else "") + (
            f"{silent} damaged line(s) survived undetected despite the "
            f"checksum plane ({injector.detail})"
        )
    if not idempotent:
        ok = False
        error = (error + "; " if error else "") + (
            "second recovery changed the durable image"
        )
    if storm is not None and not storm.fixpoint:
        ok = False
        error = (error + "; " if error else "") + (
            f"crash storm (seed={storm.seed}) did not converge to a "
            f"recovery fixpoint after {storm.attempts} attempts"
        )
    return FaultOutcome(
        spec=spec, ok=ok, applied=injector.applied,
        detections=cost.detections, commits=workload.commits,
        rolled_back=report.updates_rolled_back,
        recovery_cost=cost.to_dict(), idempotent=idempotent,
        silent=silent, contained=cost.aus_contained,
        storm_attempts=storm.attempts if storm else 0,
        storm_interrupted=storm.interrupted_attempts if storm else 0,
        storm_fixpoint=storm.fixpoint if storm else True,
        detail=injector.detail, error=error,
    )


def fault_grid(
    designs: Iterable[Design] = tuple(FAULT_DESIGNS),
    workloads: Iterable[str] = tuple(FAULT_WORKLOADS),
    models: Sequence | None = None,
    crash_cycles: Iterable[int] = FAULT_CYCLES,
    seeds: Iterable[int] = (7,),
    checksums: bool = False,
    storm: int | None = None,
) -> list[FaultSpec]:
    """Enumerate the matrix, dropping inapplicable (design, model) cells.

    Run-major, as :func:`repro.harness.campaign.crash_grid` is: the axes
    vary design × workload × seed × crash cycle × model, so each run's
    points are adjacent in ascending cycle order, and the models of one
    cycle cut the same pause (see :func:`execute_fault_point`).
    """
    if models is None:
        models = default_fault_models()
    return [
        FaultSpec(design=d, workload=w, fault=m.to_dict(), crash_cycle=c,
                  seed=s, checksums=checksums, storm=storm)
        for d, w, s, c, m in itertools.product(
            designs, workloads, seeds, crash_cycles, models
        )
        if m.applicable(d)
    ]


@dataclass
class FaultCell:
    """Aggregated verdict for one (design, workload, fault) cell."""

    design: str
    workload: str
    fault: str
    points: int = 0
    applied_points: int = 0
    detections: int = 0
    #: Damaged lines that survived undetected, summed over the points.
    silent: int = 0
    #: AUSes whose damage recovery contained, summed over the points.
    contained: int = 0
    failures: list[FaultOutcome] = field(default_factory=list)
    #: Summed recovery analytics over the cell's points.
    cost: RecoveryCost = field(default_factory=RecoveryCost)
    #: Mean modeled recovery cycles per point that ran a recovery.
    mean_cycles: float = 0.0
    _cycles_total: int = 0
    _costed_points: int = 0

    @property
    def status(self) -> str:
        if self.failures:
            return "FAIL"
        if self.applied_points == 0:
            return "vacuous"
        if self.silent:
            # Unflagged damage survived (checksum plane off): the cell
            # is accounted, never "ok".
            return "silent"
        if self.contained:
            return "contained"
        if self.detections:
            return "detected"
        return "ok"

    def absorb(self, outcome: FaultOutcome) -> None:
        self.points += 1
        if outcome.applied:
            self.applied_points += 1
        self.detections += outcome.detections
        self.silent += outcome.silent
        self.contained += outcome.contained
        if not outcome.ok:
            self.failures.append(outcome)
        if not outcome.recovery_cost:
            return  # an errored point never ran recovery; don't dilute
        cost = RecoveryCost.from_dict(outcome.recovery_cost)
        self._cycles_total += cost.cycles
        self._costed_points += 1
        cost.per_controller = []  # keep the aggregate compact
        self.cost.merge(cost)
        self.cost.cycles = 0  # merge() keeps the max; report the mean
        self.mean_cycles = self._cycles_total / self._costed_points


@dataclass
class FaultSweepResult:
    """Outcome of one fault matrix run."""

    outcomes: list[FaultOutcome]

    @property
    def cells(self) -> list[FaultCell]:
        table: dict[tuple[str, str, str], FaultCell] = {}
        for o in self.outcomes:
            key = (o.spec.design.value, o.spec.workload,
                   o.spec.fault.get("kind", "?"))
            cell = table.get(key)
            if cell is None:
                cell = table[key] = FaultCell(*key)
            cell.absorb(o)
        return [table[k] for k in sorted(table)]

    @property
    def failures(self) -> list[FaultCell]:
        return [c for c in self.cells if c.status == "FAIL"]

    def render(self) -> str:
        cells = self.cells
        rows = [
            [c.design, c.workload, c.fault, c.points, c.applied_points,
             c.detections, c.silent,
             c.cost.records_undone + c.cost.records_applied,
             f"{c.mean_cycles:,.0f}", c.status]
            for c in cells
        ]
        failures = [c for c in cells if c.status == "FAIL"]
        out = format_table(
            ["design", "workload", "fault", "points", "applied",
             "detections", "silent", "records recovered",
             "mean rec. cycles", "verdict"],
            rows,
            title=(f"== Faults: {len(cells)} cells, "
                   f"{len(self.outcomes)} points, "
                   f"{len(failures)} failures =="),
        )
        for cell in failures:
            for bad in cell.failures[:3]:
                out += (f"\nFAIL {cell.design}/{cell.workload}/{cell.fault}"
                        f"@{bad.spec.crash_cycle} seed={bad.spec.seed}: "
                        f"{bad.error}")
        return out

    def to_json(self) -> dict:
        """Verdict + recovery-cost artifact (the CLI's ``--out``)."""
        from repro.obs.analyze import (recovery_figure,
                                       recovery_records_from_outcomes)

        cells = self.cells
        return {
            "kind": "faults",
            "points_total": len(self.outcomes),
            "recovery_figure": recovery_figure(
                recovery_records_from_outcomes(self.outcomes)
            ),
            "summary": {
                "cells": len(cells),
                "failures": sum(1 for c in cells if c.status == "FAIL"),
                "detected": sum(1 for c in cells if c.status == "detected"),
                "contained": sum(1 for c in cells
                                 if c.status == "contained"),
                "silent": sum(1 for c in cells if c.status == "silent"),
                "silent_lines": sum(c.silent for c in cells),
                "vacuous": sum(1 for c in cells if c.status == "vacuous"),
            },
            "cells": [
                {
                    "design": c.design,
                    "workload": c.workload,
                    "fault": c.fault,
                    "status": c.status,
                    "points": c.points,
                    "applied_points": c.applied_points,
                    "detections": c.detections,
                    "silent": c.silent,
                    "contained": c.contained,
                    "mean_recovery_cycles": c.mean_cycles,
                    "recovery_cost": c.cost.to_dict(),
                    "failures": [
                        {
                            "crash_cycle": f.spec.crash_cycle,
                            "seed": f.spec.seed,
                            "error": f.error,
                            "detail": f.detail,
                        }
                        for f in c.failures
                    ],
                }
                for c in cells
            ],
        }


def fault_sweep(campaign, specs: Sequence[FaultSpec] | None = None,
                ) -> FaultSweepResult:
    """Run a fault matrix through a campaign (pooled + cached)."""
    if specs is None:
        specs = fault_grid()
    return FaultSweepResult(outcomes=campaign.run_faults(specs))
