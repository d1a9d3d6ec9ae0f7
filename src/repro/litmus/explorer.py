"""Crash-point exploration: reachable recovered states per design.

For every (litmus test × design × seed) cell the explorer

1. runs one **probe** point (no injected crash: run to completion, cut
   power, recover) to learn the program's finish cycle,
2. enumerates a crash grid over ``[crash_start, finish)`` and runs each
   point: cut power mid-flight and run recovery.  The cell's program
   is simulated once, and each point recovers a power cut that the
   running machine survives.  Recovery runs once per distinct cut: a
   point whose cut would equal the previous point's (no durable write
   since, the same ADR blocks and REDO commit log, under the same
   storm seed and commit count) takes that point's checked outcome
   with its own point, finish cycle and crash windows, so a cell costs
   its distinct durable states rather than its grid density (see
   :func:`execute_litmus_point`),
3. extracts the recovered values of the spec's symbolic variables from
   the durable image and dedups recovered states by content digest,
4. re-runs recovery and checks that the second pass changed no durable
   line (recovery idempotence — the paper's step-4 claim), and
5. classifies every distinct state against the spec's postconditions.

Points go through :meth:`repro.harness.campaign.Campaign.run_litmus`,
which runs each through :func:`execute_litmus_point`, inline or in a
pool worker, and keeps its :class:`LitmusOutcome` in the
content-addressed result cache: a re-run of the whole catalog is served
from disk, and densifying a grid only computes the new points.

A **verdict** per cell: ``ok`` (no forbidden state reachable),
``detected`` (forbidden reached on a design the spec expects to break —
the checker proving it can see violations), ``vacuous`` (expected to
break but the grid never hit it), or ``FAIL`` (forbidden/unlisted state
on a design that must be correct, a recovery-idempotence failure, or a
simulation error).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from functools import partial

from repro.common.errors import ReproError
from repro.config import Design
from repro.harness.report import format_table
from repro.litmus.catalog import CATALOG
from repro.litmus.spec import LitmusSpec, compile_condition

#: Default design axis: every design with a recovery story, plus the
#: unlogged NON_ATOMIC baseline as the violation-detection control.
LITMUS_DESIGNS = [Design.BASE, Design.ATOM, Design.ATOM_OPT, Design.REDO,
                  Design.NON_ATOMIC]

#: First candidate crash cycle (before it nothing has happened yet).
DEFAULT_CRASH_START = 50


# -- points and outcomes -------------------------------------------------------


@dataclass
class LitmusPoint:
    """One crash point of one litmus test under one design."""

    #: Canonical spec encoding (``LitmusSpec.to_dict``) — part of the
    #: cache key, so editing a spec invalidates exactly its points.
    test: dict
    design: Design
    #: Cycle to cut power at; ``None`` = probe (run to completion).
    crash_cycle: int | None
    seed: int = 7
    #: Fault model applied at the cut (``FaultModel.to_dict``); ``None``
    #: is the plain whole-machine power loss.  Part of the cache key.
    fault: dict | None = None
    #: Crash-storm seed: recover through repeated seeded mid-recovery
    #: crashes (:mod:`repro.faults.storm`) instead of one pass.  Part
    #: of the cache key; ``None`` is the plain single recovery.
    storm: int | None = None


@dataclass
class LitmusOutcome:
    """Recovered-state observation for one point."""

    point: LitmusPoint
    #: Recovered u64 per variable (``None`` when the point errored).
    state: dict | None = None
    #: Digest of the variable region's durable lines (dedup key).
    digest: str = ""
    commits: int = 0
    rolled_back: int = 0
    #: Finish cycle of the run (probe points: the program's length).
    finish: int = 0
    #: A second recovery pass changed no durable line.
    idempotent: bool = True
    #: Recovery-time analytics (``RecoveryCost.to_dict``).
    recovery_cost: dict = field(default_factory=dict)
    #: Crash windows the machine was inside at the cut (see
    #: :data:`repro.runtime.system.CRASH_WINDOWS`; ``["quiescent"]``
    #: when nothing durability-critical was in flight).
    windows: list = field(default_factory=list)
    error: str = ""


def execute_litmus_point(point: LitmusPoint, *,
                         instrument=None) -> LitmusOutcome:
    """Run one point: (maybe) crash, recover, extract, re-recover.

    A point without an ``instrument`` hook is checked on a power cut of
    this process's live run of its (test, design, seed, fault) cell
    (:func:`repro.harness.campaign.cut_point`), so a cell's points
    submitted in ascending crash-cycle order simulate its program once
    whatever their storm seed.  A plain point whose cut would equal the
    previous point's, under the same storm seed, is not cut: it takes
    that point's outcome restamped with its own point, finish cycle and
    crash windows (:func:`_restamped_outcome`).  A fault cell's run
    carries the fault taps (:class:`~repro.faults.models.FaultTaps`)
    and each point applies a fresh injector to its cut.  A traced point
    builds its own machine and cuts power destructively
    (``System.crash``) so its tracer sees the cut.

    A modelled-hardware failure (deadlock, invariant violation, workload
    inconsistency) is an *outcome*, recorded in ``error`` — the explorer
    reports it per cell instead of aborting the whole exploration.

    ``instrument``, when given, is called with the built ``System``
    before the program starts (observability hook: a traced litmus
    cell installs its :class:`~repro.obs.trace.Tracer` here).
    """
    from repro.harness.campaign import cut_point
    from repro.harness.testbed import (build_litmus_system,
                                       finish_crash_run,
                                       recover_power_failure)

    def start():
        spec = LitmusSpec.from_dict(point.test)
        system, workload = build_litmus_system(
            point.design, spec, seed=point.seed
        )
        if instrument is not None:
            instrument(system)
        if injector is not None:
            from repro.faults.models import FaultTaps

            FaultTaps().install(system)
        workload.setup()
        system.start_threads(workload.threads())
        return system, workload, spec.max_cycles

    def check(system, workload, cut) -> LitmusOutcome:
        report = recover_power_failure(system, cut, storm_seed=point.storm)
        return _recovered_outcome(point, system, workload, cut, report)

    try:
        injector = None
        if point.fault is not None:
            from repro.faults.models import FaultInjector, fault_from_dict

            injector = FaultInjector(fault_from_dict(point.fault))
        if instrument is None:
            return cut_point(
                dataclasses.replace(point, crash_cycle=None, storm=None),
                point.crash_cycle, start, check, injector=injector,
                restamp=partial(_restamped_outcome, point), storm=point.storm,
            )
        system, workload, max_cycles = start()
        if injector is not None:
            injector.install(system)
        if point.crash_cycle is not None:
            system.crash_at(point.crash_cycle)
        system.run(max_cycles=max_cycles)
        # A probe, or a program that finished before the scheduled
        # cycle, has its power cut here (nothing should roll back).
        report = finish_crash_run(system, workload, verify=False,
                                  storm_seed=point.storm)
        outcome = _recovered_outcome(point, system, workload, None, report)
        # The system was private to this point and the outcome carries
        # everything extracted from it: recycle the image buffers.
        system.image.recycle()
        return outcome
    except ReproError as exc:
        return LitmusOutcome(
            point=point, state=None,
            error=f"{type(exc).__name__}: {exc}",
        )


def _recovered_outcome(point: LitmusPoint, system, workload, cut,
                       report) -> LitmusOutcome:
    """Re-recover a point's power failure and read its recovered state.

    ``cut`` is the point's ``System.power_cut``, or ``None`` when the
    machine itself crashed; ``report`` is the first recovery of it.
    """
    image = system.image if cut is None else cut.image
    # Recovery idempotence: a second crash immediately after (or during
    # — nothing volatile matters any more) recovery must change no
    # durable line.
    idempotent = system.recover(cut).lines_changed == 0
    storm = report.storm
    if storm is not None:
        # The storm's convergence verdict folds into the same axis: a
        # non-fixpoint storm is an idempotence failure.
        idempotent = idempotent and storm.fixpoint
    return LitmusOutcome(
        point=point,
        state=workload.durable_state(image),
        digest=workload.state_digest(image),
        commits=workload.commits,
        rolled_back=report.updates_rolled_back,
        finish=system.engine.now,
        idempotent=idempotent,
        recovery_cost=report.cost.to_dict(),
        windows=list(system.crash_windows if cut is None else cut.windows),
    )


def _restamped_outcome(point: LitmusPoint, system,
                       outcome: LitmusOutcome) -> LitmusOutcome:
    """``point``'s outcome, whose cut equals that of ``outcome``.

    The recovered state, its digest and the recovery verdicts are the
    cut's; the point, the finish cycle and the crash windows the
    machine is inside are the point's own.
    """
    return dataclasses.replace(
        outcome, point=point, finish=system.engine.now,
        windows=system.sample_crash_windows(),
    )


# -- crash grids ---------------------------------------------------------------


def crash_cycles_for(finish: int, points: int,
                     start: int = DEFAULT_CRASH_START) -> list[int]:
    """Up to ``points`` evenly spaced crash cycles over ``[start, finish)``.

    Both endpoints of the usable span are always included (the last
    cycle, ``finish - 1``, is where the final commit/truncation window
    lives — a grid that never reaches it would leave the durability
    point itself untested).  Deterministic in ``finish`` (itself
    deterministic per code version), so re-runs enumerate the identical
    grid and hit the result cache.
    """
    if finish <= start or points <= 0:
        return []
    last = finish - 1
    if last == start:
        return [start]
    # Both endpoints are non-negotiable whenever the span holds two
    # cycles: a points=1 request still yields {start, last}, because a
    # grid without `last` leaves the durability point itself untested.
    points = max(points, 2)
    span = last - start
    return sorted({
        start + (i * span) // (points - 1) for i in range(points)
    })


# -- classification ------------------------------------------------------------


@dataclass
class LitmusCell:
    """Verdict for one (test × design × fault) cell, over all seeds."""

    test: str
    design: str
    #: Whether the spec expects forbidden outcomes under this design.
    expected: bool
    #: Fault model replayed at the cut ("power-loss" = the plain cut).
    fault: str = "power-loss"
    points: int = 0
    #: Distinct recovered states: digest -> summary dict.
    outcomes: dict = field(default_factory=dict)
    forbidden_points: int = 0
    unlisted_points: int = 0
    idempotence_failures: int = 0
    #: Crash-window coverage: window name -> points that landed in it.
    window_hits: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    @property
    def status(self) -> str:
        violating = self.forbidden_points + self.unlisted_points
        if self.errors or self.idempotence_failures:
            return "FAIL"
        if violating and not self.expected:
            return "FAIL"
        if violating:
            return "detected"
        if self.expected:
            return "vacuous"
        return "ok"

    def absorb(self, outcome: LitmusOutcome, forbidden, allowed) -> None:
        self.points += 1
        if outcome.error:
            self.errors.append(
                f"@{outcome.point.crash_cycle}: {outcome.error}"
            )
            return
        if not outcome.idempotent:
            self.idempotence_failures += 1
        for window in outcome.windows:
            self.window_hits[window] = self.window_hits.get(window, 0) + 1
        state = outcome.state
        matched = [expr for expr, fn in forbidden if fn(state)]
        unlisted = bool(
            allowed and not matched
            and not any(fn(state) for _, fn in allowed)
        )
        if matched:
            self.forbidden_points += 1
        if unlisted:
            self.unlisted_points += 1
        entry = self.outcomes.get(outcome.digest)
        if entry is None:
            self.outcomes[outcome.digest] = {
                "state": dict(state),
                "points": 1,
                "first_cycle": outcome.point.crash_cycle,
                "forbidden": matched,
                "unlisted": unlisted,
            }
        else:
            entry["points"] += 1


@dataclass
class LitmusReport:
    """Outcome of one catalog exploration."""

    cells: list[LitmusCell]
    points_total: int = 0
    #: Extra grid points contributed by --densify bisection rounds.
    densify_points: int = 0
    #: Mean recovery cycles vs. crash cycle per design, aggregated from
    #: every grid outcome's ``RecoveryCost``
    #: (:func:`repro.obs.analyze.recovery_figure`).
    recovery: dict = field(default_factory=dict)

    @property
    def failures(self) -> list[LitmusCell]:
        return [c for c in self.cells if c.status == "FAIL"]

    @property
    def window_coverage(self) -> dict[str, int]:
        """Aggregate crash-window hit counts over every cell.

        Every instrumented window is always present (zero-hit windows
        are the coverage gaps the metric exists to expose), plus any
        extra windows observed (``quiescent``).
        """
        from repro.runtime.system import CRASH_WINDOWS

        coverage = {window: 0 for window in CRASH_WINDOWS}
        for cell in self.cells:
            for window, hits in cell.window_hits.items():
                coverage[window] = coverage.get(window, 0) + hits
        return coverage

    @property
    def uncovered_windows(self) -> list[str]:
        """Instrumented windows no point of this exploration landed in."""
        from repro.runtime.system import CRASH_WINDOWS

        coverage = self.window_coverage
        return [w for w in CRASH_WINDOWS if coverage[w] == 0]

    @property
    def detected(self) -> list[LitmusCell]:
        return [c for c in self.cells if c.status == "detected"]

    def render(self) -> str:
        with_faults = any(c.fault != "power-loss" for c in self.cells)
        rows = [
            ([c.test, c.design] + ([c.fault] if with_faults else [])
             + [c.points, len(c.outcomes),
                c.forbidden_points + c.unlisted_points, c.status])
            for c in self.cells
        ]
        out = format_table(
            ["test", "design"] + (["fault"] if with_faults else [])
            + ["points", "states", "forbidden hits", "verdict"],
            rows,
            title=(f"== Litmus: {len(self.cells)} cells, "
                   f"{self.points_total} points, "
                   f"{len(self.failures)} failures, "
                   f"{len(self.detected)} detected =="),
        )
        for cell in self.cells:
            if cell.status != "FAIL":
                continue
            where = f"{cell.test}/{cell.design}"
            if cell.fault != "power-loss":
                where += f"/{cell.fault}"
            for digest, entry in cell.outcomes.items():
                if entry["forbidden"] or entry["unlisted"]:
                    why = ", ".join(entry["forbidden"]) or "unlisted state"
                    out += (f"\nFAIL {where}"
                            f"@{entry['first_cycle']}: {entry['state']} "
                            f"({why})")
            for err in cell.errors[:3]:
                out += f"\nFAIL {where} {err}"
            if cell.idempotence_failures:
                out += (f"\nFAIL {where}: "
                        f"{cell.idempotence_failures} points where a second "
                        f"recovery changed the durable image")
        coverage = self.window_coverage
        out += "\ncrash-window coverage: " + ", ".join(
            f"{window} {hits}" for window, hits in coverage.items()
        )
        if self.densify_points:
            out += (f"\ndensify: {self.densify_points} bisection points "
                    f"added around verdict/window transitions")
        return out

    def to_json(self) -> dict:
        """JSON artifact payload (the CLI writes this to ``--out``)."""
        return {
            "kind": "litmus",
            "points_total": self.points_total,
            "densify_points": self.densify_points,
            "coverage": self.window_coverage,
            "recovery_figure": self.recovery,
            "summary": {
                "cells": len(self.cells),
                "failures": len(self.failures),
                "detected": len(self.detected),
            },
            "cells": [
                {
                    "test": c.test,
                    "design": c.design,
                    "fault": c.fault,
                    "status": c.status,
                    "expected_violation": c.expected,
                    "points": c.points,
                    "forbidden_points": c.forbidden_points,
                    "unlisted_points": c.unlisted_points,
                    "idempotence_failures": c.idempotence_failures,
                    "window_hits": dict(c.window_hits),
                    "errors": c.errors,
                    "outcomes": [
                        {"digest": digest, **entry}
                        for digest, entry in sorted(c.outcomes.items())
                    ],
                }
                for c in self.cells
            ],
        }


# -- the explorer --------------------------------------------------------------


def explore(
    campaign,
    tests: Sequence[LitmusSpec] | None = None,
    designs: Iterable[Design] = tuple(LITMUS_DESIGNS),
    seeds: Iterable[int] = (7,),
    points: int = 10,
    crash_start: int = DEFAULT_CRASH_START,
    faults: Sequence | None = None,
    densify: int = 0,
    storm: int | None = None,
) -> LitmusReport:
    """Explore every (test × design × fault × seed) cell.

    ``points`` is the crash-grid density per cell (the probe point is
    always included on top).  All grid points across all cells go to the
    campaign as **one batch**, keeping the worker pool saturated.

    ``faults`` replays each cell's crash grid under the given
    :class:`~repro.faults.models.FaultModel`\\ s on top of the plain
    power-loss axis.  Only consistency-preserving models make sense
    here — the postconditions still judge the recovered state — and a
    model applicable to *no* selected design is rejected rather than
    silently dropped (its column would otherwise just vanish from the
    verdict table and read as covered).

    ``densify`` runs up to that many bisection rounds after the uniform
    grid: wherever two adjacent sampled crash cycles of one (test ×
    design × seed × fault) trace disagree — different recovered-state
    digest, crash-window set, or error — the midpoint is probed, homing
    in on verdict/window transitions with O(log span) extra points
    instead of a uniformly denser grid.  All bisection midpoints are
    deterministic, so re-runs hit the result cache.

    ``storm`` makes every grid point recover through a seeded crash
    storm (:mod:`repro.faults.storm`) instead of a single pass; a storm
    that fails to converge counts as an idempotence failure.  Probe
    points stay plain (they only measure the finish cycle).
    """
    from repro.common.errors import ConfigError

    if tests is None:
        tests = CATALOG
    tests = [t.validate() for t in tests]
    designs = list(designs)
    seeds = list(seeds)
    faults = list(faults or [])
    for model in faults:
        if not model.preserves_consistency:
            raise ConfigError(
                f"litmus fault axis needs consistency-preserving models; "
                f"{model.kind!r} is detection-only (use `python -m "
                f"repro.harness faults` for it)"
            )
        if not any(model.applicable(d) for d in designs):
            raise ConfigError(
                f"fault model {model.kind!r} applies to none of the "
                f"selected designs "
                f"({', '.join(d.value for d in designs)}) — it would "
                f"silently vanish from the verdict table; drop the "
                f"model or add a design it applies to"
            )
    encoded = {t.name: t.to_dict() for t in tests}
    conditions = {
        t.name: (
            [(e, compile_condition(e, list(t.vars))) for e in t.forbidden],
            [(e, compile_condition(e, list(t.vars))) for e in t.allowed],
        )
        for t in tests
    }

    probe_points = [
        LitmusPoint(test=encoded[t.name], design=d, crash_cycle=None, seed=s)
        for t in tests for d in designs for s in seeds
    ]
    probes = campaign.run_litmus(probe_points)

    #: (test, design, fault-kind) -> the fault axis for that design:
    #: plain power loss plus every applicable requested model.
    def fault_axis(design: Design) -> list:
        return [None] + [m for m in faults if m.applicable(design)]

    cells: dict[tuple[str, str, str], LitmusCell] = {}
    for t in tests:
        for d in designs:
            for model in fault_axis(d):
                kind = model.kind if model is not None else "power-loss"
                cells[(t.name, d.value, kind)] = LitmusCell(
                    test=t.name, design=d.value, fault=kind,
                    expected=d.value in t.expect_violation,
                )

    def cell_key(point: LitmusPoint) -> tuple[str, str, str]:
        kind = point.fault["kind"] if point.fault else "power-loss"
        return (point.test["name"], point.design.value, kind)

    grid: list[LitmusPoint] = []
    for probe in probes:
        key = cell_key(probe.point)
        cells[key].absorb(probe, *conditions[key[0]])
        if probe.error:
            # No grid for a failing cell — and the fault cells, which
            # would have received grid points only, must fail alongside
            # the power-loss cell rather than render as empty "ok".
            for model in fault_axis(probe.point.design):
                if model is not None:
                    cells[(key[0], key[1], model.kind)].absorb(
                        probe, *conditions[key[0]]
                    )
            continue
        cycles = crash_cycles_for(probe.finish, points, crash_start)
        for model in fault_axis(probe.point.design):
            grid.extend(
                LitmusPoint(
                    test=probe.point.test, design=probe.point.design,
                    crash_cycle=cycle, seed=probe.point.seed,
                    fault=model.to_dict() if model is not None else None,
                    storm=storm,
                )
                for cycle in cycles
            )
    grid_outcomes = campaign.run_litmus(grid)
    for outcome in grid_outcomes:
        key = cell_key(outcome.point)
        cells[key].absorb(outcome, *conditions[key[0]])

    recovery_outcomes = list(grid_outcomes)
    densify_points = 0
    if densify > 0:
        densify_points = _densify(
            campaign, cells, conditions, cell_key, grid_outcomes, densify,
            collect=recovery_outcomes,
        )

    ordered = [
        cells[(t.name, d.value, kind)]
        for t in tests for d in designs
        for kind in (
            ["power-loss"] + [m.kind for m in faults if m.applicable(d)]
        )
    ]
    from repro.obs.analyze import (recovery_figure,
                                   recovery_records_from_outcomes)

    return LitmusReport(
        cells=ordered,
        points_total=len(probe_points) + len(grid) + densify_points,
        densify_points=densify_points,
        recovery=recovery_figure(
            recovery_records_from_outcomes(recovery_outcomes)
        ),
    )


def _outcome_class(outcome: LitmusOutcome) -> tuple:
    """Transition-detection equivalence class of one grid outcome.

    Two crash cycles are "the same" for bisection purposes when they
    recover to the same state digest, land in the same crash-window
    set, and agree on error/idempotence — any difference marks an
    interval worth splitting.
    """
    return (
        outcome.digest,
        bool(outcome.error),
        outcome.idempotent,
        tuple(sorted(outcome.windows)),
    )


def _densify(campaign, cells, conditions, cell_key, seed_outcomes,
             rounds: int, collect: list | None = None) -> int:
    """Bisect the crash grid around outcome transitions.

    Per (test × design × seed × fault) trace, every pair of adjacent
    sampled cycles with differing outcome classes and a gap > 1 gets
    its midpoint probed; repeated up to ``rounds`` times (or until no
    interval splits).  New outcomes are absorbed into the cells like
    uniform grid points (and appended to ``collect`` when given, so
    the caller's recovery-cost aggregation sees bisection points too).
    Returns the number of points added.
    """
    import json

    samples: dict[tuple, dict[int, tuple]] = {}
    prototypes: dict[tuple, LitmusPoint] = {}

    def trace_key(point: LitmusPoint) -> tuple:
        fault = (json.dumps(point.fault, sort_keys=True)
                 if point.fault else "")
        return (point.test["name"], point.design.value, point.seed, fault)

    def note(outcome: LitmusOutcome) -> None:
        if outcome.point.crash_cycle is None:
            return
        key = trace_key(outcome.point)
        samples.setdefault(key, {})[outcome.point.crash_cycle] = (
            _outcome_class(outcome)
        )
        prototypes.setdefault(key, outcome.point)

    for outcome in seed_outcomes:
        note(outcome)

    total = 0
    for _ in range(rounds):
        batch: list[LitmusPoint] = []
        for key, trace in samples.items():
            cycles = sorted(trace)
            proto = prototypes[key]
            for lo, hi in zip(cycles, cycles[1:]):
                if hi - lo > 1 and trace[lo] != trace[hi]:
                    batch.append(dataclasses.replace(
                        proto, crash_cycle=(lo + hi) // 2
                    ))
        if not batch:
            break
        total += len(batch)
        for outcome in campaign.run_litmus(batch):
            key = cell_key(outcome.point)
            cells[key].absorb(outcome, *conditions[key[0]])
            note(outcome)
            if collect is not None:
                collect.append(outcome)
    return total
