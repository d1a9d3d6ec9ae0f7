"""The one canonical builder for scaled-down simulated machines.

Both the unit-test suite (``tests/helpers.py``) and the benchmark
fixtures (``benchmarks/conftest.py``) import these helpers, so the
machine a test exercises and the machine a benchmark smoke-checks can
never silently drift apart.  The campaign layer's crash sweep
(:mod:`repro.harness.campaign`) and the fault sweep
(:mod:`repro.faults.sweep`) build their machines with the first half of
:func:`crash_run` (:func:`start_crash_run`), the code path the
crash-matrix tests use, and check each point on a power cut
(``System.power_cut``, given the point's fault injector) where
:func:`finish_crash_run` crashes the machine itself.  Both recover
through :func:`recover_power_failure`.
"""

from __future__ import annotations

from repro.config import Design, SystemConfig
from repro.runtime.system import System


def small_config(design: Design = Design.ATOM_OPT, num_cores: int = 4,
                 **kw) -> SystemConfig:
    """A 4-core scaled-down machine with invariant checking enabled."""
    cfg = SystemConfig.scaled_down(design=design, num_cores=num_cores, **kw)
    cfg.debug.check_invariants = True
    return cfg


def build_system(design: Design | SystemConfig = Design.ATOM_OPT,
                 num_cores: int = 4, **kw) -> System:
    """Build a small system ready for tests.

    Accepts either a :class:`~repro.config.Design` (a scaled-down
    machine is configured around it) or a fully-built
    :class:`~repro.config.SystemConfig`, which is used as-is —
    previously the latter was re-wrapped in ``small_config`` and
    exploded deep inside ``make_policy``.
    """
    if isinstance(design, SystemConfig):
        if kw or num_cores != 4:
            raise TypeError(
                "build_system(SystemConfig) takes no extra keywords: the "
                "config already fixes the machine"
            )
        return System(design)
    return System(small_config(design, num_cores, **kw))


def build_litmus_system(design: Design, spec, seed: int = 7):
    """Build the scaled-down machine a litmus spec asks for.

    Shared by the litmus explorer workers and the litmus tests so both
    run the spec's log-geometry overrides through one code path.
    Returns ``(system, workload)`` with the workload not yet set up.
    """
    from repro.common.errors import ConfigError
    from repro.workloads import make_workload

    cfg = small_config(design, num_cores=spec.machine_cores(), seed=seed)
    for key, value in spec.log_overrides.items():
        if not hasattr(cfg.log, key):
            raise ConfigError(f"unknown log override {key!r}")
        setattr(cfg.log, key, value)
    cfg.validate()
    system = System(cfg)
    workload = make_workload("litmus", system, program=spec, seed=seed)
    return system, workload


def run_workload_to_completion(system, workload, max_cycles=50_000_000):
    """Setup + run a workload; returns the finish cycle."""
    workload.setup()
    system.start_threads(workload.threads())
    return system.run(max_cycles=max_cycles)


#: Cycle limit of a crash run (a crash cycle past it cuts power there).
CRASH_RUN_MAX_CYCLES = 30_000_000


def start_crash_run(name: str, design: Design, *, entry_bytes: int = 512,
                    seed: int = 7, threads: int = 4, txns_per_thread: int = 8,
                    initial_items: int = 12, num_cores: int = 4,
                    injector=None, instrument=None,
                    line_checksums: bool = False, **kw):
    """Build a crash run's machine and workload and start its threads.

    Returns ``(system, workload)``, not yet run.  The crash
    (``System.crash_at``) or pause (``System.pause_at``) the caller
    schedules next takes the same insertion sequence number in every
    run of these arguments, which is what lets a paused run reproduce
    any crash point of it.
    """
    from repro.workloads import make_workload

    system = build_system(design=design, num_cores=num_cores,
                          line_checksums=line_checksums)
    if instrument is not None:
        instrument(system)
    if injector is not None:
        injector.install(system)
    workload = make_workload(
        name, system, entry_bytes=entry_bytes,
        txns_per_thread=txns_per_thread, initial_items=initial_items,
        threads=threads, seed=seed, **kw,
    )
    workload.setup()
    system.start_threads(workload.threads())
    return system, workload


def finish_crash_run(system, workload, *, verify: bool = True,
                     storm_seed: int | None = None):
    """Cut power (unless a crash already did), recover, differential-check.

    Returns the recovery report; raises
    :class:`~repro.common.errors.WorkloadError` on any divergence from
    the golden model replayed over exactly the committed transactions.
    """
    if not system.crashed:
        # Either no crash was scheduled, the run stopped at a pause, or
        # every thread finished before the scheduled cycle: cut power
        # now.
        system.crash()
    report = recover_power_failure(system, storm_seed=storm_seed)
    if verify:
        workload.verify_durable()
    return report


def recover_power_failure(system, cut=None, *,
                          storm_seed: int | None = None):
    """Recover ``cut`` (a ``System.power_cut``), or the crashed machine.

    One recovery pass, or with ``storm_seed`` a seeded crash storm
    (:func:`repro.faults.storm.storm_recover`) whose merged report is
    returned with the :class:`~repro.faults.storm.StormReport` attached
    as ``report.storm`` (``None`` after a single pass).
    """
    if storm_seed is None:
        report = system.recover(cut)
        report.storm = None
        return report
    from repro.faults.storm import storm_recover

    storm = storm_recover(system, cut, seed=storm_seed)
    storm.report.storm = storm
    return storm.report


def crash_run(name: str, design: Design, crash_cycle: int | None, *,
              max_cycles: int = CRASH_RUN_MAX_CYCLES, verify: bool = True,
              storm_seed: int | None = None, **kw):
    """Run a workload, crash it, recover, and differential-check.

    Builds a scaled-down machine (:func:`start_crash_run`, which takes
    the machine and workload keywords), runs its worker threads, cuts
    power at ``crash_cycle`` (or after completion when ``None``), runs
    recovery, and verifies the durable image against the golden model
    replayed over exactly the committed transactions
    (:func:`finish_crash_run`).  Raises
    :class:`~repro.common.errors.WorkloadError` on any divergence.

    ``injector`` (a :class:`repro.faults.models.FaultInjector`) turns
    the power cut into a partial failure.  This destructive path is
    the reference the fault sweep's power cuts are tested against and
    the path of a traced fault point: it passes ``verify=False`` and
    applies the sweep's per-model verdict
    (:func:`repro.faults.sweep.judge_fault_point`) instead of the
    unconditional differential check.

    ``instrument`` (an observability hook, e.g. ``Tracer.install``) is
    called with the built system before the workload starts.

    ``line_checksums`` enables the per-data-line checksum plane on the
    memory image (media-fault detection).  ``storm_seed`` replaces the
    single recovery pass with a seeded crash storm
    (:func:`repro.faults.storm.storm_recover`); the merged report is
    returned with the :class:`~repro.faults.storm.StormReport` attached
    as ``report.storm``.

    Returns ``(system, workload, recovery_report)``.
    """
    system, workload = start_crash_run(name, design, **kw)
    if crash_cycle is not None:
        system.crash_at(crash_cycle)
    system.run(max_cycles=max_cycles)
    report = finish_crash_run(system, workload, verify=verify,
                              storm_seed=storm_seed)
    return system, workload, report
