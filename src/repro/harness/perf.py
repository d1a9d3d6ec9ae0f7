"""Kernel performance benchmark: pinned workload matrix, JSON artifact, gate.

This is the repo's perf trajectory instrument: ``python -m repro.harness
perf`` runs a **pinned** matrix of small full-system simulations
(designs x {hash, rbtree, tpcc}), measures wall-clock and dispatched
events for each, and writes ``BENCH_kernel.json`` — events/sec is the
kernel's figure of merit, and every later optimisation PR is judged
against this file.

The matrix is deliberately frozen (machine shape, transaction counts,
seeds): changing it silently would reset the trajectory.  ``--scale``
exists for CI smoke runs and scales only the per-thread transaction
count, never the machine.

A committed baseline (``benchmarks/perf/baseline.json``) turns the
benchmark into a regression gate: ``--baseline`` compares the measured
aggregate events/sec against the baseline's and exits non-zero when it
regressed by more than ``--gate-pct`` (default 20%).  The gate compares
aggregates, not points, so per-point jitter on loaded CI machines does
not flap the build.

Beside the fixed-threshold baseline gate sits the **history ledger**
(``benchmarks/perf/history.jsonl``): ``--record`` appends one line per
run, ``--trend`` gates the current run against the recent history using
*measured* variance — the repeat-to-repeat ``mean_ci`` of this run's
geomean combined with the run-to-run ``mean_ci`` of the history window
— instead of a fixed percentage, so the gate tightens automatically on
quiet machines and loosens on jittery ones (a small absolute floor
keeps it from flagging sub-noise wiggles).
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.config import Design
from repro.harness.report import mean_ci, write_artifact
from repro.harness.runner import RunSpec, build_config
from repro.runtime.system import System
from repro.workloads import make_workload

#: Module -> model layer, for the ``--profile`` attribution.  Callbacks
#: are bucketed by the module their code lives in; anything unlisted
#: lands in "other".
_LAYER_BY_MODULE = {
    "repro.engine.event": "engine",
    "repro.mem.channel": "channel",
    "repro.mem.controller": "channel",
    "repro.noc.mesh": "mesh",
    "repro.coherence.directory": "directory",
    "repro.coherence.l1": "l1",
    "repro.coherence.victim": "l1",
    "repro.atom.logm": "logm/redo",
    "repro.atom.redo": "logm/redo",
    "repro.atom.designs": "logm/redo",
    "repro.cpu.core": "core",
    "repro.cpu.store_queue": "sq",
    "repro.cpu.lockmgr": "locks",
}


def _layer_of(fn) -> str:
    """Model layer of a scheduled callback (function, bound method, or
    ``__slots__`` continuation object)."""
    func = getattr(fn, "__func__", None)
    if func is not None:
        module = func.__module__
    else:
        module = getattr(fn, "__module__", None)
        if module is None or not hasattr(fn, "__name__"):
            module = type(fn).__module__
    return _LAYER_BY_MODULE.get(module, "other")


class LayerProfiler:
    """Per-layer event/wall attribution for one simulation run.

    Every callback scheduled through ``post``/``post_at`` is wrapped
    with a timing shim at post time and bucketed by the layer its code
    lives in.  Work a callback performs inline (synchronous completion
    chains) is charged to the *dispatching* layer — exactly the
    attribution a flat-tail hunt wants, since the dispatching layer is
    where the wall-clock is spent.  The shims cost real time, so
    profiled runs are measured separately and never feed the events/sec
    figure or the regression gate.
    """

    def __init__(self, engine):
        self.engine = engine
        #: layer -> [events, wall_seconds]
        self.buckets: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self._orig_post = engine.post
        self._orig_post_at = engine.post_at
        perf_counter = time.perf_counter
        buckets = self.buckets

        def shim(fn):
            bucket = buckets[_layer_of(fn)]

            def timed() -> None:
                start = perf_counter()
                fn()
                bucket[1] += perf_counter() - start
                bucket[0] += 1

            return timed

        engine.post = lambda delay, fn: self._orig_post(delay, shim(fn))
        engine.post_at = lambda t, fn: self._orig_post_at(t, shim(fn))

    def detach(self) -> None:
        engine = self.engine
        engine.post = self._orig_post
        engine.post_at = self._orig_post_at

    def report(self) -> dict:
        """``layer -> {events, wall_s, wall_pct}``, largest share first."""
        total = sum(wall for _, wall in self.buckets.values()) or 1.0
        return {
            layer: {
                "events": events,
                "wall_s": round(wall, 6),
                "wall_pct": round(100.0 * wall / total, 2),
            }
            for layer, (events, wall) in sorted(
                self.buckets.items(), key=lambda kv: -kv[1][1]
            )
        }

#: The pinned kernel matrix.  Perf numbers are only comparable across
#: commits because these points never change.
PERF_DESIGNS = [Design.BASE, Design.ATOM_OPT, Design.REDO]
PERF_WORKLOADS = ["hash", "rbtree", "tpcc"]

#: Per-workload pinned spec knobs (the machine is always 8 cores so a
#: point stays in the hundreds of milliseconds).
_WORKLOAD_KNOBS = {
    "hash": dict(txns_per_thread=24, initial_items=48,
                 workload_kw={"compute_cycles": 150}),
    "rbtree": dict(txns_per_thread=24, initial_items=48,
                   workload_kw={"compute_cycles": 150}),
    "tpcc": dict(txns_per_thread=6, initial_items=48, workload_kw={}),
}


@dataclass
class PerfPoint:
    """Measured outcome of one pinned simulation point."""

    design: str
    workload: str
    events: int
    cycles: int
    txns: int
    wall_s: float
    events_per_sec: float
    #: events/sec of every repeat (fastest kept above), in run order —
    #: the raw material for the trend gate's repeat-variance estimate.
    repeat_eps: list = field(default_factory=list)


def perf_specs(scale: float = 1.0) -> list[RunSpec]:
    """The pinned matrix as RunSpecs (``scale`` shrinks txn counts only)."""
    specs = []
    for design in PERF_DESIGNS:
        for workload in PERF_WORKLOADS:
            knobs = _WORKLOAD_KNOBS[workload]
            specs.append(RunSpec(
                design=design,
                workload=workload,
                entry_bytes=512,
                num_cores=8,
                txns_per_thread=max(2, round(knobs["txns_per_thread"] * scale)),
                warmup_per_thread=0,
                initial_items=knobs["initial_items"],
                seed=42,
                workload_kw=dict(knobs["workload_kw"]),
            ))
    return specs


def measure_point(spec: RunSpec, repeats: int = 1,
                  profiler_out: dict | None = None) -> PerfPoint:
    """Run one point ``repeats`` times; keep the fastest wall-clock.

    The timer covers only ``System.run`` — the event loop under test —
    not system construction or workload setup.  With ``profiler_out``
    an *extra*, separately-instrumented run attributes events and wall
    per model layer into it (profiled runs are slower by the shim cost,
    so they never feed the measured numbers).
    """
    best: PerfPoint | None = None
    repeat_eps: list[float] = []
    for _ in range(max(1, repeats)):
        system = System(build_config(spec))
        workload = make_workload(
            spec.workload, system,
            entry_bytes=spec.entry_bytes,
            txns_per_thread=spec.txns_per_thread,
            threads=spec.threads,
            initial_items=spec.initial_items,
            seed=spec.seed,
            **spec.workload_kw,
        )
        workload.setup()
        system.start_threads(workload.threads())
        start = time.perf_counter()
        cycles = system.run(max_cycles=spec.max_cycles)
        wall = time.perf_counter() - start
        events = system.engine.events_dispatched
        point = PerfPoint(
            design=spec.design.value,
            workload=spec.workload,
            events=events,
            cycles=cycles,
            txns=int(system.stats.total("txns_committed", prefix="core")),
            wall_s=wall,
            events_per_sec=events / wall if wall > 0 else 0.0,
        )
        repeat_eps.append(point.events_per_sec)
        if best is None or point.wall_s < best.wall_s:
            best = point
        # Recycle the image buffers between repeats: a fresh multi-MB
        # allocation per repeat means the measured run pays its page
        # faults, which both slows and — worse — jitters the numbers.
        system.image.recycle()
    if profiler_out is not None:
        system = System(build_config(spec))
        workload = make_workload(
            spec.workload, system,
            entry_bytes=spec.entry_bytes,
            txns_per_thread=spec.txns_per_thread,
            threads=spec.threads,
            initial_items=spec.initial_items,
            seed=spec.seed,
            **spec.workload_kw,
        )
        workload.setup()
        system.start_threads(workload.threads())
        profiler = LayerProfiler(system.engine)
        try:
            system.run(max_cycles=spec.max_cycles)
        finally:
            profiler.detach()
        profiler_out.update(profiler.report())
        system.image.recycle()
    best.repeat_eps = repeat_eps
    return best


def sample_point(spec: RunSpec, interval: int) -> dict:
    """Extra instrumented run producing one point's stat timeline.

    Installs a :class:`repro.obs.sample.StatSampler` on a fresh system
    and returns its timeline dict (channel occupancy, SQ depth, log
    writes in flight, throughput deltas).  Sampled runs post real
    engine events, so — like ``--profile`` runs — they are separate
    and never feed the measured numbers or the regression gate.
    """
    from repro.obs.sample import StatSampler

    system = System(build_config(spec))
    sampler = StatSampler(system, interval=interval).install()
    workload = make_workload(
        spec.workload, system,
        entry_bytes=spec.entry_bytes,
        txns_per_thread=spec.txns_per_thread,
        threads=spec.threads,
        initial_items=spec.initial_items,
        seed=spec.seed,
        **spec.workload_kw,
    )
    workload.setup()
    system.start_threads(workload.threads())
    system.run(max_cycles=spec.max_cycles)
    system.image.recycle()
    return sampler.to_dict()


def geomean(values: list[float]) -> float:
    """Geometric mean (0.0 for an empty or non-positive input)."""
    positive = [v for v in values if v > 0]
    if not positive:
        return 0.0
    return math.exp(sum(math.log(v) for v in positive) / len(positive))


def run_perf(scale: float = 1.0, repeats: int = 1,
             progress=None, profile: bool = False,
             sample_interval: int = 0) -> dict:
    """Run the pinned matrix; return the BENCH_kernel report dict.

    ``profile`` adds a per-point and aggregated per-layer attribution
    (engine, channel, mesh, directory, l1, sq, core, logm/redo, locks)
    from separately-instrumented runs, under the report's ``profile``
    keys — the starting data for the next flat-tail hunt.

    ``sample_interval > 0`` attaches a per-point ``timeline`` (stat
    deltas every N cycles from an extra sampled run — see
    :func:`sample_point`).
    """
    points = []
    profiles: list[dict] = []
    timelines: list[dict] = []
    for spec in perf_specs(scale):
        prof: dict | None = {} if profile else None
        point = measure_point(spec, repeats=repeats, profiler_out=prof)
        points.append(point)
        if profile:
            profiles.append(prof)
        if sample_interval > 0:
            timelines.append(sample_point(spec, sample_interval))
        if progress is not None:
            progress(point)
    total_events = sum(p.events for p in points)
    total_wall = sum(p.wall_s for p in points)
    # Repeat-variance estimate of the aggregate: geomean the r-th repeat
    # of every point into one sample per repeat, then mean_ci over the
    # samples.  With --repeats 1 this degenerates to (geomean, 0.0).
    repeat_geomeans = [
        geomean([p.repeat_eps[r] for p in points])
        for r in range(min((len(p.repeat_eps) for p in points),
                           default=0))
    ]
    geo_mean, geo_ci = mean_ci(repeat_geomeans) if repeat_geomeans \
        else (0.0, 0.0)
    report = {
        "schema": 1,
        "benchmark": "kernel",
        "scale": scale,
        "repeats": repeats,
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "points": [asdict(p) for p in points],
        "aggregate": {
            "geomean_events_per_sec": geomean(
                [p.events_per_sec for p in points]
            ),
            "geomean_mean": geo_mean,
            "geomean_ci": geo_ci,
            "total_events": total_events,
            "total_wall_s": total_wall,
            "overall_events_per_sec": (
                total_events / total_wall if total_wall > 0 else 0.0
            ),
        },
    }
    if sample_interval > 0:
        report["sample_interval"] = sample_interval
        for payload, timeline in zip(report["points"], timelines):
            payload["timeline"] = timeline
    if profile:
        for payload, prof in zip(report["points"], profiles):
            payload["profile"] = prof
        merged: dict[str, list] = {}
        for prof in profiles:
            for layer, cell in prof.items():
                bucket = merged.setdefault(layer, [0, 0.0])
                bucket[0] += cell["events"]
                bucket[1] += cell["wall_s"]
        total = sum(wall for _, wall in merged.values()) or 1.0
        report["profile"] = {
            layer: {
                "events": events,
                "wall_s": round(wall, 6),
                "wall_pct": round(100.0 * wall / total, 2),
            }
            for layer, (events, wall) in sorted(
                merged.items(), key=lambda kv: -kv[1][1]
            )
        }
    return report


def check_regression(report: dict, baseline: dict,
                     gate_pct: float = 20.0) -> list[str]:
    """Compare aggregate events/sec against a baseline report.

    Returns a list of human-readable failures (empty = gate passes).
    The gate is aggregate-only by design: single points jitter on shared
    CI machines, the geomean over nine does far less.
    """
    failures: list[str] = []
    measured = report["aggregate"]["geomean_events_per_sec"]
    reference = baseline["aggregate"]["geomean_events_per_sec"]
    floor = reference * (1.0 - gate_pct / 100.0)
    if measured < floor:
        failures.append(
            f"geomean events/sec regressed: {measured:,.0f} < "
            f"{floor:,.0f} (baseline {reference:,.0f} - {gate_pct:.0f}%)"
        )
    return failures


# -- history ledger & CI-aware trend gate -------------------------------------

#: Default location of the ledger; one JSON object per line, appended
#: by ``perf --record`` and read back by ``perf --trend``.
HISTORY_PATH = "benchmarks/perf/history.jsonl"


def history_entry(report: dict, *, timestamp: float | None = None) -> dict:
    """One ledger line summarizing a BENCH_kernel report."""
    agg = report["aggregate"]
    return {
        "schema": 1,
        "t": round(timestamp if timestamp is not None else time.time(), 3),
        "scale": report.get("scale"),
        "repeats": report.get("repeats"),
        "geomean": agg["geomean_events_per_sec"],
        "geomean_mean": agg.get("geomean_mean",
                                agg["geomean_events_per_sec"]),
        "geomean_ci": agg.get("geomean_ci", 0.0),
        "points": {f"{p['design']}/{p['workload']}": p["events_per_sec"]
                   for p in report.get("points", [])},
    }


def append_history(path, entry: dict) -> None:
    """Append one ledger line (creating parent directories)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")


def load_history(path) -> list[dict]:
    """Read the ledger; missing file -> ``[]``, corrupt lines skipped.

    The ledger is append-only across many CI runs, so a torn final
    line (killed runner) must not poison every later ``--trend``.
    """
    entries: list[dict] = []
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(entry, dict):
                    entries.append(entry)
    except OSError:
        return []
    return entries


def check_trend(history: list[dict], report: dict, *,
                window: int = 10, floor_pct: float = 2.0) -> list[str]:
    """CI-aware trend gate: flag only statistically-resolvable drops.

    Compares the current aggregate geomean against the mean of the last
    ``window`` ledger entries.  The tolerated drop is the *combined*
    confidence interval — run-to-run ``mean_ci`` of the history window
    plus (in quadrature) the current run's repeat-to-repeat CI — with
    an absolute floor of ``floor_pct`` percent so single-entry or
    zero-variance histories do not flag measurement wiggle.  Empty
    history passes trivially (nothing to trend against).
    """
    entries = [e for e in history[-window:]
               if isinstance(e.get("geomean"), (int, float))
               and e["geomean"] > 0]
    if not entries:
        return []
    ref_mean, ref_ci = mean_ci([e["geomean"] for e in entries])
    agg = report["aggregate"]
    current = agg["geomean_events_per_sec"]
    current_ci = agg.get("geomean_ci") or 0.0
    noise = (ref_ci ** 2 + current_ci ** 2) ** 0.5
    tolerance = max(noise, ref_mean * floor_pct / 100.0)
    if current < ref_mean - tolerance:
        return [
            f"geomean events/sec below trend: {current:,.0f} < "
            f"{ref_mean - tolerance:,.0f} (history mean {ref_mean:,.0f} "
            f"over {len(entries)} run(s), tolerance {tolerance:,.0f})"
        ]
    return []


def format_trend(history: list[dict], report: dict,
                 window: int = 10) -> str:
    """One line situating the current run inside the recent history."""
    entries = [e for e in history[-window:]
               if isinstance(e.get("geomean"), (int, float))
               and e["geomean"] > 0]
    current = report["aggregate"]["geomean_events_per_sec"]
    if not entries:
        return (f"trend: no history yet "
                f"(current geomean {current:,.0f} events/sec)")
    ref_mean, ref_ci = mean_ci([e["geomean"] for e in entries])
    return (f"trend: current {current:,.0f} vs history "
            f"{ref_mean:,.0f} ±{ref_ci:,.0f} events/sec "
            f"({len(entries)} run(s))")


def format_report(report: dict, baseline: dict | None = None) -> str:
    """Render the per-point table plus the aggregate line."""
    lines = ["design      workload   events      wall    events/sec"]
    for p in report["points"]:
        lines.append(
            f"{p['design']:<11} {p['workload']:<8} {p['events']:>8,}"
            f"  {p['wall_s']:>7.3f}s  {p['events_per_sec']:>12,.0f}"
        )
    agg = report["aggregate"]
    ci = agg.get("geomean_ci") or 0.0
    ci_note = f" (repeat CI ±{ci:,.0f})" if ci else ""
    lines.append(
        f"geomean {agg['geomean_events_per_sec']:,.0f} events/sec"
        f"{ci_note}, "
        f"{agg['total_events']:,} events in {agg['total_wall_s']:.2f}s"
    )
    profile = report.get("profile")
    if profile:
        lines.append("per-layer attribution (instrumented runs):")
        lines.append("  layer       events      wall     share")
        for layer, cell in profile.items():
            lines.append(
                f"  {layer:<11} {cell['events']:>8,}  {cell['wall_s']:>7.3f}s"
                f"  {cell['wall_pct']:>5.1f}%"
            )
    if baseline is not None:
        ref = baseline["aggregate"]["geomean_events_per_sec"]
        if ref > 0:
            ratio = agg["geomean_events_per_sec"] / ref
            lines.append(f"vs baseline geomean {ref:,.0f}: {ratio:.2f}x")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness perf",
        description="Run the pinned kernel benchmark matrix "
                    "(designs x {hash, rbtree, tpcc}).",
    )
    parser.add_argument("--scale", type=float, default=1.0,
                        help="transaction-count scale (machine is pinned; "
                             "default 1.0)")
    parser.add_argument("--repeats", type=int, default=1,
                        help="runs per point, fastest kept (default 1)")
    parser.add_argument("--out", default="BENCH_kernel.json",
                        help="output artifact (default BENCH_kernel.json)")
    parser.add_argument("--baseline", default=None,
                        help="baseline BENCH_kernel.json to gate against "
                             "(e.g. benchmarks/perf/baseline.json)")
    parser.add_argument("--gate-pct", type=float, default=20.0,
                        help="max tolerated events/sec regression in "
                             "percent (default 20)")
    parser.add_argument("--profile", action="store_true",
                        help="also run instrumented passes attributing "
                             "events/wall per model layer (engine, channel, "
                             "mesh, directory, l1, sq, core, logm/redo) "
                             "into the artifact and the printed report")
    parser.add_argument("--sample-interval", type=int, default=0,
                        metavar="CYCLES",
                        help="attach a per-point stat timeline sampled "
                             "every CYCLES cycles from extra instrumented "
                             "runs (default 0: off)")
    parser.add_argument("--history", default=HISTORY_PATH,
                        metavar="PATH",
                        help="perf history ledger for --record/--trend "
                             "(default %(default)s)")
    parser.add_argument("--record", action="store_true",
                        help="append this run's aggregate to the history "
                             "ledger after the gates pass")
    parser.add_argument("--trend", action="store_true",
                        help="gate against the recent history using the "
                             "combined measured CI instead of a fixed "
                             "percentage")
    parser.add_argument("--trend-window", type=int, default=10,
                        help="history entries the trend gate considers "
                             "(default 10)")
    parser.add_argument("--trend-floor-pct", type=float, default=2.0,
                        help="minimum tolerated drop in percent, so "
                             "zero-variance histories do not flag noise "
                             "(default 2.0)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.sample_interval < 0:
        parser.error("--sample-interval must be >= 0")
    if args.trend_window < 1:
        parser.error("--trend-window must be >= 1")

    # Load the baseline *before* the (expensive) benchmark run, and fail
    # with a readable one-liner: a missing or corrupt baseline is an
    # operator error, not a perf regression or a traceback.
    baseline = None
    if args.baseline is not None:
        try:
            with open(args.baseline) as fh:
                baseline = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read baseline {args.baseline}: {exc}",
                  file=sys.stderr)
            return 2
        aggregate = baseline.get("aggregate") if isinstance(baseline, dict) \
            else None
        if not isinstance(aggregate, dict) or \
                "geomean_events_per_sec" not in aggregate:
            print(f"error: baseline {args.baseline} is not a "
                  f"BENCH_kernel report (missing aggregate geomean)",
                  file=sys.stderr)
            return 2

    def progress(point: PerfPoint) -> None:
        print(f"  {point.design}/{point.workload}: "
              f"{point.events_per_sec:,.0f} events/sec "
              f"({point.events:,} events, {point.wall_s:.3f}s)")

    report = run_perf(scale=args.scale, repeats=args.repeats,
                      progress=progress, profile=args.profile,
                      sample_interval=args.sample_interval)
    print(format_report(report, baseline))
    write_artifact(args.out, report)
    print(f"wrote {args.out}")
    failures: list[str] = []
    if baseline is not None:
        failures = check_regression(report, baseline, args.gate_pct)
        for failure in failures:
            print(f"PERF REGRESSION: {failure}", file=sys.stderr)
        if not failures:
            print("perf gate: ok")
    if args.trend:
        history = load_history(args.history)
        print(format_trend(history, report, args.trend_window))
        trend_failures = check_trend(history, report,
                                     window=args.trend_window,
                                     floor_pct=args.trend_floor_pct)
        for failure in trend_failures:
            print(f"PERF TREND: {failure}", file=sys.stderr)
        if not trend_failures:
            print("trend gate: ok")
        failures.extend(trend_failures)
    if args.record:
        # Record even a failing run: the ledger is the measurement
        # record, and a recorded dip is what lets the *next* run's
        # trend window see (and confirm or clear) it.
        append_history(args.history, history_entry(report))
        print(f"recorded to {args.history}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
