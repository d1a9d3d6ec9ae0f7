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
regressed by more than :data:`GATE_PCT` percent.  The gate compares
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

The timed runs carry no instrumentation.  A point's stat timeline comes
from ``python -m repro.harness trace --perf --samples-out``, which runs
the same pinned machine, and per-layer time from ``python3
jobbench/run.py --trace 1``.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.config import Design
from repro.harness.report import mean_ci, write_artifact
from repro.harness.runner import RunSpec, build_config
from repro.runtime.system import System
from repro.workloads import make_workload

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


def measure_point(spec: RunSpec, repeats: int = 1) -> PerfPoint:
    """Run one point ``repeats`` times; keep the fastest wall-clock.

    The timer covers only ``System.run`` — the event loop under test —
    not system construction or workload setup.
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
    best.repeat_eps = repeat_eps
    return best


def geomean(values: list[float]) -> float:
    """Geometric mean (0.0 for an empty or non-positive input)."""
    positive = [v for v in values if v > 0]
    if not positive:
        return 0.0
    return math.exp(sum(math.log(v) for v in positive) / len(positive))


def run_perf(scale: float = 1.0, repeats: int = 1, progress=None) -> dict:
    """Run the pinned matrix; return the BENCH_kernel report dict."""
    points = []
    for spec in perf_specs(scale):
        point = measure_point(spec, repeats=repeats)
        points.append(point)
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
    return {
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


#: The fixed baseline gate's margin: ``--baseline`` fails when the
#: aggregate geomean drops more than this many percent below the
#: baseline's (see README "Performance", gate math).
GATE_PCT = 15


def check_regression(report: dict, baseline: dict,
                     gate_pct: float = GATE_PCT) -> list[str]:
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

#: Ledger entries the trend gate compares against.
TREND_WINDOW = 10

#: Smallest drop, in percent, the trend gate may flag, so single-entry
#: and zero-variance histories do not flag measurement wiggle.
TREND_FLOOR_PCT = 2.0


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
                window: int = TREND_WINDOW,
                floor_pct: float = TREND_FLOOR_PCT) -> list[str]:
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


def format_trend(history: list[dict], report: dict) -> str:
    """One line situating the current run inside the recent history."""
    entries = [e for e in history[-TREND_WINDOW:]
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
                             "(e.g. benchmarks/perf/baseline.json); fails "
                             f"on a geomean drop over {GATE_PCT}%%")
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
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

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
                      progress=progress)
    print(format_report(report, baseline))
    write_artifact(args.out, report)
    print(f"wrote {args.out}")
    failures: list[str] = []
    if baseline is not None:
        failures = check_regression(report, baseline)
        for failure in failures:
            print(f"PERF REGRESSION: {failure}", file=sys.stderr)
        if not failures:
            print("perf gate: ok")
    if args.trend:
        history = load_history(args.history)
        print(format_trend(history, report))
        trend_failures = check_trend(history, report)
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
