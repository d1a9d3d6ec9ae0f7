"""Command-line entry point: regenerate the paper's tables and figures.

Usage::

    python -m repro.harness --list                  # what can run
    python -m repro.harness perf                    # kernel benchmark
    python -m repro.harness litmus --jobs 2         # litmus catalog
    python -m repro.harness faults --jobs 2         # fault-injection matrix
    python -m repro.harness trace --out trace.json  # lifecycle trace
    python -m repro.harness analyze --compare       # txn latency decomposition
    python -m repro.harness dash *.json             # static HTML dashboard
    python -m repro.harness --experiment fig5a
    python -m repro.harness --all --scale 0.5
    python -m repro.harness --all --jobs 8          # parallel campaign
    python -m repro.harness --all --seeds 3         # mean over 3 seeds
    python -m repro.harness --all --no-cache        # force recomputation
    python -m repro.harness --crash-sweep --jobs 8  # differential sweep
    python -m repro.harness --wipe-cache            # clear cached results
    python -m repro.harness --all --markdown > results.md

Every simulation point goes through the campaign layer
(:mod:`repro.harness.campaign`): ``--jobs N`` fans points out over N
worker processes, and completed points are memoised in a
content-addressed cache under ``$REPRO_CACHE_DIR`` (default
``~/.cache/repro-campaign``) keyed by the spec *and* a hash of the
simulator source, so a warm re-run of any experiment is near-instant
while any code change transparently invalidates stale results.

``--crash-sweep`` replaces the figure experiments with an exhaustive
(design × workload × crash-cycle × seed) grid; each point crashes a
machine mid-run, recovers, and differential-checks the durable image
against the golden model.  The exit code is the number of divergent
points, capped at 255 (0 = every crash recovered consistently).
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time

from repro.common.log import apply_log_flags
from repro.config import Design
from repro.harness.cache import ResultCache
from repro.harness.campaign import (
    CRASH_DESIGNS, CRASH_WORKLOADS, crash_grid, crash_sweep,
)
from repro.harness.experiments import EXPERIMENTS, run_experiment
from repro.harness.report import format_markdown
from repro.harness.sweep_cli import (
    DEFAULT_GRID, add_campaign_flags, at_least, open_campaign, parse_axis,
    parse_designs, parse_grid, parse_seeds, run_sweep,
)

#: Subcommand -> (module whose ``main`` runs it, ``--list`` summary).
#: Each measures, checks or explains the simulator rather than
#: reproducing a figure, so each keeps its own parser.
SUBCOMMANDS = {
    "perf": ("repro.harness.perf", "kernel events/sec benchmark"),
    "litmus": ("repro.litmus.cli", "crash-consistency litmus catalog"),
    "faults": ("repro.faults.cli",
               "fault-injection matrix + recovery analytics"),
    "trace": ("repro.obs.cli", "transaction-lifecycle Chrome-trace export"),
    "analyze": ("repro.obs.analyze", "per-transaction latency "
                "decomposition + cross-design differential"),
    "dash": ("repro.obs.dash",
             "self-contained HTML dashboard over artifacts"),
}


def render_listing() -> str:
    """Everything runnable, in one place (``--list``)."""
    from repro.litmus.catalog import catalog_by_name
    from repro.workloads.registry import ALIASES, MICROBENCHMARKS

    lines = ["experiments (--experiment NAME):"]
    lines += [f"  {name}" for name in sorted(EXPERIMENTS)]
    lines.append("subcommands:")
    lines += [f"  {name:<8}{summary}"
              for name, (_module, summary) in SUBCOMMANDS.items()]
    # The litmus workload is deliberately absent here: it needs a
    # ``program`` and only runs through the litmus subcommand.
    lines.append("workloads (--workloads for --crash-sweep):")
    names = sorted(MICROBENCHMARKS) + ["tpcc"]
    by_target: dict[str, list[str]] = {}
    for alias, target in ALIASES.items():
        by_target.setdefault(target, []).append(alias)
    for name in names:
        aliases = sorted(by_target.get(name, []))
        suffix = f"  (aliases: {', '.join(aliases)})" if aliases else ""
        lines.append(f"  {name}{suffix}")
    lines.append("designs (--designs):")
    lines += [f"  {design.value}" for design in Design]
    lines.append("litmus tests (litmus --tests):")
    lines += [f"  {name}" for name in sorted(catalog_by_name())]
    from repro.faults.models import FAULT_MODELS

    lines.append("fault models (faults --faults):")
    lines += [f"  {name}" for name in sorted(FAULT_MODELS)]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in SUBCOMMANDS:
        module = importlib.import_module(SUBCOMMANDS[argv[0]][0])
        return module.main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate ATOM (HPCA 2017) evaluation results.",
    )
    parser.add_argument(
        "--experiment", "-e", action="append", default=[],
        choices=sorted(EXPERIMENTS),
        help="experiment to run (repeatable)",
    )
    parser.add_argument("--all", action="store_true",
                        help="run every experiment")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="transaction-count scale factor (default 1.0)")
    parser.add_argument("--markdown", action="store_true",
                        help="emit markdown tables")
    parser.add_argument("--seeds", type=at_least(int, 1), default=1,
                        help="seeds per point, reported as the mean "
                             "(default 1)")
    add_campaign_flags(parser)
    parser.add_argument("--wipe-cache", action="store_true",
                        help="delete all cached results, then continue "
                             "(or exit if nothing else was requested)")
    parser.add_argument("--crash-sweep", action="store_true",
                        help="run the exhaustive differential crash matrix "
                             "instead of figure experiments")
    parser.add_argument("--workloads", type=parse_axis,
                        default=",".join(CRASH_WORKLOADS),
                        help="crash-sweep workloads (comma-separated)")
    parser.add_argument("--designs", type=parse_designs,
                        default=",".join(d.value for d in CRASH_DESIGNS),
                        help="crash-sweep designs (comma-separated)")
    parser.add_argument("--crash-grid", type=parse_grid,
                        default=DEFAULT_GRID,
                        help="crash cycles as start:stop:step "
                             "(default 2000:30000:4000)")
    parser.add_argument("--crash-seeds", type=parse_seeds, default="7",
                        help="crash-sweep seeds (comma-separated)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="with --crash-sweep: also trace one sweep "
                             "point (see --trace-point) to Chrome-trace "
                             "JSON (for plain runs use the trace "
                             "subcommand)")
    parser.add_argument("--trace-point", type=int, default=None,
                        metavar="INDEX",
                        help="sweep-point index to trace with --trace "
                             "(default 0: the first point)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="with --crash-sweep: write the verdict + "
                             "recovery-figure JSON artifact")
    parser.add_argument("--list", action="store_true",
                        help="list experiments, workloads, designs and "
                             "litmus tests, then exit")
    args = parser.parse_args(argv)
    apply_log_flags(args)
    if args.list:
        print(render_listing())
        return 0
    if args.trace is not None and not args.crash_sweep:
        parser.error("--trace here requires --crash-sweep; trace a plain "
                     "run with the trace subcommand instead")
    if args.trace_point is not None and args.trace is None:
        parser.error("--trace-point requires --trace")
    if args.out is not None and not args.crash_sweep:
        parser.error("--out here requires --crash-sweep (experiments "
                     "print tables; artifacts come from the sweep)")

    if args.wipe_cache:
        print(f"wiped {ResultCache(args.cache_dir).wipe()} cached results")
        if not (args.all or args.experiment or args.crash_sweep):
            return 0

    if args.crash_sweep:
        specs = crash_grid(designs=args.designs, workloads=args.workloads,
                           crash_cycles=args.crash_grid,
                           seeds=args.crash_seeds)
        trace_index = args.trace_point or 0
        if args.trace is not None and not 0 <= trace_index < len(specs):
            parser.error(f"--trace-point {trace_index} out of range "
                         f"(sweep has {len(specs)} points)")

        def trace() -> None:
            from repro.obs.cli import trace_crash_spec

            events = trace_crash_spec(specs[trace_index], args.trace)
            print(f"trace written: {args.trace} ({events} events; "
                  f"sweep point {trace_index})", file=sys.stderr)

        status, _sweep = run_sweep(
            args, lambda campaign: crash_sweep(campaign, specs), trace,
            seeds=args.seeds)
        return status

    names = sorted(EXPERIMENTS) if args.all else args.experiment
    if not names:
        parser.error("pass --all, at least one --experiment, "
                     "--crash-sweep, or --wipe-cache")
    campaign = open_campaign(args, seeds=args.seeds)
    try:
        for name in names:
            start = time.time()
            result = run_experiment(name, scale=args.scale, campaign=campaign)
            elapsed = time.time() - start
            if args.markdown:
                print(f"### {result.name}\n")
                print(format_markdown(result.headers, result.rows))
                if result.notes:
                    print(f"\n*{result.notes}*")
                print()
            else:
                print(result.render())
                print(f"({elapsed:.1f}s)\n")
    finally:
        campaign.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
