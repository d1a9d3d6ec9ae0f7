"""``python -m repro.harness litmus`` — run the litmus catalog.

Explores every (test × design) cell of the built-in catalog (or a
subset), prints the verdict table, and writes the full per-cell outcome
sets as a JSON artifact.  Points fan out through the campaign pool and
are memoised in the content-addressed result cache, so a warm re-run is
served from disk.  The exit code is the number of FAILing cells (capped
at 255); ``detected`` cells — forbidden outcomes reached on designs the
spec *expects* to break, i.e. the unlogged baseline — count as success.

``python -m repro.harness litmus gen`` explores a seeded *generated*
batch instead of the catalog (see :mod:`repro.litmus.generator`) and
reports crash-window coverage; ``--require-coverage`` turns a zero-hit
instrumented window into a failing exit code.
"""

from __future__ import annotations

import argparse
import sys

from repro.common.log import apply_log_flags, get_logger
from repro.faults.cli import add_fault_policy_flags
from repro.harness.report import select_only
from repro.harness.sweep_cli import (
    add_campaign_flags, at_least, parse_axis, parse_designs, parse_seeds,
    run_sweep,
)
from repro.litmus.catalog import catalog_by_name
from repro.litmus.explorer import LITMUS_DESIGNS, explore

log = get_logger("litmus")


def _build_parser(gen: bool) -> argparse.ArgumentParser:
    """The ``litmus`` parser, or the ``litmus gen`` one with ``gen``."""
    if gen:
        parser = argparse.ArgumentParser(
            prog="python -m repro.harness litmus gen",
            description="Generate a seeded batch of litmus programs and "
                        "explore their crash grids with crash-window "
                        "coverage accounting.",
        )
        parser.add_argument("--count", type=at_least(int, 1), default=20,
                            help="programs in the batch (default 20)")
        parser.add_argument("--seed", type=int, default=1,
                            help="generator seed (default 1); the same "
                                 "(seed, index) always yields the same "
                                 "program")
    else:
        parser = argparse.ArgumentParser(
            prog="python -m repro.harness litmus",
            description="Check declarative crash-consistency litmus "
                        "scenarios across the designs.",
        )
        parser.add_argument("--tests", type=parse_axis, default=None,
                            help="comma-separated catalog test names "
                                 "(default: all)")
        parser.add_argument("--only", default=None, metavar="NAME",
                            help="run only tests whose name matches (exact "
                                 "name or case-insensitive substring); "
                                 "composes with --tests")
        parser.set_defaults(require_coverage=False)
    parser.add_argument("--faults", type=parse_axis, default=None,
                        help="also replay each cell's crash grid under "
                             "these fault models (comma-separated; "
                             "consistency-preserving models only; a+b "
                             "composes, e.g. "
                             "controller-loss+torn-log-write)")
    parser.add_argument("--designs", type=parse_designs,
                        default=",".join(d.value for d in LITMUS_DESIGNS),
                        help="designs to check (comma-separated)")
    points = 4 if gen else 10
    parser.add_argument("--points", type=at_least(int, 1), default=points,
                        help=f"crash points per test x design cell "
                             f"(default {points})")
    parser.add_argument("--densify", type=at_least(int, 0), default=0,
                        metavar="ROUNDS",
                        help="after the uniform grid, bisect the crash "
                             "axis around outcome transitions for up to "
                             "ROUNDS rounds (default 0: off)")
    parser.add_argument("--seeds", type=parse_seeds, default="7",
                        help="simulator seeds (comma-separated; default 7)")
    parser.add_argument("--storm", type=int, default=None, metavar="SEED",
                        help="recover every grid point through a seeded "
                             "crash storm (recovery repeatedly "
                             "interrupted mid-pass until it converges)")
    add_campaign_flags(parser)
    out = "litmus_gen_verdicts.json" if gen else "litmus_verdicts.json"
    parser.add_argument("--out", default=out,
                        help=f"verdict artifact path (default {out})")
    if gen:
        parser.add_argument("--require-coverage", action="store_true",
                            help="fail if any instrumented crash window "
                                 "got zero hits across the whole batch")
    parser.add_argument("--list", action="store_true",
                        help="print the generated programs and exit" if gen
                        else "list catalog tests and exit")
    add_fault_policy_flags(parser)
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="also trace the first (test x design) cell "
                             "to Chrome-trace JSON")
    return parser


def _trace_first_cell(args, tests) -> None:
    """``--trace``: trace the batch's first cell (probe run) inline."""
    from repro.litmus.explorer import LitmusPoint, execute_litmus_point
    from repro.obs.trace import Tracer

    tracer = Tracer()
    test, design = tests[0], args.designs[0]
    point = LitmusPoint(test=test.to_dict(), design=design,
                        crash_cycle=None, seed=args.seeds[0])
    execute_litmus_point(point, instrument=tracer.install)
    events = tracer.write(args.trace)
    print(f"trace written: {args.trace} ({events} events; "
          f"{test.name} x {design.value} probe)", file=sys.stderr)


def _parse_faults(parser, kinds: list[str], designs, *,
                  strict: bool = True) -> list:
    """Parse ``--faults`` kinds (incl. ``a+b`` composites) and reject
    detection-only models; inapplicable models follow the shared
    strict/drop policy (:func:`repro.faults.models.resolve_inapplicable`
    — the same code path the faults subcommand runs)."""
    from repro.common.errors import ConfigError
    from repro.faults.models import fault_from_dict, resolve_inapplicable

    faults = []
    for kind in kinds:
        try:
            faults.append(fault_from_dict({"kind": kind}))
        except ConfigError as exc:
            parser.error(str(exc))
    # The consistency contract is non-negotiable regardless of policy:
    # litmus postconditions judge the recovered state, which a
    # detection-only model destroys by design.
    bad = [m.kind for m in faults if not m.preserves_consistency]
    if bad:
        parser.error(f"litmus postconditions need consistency-"
                     f"preserving fault models; {','.join(bad)} "
                     f"is detection-only (use the faults subcommand)")
    try:
        faults, dropped = resolve_inapplicable(faults, designs,
                                               strict=strict)
    except ConfigError as exc:
        parser.error(str(exc))
    for reason in dropped:
        log.warning(f"{reason}; dropping from the fault axis")
    if not faults:
        parser.error("no applicable fault models remain for the "
                     "selected designs")
    return faults


def _explore(parser, args, tests) -> int:
    """Explore ``tests`` with the parsed flags, report, return the status."""
    # Historical litmus default: strict.  The shared policy flags
    # override it exactly as they do for the faults subcommand.
    strict = args.strict_faults if args.strict_faults is not None else True
    faults = _parse_faults(parser, args.faults, args.designs,
                           strict=strict) if args.faults else []
    status, report = run_sweep(
        args,
        lambda campaign: explore(
            campaign, tests=tests, designs=args.designs, seeds=args.seeds,
            points=args.points, faults=faults, densify=args.densify,
            storm=args.storm,
        ),
        lambda: _trace_first_cell(args, tests),
    )
    if args.require_coverage and report.uncovered_windows:
        print("uncovered crash windows: "
              + ", ".join(report.uncovered_windows)
              + " — widen the batch (--count/--points/--densify) until "
                "every instrumented window is hit", file=sys.stderr)
        status = max(status, 1)
    return status


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "gen":
        return gen_main(argv[1:])
    parser = _build_parser(gen=False)
    args = parser.parse_args(argv)
    apply_log_flags(args)

    catalog = catalog_by_name()
    if args.list:
        width = max(len(name) for name in catalog)
        for name, spec in catalog.items():
            print(f"{name.ljust(width)}  {spec.description}")
        return 0

    if args.tests:
        unknown = [t for t in args.tests if t not in catalog]
        if unknown:
            parser.error(f"unknown tests {','.join(unknown)} "
                         f"(see --list)")
        tests = [catalog[t] for t in args.tests]
    else:
        tests = list(catalog.values())
    if args.only is not None:
        selected = select_only([t.name for t in tests], args.only)
        if not selected:
            parser.error(f"--only {args.only!r} matches no test "
                         f"(see --list)")
        tests = [t for t in tests if t.name in selected]
    return _explore(parser, args, tests)


def gen_main(argv: list[str]) -> int:
    """``litmus gen`` — explore a seeded generated batch with coverage."""
    from repro.litmus.generator import GeneratorParams, generate

    parser = _build_parser(gen=True)
    args = parser.parse_args(argv)
    apply_log_flags(args)

    tests = generate(GeneratorParams(count=args.count, seed=args.seed))
    if args.list:
        width = max(len(spec.name) for spec in tests)
        for spec in tests:
            print(f"{spec.name.ljust(width)}  {spec.description} "
                  f"({len(spec.allowed)} allowed states)")
        return 0
    return _explore(parser, args, tests)


if __name__ == "__main__":
    sys.exit(main())
