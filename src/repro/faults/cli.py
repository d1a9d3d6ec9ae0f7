"""``python -m repro.harness faults`` — run the fault-injection matrix.

Runs a (design x workload x fault-model x injection-point) grid through
the campaign pool and the content-addressed result cache, prints the
per-cell verdict table (with recovery-cost aggregates), and writes the
full verdict + recovery-cost JSON artifact.  The exit code is the
number of FAILing cells (capped at 255); ``detected`` cells — recovery
*noticing* injected damage — count as success, and ``vacuous`` cells
(the fault never actually applied at any injection point) are reported
but do not fail the run.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro.common.errors import ConfigError
from repro.common.log import apply_log_flags, get_logger
from repro.faults.models import (
    FAULT_MODELS, FaultInjector, MultiFault, TornDataWrite, TornLogWrite,
    fault_from_dict, resolve_inapplicable,
)
from repro.faults.sweep import (
    FAULT_DESIGNS, FAULT_WORKLOADS, fault_grid, fault_sweep,
)
from repro.harness.report import select_only
from repro.harness.sweep_cli import (
    DEFAULT_GRID, add_campaign_flags, parse_axis, parse_designs, parse_grid,
    parse_seeds, run_sweep,
)

log = get_logger("faults")


def apply_torn_seed(model, seed: int):
    """Rebuild ``model`` with seed-derived torn-prefix lengths.

    Replaces every :class:`TornLogWrite` and :class:`TornDataWrite`
    (including members of a composite) with one whose prefix is derived
    from ``seed``; other models pass through unchanged.
    """
    if isinstance(model, TornLogWrite):
        return TornLogWrite(controller=model.controller, prefix_seed=seed)
    if isinstance(model, TornDataWrite):
        return TornDataWrite(controller=model.controller, prefix_seed=seed)
    if isinstance(model, MultiFault):
        members = [apply_torn_seed(m, seed) for m in model.models]
        if any(m is not old for m, old in zip(members, model.models)):
            return MultiFault(models=members)
    return model


def add_fault_policy_flags(parser) -> None:
    """The shared ``--strict-faults``/``--drop-inapplicable`` pair.

    Both the faults and litmus front-ends register this pair so an
    inapplicable (model, design) selection is handled identically:
    the default (``None``) keeps each front-end's historical policy,
    either flag overrides it the same way for both.
    """
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--strict-faults", dest="strict_faults",
                       action="store_true", default=None,
                       help="error out when a selected fault model "
                            "applies to none of the selected designs")
    group.add_argument("--drop-inapplicable", dest="strict_faults",
                       action="store_false",
                       help="drop such models with a warning instead of "
                            "erroring")


def _field_default(f: dataclasses.Field) -> str:
    if f.default is not dataclasses.MISSING:
        return repr(f.default)
    if f.default_factory is not dataclasses.MISSING:
        return repr(f.default_factory())
    return "<required>"


def render_model_listing() -> str:
    lines = []
    width = max(len(kind) for kind in FAULT_MODELS)
    for kind, cls in sorted(FAULT_MODELS.items()):
        doc = (cls.__doc__ or "").strip().splitlines()[0]
        contract = ("consistency" if cls.preserves_consistency
                    else "detection")
        if cls.detection_needs_checksums:
            contract += "*"
        lines.append(f"{kind.ljust(width)}  [{contract}] {doc}")
        params = ", ".join(f"{f.name}={_field_default(f)}"
                           for f in dataclasses.fields(cls))
        if params:
            lines.append(f"{''.ljust(width)}  params: {params}")
    lines.append("compose with '+' (e.g. controller-loss+torn-log-write): "
                 "every member strikes in the same power failure")
    lines.append("[detection*]: the contract binds only with the per-line "
                 "checksum plane enabled (--checksums); without it the "
                 "damage is accounted as silent corruption")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness faults",
        description="Inject partial failures (controller loss, torn log/"
                    "data writes, ADR truncation, log corruption, bit "
                    "rot, correlated power loss) and check recovery "
                    "behaviour across the designs.",
    )
    parser.add_argument("--faults", type=parse_axis, default=None,
                        help="fault models to inject (comma-separated; "
                             "default: all)")
    parser.add_argument("--only", default=None, metavar="NAME",
                        help="run only fault models whose name matches "
                             "(exact or case-insensitive substring)")
    parser.add_argument("--designs", type=parse_designs,
                        default=",".join(d.value for d in FAULT_DESIGNS),
                        help="designs to check (comma-separated)")
    parser.add_argument("--workloads", type=parse_axis,
                        default=",".join(FAULT_WORKLOADS),
                        help="workloads to run (comma-separated)")
    parser.add_argument("--crash-grid", type=parse_grid,
                        default=DEFAULT_GRID,
                        help="injection points as start:stop:step "
                             "(default 2000:30000:4000)")
    parser.add_argument("--seeds", type=parse_seeds, default="7",
                        help="seeds (comma-separated; default 7)")
    parser.add_argument("--torn-seed", type=int, default=None,
                        metavar="SEED",
                        help="derive torn-log/data-write prefix lengths "
                             "from this seed instead of the fixed 60-byte "
                             "split (keys the cache)")
    parser.add_argument("--checksums", action="store_true",
                        help="enable the per-data-line checksum plane: "
                             "media faults (torn data, bit rot) become "
                             "detectable and silent corruption fails "
                             "the cell")
    parser.add_argument("--storm", type=int, default=None, metavar="SEED",
                        help="recover through a seeded crash storm "
                             "(recovery repeatedly interrupted mid-pass "
                             "until it converges to a fixpoint)")
    add_campaign_flags(parser)
    parser.add_argument("--out", default="fault_verdicts.json",
                        help="verdict + recovery-cost artifact path "
                             "(default fault_verdicts.json)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="also trace one fault point (see "
                             "--trace-point) to Chrome-trace JSON")
    parser.add_argument("--trace-point", type=int, default=None,
                        metavar="INDEX",
                        help="matrix-point index to trace with --trace "
                             "(default 0: the first point)")
    parser.add_argument("--list", action="store_true",
                        help="list fault models (with parameters) and exit")
    add_fault_policy_flags(parser)
    args = parser.parse_args(argv)
    apply_log_flags(args)

    if args.list:
        print(render_model_listing())
        return 0

    kinds = args.faults or sorted(FAULT_MODELS)
    if args.only is not None:
        kinds = select_only(kinds, args.only)
        if not kinds:
            parser.error(f"--only {args.only!r} matches no fault model "
                         f"(see --list)")
    # An explicit request must not be silently narrowed; the implicit
    # default set may shed inapplicable models with a warning.
    explicit = bool(args.faults) or args.only is not None
    models = []
    for kind in kinds:
        try:
            models.append(fault_from_dict({"kind": kind}))
        except ConfigError as exc:
            parser.error(f"{exc} (see --list)")
    if args.torn_seed is not None:
        seeded = [apply_torn_seed(m, args.torn_seed) for m in models]
        if all(m is old for m, old in zip(seeded, models)):
            parser.error("--torn-seed requires a torn-log-write or "
                         "torn-data-write model in the selected set")
        models = seeded

    # Historical default: an explicit request must not be silently
    # narrowed (strict), the implicit default set sheds inapplicable
    # models with a warning.  The shared policy flags override both.
    strict = args.strict_faults if args.strict_faults is not None \
        else explicit
    try:
        models, dropped = resolve_inapplicable(models, args.designs,
                                               strict=strict)
    except ConfigError as exc:
        parser.error(str(exc))
    for reason in dropped:
        log.warning(f"{reason}; dropping from the model set")
    if not models:
        parser.error("no applicable fault models remain for the "
                     "selected designs")

    specs = fault_grid(designs=args.designs, workloads=args.workloads,
                       models=models, crash_cycles=args.crash_grid,
                       seeds=args.seeds, checksums=args.checksums,
                       storm=args.storm)
    if not specs:
        parser.error("the requested (design x fault) combinations are all "
                     "inapplicable — nothing to run")
    if args.trace_point is not None and args.trace is None:
        parser.error("--trace-point requires --trace")
    trace_index = args.trace_point or 0
    if args.trace is not None and not 0 <= trace_index < len(specs):
        parser.error(f"--trace-point {trace_index} out of range "
                     f"(matrix has {len(specs)} points)")

    def trace() -> None:
        from repro.obs.cli import trace_crash_spec

        chosen = specs[trace_index]
        events = trace_crash_spec(
            chosen, args.trace,
            injector=FaultInjector(fault_from_dict(chosen.fault)),
        )
        print(f"trace written: {args.trace} ({events} events; "
              f"fault point {trace_index})", file=sys.stderr)

    status, _sweep = run_sweep(
        args, lambda campaign: fault_sweep(campaign, specs), trace)
    return status


if __name__ == "__main__":
    sys.exit(main())
