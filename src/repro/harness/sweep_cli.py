"""Shared front end of the sweep commands.

``python -m repro.harness --crash-sweep``, ``litmus``, ``litmus gen``
and ``faults`` each run a grid of points through one
:class:`~repro.harness.campaign.Campaign` and end the same way.  This
module holds what they share:

* the campaign flags (``--jobs``, ``--max-retries``, ``--task-timeout``,
  ``--no-cache``, ``--cache-dir``, ``--progress``, ``--fabric-log`` and
  ``--verbose/--quiet``) and the :class:`Campaign` built from them;
* argparse types for the comma-separated axes and the
  ``start:stop:step`` crash grid.  An empty or malformed axis is a
  parser error, because a sweep over zero points passes vacuously;
* the report tail: close the campaign, print the report and the timing
  line, write the artifact with its ``campaign`` block, and turn the
  failure count into the exit status.
"""

from __future__ import annotations

import argparse
import time

from repro.common.log import add_log_flags
from repro.config import Design
from repro.harness.cache import ResultCache
from repro.harness.campaign import Campaign
from repro.harness.report import write_artifact
from repro.harness.supervise import RetryPolicy

#: Crash cycles of ``--crash-sweep`` and ``faults`` (2000:30000:4000).
DEFAULT_GRID = range(2_000, 30_001, 4_000)


def at_least(kind, low, *, strict: bool = False):
    """argparse type: a ``kind`` number >= ``low`` (> with ``strict``)."""
    bound = f"{'>' if strict else '>='} {low}"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {kind.__name__} {bound}, got {text!r}"
            ) from None
        if value < low or (strict and value == low):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    return parse


def parse_axis(text: str) -> list[str]:
    """argparse type: a non-empty comma-separated list."""
    items = [item for item in text.split(",") if item]
    if not items:
        raise argparse.ArgumentTypeError(
            f"expected a non-empty comma-separated list, got {text!r}"
        )
    return items


def parse_seeds(text: str) -> list[int]:
    """argparse type: a non-empty comma-separated list of integers."""
    try:
        return [int(seed) for seed in parse_axis(text)]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def parse_designs(text: str) -> list[Design]:
    """argparse type: a non-empty comma-separated list of designs."""
    try:
        return [Design(name) for name in parse_axis(text)]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be drawn from {','.join(d.value for d in Design)}"
        ) from None


def parse_grid(text: str) -> range:
    """argparse type: ``start:stop:step`` -> inclusive-stop range."""
    try:
        start, stop, step = (int(part) for part in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected start:stop:step, got {text!r}"
        ) from None
    if step <= 0 or start > stop:
        raise argparse.ArgumentTypeError(
            f"grid {text!r} is empty: need start <= stop and step > 0"
        )
    return range(start, stop + 1, step)


def add_campaign_flags(parser: argparse.ArgumentParser) -> None:
    """Register the flags that configure the campaign and logging."""
    parser.add_argument("--jobs", "-j", type=at_least(int, 0), default=1,
                        help="worker processes (0 = one per CPU; default 1)")
    parser.add_argument("--max-retries", type=at_least(int, 0), default=2,
                        help="re-runs of a point after a worker "
                             "death/hang before it is quarantined "
                             "(default 2)")
    parser.add_argument("--task-timeout", type=at_least(float, 0, strict=True),
                        default=None, metavar="SECONDS",
                        help="soft per-point deadline; a worker stuck "
                             "longer is killed and the point retried "
                             "(default: per-kind)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the on-disk result cache")
    parser.add_argument("--cache-dir", default=None,
                        help="result cache directory (default "
                             "$REPRO_CACHE_DIR or ~/.cache/repro-campaign)")
    parser.add_argument("--progress", action="store_true",
                        help="live one-line batch progress on stderr")
    parser.add_argument("--fabric-log", default=None, metavar="PATH",
                        help="append campaign-fabric telemetry events "
                             "(dispatch/retry/quarantine/cache) as JSONL")
    add_log_flags(parser)


def open_campaign(args: argparse.Namespace, seeds: int = 1) -> Campaign:
    """The campaign described by the :func:`add_campaign_flags` flags."""
    return Campaign(
        jobs=args.jobs, seeds=seeds,
        cache=None if args.no_cache else ResultCache(args.cache_dir),
        retry=RetryPolicy(max_retries=args.max_retries,
                          task_timeout=args.task_timeout),
        telemetry_log=args.fabric_log, progress=args.progress,
    )


def run_sweep(args: argparse.Namespace, sweep, trace, *, seeds: int = 1):
    """Run ``sweep(campaign)``, report it, return ``(status, result)``.

    ``result`` is the sweep's report object (``render``, ``to_json``
    and ``failures``).  ``trace()`` runs when ``--trace`` is set, once
    the campaign is closed and before the report prints.  The artifact
    is written when ``--out`` is set.  The status is the failure count
    capped at 255, so a large count never wraps to 0 in the 8-bit exit
    code.
    """
    campaign = open_campaign(args, seeds)
    start = time.time()
    try:
        result = sweep(campaign)
    finally:
        campaign.close()
    if args.trace is not None:
        trace()
    print(result.render())
    hits = campaign.cache.hits if campaign.cache is not None else 0
    print(f"({time.time() - start:.1f}s, {campaign.computed} computed, "
          f"{hits} cached)")
    if args.out is not None:
        payload = result.to_json()
        payload["campaign"] = campaign.metrics
        write_artifact(args.out, payload)
        print(f"wrote {args.out}")
    return min(len(result.failures), 255), result
