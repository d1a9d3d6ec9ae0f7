"""Experiment definitions: one entry per table/figure of the paper.

Each experiment function enumerates the simulation points it needs,
submits them **as one batch** to a :class:`~repro.harness.campaign.Campaign`
(worker-pool fan-out plus the content-addressed result cache), and
returns an :class:`ExperimentResult` holding measured rows, the paper's
reported values, and a rendered report.  ``run_experiment(name)`` is the
public entry point; the CLI and the benchmark suite both go through
it.

Passing no campaign runs the points serially and uncached — exactly the
old single-process behaviour.  ``python -m repro.harness`` constructs a
campaign from its ``--jobs/--seeds/--no-cache`` flags; determinism (see
``tests/test_determinism.py``) guarantees the parallel and serial paths
produce identical numbers.

Scale note: simulation points default to a reduced transaction count per
thread (the machine itself is the full Table-I configuration) so the
whole suite regenerates in minutes of wall-clock time; counts can be
raised via the ``scale`` parameter for tighter confidence.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.config import Design
from repro.harness import paper_data
from repro.harness.campaign import Campaign
from repro.harness.report import format_table, gmean
from repro.harness.runner import RunResult, RunSpec

#: The benchmarks shown in Figures 6 and 7 (the paper omits sdg there).
FIG67_BENCHMARKS = ["btree", "hash", "queue", "rbtree", "sps"]
ALL_BENCHMARKS = ["btree", "hash", "queue", "rbtree", "sdg", "sps"]

UNDO_DESIGNS = [Design.BASE, Design.ATOM, Design.ATOM_OPT, Design.NON_ATOMIC]


@dataclass
class ExperimentResult:
    """Everything a bench/report needs from one experiment."""

    name: str
    headers: list[str]
    rows: list[list[object]]
    #: Measured summary values keyed by short names (for assertions).
    measured: dict[str, float]
    #: The paper's reported values for the same keys where available.
    paper: dict[str, float]
    notes: str = ""
    raw: dict = field(default_factory=dict)

    def render(self) -> str:
        out = format_table(self.headers, self.rows,
                           title=f"== {self.name} ==")
        if self.notes:
            out += f"\n{self.notes}"
        return out


def _micro_spec(workload: str, size: str, scale: float) -> RunSpec:
    entry = 512 if size == "small" else 4096
    txns = max(6, round((16 if size == "small" else 8) * scale))
    warm = max(2, txns // 4)
    return RunSpec(
        design=Design.ATOM_OPT,
        workload=workload,
        entry_bytes=entry,
        txns_per_thread=txns,
        warmup_per_thread=warm,
        initial_items=96 if size == "small" else 48,
        # Per-transaction instruction overhead (allocator, hashing, key
        # comparisons) of the NVHeaps-style binaries the paper runs.
        workload_kw={"compute_cycles": 150},
    )


def _batch(campaign: Campaign | None,
           points: list[tuple]) -> dict[tuple, RunResult]:
    """Run ``[(key..., spec), ...]`` as one campaign batch -> key map."""
    campaign = campaign or Campaign()
    results = campaign.run([point[-1] for point in points])
    return {point[:-1]: res for point, res in zip(points, results)}


# -- Figure 5: transaction throughput, four designs ----------------------------


def fig5(size: str, scale: float = 1.0,
         campaign: Campaign | None = None) -> ExperimentResult:
    """Figure 5(a)/(b): normalized transaction throughput."""
    results = _batch(campaign, [
        (bench, d, _micro_spec(bench, size, scale).with_design(d))
        for bench in ALL_BENCHMARKS
        for d in UNDO_DESIGNS
    ])
    rows = []
    ratios: dict[str, dict[str, float]] = {d.value: {} for d in UNDO_DESIGNS}
    for bench in ALL_BENCHMARKS:
        base_tp = results[bench, Design.BASE].throughput
        row = [bench]
        for d in UNDO_DESIGNS:
            norm = results[bench, d].throughput / base_tp if base_tp else 0.0
            ratios[d.value][bench] = norm
            row.append(norm)
        rows.append(row)
    summary = ["gmean"]
    measured: dict[str, float] = {}
    for d in UNDO_DESIGNS:
        g = gmean(list(ratios[d.value].values()))
        measured[d.value] = g
        summary.append(g)
    rows.append(summary)
    paper = dict(
        paper_data.FIG5_SMALL_GMEAN if size == "small"
        else paper_data.FIG5_LARGE_GMEAN
    )
    paper["base"] = 1.0
    gap = (measured["atom-opt"] - 1.0) / max(
        1e-9, measured["non-atomic"] - 1.0
    )
    notes = (
        f"paper gmeans: ATOM {paper['atom']:.2f}, ATOM-OPT "
        f"{paper['atom-opt']:.2f}, NON-ATOMIC {paper['non-atomic']:.2f}; "
        f"gap closed by ATOM-OPT: measured {gap:.0%}, paper "
        f"{paper_data.GAP_CLOSED[size]:.0%}"
    )
    return ExperimentResult(
        name=f"Figure 5 ({size}): txn throughput normalized to BASE",
        headers=["bench", "base", "atom", "atom-opt", "non-atomic"],
        rows=rows,
        measured=measured,
        paper=paper,
        notes=notes,
        raw={"ratios": ratios, "gap_closed": gap},
    )


# -- Figure 6: store-queue-full cycles ---------------------------------------------


def fig6(scale: float = 1.0,
         campaign: Campaign | None = None) -> ExperimentResult:
    """Figure 6: SQ-full cycles normalized to BASE (small datasets)."""
    designs = [Design.BASE, Design.ATOM_OPT, Design.NON_ATOMIC]
    results = _batch(campaign, [
        (bench, d, _micro_spec(bench, "small", scale).with_design(d))
        for bench in FIG67_BENCHMARKS
        for d in designs
    ])
    rows = []
    per_design: dict[str, dict[str, float]] = {
        "atom-opt": {}, "non-atomic": {},
    }
    for bench in FIG67_BENCHMARKS:
        denom = max(1, results[bench, Design.BASE].sq_full_cycles)
        row = [
            bench,
            1.0,
            results[bench, Design.ATOM_OPT].sq_full_cycles / denom,
            results[bench, Design.NON_ATOMIC].sq_full_cycles / denom,
        ]
        per_design["atom-opt"][bench] = row[2]
        per_design["non-atomic"][bench] = row[3]
        rows.append(row)
    g_opt = gmean(list(per_design["atom-opt"].values()))
    g_na = gmean(list(per_design["non-atomic"].values()))
    rows.append(["gmean", 1.0, g_opt, g_na])
    measured = {
        "atom-opt_gmean": g_opt,
        "non-atomic_gmean": g_na,
        **{f"atom-opt_{b}": v for b, v in per_design["atom-opt"].items()},
    }
    return ExperimentResult(
        name="Figure 6: SQ-full cycles normalized to BASE (small)",
        headers=["bench", "base", "atom-opt", "non-atomic"],
        rows=rows,
        measured=measured,
        paper=dict(paper_data.FIG6_SQ_FULL),
        notes=(
            "paper: ATOM-OPT gmean 0.79 (queue 0.57, rbtree 0.65, "
            "sps 0.99); ATOM-OPT within ~10% of NON-ATOMIC"
        ),
        raw=per_design,
    )


# -- Table III: source-logged percentage ----------------------------------------------


def table3(scale: float = 1.0,
           campaign: Campaign | None = None) -> ExperimentResult:
    """Table III: % of log entries source-logged (ATOM-OPT)."""
    results = _batch(campaign, [
        (bench, size, _micro_spec(bench, size, scale))
        for bench in ALL_BENCHMARKS
        for size in ("small", "large")
    ])
    rows = []
    measured: dict[str, float] = {}
    for bench in ALL_BENCHMARKS:
        row = [bench]
        for size in ("small", "large"):
            pct = results[bench, size].source_log_pct
            row.append(pct)
            measured[f"{bench}_{size}"] = pct
        rows.append(row)
    paper = {
        f"{b}_{s}": paper_data.TABLE3_SOURCE_LOG_PCT[s][b]
        for s in ("small", "large")
        for b in ALL_BENCHMARKS
    }
    return ExperimentResult(
        name="Table III: % source-logged cache lines (ATOM-OPT)",
        headers=["bench", "small %", "large %"],
        rows=rows,
        measured=measured,
        paper=paper,
        notes=(
            "paper reports fractions of a percent on a warmed gem5 "
            "system; shape to match: large >= small for misses-bound "
            "benches, sps lowest"
        ),
    )


# -- Figure 7: REDO comparison ----------------------------------------------------------


def fig7(scale: float = 1.0,
         campaign: Campaign | None = None) -> ExperimentResult:
    """Figure 7: REDO vs ATOM-OPT, one and two channels (small)."""
    configs = [
        ("atom-opt", Design.ATOM_OPT, 1),
        ("atom-opt-2c", Design.ATOM_OPT, 2),
        ("redo", Design.REDO, 1),
        ("redo-2c", Design.REDO, 2),
    ]
    results = _batch(campaign, [
        (bench, name,
         replace(_micro_spec(bench, "small", scale),
                 design=design, channels=channels))
        for bench in FIG67_BENCHMARKS
        for name, design, channels in configs
    ])
    rows = []
    ratios: dict[str, dict[str, float]] = {name: {} for name, _, _ in configs}
    entry_ratio: list[float] = []
    for bench in FIG67_BENCHMARKS:
        denom = results[bench, "atom-opt"].throughput or 1.0
        row = [bench]
        for name, _, _ in configs:
            norm = results[bench, name].throughput / denom
            ratios[name][bench] = norm
            row.append(norm)
        rows.append(row)
        if results[bench, "atom-opt"].log_entries:
            entry_ratio.append(
                results[bench, "redo"].log_entries
                / results[bench, "atom-opt"].log_entries
            )
    summary = ["gmean"] + [
        gmean(list(ratios[name].values())) for name, _, _ in configs
    ]
    rows.append(summary)
    measured = {
        "redo": summary[3],
        "redo-2c": summary[4],
        "atom-opt-2c": summary[2],
        "log_entry_ratio": gmean(entry_ratio) if entry_ratio else 0.0,
    }
    return ExperimentResult(
        name="Figure 7: throughput normalized to ATOM-OPT (small)",
        headers=["bench", "atom-opt", "atom-opt-2c", "redo", "redo-2c"],
        rows=rows,
        measured=measured,
        paper=dict(paper_data.FIG7_REDO),
        notes=(
            f"paper: REDO 0.22x, REDO-2C 0.30x of ATOM-OPT; REDO makes "
            f"~19x more log entries (measured "
            f"{measured['log_entry_ratio']:.1f}x)"
        ),
        raw=ratios,
    )


# -- Figure 8: memory-latency sensitivity ---------------------------------------------------


def fig8(scale: float = 1.0,
         campaign: Campaign | None = None) -> ExperimentResult:
    """Figure 8: rbtree throughput vs NVM latency (ATOM-OPT vs REDO)."""
    multipliers = [1, 5, 10, 20, 40]
    results = _batch(campaign, [
        (mult, design,
         replace(_micro_spec("rbtree", "small", scale),
                 design=design, latency_multiplier=float(mult)))
        for mult in multipliers
        for design in (Design.ATOM_OPT, Design.REDO)
    ])
    rows = []
    measured: dict[str, float] = {}
    for mult in multipliers:
        opt = results[mult, Design.ATOM_OPT]
        redo = results[mult, Design.REDO]
        rows.append([f"{mult}x", opt.throughput, redo.throughput,
                     opt.throughput / max(1e-9, redo.throughput)])
        measured[f"opt_{mult}x"] = opt.throughput
        measured[f"redo_{mult}x"] = redo.throughput
    return ExperimentResult(
        name="Figure 8: rbtree txn/s vs NVM latency (x DRAM)",
        headers=["latency", "atom-opt txn/s", "redo txn/s", "opt/redo"],
        rows=rows,
        measured=measured,
        paper={},
        notes=(
            "paper shape: REDO ahead at 1x, crossover by ~5x, REDO "
            "degrades super-linearly with latency"
        ),
    )


# -- Table IV: TPC-C -----------------------------------------------------------------------------


def table4(scale: float = 1.0,
           campaign: Campaign | None = None) -> ExperimentResult:
    """Table IV: TPC-C new-order throughput normalized to BASE."""
    designs = [Design.BASE, Design.ATOM, Design.ATOM_OPT, Design.REDO]
    txns = max(4, round(6 * scale))
    results_by_key = _batch(campaign, [
        (design, RunSpec(
            design=design,
            workload="tpcc",
            txns_per_thread=txns,
            warmup_per_thread=max(1, txns // 4),
            num_cores=32,
        ))
        for design in designs
    ])
    results: dict[str, RunResult] = {
        design.value: res for (design,), res in results_by_key.items()
    }
    base_tp = results["base"].throughput or 1.0
    measured = {
        name: res.throughput / base_tp for name, res in results.items()
    }
    opt = results["atom-opt"]
    base = results["base"]
    measured["source_log_pct"] = opt.source_log_pct
    measured["sq_full_reduction"] = 1.0 - (
        opt.sq_full_cycles / max(1, base.sq_full_cycles)
    )
    rows = [
        [name, measured[name], paper_data.TABLE4_TPCC.get(name, float("nan"))]
        for name in ("base", "atom", "atom-opt", "redo")
    ]
    return ExperimentResult(
        name="Table IV: TPC-C throughput normalized to BASE",
        headers=["design", "measured", "paper"],
        rows=rows,
        measured=measured,
        paper=dict(paper_data.TABLE4_TPCC),
        notes=(
            f"paper: 1.00 / 1.58 / 1.60 / 1.47; source-logged "
            f"{opt.source_log_pct:.3f}% (paper ~0.02%), SQ-full cycles "
            f"-{measured['sq_full_reduction']:.0%} (paper -42%)"
        ),
    )


# -- Ablations (this reproduction's design choices) --------------------------------------------------


def ablations(scale: float = 1.0,
              campaign: Campaign | None = None) -> ExperimentResult:
    """Design-choice ablations on rbtree/small.

    * LEC on/off — log write requests per entry (section IV-C's 57%).
    * posted log on/off — throughput effect of III-C alone.
    * log/data co-location on/off — posting requires co-location.

    Each variant is an ordinary campaign point: the ablation knob rides
    in ``RunSpec.log_overrides`` so results cache and parallelise like
    everything else.
    """
    spec = _micro_spec("rbtree", "small", scale)
    variants = {
        "lec_on": spec.with_design(Design.ATOM),
        "lec_off": replace(spec, design=Design.ATOM,
                           log_overrides={"collation": False}),
        "unposted": spec.with_design(Design.BASE),
        "no_coloc": replace(spec, design=Design.ATOM,
                            log_overrides={"colocate": False}),
    }
    results = _batch(campaign, [
        (name, point) for name, point in variants.items()
    ])
    lec_on = results["lec_on",]
    lec_off = results["lec_off",]
    posted = coloc = lec_on
    unposted = results["unposted",]
    no_coloc = results["no_coloc",]

    wpe_on = lec_on.log_writes / max(1, lec_on.log_entries)
    wpe_off = lec_off.log_writes / max(1, lec_off.log_entries)
    rows = [
        ["LEC writes/entry", wpe_on, wpe_off,
         f"paper: 8/7={8 / 7:.2f} vs 2.00 (-57%)"],
        ["posted vs in-path txn/s", posted.throughput, unposted.throughput,
         "posting must win"],
        ["co-located vs not txn/s", coloc.throughput, no_coloc.throughput,
         "co-location enables posting"],
    ]
    measured = {
        "lec_reduction": 1.0 - wpe_on / max(1e-9, wpe_off),
        "posted_speedup": posted.throughput / max(1e-9, unposted.throughput),
        "coloc_speedup": coloc.throughput / max(1e-9, no_coloc.throughput),
    }
    return ExperimentResult(
        name="Ablations (rbtree/small)",
        headers=["metric", "with", "without", "note"],
        rows=rows,
        measured=measured,
        paper={"lec_reduction": paper_data.LEC_WRITE_REDUCTION},
    )


EXPERIMENTS = {
    "fig5a": lambda scale=1.0, campaign=None: fig5("small", scale, campaign),
    "fig5b": lambda scale=1.0, campaign=None: fig5("large", scale, campaign),
    "fig6": fig6,
    "table3": table3,
    "fig7": fig7,
    "fig8": fig8,
    "table4": table4,
    "ablations": ablations,
}


def run_experiment(name: str, scale: float = 1.0,
                   campaign: Campaign | None = None) -> ExperimentResult:
    """Run one registered experiment by name (see EXPERIMENTS).

    ``campaign`` carries the worker pool and result cache; omitting it
    runs the points serially and uncached.
    """
    try:
        fn = EXPERIMENTS[name]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {name!r} (known: {known})")
    return fn(scale, campaign)
