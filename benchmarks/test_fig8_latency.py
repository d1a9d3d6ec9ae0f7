"""Figure 8: rbtree throughput versus NVM latency (ATOM-OPT vs REDO).

Paper shape: both designs lose throughput as the latency multiplier
grows; REDO's bandwidth appetite makes it degrade at least as fast as
ATOM-OPT, which holds the advantage at the paper's 10x operating point
and beyond.

Known fidelity limit (see the ROADMAP's paper-fidelity table): the
paper's 1x crossover — REDO ahead at DRAM-like latency — does not
reproduce here because this trace-driven simulator reaches ~100x the
absolute transaction rate of the paper's full-system setup, so at 1x
both designs are already memory-bandwidth-bound and the ratio reflects
traffic volume.
"""

from bench_util import run_once

from repro.harness.experiments import fig8


def test_fig8_latency_sensitivity(benchmark, scale, campaign):
    result = run_once(benchmark, fig8, scale, campaign=campaign)
    print()
    print(result.render())

    measured = result.measured
    # ATOM-OPT wins at the paper's operating point (10x) and beyond.
    for mult in (10, 20, 40):
        assert measured[f"opt_{mult}x"] > measured[f"redo_{mult}x"], (
            f"ATOM-OPT must beat REDO at {mult}x"
        )
    # Both degrade monotonically (within noise) as latency grows.
    for name in ("opt", "redo"):
        assert measured[f"{name}_1x"] > measured[f"{name}_40x"], (
            f"{name} should lose throughput from 1x to 40x"
        )
    # Degradation is substantial: 40x latency costs several-fold.
    assert measured["opt_1x"] / measured["opt_40x"] > 3.0
    assert measured["redo_1x"] / measured["redo_40x"] > 3.0
