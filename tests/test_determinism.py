"""Determinism regression: the contract the result cache relies on.

The campaign cache replays a stored result for any ``(spec, code)`` pair
it has seen, and parallel campaigns compute points in worker processes.
Both are only sound if running the same :class:`RunSpec` (same seed) in
a *fresh process* yields a bit-identical :class:`RunResult` — every
counter, every stat, every derived throughput.  Fresh ``spawn``
interpreters get fresh (randomised) string-hash seeds, so these tests
also catch any accidental dependence on hash iteration order.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.config import Design
from repro.harness.campaign import result_to_dict
from repro.harness.runner import RunSpec, run_spec

SPEC = RunSpec(
    design=Design.ATOM_OPT, workload="hash", num_cores=4,
    txns_per_thread=4, warmup_per_thread=1, initial_items=8,
)


def _run_in_fresh_process(spec: RunSpec) -> dict:
    """Execute ``spec`` in a brand-new spawned interpreter."""
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(processes=1) as pool:
        return result_to_dict(pool.apply(run_spec, (spec,)))


class TestDeterminism:
    def test_same_spec_two_fresh_processes_bit_identical(self):
        first = _run_in_fresh_process(SPEC)
        second = _run_in_fresh_process(SPEC)
        assert first == second

    def test_fresh_process_matches_in_process_run(self):
        in_process = result_to_dict(run_spec(SPEC))
        fresh = _run_in_fresh_process(SPEC)
        assert fresh == in_process

    def test_repeat_in_process_runs_identical(self):
        a = result_to_dict(run_spec(SPEC))
        b = result_to_dict(run_spec(SPEC))
        assert a == b

    @pytest.mark.parametrize(
        "design", [Design.BASE, Design.NON_ATOMIC, Design.REDO]
    )
    def test_other_designs_deterministic_in_process(self, design):
        spec = SPEC.with_design(design)
        assert result_to_dict(run_spec(spec)) == result_to_dict(run_spec(spec))

    def test_different_seed_changes_the_measurement(self):
        # Sanity check that the seed actually reaches the workload RNG —
        # otherwise the determinism tests above would be vacuous.
        a = run_spec(SPEC)
        b = run_spec(SPEC.with_seed(SPEC.seed + 1))
        assert a.stats != b.stats
