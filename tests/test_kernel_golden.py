"""Golden-digest equivalence net for the simulation kernel.

The kernel fast path (tuple-heap engine, precomputed NoC tables, bound
stat counters, workload op inlining) is only acceptable because it is
**bit-for-bit identical** to the reference kernel: same cycle counts,
same committed-transaction counts, same statistics, for every design.
This test pins that contract to golden values captured from the
pre-optimization kernel (commit 0a2763a) — any future "perf" change
that silently shifts timing or stats fails loudly here.

Regenerating the goldens is a deliberate act (it redefines the
reference semantics):

    PYTHONPATH=src python tests/test_kernel_golden.py --regen
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.config import Design
from repro.harness.testbed import build_system, run_workload_to_completion
from repro.workloads import make_workload

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_kernel.json"


#: Cycles the ``paused`` mode stops at (all before every design's
#: finish cycle; one pair of adjacent cycles).
PAUSE_CYCLES = (1, 700, 3_000, 3_001, 15_000)


def golden_run(design: Design, mode: str = "plain"):
    """One pinned small run per design (fixed seed, fixed machine).

    ``traced``: the full observability layer (lifecycle tracer + stat
    sampler) rides along — the goldens must stay bit-identical, which is
    the tracer's non-perturbation contract.

    ``paused``: the run stops at every :data:`PAUSE_CYCLES` cycle by
    re-arming one pause event (what the crash sweep's prefix sharing
    does) and then resumes to completion — pausing must not perturb the
    run either.
    """
    system = build_system(design=design, num_cores=4)
    if mode == "traced":
        from repro.obs.sample import StatSampler
        from repro.obs.trace import Tracer

        Tracer().install(system)
        StatSampler(system, interval=500).install()
    workload = make_workload(
        "hash", system, entry_bytes=256, txns_per_thread=6,
        initial_items=12, seed=11, threads=4,
    )
    if mode == "paused":
        workload.setup()
        system.start_threads(workload.threads())
        pause = system.pause_at(PAUSE_CYCLES[0])
        for cycle in PAUSE_CYCLES:
            if system.paused:
                system.engine.rearm(pause, cycle)
            system.run()
            assert system.paused and system.engine.now == cycle
        system.run()
        assert not system.paused and system.all_done()
    else:
        run_workload_to_completion(system, workload)
    result = system.result()
    return {
        "cycles": result.cycles,
        "txns_committed": result.txns_committed,
        "stats": result.stats,
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("mode", ["plain", "traced", "paused"])
@pytest.mark.parametrize("design", list(Design), ids=lambda d: d.value)
class TestKernelGolden:
    def test_run_matches_golden(self, design, mode, golden):
        measured = golden_run(design, mode=mode)
        reference = golden[design.value]
        assert measured["cycles"] == reference["cycles"], (
            f"{design.value}: finish cycle drifted "
            f"({measured['cycles']} vs golden {reference['cycles']})"
        )
        assert measured["txns_committed"] == reference["txns_committed"]
        # The full stats dict, counter for counter: a kernel change that
        # alters *any* accounting shows up here with the exact domain.
        for domain, counters in reference["stats"].items():
            assert measured["stats"].get(domain) == counters, (
                f"{design.value}: stats domain {domain!r} diverged: "
                f"{measured['stats'].get(domain)} vs {counters}"
            )
        assert set(measured["stats"]) == set(reference["stats"])


def test_goldens_cover_every_design(golden):
    assert set(golden) == {design.value for design in Design}


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        data = {
            design.value: golden_run(design) for design in Design
        }
        GOLDEN_PATH.write_text(
            json.dumps(data, indent=1, sort_keys=True) + "\n"
        )
        print(f"regenerated {GOLDEN_PATH}")
    else:
        print(__doc__)
