"""Crash-storm recovery: interrupted recovery must converge.

The storm keeps crashing the machine *during recovery* (seeded,
geometrically growing write budgets — :mod:`repro.faults.storm`) and
the durable image must still converge to exactly the state one
uninterrupted recovery would have produced.  The net below drives a
100-point matrix — every design x two workloads x two crash cycles x
(one uninterrupted baseline + four storm seeds) — and checks, for every
storm point, that

* the storm reached a recovery fixpoint (one more full pass changes no
  durable line), and
* its durable digest, taken after that check, equals the uninterrupted
  baseline's.

Per-point interruption counts cannot be demanded (a design whose
recovery writes almost nothing completes inside even the smallest
budget), so the net tallies them and asserts the storm as a whole
actually interrupted recoveries.
"""

import pytest

from repro.config import Design
from repro.faults.storm import storm_budget, storm_recover
from repro.harness.testbed import build_system, crash_run
from repro.workloads import make_workload

STORM_SEEDS = (1, 2, 3, 4)

#: design x workload x crash-cycle — 20 combinations, 5 points each.
NET = [
    (design, workload, cycle)
    for design in Design
    for workload in ("hash", "queue")
    for cycle in (2_500, 6_000)
]

# Tallied by the parametrized net, asserted once at the end of the file
# (skipped when the net did not run, e.g. under a -k selection).
_INTERRUPTIONS = {"points": 0, "interrupted_attempts": 0}


class TestStormBudget:
    def test_deterministic(self):
        for seed in range(8):
            for attempt in range(6):
                assert storm_budget(seed, attempt) == \
                    storm_budget(seed, attempt)

    def test_base_in_range_and_growth_geometric(self):
        for seed in range(16):
            assert 1 <= storm_budget(seed, 0) <= 4
            for attempt in range(1, 10):
                budget = storm_budget(seed, attempt)
                assert (1 << attempt) <= budget <= (4 << attempt)

    def test_seeds_vary_the_schedule(self):
        schedules = {
            tuple(storm_budget(seed, a) for a in range(6))
            for seed in range(16)
        }
        # 4^6 possible schedules; 16 seeds collapsing to a handful would
        # mean the derivation barely depends on the seed.
        assert len(schedules) > 8


def _crashed_system(design=Design.ATOM, cycle=6_000):
    """A machine run to ``cycle`` and crashed, recovery not yet run."""
    system = build_system(design=design)
    workload = make_workload("hash", system, threads=4, txns_per_thread=8,
                             initial_items=12, seed=7)
    workload.setup()
    system.start_threads(workload.threads())
    system.crash_at(cycle)
    system.run(max_cycles=30_000_000)
    if not system.crashed:
        system.crash()
    return system


class TestBudgetedRecovery:
    def test_tiny_budget_interrupts_then_full_pass_completes(self):
        system = _crashed_system()
        report = system.recover(write_budget=1)
        assert report.interrupted
        full = system.recover()
        assert not full.interrupted
        # And the budgeted prefix did not poison the final state: yet
        # another pass changes nothing.
        digest = system.image.durable_digest()
        system.recover()
        assert system.image.durable_digest() == digest

    def test_huge_budget_never_interrupts(self):
        system = _crashed_system()
        report = system.recover(write_budget=10_000_000)
        assert not report.interrupted

    def test_storm_report_shape(self):
        system = _crashed_system()
        storm = storm_recover(system, seed=3)
        assert storm.fixpoint
        # No backstop pass expected with geometric budgets.
        assert storm.attempts == storm.interrupted_attempts + 1
        assert storm.budgets == [
            storm_budget(3, a) for a in range(storm.attempts)
        ]
        assert not storm.report.interrupted
        payload = storm.to_dict()
        assert payload["seed"] == 3
        assert payload["fixpoint"] is True
        assert payload["attempts"] == storm.attempts

    def test_storm_is_deterministic_per_seed(self):
        a_system, b_system = _crashed_system(), _crashed_system()
        a = storm_recover(a_system, seed=5)
        b = storm_recover(b_system, seed=5)
        assert a.budgets == b.budgets
        assert a.attempts == b.attempts
        assert a.fixpoint and b.fixpoint
        assert a_system.image.durable_digest() == \
            b_system.image.durable_digest()


@pytest.mark.parametrize(
    "design,workload,cycle", NET,
    ids=[f"{d.value}-{w}-{c}" for d, w, c in NET],
)
def test_storm_converges_to_the_uninterrupted_state(design, workload, cycle):
    # Baseline: same machine, same crash, one uninterrupted recovery.
    # verify=False: the net's check is digest equality, which binds for
    # every design — including non-atomic, whose durable structure is
    # *expected* to fail the golden differential check after a crash.
    base_system, _, base_report = crash_run(workload, design, cycle,
                                            verify=False)
    assert not base_report.interrupted
    baseline = base_system.image.durable_digest()
    for seed in STORM_SEEDS:
        system, _, report = crash_run(workload, design, cycle,
                                      verify=False, storm_seed=seed)
        storm = report.storm
        assert storm.fixpoint, (
            f"storm seed={seed} did not reach a recovery fixpoint "
            f"({storm.attempts} attempts)"
        )
        assert system.image.durable_digest() == baseline, (
            f"storm seed={seed} converged to a different durable state "
            f"than uninterrupted recovery"
        )
        assert not storm.report.interrupted
        _INTERRUPTIONS["points"] += 1
        _INTERRUPTIONS["interrupted_attempts"] += storm.interrupted_attempts


def test_the_net_actually_interrupted_recoveries():
    if _INTERRUPTIONS["points"] == 0:
        pytest.skip("storm net did not run in this session")
    # 20 combinations x 4 storm seeds ran ...
    assert _INTERRUPTIONS["points"] == len(NET) * len(STORM_SEEDS)
    # ... and the storm was not vacuous: recoveries really were cut
    # short mid-pass somewhere in the matrix.
    assert _INTERRUPTIONS["interrupted_attempts"] > 0
