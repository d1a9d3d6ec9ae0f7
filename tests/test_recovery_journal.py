"""Recovery's own no-op verdict against the whole-image digest oracle.

Every durable write of a recovery pass goes through one
:class:`~repro.atom.recovery.PassWrites`, which keeps each written
line's bytes from before the pass; ``RecoveryReport.lines_changed``
counts the written lines that now differ.  The idempotence check of
fault and litmus points and the storm's fixpoint read "the extra pass
changed nothing" from that count instead of comparing whole-image
digests.  The tests below keep the digest as the oracle: for single
writes, for ATOM and REDO passes with and without a storm budget, for
a full pass after ``recover(clear_adr=False)``, and for every recovery
pass of a reduced checksummed storm fault matrix and of the litmus
catalog, the count is zero exactly when the digests before and after
the pass are equal — and, where the durable lines are compared one by
one, equals the number of lines that differ.
"""

import pytest

from helpers import build_system, reference_digest
from repro.atom import recovery
from repro.atom.recovery import PassWrites, RecoveryInterrupted
from repro.common.units import CACHE_LINE_BYTES
from repro.config import Design
from repro.faults.storm import storm_budget
from repro.faults.sweep import execute_fault_point, fault_grid
from repro.litmus.catalog import CATALOG
from repro.litmus.explorer import (LITMUS_DESIGNS, LitmusPoint,
                                   crash_cycles_for, execute_litmus_point)
from repro.mem.image import MemoryImage
from repro.runtime.system import System
from repro.workloads import make_workload

LINE = CACHE_LINE_BYTES

#: A crash cycle at which ATOM and ATOM-OPT recovery undoes records.
MID_RUN = 8_000


def durable_lines(image) -> dict[int, bytes]:
    """Every touched durable line's bytes (untouched lines are zero)."""
    return {base: image.durable_line(base)
            for base in image.touched_durable_lines()}


def lines_differing(before: dict[int, bytes], image) -> int:
    """Durable lines of ``image`` that differ from the snapshot."""
    zero = bytes(LINE)
    return sum(before.get(base, zero) != line
               for base, line in durable_lines(image).items())


def checked_pass(image, run_pass):
    """Run one pass; its count must equal the line-by-line diff, and be
    zero exactly when the whole-image digest did not move."""
    before_lines = durable_lines(image)
    before = image.durable_digest()
    report = run_pass()
    assert report.lines_changed == lines_differing(before_lines, image)
    assert (report.lines_changed == 0) == (image.durable_digest() == before)
    return report


def crashed_system(design: Design):
    system = build_system(design=design)
    workload = make_workload("hash", system, threads=4, txns_per_thread=8,
                             initial_items=12, seed=7)
    workload.setup()
    system.start_threads(workload.threads())
    system.crash_at(MID_RUN)
    system.run(max_cycles=30_000_000)
    if not system.crashed:
        system.crash()
    return system


class TestPassWrites:
    def test_written_then_restored_line_reads_unchanged(self):
        image = MemoryImage(16 * LINE)
        image.persist(2 * LINE, b"old" * 8)
        before = image.durable_digest()
        writes = PassWrites(image)
        writes.persist(2 * LINE, b"new")
        assert writes.lines_changed() == 1
        assert image.durable_digest() != before
        writes.persist(2 * LINE, b"old")
        assert writes.lines_changed() == 0
        assert image.durable_digest() == before

    def test_rewriting_the_same_bytes_reads_unchanged(self):
        image = MemoryImage(16 * LINE)
        image.persist(0, b"x" * 3 * LINE)
        before = image.durable_digest()
        writes = PassWrites(image)
        writes.persist(LINE, b"x" * LINE)
        # A never-written line zeroed is still all-zero.
        writes.persist(9 * LINE, bytes(LINE))
        assert writes.lines_changed() == 0
        assert image.durable_digest() == before == reference_digest(image)

    def test_multi_line_write_keeps_each_line(self):
        image = MemoryImage(16 * LINE)
        image.persist(LINE, b"a" * LINE)
        writes = PassWrites(image)
        writes.persist(LINE + 8, b"a" * (LINE - 8) + b"b" * LINE)
        assert sorted(writes.pre_images) == [LINE, 2 * LINE]
        assert writes.pre_images[LINE] == b"a" * LINE
        assert writes.lines_changed() == 1  # line 1 rewritten as it was

    def test_budget_stops_the_write_before_it_lands(self):
        image = MemoryImage(16 * LINE)
        writes = PassWrites(image, budget=2)
        writes.persist(0, b"1")
        writes.persist(LINE, b"2")
        with pytest.raises(RecoveryInterrupted):
            writes.persist(2 * LINE, b"3")
        assert image.durable_line(2 * LINE) == bytes(LINE)
        assert sorted(writes.pre_images) == [0, LINE]
        assert writes.lines_changed() == 2


class TestRecoveryPasses:
    @pytest.mark.parametrize("design", [Design.ATOM, Design.ATOM_OPT,
                                        Design.REDO])
    def test_full_passes(self, design):
        system = crashed_system(design)
        first = checked_pass(system.image, system.recover)
        assert first.lines_changed > 0
        second = checked_pass(system.image, system.recover)
        assert second.lines_changed == 0

    @pytest.mark.parametrize("design", [Design.ATOM, Design.ATOM_OPT,
                                        Design.REDO])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_budgeted_passes(self, design, seed):
        system = crashed_system(design)
        interrupted = 0
        for attempt in range(32):
            report = checked_pass(system.image, lambda: system.recover(
                write_budget=storm_budget(seed, attempt)))
            if not report.interrupted:
                break
            interrupted += 1
        assert interrupted > 0
        probe = checked_pass(system.image, system.recover)
        assert probe.lines_changed == 0

    def test_full_pass_after_an_uncleared_pass_reclears_the_adr_block(self):
        # A crash between the undo writes and the ADR clear: the full
        # re-run rewrites every undone line with the bytes it holds and
        # changes only the ADR blocks it clears.
        system = crashed_system(Design.ATOM_OPT)
        layout = system.layout
        rerun = recovery.recover(system.image, layout, system.config.log,
                                 clear_adr=False)
        assert rerun.records_undone > 0 and rerun.lines_changed > 0
        adr_lines = set()
        for controller in range(layout.num_controllers):
            base = layout.adr_base(controller)
            adr_lines.update(
                line for line in range(base, base + layout.adr_block_bytes,
                                       LINE)
                if any(system.image.durable_line(line)))
        full = checked_pass(system.image, system.recover)
        # The re-run re-undoes the same records (net unchanged) and
        # clears the ADR blocks the first pass left (changed).
        assert full.records_undone == rerun.records_undone
        assert full.lines_changed == len(adr_lines) > 0
        assert checked_pass(system.image, system.recover).lines_changed == 0


@pytest.fixture
def passes(monkeypatch):
    """Record every ``System.recover`` pass as (digest unchanged,
    ``lines_changed``, ``interrupted``), read when the pass returns: a
    storm merges its later passes into its first pass's report."""
    recorded = []
    original = System.recover

    def recover(self, cut=None, **kw):
        image = self.image if cut is None else cut.image
        before = image.durable_digest()
        report = original(self, cut, **kw)
        recorded.append((image.durable_digest() == before,
                         report.lines_changed, report.interrupted))
        return report

    monkeypatch.setattr(System, "recover", recover)
    return recorded


def test_fault_matrix_verdicts_equal_the_digest_compare(passes):
    specs = fault_grid(workloads=("hash",), crash_cycles=(6_000, 18_000),
                       checksums=True, storm=3)
    judged = 0
    for spec in specs:
        passes.clear()
        outcome = execute_fault_point(spec)
        for unchanged, lines_changed, _ in passes:
            assert (lines_changed == 0) == unchanged
        if not outcome.recovery_cost:
            continue  # model inapplicable to the design
        # Storm passes, the fixpoint probe, then the idempotence pass.
        *_, (probe_unchanged, _, probe_cut), (second_unchanged, _, _) = \
            passes
        assert outcome.idempotent == second_unchanged
        assert outcome.storm_fixpoint == (probe_unchanged
                                          and not probe_cut)
        judged += 1
    assert judged > 40


@pytest.mark.parametrize("storm", [None, 3])
def test_litmus_verdicts_equal_the_digest_compare(passes, storm):
    judged = 0
    for test in CATALOG:
        encoded = test.to_dict()
        for design in LITMUS_DESIGNS:
            probe = execute_litmus_point(LitmusPoint(
                test=encoded, design=design, crash_cycle=None))
            assert not probe.error
            for cycle in crash_cycles_for(probe.finish, 3):
                passes.clear()
                outcome = execute_litmus_point(LitmusPoint(
                    test=encoded, design=design, crash_cycle=cycle,
                    storm=storm))
                for unchanged, lines_changed, _ in passes:
                    assert (lines_changed == 0) == unchanged
                if passes:
                    expected = passes[-1][0]
                    if storm is not None:
                        probe_unchanged, _, probe_cut = passes[-2]
                        expected = expected and probe_unchanged and \
                            not probe_cut
                # else: the point's cut equals the previous point's, so
                # it ran no recovery and reuses that point's outcome;
                # it is judged against that point's passes.
                assert outcome.idempotent == expected
                judged += 1
    assert judged >= 3 * len(CATALOG) * len(LITMUS_DESIGNS) // 2
