"""Double-crash recovery idempotence (paper section IV-D, step 4).

Recovery's final step clears the ADR block so that a *second* recovery
is a no-op.  These tests cover the claim directly, for both crash
timings:

* **after** recovery — run recovery twice; the second pass must roll
  back nothing and leave the durable image byte-identical;
* **during** recovery — model a crash after the undo writes landed but
  before the ADR clear persisted (``recover(clear_adr=False)``), then
  run full recovery again: the re-run re-undoes the same records, which
  must converge to the same image (undo writes are idempotent).

The REDO comparator's replay is covered too: replaying the committed
log a second time must change nothing.
"""

import pytest

from helpers import crash_run
from repro.atom import recovery
from repro.config import Design

UNDO = [Design.BASE, Design.ATOM, Design.ATOM_OPT]

#: A crash cycle that reliably interrupts transactions mid-flight.
MID_RUN = 12_000


def data_bytes(system) -> bytes:
    """Durable contents of the data space (log regions excluded: the
    ADR clear itself rewrites log-region bytes by design).  Bytes, not
    a digest, so a failed comparison shows what diverged."""
    return system.image.durable_extract([(0, system.layout.data_bytes)])


class TestSecondRecoveryAfterRecovery:
    @pytest.mark.parametrize("design", UNDO)
    def test_second_recovery_is_noop(self, design):
        system, workload, report = crash_run("hash", design, MID_RUN)
        image_after_first = system.image.durable_digest()
        second = system.recover()
        # Step 4 cleared the ADR block: nothing to undo any more.
        assert second.updates_rolled_back == 0
        assert second.records_undone == 0
        assert system.image.durable_digest() == image_after_first
        workload.verify_durable()

    def test_adr_block_cleared_after_recovery(self):
        system, _, _ = crash_run("hash", Design.ATOM_OPT, MID_RUN)
        for controller in range(system.layout.num_controllers):
            base = system.layout.adr_base(controller)
            blob = system.image.durable_read(
                base, system.layout.adr_block_bytes
            )
            assert blob == bytes(system.layout.adr_block_bytes)

    def test_redo_second_replay_changes_nothing(self):
        system, workload, _ = crash_run("hash", Design.REDO, MID_RUN)
        digest = system.image.durable_digest()
        # The committed prefix is fully applied: nothing to replay.
        assert system.redo.recover().updates_rolled_back == 0
        assert system.image.durable_digest() == digest
        workload.verify_durable()


class TestCrashDuringRecovery:
    @pytest.mark.parametrize("design", UNDO)
    def test_rerun_after_interrupted_recovery_converges(self, design):
        """Crash between recovery's undo writes and the ADR clear."""
        from helpers import build_system
        from repro.workloads import make_workload

        system = build_system(design=design, num_cores=4)
        workload = make_workload("hash", system, entry_bytes=512,
                                 txns_per_thread=8, initial_items=12,
                                 threads=4, seed=7)
        workload.setup()
        system.start_threads(workload.threads())
        system.crash_at(MID_RUN)
        system.run(max_cycles=30_000_000)
        assert system.crashed

        # First recovery pass interrupted before step 4: undo writes
        # land, the ADR block survives.
        first = recovery.recover(system.image, system.layout,
                                 system.config.log, clear_adr=False)
        data_after_first = data_bytes(system)
        # Rebooting re-runs recovery from the intact ADR block: it
        # re-undoes the same records, converging to the same data image,
        # and this time clears the ADR block.
        second = recovery.recover(system.image, system.layout,
                                  system.config.log)
        assert second.records_undone == first.records_undone
        assert data_bytes(system) == data_after_first
        # Third pass: a genuine no-op.
        third = recovery.recover(system.image, system.layout,
                                 system.config.log)
        assert third.records_undone == 0
        system.image.crash()  # reboot: volatile resyncs to durable
        workload.verify_durable()
