"""ADR serialization and the recovery routine's record-acceptance rules."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import build_system
from repro.atom import adr, recovery
from repro.atom.aus import AusState
from repro.atom.record import FLAG_VALID, RecordHeader
from repro.common.errors import MemoryError_
from repro.common.units import CACHE_LINE_BYTES
from repro.mem.layout import RecordAddress


class TestAdrCodec:
    def test_roundtrip(self):
        states = [AusState(i, 64) for i in range(4)]
        states[1].bucket_vec.set(3)
        states[1].current_bucket = 3
        states[1].current_record = 2
        states[1].update_start_seq = 99
        blob = adr.serialize(states, 64)
        images = adr.deserialize(blob)
        assert len(images) == 4
        assert images[1].bucket_vec.test(3)
        assert images[1].current_bucket == 3
        assert images[1].current_record == 2
        assert images[1].update_start_seq == 99
        assert images[0].current_bucket is None
        assert images[0].update_start_seq is None

    def test_empty_blob_means_no_flush(self):
        assert adr.deserialize(b"") == []

    def test_wrong_magic_rejected(self):
        assert adr.deserialize(b"\x00" * 64) == []

    @given(st.lists(
        st.tuples(st.integers(0, 2**16 - 1),
                  st.integers(0, 63),
                  st.integers(0, 2**16 - 1)),
        min_size=1, max_size=8,
    ))
    def test_roundtrip_property(self, regs):
        states = []
        for slot, (vec_seed, bucket, record) in enumerate(regs):
            state = AusState(slot, 64)
            state.bucket_vec._bits = vec_seed
            state.current_bucket = bucket
            state.current_record = record
            state.update_start_seq = slot * 3
            states.append(state)
        images = adr.deserialize(adr.serialize(states, 64))
        for state, image in zip(states, images):
            assert image.bucket_vec == state.bucket_vec
            assert image.current_bucket == state.current_bucket
            assert image.current_record == state.current_record
            assert image.update_start_seq == state.update_start_seq


def write_record(system, rec: RecordAddress, owner: int, seq: int,
                 addresses: list[int], payloads: list[bytes]) -> None:
    """Place a fully persisted record directly into the durable image."""
    layout = system.layout
    for slot, payload in enumerate(payloads):
        system.image.persist(layout.record_entry_addr(rec, slot), payload)
    header = RecordHeader(addresses=addresses, count=len(addresses),
                          flags=FLAG_VALID, owner=owner, seq=seq)
    system.image.persist(layout.record_header_addr(rec), header.encode())


def flush_adr(system, mc_id=0) -> None:
    adr.flush_on_power_failure(
        system.controllers[mc_id].logm, system.image, system.layout
    )


class TestRecoveryAcceptance:
    def test_accepts_a_simple_incomplete_update(self, system):
        logm = system.controllers[0].logm
        logm.begin(0, 0)
        state = logm.aus[0]
        state.bucket_vec.set(0)
        state.current_bucket = 0
        state.current_record = 1
        state.update_start_seq = 10
        old = b"\x11" * CACHE_LINE_BYTES
        system.image.persist(0x1000, b"\x99" * CACHE_LINE_BYTES)
        write_record(system, RecordAddress(0, 0, 0), owner=0, seq=10,
                     addresses=[0x1000], payloads=[old])
        flush_adr(system)
        report = recovery.recover(system.image, system.layout,
                                  system.config.log)
        assert report.updates_rolled_back == 1
        assert report.entries_undone == 1
        assert system.image.durable_read(0x1000, 64) == old

    def test_rejects_stale_header_below_start_seq(self, system):
        """The bug class found during bring-up: a committed update's
        header survives bucket reallocation; start-seq must reject it."""
        logm = system.controllers[0].logm
        logm.begin(0, 0)
        state = logm.aus[0]
        state.bucket_vec.set(0)
        state.current_bucket = 0
        state.current_record = 1
        state.update_start_seq = 50  # current update began at seq 50
        committed_value = b"\xCC" * CACHE_LINE_BYTES
        system.image.persist(0x1000, committed_value)
        # Stale record from the *committed* epoch (seq 7 < 50).
        write_record(system, RecordAddress(0, 0, 0), owner=0, seq=7,
                     addresses=[0x1000],
                     payloads=[b"\x00" * CACHE_LINE_BYTES])
        flush_adr(system)
        recovery.recover(system.image, system.layout, system.config.log)
        assert system.image.durable_read(0x1000, 64) == committed_value

    def test_rejects_wrong_owner(self, system):
        logm = system.controllers[0].logm
        logm.begin(0, 0)
        state = logm.aus[0]
        state.bucket_vec.set(0)
        state.current_bucket = 0
        state.current_record = 1
        state.update_start_seq = 0
        value = b"\xDD" * CACHE_LINE_BYTES
        system.image.persist(0x1000, value)
        write_record(system, RecordAddress(0, 0, 0), owner=3, seq=5,
                     addresses=[0x1000],
                     payloads=[b"\x00" * CACHE_LINE_BYTES])
        flush_adr(system)
        recovery.recover(system.image, system.layout, system.config.log)
        assert system.image.durable_read(0x1000, 64) == value

    def test_newest_first_converges_to_oldest_value(self, system):
        """A line logged twice rolls back to its pre-update value."""
        logm = system.controllers[0].logm
        logm.begin(0, 0)
        state = logm.aus[0]
        state.bucket_vec.set(0)
        state.current_bucket = 0
        state.current_record = 2
        state.update_start_seq = 10
        pre_txn = b"\x01" * CACHE_LINE_BYTES
        mid_txn = b"\x02" * CACHE_LINE_BYTES
        write_record(system, RecordAddress(0, 0, 0), owner=0, seq=10,
                     addresses=[0x1000], payloads=[pre_txn])
        write_record(system, RecordAddress(0, 0, 1), owner=0, seq=11,
                     addresses=[0x1000], payloads=[mid_txn])
        system.image.persist(0x1000, b"\x03" * CACHE_LINE_BYTES)
        flush_adr(system)
        recovery.recover(system.image, system.layout, system.config.log)
        assert system.image.durable_read(0x1000, 64) == pre_txn

    def test_prefix_stops_at_dropped_header(self, system):
        """A header whose persist was dropped truncates the prefix, but
        earlier records still roll back."""
        logm = system.controllers[0].logm
        logm.begin(0, 0)
        state = logm.aus[0]
        state.bucket_vec.set(0)
        state.current_bucket = 0
        state.current_record = 2  # register says two records closed...
        state.update_start_seq = 10
        old = b"\x0A" * CACHE_LINE_BYTES
        write_record(system, RecordAddress(0, 0, 0), owner=0, seq=10,
                     addresses=[0x1000], payloads=[old])
        # ...but record 1's header never reached the NVM (zeros).
        flush_adr(system)
        report = recovery.recover(system.image, system.layout,
                                  system.config.log)
        assert report.records_undone == 1
        assert system.image.durable_read(0x1000, 64) == old

    def test_recovery_is_idempotent(self, system):
        logm = system.controllers[0].logm
        logm.begin(0, 0)
        state = logm.aus[0]
        state.bucket_vec.set(0)
        state.current_bucket = 0
        state.current_record = 1
        state.update_start_seq = 0
        write_record(system, RecordAddress(0, 0, 0), owner=0, seq=0,
                     addresses=[0x1000],
                     payloads=[b"\x0B" * CACHE_LINE_BYTES])
        flush_adr(system)
        first = recovery.recover(system.image, system.layout,
                                 system.config.log)
        second = recovery.recover(system.image, system.layout,
                                  system.config.log)
        assert first.updates_rolled_back == 1
        assert second.updates_rolled_back == 0

    def test_no_adr_flush_means_nothing_to_do(self, system):
        report = recovery.recover(system.image, system.layout,
                                  system.config.log)
        assert report.updates_rolled_back == 0
        assert report.controllers_with_state == 0

    def test_walk_steps_through_a_full_bucket_into_the_current_one(
            self, system):
        """Records are found by stepping from each bucket's base: every
        record of a full bucket, then the current bucket's prefix."""
        per_bucket = system.config.log.records_per_bucket
        logm = system.controllers[0].logm
        logm.begin(0, 0)
        state = logm.aus[0]
        state.bucket_vec.set(2)
        state.bucket_vec.set(5)
        state.current_bucket = 5
        state.current_record = 2
        state.update_start_seq = 10
        records = ([RecordAddress(0, 2, i) for i in range(per_bucket)]
                   + [RecordAddress(0, 5, 0), RecordAddress(0, 5, 1)])
        for i, rec in enumerate(records):
            line = 0x1000 + i * CACHE_LINE_BYTES
            system.image.persist(line, b"\xFF" * CACHE_LINE_BYTES)
            write_record(system, rec, owner=0, seq=10 + i, addresses=[line],
                         payloads=[bytes([i + 1]) * CACHE_LINE_BYTES])
        flush_adr(system)
        report = recovery.recover(system.image, system.layout,
                                  system.config.log)
        assert report.records_undone == len(records)
        for i in range(len(records)):
            line = 0x1000 + i * CACHE_LINE_BYTES
            assert system.image.durable_read(line, CACHE_LINE_BYTES) == \
                bytes([i + 1]) * CACHE_LINE_BYTES

    def test_current_record_past_the_bucket_is_out_of_range(self, system):
        """A register naming more records than a bucket holds fails the
        walk with the layout's range error once it gets there."""
        per_bucket = system.config.log.records_per_bucket
        logm = system.controllers[0].logm
        logm.begin(0, 0)
        state = logm.aus[0]
        state.bucket_vec.set(0)
        state.current_bucket = 0
        state.current_record = per_bucket + 1
        state.update_start_seq = 0
        for i in range(per_bucket):
            write_record(system, RecordAddress(0, 0, i), owner=0, seq=i,
                         addresses=[0x1000],
                         payloads=[b"\x0C" * CACHE_LINE_BYTES])
        flush_adr(system)
        with pytest.raises(MemoryError_, match=f"record {per_bucket} out "
                                               f"of range"):
            recovery.recover(system.image, system.layout, system.config.log)
