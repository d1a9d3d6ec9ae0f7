"""MESI directory protocol flows on a real (small) system."""

import pytest

from helpers import build_system
from repro.coherence.states import MESI
from repro.config import Design


def run_until_idle(system, limit=1_000_000):
    system.engine.run(max_events=limit)


class TestProtocolFlows:
    def test_first_reader_gets_exclusive(self, system):
        done = []
        system.l1s[0].load_miss(0x40, lambda: done.append(1))
        run_until_idle(system)
        assert done == [1]
        assert system.l1s[0].probe(0x40).state is MESI.EXCLUSIVE

    def test_second_reader_shares(self, system):
        for core in (0, 1):
            system.l1s[core].load_miss(0x40, lambda: None)
            run_until_idle(system)
        entry = system.l2.probe(0x40)
        assert entry.owner is None
        assert entry.sharers == (1 << 0) | (1 << 1)
        assert system.l1s[0].probe(0x40).state is MESI.SHARED

    def test_writer_invalidates_sharers(self, system):
        for core in (0, 1):
            system.l1s[core].load_miss(0x40, lambda: None)
            run_until_idle(system)
        system.l1s[2].ensure_writable(0x40, False, lambda info: None)
        run_until_idle(system)
        assert system.l1s[0].probe(0x40) is None
        assert system.l1s[1].probe(0x40) is None
        assert system.l1s[2].probe(0x40).state is MESI.MODIFIED
        assert system.l2.probe(0x40).owner == 2

    def test_writer_invalidates_sharers_in_ascending_core_order(self, system):
        for core in (3, 1, 2):
            system.l1s[core].load_miss(0x40, lambda: None)
            run_until_idle(system)
        invalidated = []
        for l1 in system.l1s:
            def recording(line, _l1=l1, _inner=l1.remote_invalidate):
                invalidated.append(_l1.core_id)
                return _inner(line)
            l1.remote_invalidate = recording
        system.l1s[0].ensure_writable(0x40, False, lambda info: None)
        run_until_idle(system)
        assert invalidated == [1, 2, 3]
        assert not system.l2.probe(0x40).sharers

    def test_ownership_transfer_between_writers(self, system):
        system.l1s[0].ensure_writable(0x40, False, lambda info: None)
        run_until_idle(system)
        system.l1s[1].ensure_writable(0x40, False, lambda info: None)
        run_until_idle(system)
        assert system.l1s[0].probe(0x40) is None
        assert system.l2.probe(0x40).owner == 1

    def test_reader_downgrades_writer(self, system):
        system.image.write(0x40, b"\x07")
        system.l1s[0].ensure_writable(0x40, False, lambda info: None)
        run_until_idle(system)
        system.l1s[1].load_miss(0x40, lambda: None)
        run_until_idle(system)
        assert system.l1s[0].probe(0x40).state is MESI.SHARED
        entry = system.l2.probe(0x40)
        assert entry.owner is None and entry.dirty

    def test_concurrent_misses_to_same_line_serialize(self, system):
        done = []
        for core in range(4):
            system.l1s[core].load_miss(0x40, lambda c=core: done.append(c))
        run_until_idle(system)
        assert sorted(done) == [0, 1, 2, 3]
        # Exactly one fetch went to memory.
        assert system.stats.domain("l2").get("misses") == 1

    def test_waiter_queue_exists_only_for_queued_requests(self, system):
        system.l1s[0].load_miss(0x40, lambda: None)
        run_until_idle(system)
        assert system.l2.probe(0x40).waiters is None
        # Queued behind a memory fetch, then behind a busy resident line.
        done = []
        for core in (2, 0, 3, 1):
            system.l1s[core].load_miss(0x80, lambda c=core: done.append(c))
        run_until_idle(system)
        for core in (1, 3, 2):
            system.l1s[core].ensure_writable(
                0x40, False, lambda info, c=core: done.append(c))
        run_until_idle(system)
        assert done == [2, 0, 3, 1, 1, 3, 2]
        assert system.l2.probe(0x40).owner == 2

    def test_concurrent_getx_single_final_owner(self, system):
        for core in range(4):
            system.l1s[core].ensure_writable(0x40, False, lambda info: None)
        run_until_idle(system)
        holders = [c for c in range(4)
                   if system.l1s[c].probe(0x40) is not None
                   and system.l1s[c].probe(0x40).state is MESI.MODIFIED]
        assert len(holders) == 1
        assert system.l2.probe(0x40).owner == holders[0]


class TestFlush:
    def test_flush_persists_dirty_line(self, system):
        system.image.write(0x40, b"\x99")
        system.l1s[0].ensure_writable(0x40, False, lambda info: None)
        run_until_idle(system)
        done = []
        system.l2.flush(0, 0x40, lambda: done.append(system.engine.now))
        run_until_idle(system)
        assert done
        assert system.image.durable_read(0x40, 1) == b"\x99"
        # The owner was downgraded, copies retained.
        assert system.l1s[0].probe(0x40).state is MESI.SHARED

    def test_flush_clean_line_is_fast_ack(self, system):
        system.l1s[0].load_miss(0x40, lambda: None)
        run_until_idle(system)
        done = []
        start = system.engine.now
        system.l2.flush(0, 0x40, lambda: done.append(system.engine.now))
        run_until_idle(system)
        assert done and done[0] - start < 200

    def test_flush_absent_line_acks(self, system):
        done = []
        system.l2.flush(0, 0x9940, lambda: done.append(1))
        run_until_idle(system)
        assert done == [1]

    def test_flush_clears_log_bits(self, system):
        system.image.write(0x40, b"\x01")
        system.l1s[0].ensure_writable(0x40, False, lambda info: None)
        run_until_idle(system)
        system.l1s[0].set_log_bit(0x40)
        system.l2.flush(0, 0x40, lambda: None)
        run_until_idle(system)
        assert not system.l1s[0].log_bit(0x40)


class TestInclusion:
    def test_l2_eviction_recalls_l1_copies(self):
        # Single-way tiny L2 so one new line evicts the old one.
        system = build_system(design=Design.NON_ATOMIC)
        system.config.hierarchy.l2_tile.ways = 16  # document default
        l2 = system.l2
        # Fill one L2 set beyond capacity using same-bank aliasing lines.
        bank_stride = 64 * system.topology.num_tiles
        set_stride = bank_stride * l2.cfg.num_sets
        victim_line = 0x40
        system.l1s[0].load_miss(victim_line, lambda: None)
        run_until_idle(system)
        for i in range(1, l2.cfg.ways + 1):
            line = victim_line + i * set_stride
            if line >= system.config.data_bytes:
                pytest.skip("data space too small for aliasing sweep")
            system.l1s[1].load_miss(line, lambda: None)
            run_until_idle(system)
        assert l2.probe(victim_line) is None
        assert system.l1s[0].probe(victim_line) is None

    def test_full_set_of_busy_ways_still_accepts_the_insert(self):
        system = build_system(design=Design.NON_ATOMIC)
        l2 = system.l2
        set_stride = 64 * system.topology.num_tiles * l2.cfg.num_sets
        lines = [0x40 + i * set_stride for i in range(l2.cfg.ways + 2)]
        if lines[-1] >= system.config.data_bytes:
            pytest.skip("data space too small for aliasing sweep")
        evictions = l2.stats.get("evictions")
        # A fresh insert stays busy until its transaction releases it.
        for line in lines[:-1]:
            l2._insert(line)
        assert all(l2.probe(line) is not None for line in lines[:-1])
        assert l2.stats.get("evictions") == evictions
        # Once one way is idle, the next insert evicts it.
        l2._release(lines[1])
        l2._insert(lines[-1])
        assert l2.probe(lines[1]) is None
        assert l2.stats.get("evictions") == evictions + 1
        assert sorted(l2.resident_lines()) == sorted(
            lines[:1] + lines[2:])
