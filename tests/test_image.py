"""Two-image memory model: volatile versus durable semantics."""

import os
import signal
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import MemoryError_
from repro.mem import image as image_mod
from repro.mem.image import MemoryImage


class TestBasics:
    def test_starts_zeroed(self):
        image = MemoryImage(4096)
        assert image.read(0, 16) == bytes(16)
        assert image.durable_read(0, 16) == bytes(16)

    def test_write_is_volatile_only(self):
        image = MemoryImage(4096)
        image.write(100, b"hello")
        assert image.read(100, 5) == b"hello"
        assert image.durable_read(100, 5) == bytes(5)

    def test_persist_updates_durable(self):
        image = MemoryImage(4096)
        image.persist(64, b"x" * 64)
        assert image.durable_read(64, 64) == b"x" * 64

    def test_u64_roundtrip(self):
        image = MemoryImage(4096)
        image.write_u64(8, 0xDEADBEEF)
        assert image.read_u64(8) == 0xDEADBEEF

    def test_durable_read_u64(self):
        image = MemoryImage(4096)
        image.persist(0, (123).to_bytes(8, "little"))
        assert image.durable_read_u64(0) == 123

    def test_bounds_checked(self):
        image = MemoryImage(128)
        with pytest.raises(MemoryError_):
            image.read(120, 16)
        with pytest.raises(MemoryError_):
            image.write(-1, b"x")
        with pytest.raises(MemoryError_):
            image.persist(128, b"x")

    def test_size_must_be_line_multiple(self):
        with pytest.raises(MemoryError_):
            MemoryImage(100)


class TestLineViews:
    def test_volatile_line_snapshots_latest(self):
        image = MemoryImage(4096)
        image.write(70, b"\xAA")
        line = image.volatile_line(70)
        assert len(line) == 64
        assert line[6] == 0xAA

    def test_durable_line_is_nvm_contents(self):
        image = MemoryImage(4096)
        image.write(70, b"\xAA")
        assert image.durable_line(70) == bytes(64)


class TestCrashSemantics:
    def test_crash_discards_unpersisted_writes(self):
        image = MemoryImage(4096)
        image.write(0, b"volatile!")
        image.persist(64, b"durable!")
        image.crash()
        assert image.read(0, 9) == bytes(9)
        assert image.read(64, 8) == b"durable!"

    def test_sync_all_flushes_everything(self):
        image = MemoryImage(4096)
        image.write(0, b"setup")
        image.sync_all()
        assert image.durable_read(0, 5) == b"setup"

    def test_persist_equals_volatile(self):
        image = MemoryImage(4096)
        image.write(0, b"ab")
        assert not image.persist_equals_volatile(0, 2)
        image.persist(0, b"ab")
        assert image.persist_equals_volatile(0, 2)

    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=4000),
                  st.binary(min_size=1, max_size=64),
                  st.booleans()),
        max_size=30,
    ))
    def test_crash_preserves_exactly_the_persisted_state(self, ops):
        """After a crash, every byte equals its last *persisted* value."""
        image = MemoryImage(8192)
        shadow_durable = bytearray(8192)
        for addr, data, persisted in ops:
            if addr + len(data) > 8192:
                continue
            image.write(addr, data)
            if persisted:
                image.persist(addr, data)
                shadow_durable[addr:addr + len(data)] = data
        image.crash()
        assert image.read(0, 8192) == bytes(shadow_durable)
        assert image.durable_read(0, 8192) == bytes(shadow_durable)

    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=4000),
                  st.binary(min_size=1, max_size=64),
                  st.booleans()),
        max_size=30,
    ))
    def test_durable_copy_is_the_crashed_image(self, ops):
        """A durable copy holds what crash() leaves; the source lives on."""
        image = MemoryImage(8192, line_checksums=True)
        for addr, data, persisted in ops:
            if addr + len(data) > 8192:
                continue
            image.write(addr, data)
            if persisted:
                image.persist(addr, data)
        planes = (image.read(0, 8192), image.durable_read(0, 8192))
        copy = image.durable_copy()
        assert (image.read(0, 8192), image.durable_read(0, 8192)) == planes
        image.crash()
        assert copy.read(0, 8192) == image.read(0, 8192)
        assert copy.durable_read(0, 8192) == image.durable_read(0, 8192)
        assert copy.durable_digest() == image.durable_digest()
        assert copy._line_crc == image._line_crc


class TestBufferPool:
    #: A size no other test uses, so this pool slot is the test's own.
    SIZE = 64 * 1031

    def test_pooled_planes_stay_private_across_fork(self):
        """A forked worker writing through pooled buffers leaves the
        parent's pooled copies zero: the planes are private mappings."""
        pool = image_mod._BUFFER_POOL
        image = MemoryImage(self.SIZE)
        image.write(0, b"v" * 64)
        image.persist(128, b"d" * 64)
        image.recycle()
        try:
            assert len(pool[self.SIZE]) == 1
            volatile, durable = pool[self.SIZE][0]
            pid = os.fork()
            if pid == 0:
                try:
                    child = MemoryImage(self.SIZE)
                    drew_pool = child._volatile is volatile
                    child.write(0, b"\xff" * 64)
                    child.persist(128, b"\xee" * 64)
                finally:
                    os._exit(0 if drew_pool else 1)
            deadline = time.monotonic() + 30
            while not (done := os.waitpid(pid, os.WNOHANG))[0]:
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    pytest.fail("forked child did not exit")
                time.sleep(0.01)
            assert os.waitstatus_to_exitcode(done[1]) == 0
            zero = bytes(self.SIZE)
            assert volatile[:] == zero
            assert durable[:] == zero
        finally:
            pool.pop(self.SIZE, None)


class TestDurableDigestExtract:
    """Recovered-state snapshot helpers (litmus explorer, recovery tests)."""

    def test_extract_concatenates_ranges(self):
        image = MemoryImage(4096)
        image.persist(0, b"aa")
        image.persist(128, b"bb")
        assert image.durable_extract([(0, 2), (128, 2)]) == b"aabb"

    def test_digest_tracks_durable_not_volatile(self):
        image = MemoryImage(4096)
        before = image.durable_digest([(0, 64)])
        image.write(0, b"x")  # volatile only
        assert image.durable_digest([(0, 64)]) == before
        image.persist(0, b"x")
        assert image.durable_digest([(0, 64)]) != before

    def test_whole_image_digest_detects_any_change(self):
        image = MemoryImage(4096)
        before = image.durable_digest()
        image.persist(4032, b"z")
        assert image.durable_digest() != before

    def test_digest_hashes_range_boundaries(self):
        # Same bytes, different layout: digests must differ.
        image = MemoryImage(4096)
        assert (image.durable_digest([(0, 128)])
                != image.durable_digest([(0, 64), (64, 64)]))

    def test_out_of_bounds_range_rejected(self):
        image = MemoryImage(4096)
        with pytest.raises(MemoryError_):
            image.durable_digest([(4090, 64)])
        with pytest.raises(MemoryError_):
            image.durable_extract([(-1, 8)])
