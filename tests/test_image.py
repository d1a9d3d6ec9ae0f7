"""Two-image memory model: volatile versus durable semantics."""

import os
import signal
import time

import pytest
from helpers import reference_digest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import MemoryError_
from repro.common.units import CACHE_LINE_BYTES
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


#: A size no other test uses, so the recycle steps own this pool slot.
_SCRUB_SIZE = 64 * 37
_LINE = CACHE_LINE_BYTES
_addr = st.integers(min_value=0, max_value=_SCRUB_SIZE - 1)
_checksum_ops = st.lists(st.one_of(
    st.tuples(st.just("write"), _addr, st.binary(min_size=1, max_size=192)),
    st.tuples(st.just("persist-line"), _addr,
              st.binary(min_size=1, max_size=_LINE)),
    st.tuples(st.just("persist-lines"), _addr,
              st.binary(min_size=_LINE + 1, max_size=3 * _LINE)),
    st.tuples(st.just("damage"), _addr, st.binary(min_size=1, max_size=96)),
    st.tuples(st.just("damage-same"), _addr,
              st.integers(min_value=1, max_value=96)),
    st.tuples(st.just("torn"), _addr, st.binary(min_size=1, max_size=_LINE),
              st.integers(min_value=0, max_value=_LINE)),
    st.tuples(st.just("sync_all")),
    st.tuples(st.just("durable_copy")),
    st.tuples(st.just("recycle")),
), max_size=40)


class TestIncrementalScrubAndDigest:
    """The suspect-line scrub and the memoized digest against full walks.

    After every step of a random sequence of durable-plane mutations on
    a checksummed image, :meth:`MemoryImage.scrub` must equal verifying
    every touched line, and :meth:`MemoryImage.durable_digest` must
    equal the digest recomputed from the whole durable plane.
    """

    @staticmethod
    def _apply(image: MemoryImage, op) -> MemoryImage:
        kind, *args = op
        if kind == "sync_all":
            image.sync_all()
        elif kind == "durable_copy":
            copy = image.durable_copy()
            TestIncrementalScrubAndDigest._check(image)  # the source lives on
            return copy
        elif kind == "recycle":
            image.recycle()
            return MemoryImage(_SCRUB_SIZE, line_checksums=True)
        else:
            addr, payload = args[0], args[1]
            room = _SCRUB_SIZE - addr
            if kind == "write":
                image.write(addr, payload[:room])
            elif kind == "persist-line":
                image.persist(addr, payload[:_LINE - addr % _LINE])
            elif kind == "persist-lines":
                image.persist(addr, payload[:room])
            elif kind == "damage":
                image.damage(addr, payload[:room])
            elif kind == "damage-same":
                same = image.durable_read(addr, min(payload, room))
                assert not image.damage(addr, same)
            else:
                image.persist_torn(addr, payload[:room], args[2])
        return image

    @staticmethod
    def _check(image: MemoryImage) -> None:
        full_walk = [base for base in image.touched_durable_lines()
                     if not image.verify_line(base)]
        assert image.scrub() == full_walk
        assert image.durable_digest() == reference_digest(image)

    @given(_checksum_ops)
    def test_every_step_matches_the_full_walk(self, ops):
        image = MemoryImage(_SCRUB_SIZE, line_checksums=True)
        try:
            self._check(image)
            for op in ops:
                image = self._apply(image, op)
                self._check(image)
        finally:
            image_mod._BUFFER_POOL.pop(_SCRUB_SIZE, None)

    def test_damage_is_found_and_a_persist_clears_it(self):
        image = MemoryImage(_SCRUB_SIZE, line_checksums=True)
        image.persist(0, b"a" * 3 * _LINE)
        image.damage(_LINE + 5, b"\xff")
        # An untouched line a damage path wrote has no checksum at all,
        # even when the damage wrote the zeros it already held.
        image.damage(10 * _LINE, bytes(8))
        assert image.scrub() == [_LINE, 10 * _LINE]
        image.persist(_LINE, b"b")
        assert image.scrub() == [10 * _LINE]
        image.sync_all()
        assert image.scrub() == []

    def test_digest_memo_is_dropped_by_every_durable_write(self):
        image = MemoryImage(_SCRUB_SIZE, line_checksums=True)
        digests = [image.durable_digest()]
        for mutate in (lambda: image.persist(0, b"x"),
                       lambda: image.damage(64, b"y"),
                       lambda: image.persist_torn(128, b"zz", 1),
                       lambda: (image.write(192, b"w"), image.sync_all())):
            mutate()
            digests.append(image.durable_digest())
            assert digests[-1] == reference_digest(image)
        assert len(set(digests)) == len(digests)
        image.write(256, b"volatile only")
        image.crash()
        assert image.durable_digest() == digests[-1]
