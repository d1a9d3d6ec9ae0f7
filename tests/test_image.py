"""Two-image memory model: volatile versus durable semantics."""

import os
import signal
import time
import tracemalloc

import pytest
from helpers import line_runs, reference_digest
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


_LINE = CACHE_LINE_BYTES
_PAGE = 4096
#: Sizes no other test uses, so the recycle steps own these pool slots.
#: Both end in a partial page; the larger has two page boundaries.
_SCRUB_SIZES = (_LINE * 37, 2 * _PAGE + 20 * _LINE)
_SCRUB_SIZE = _SCRUB_SIZES[0]


@st.composite
def _checksum_ops(draw):
    """An image size and a random sequence of plane operations on it.

    Addresses cluster around page boundaries half the time, so runs of
    adjacent touched lines often cross them.
    """
    size = draw(st.sampled_from(_SCRUB_SIZES))
    anywhere = st.integers(min_value=0, max_value=size - 1)
    near_page = st.builds(
        lambda page, offset: min(max(page * _PAGE + offset, 0), size - 1),
        st.integers(min_value=1, max_value=size // _PAGE + 1),
        st.integers(min_value=-3 * _LINE, max_value=2 * _LINE),
    )
    addr = st.one_of(anywhere, near_page)
    ops = draw(st.lists(st.one_of(
        st.tuples(st.just("write"), addr, st.binary(min_size=1, max_size=192)),
        st.tuples(st.just("persist-line"), addr,
                  st.binary(min_size=1, max_size=_LINE)),
        st.tuples(st.just("persist-lines"), addr,
                  st.binary(min_size=_LINE + 1, max_size=12 * _LINE)),
        st.tuples(st.just("damage"), addr, st.binary(min_size=1, max_size=96)),
        st.tuples(st.just("damage-same"), addr,
                  st.integers(min_value=1, max_value=96)),
        st.tuples(st.just("torn"), addr,
                  st.binary(min_size=1, max_size=_LINE),
                  st.integers(min_value=0, max_value=_LINE)),
        st.tuples(st.just("crash")),
        st.tuples(st.just("durable_copy")),
        st.tuples(st.just("recycle")),
    ), max_size=40))
    return size, ops


def _lines_of(addr: int, size: int) -> range:
    """Base addresses of the lines ``[addr, addr + size)`` writes."""
    return range(addr & -_LINE, addr + size, _LINE)


class _Shadow:
    """An image under test with a ``bytearray`` copy of each plane and
    a reference set of the durable lines ever written."""

    def __init__(self, image: MemoryImage, touched=()):
        self.image = image
        self.volatile = bytearray(image.size_bytes)
        self.durable = bytearray(image.size_bytes)
        self.touched = set(touched)


class TestIncrementalScrubAndDigest:
    """Plane operations, the scrub, the digest and the touched lines.

    After every step of a random sequence of plane operations on a
    checksummed image, both planes must equal a ``bytearray`` shadow
    over the whole image, an image drawn from the pool after
    :meth:`MemoryImage.recycle` must be all-zero,
    :meth:`MemoryImage.touched_durable_lines` must equal a sort of the
    shadow's own touched-line set, :meth:`MemoryImage.scrub` must equal
    verifying every touched line, and :meth:`MemoryImage.durable_digest`
    must equal the digest recomputed from the whole durable plane.
    """

    @staticmethod
    def _apply(shadow: _Shadow, op) -> _Shadow:
        image = shadow.image
        size = image.size_bytes
        kind, *args = op
        if kind == "crash":
            image.crash()
            shadow.volatile[:] = shadow.durable
        elif kind == "durable_copy":
            copy = _Shadow(image.durable_copy(), shadow.touched)
            TestIncrementalScrubAndDigest._check(shadow)  # the source lives on
            copy.volatile[:] = copy.durable[:] = shadow.durable
            return copy
        elif kind == "recycle":
            durable = image._durable
            image.recycle()
            pool = image_mod._BUFFER_POOL.get(size)
            pooled = bool(pool) and pool[-1][1] is durable
            fresh = MemoryImage(size, line_checksums=True)
            # A heavily written image is dropped, not pooled.
            assert (fresh._durable is durable) == pooled
            return _Shadow(fresh)
        else:
            addr, payload = args[0], args[1]
            room = size - addr
            if kind == "write":
                data = payload[:room]
                image.write(addr, data)
                shadow.volatile[addr:addr + len(data)] = data
                return shadow
            if kind == "persist-line":
                data = payload[:_LINE - addr % _LINE]
                image.persist(addr, data)
            elif kind == "persist-lines":
                data = payload[:room]
                image.persist(addr, data)
            elif kind == "damage":
                data = payload[:room]
                image.damage(addr, data)
            elif kind == "damage-same":
                data = image.durable_read(addr, min(payload, room))
                assert not image.damage(addr, data)
            else:
                data = payload[:room][:args[2]]
                image.persist_torn(addr, payload[:room], args[2])
            shadow.durable[addr:addr + len(data)] = data
            if data:  # a tear with an empty prefix writes nothing
                shadow.touched.update(_lines_of(addr, len(data)))
        return shadow

    @staticmethod
    def _check(shadow: _Shadow) -> None:
        image = shadow.image
        size = image.size_bytes
        assert image.read(0, size) == shadow.volatile
        assert image.durable_read(0, size) == shadow.durable
        assert image.touched_durable_lines() == tuple(sorted(shadow.touched))
        full_walk = [base for base in image.touched_durable_lines()
                     if not image.verify_line(base)]
        assert image.scrub() == full_walk
        assert image.durable_digest() == reference_digest(image)

    @given(_checksum_ops())
    def test_every_step_matches_the_full_walk(self, scenario):
        size, ops = scenario
        shadow = _Shadow(MemoryImage(size, line_checksums=True))
        try:
            self._check(shadow)
            for op in ops:
                shadow = self._apply(shadow, op)
                self._check(shadow)
        finally:
            image_mod._BUFFER_POOL.pop(size, None)

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
        image.persist(10 * _LINE, bytes(8))
        assert image.scrub() == []

    def test_view_follows_damage_to_an_untouched_line(self):
        image = MemoryImage(_SCRUB_SIZE, line_checksums=True)
        image.persist(0, b"a" * 2 * _LINE)
        image.persist(_LINE, b"b")  # the set does not grow
        assert image.touched_durable_lines() == (0, _LINE)
        image.damage(20 * _LINE, b"\x01")
        assert image.touched_durable_lines() == (0, _LINE, 20 * _LINE)
        copy = image.durable_copy()
        assert copy.durable_read(20 * _LINE, 1) == b"\x01"
        copy.damage(30 * _LINE, b"\x02")
        assert copy.touched_durable_lines()[-1] == 30 * _LINE
        assert image.touched_durable_lines() == (0, _LINE, 20 * _LINE)

    def test_digest_follows_every_durable_write(self):
        image = MemoryImage(_SCRUB_SIZE, line_checksums=True)
        digests = [image.durable_digest()]
        for mutate in (lambda: image.persist(0, b"x"),
                       lambda: image.damage(64, b"y"),
                       lambda: image.persist_torn(128, b"zz", 1),
                       lambda: (image.write(192, b"w"),
                                image.persist(192, b"w"))):
            mutate()
            digests.append(image.durable_digest())
            assert digests[-1] == reference_digest(image)
        assert len(set(digests)) == len(digests)
        image.write(256, b"volatile only")
        image.crash()
        assert image.durable_digest() == digests[-1]


def _page_spans_of_runs(runs) -> list[tuple[int, int]]:
    """Line runs with every gap inside one page filled: each touched
    page spans from its first to its last touched line."""
    merged = []
    for start, end in runs:
        if merged and (merged[-1][1] - _LINE) // _PAGE == start // _PAGE:
            merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def _pages_of_runs(runs, size) -> list[tuple[int, int]]:
    """Line runs widened to whole pages (the last clipped to ``size``),
    with runs that then meet or overlap merged."""
    merged = []
    for start, end in runs:
        start = start & -_PAGE
        end = min(-(-end // _PAGE) * _PAGE, size)
        if merged and merged[-1][1] >= start:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


@st.composite
def _line_ranges(draw):
    """An image size and byte ranges to persist or damage in it.

    Ranges cover single lines (bit 63 of a page's mask included), full
    pages, runs that cross page boundaries, and multi-page spans.
    """
    size = draw(st.sampled_from(_SCRUB_SIZES))
    lines = size // _LINE
    pages = -(-lines // 64)
    page = st.integers(min_value=0, max_value=pages - 1)
    shapes = st.one_of(
        st.tuples(st.integers(min_value=0, max_value=lines - 1), st.just(1)),
        st.builds(lambda p: (p * 64 + 63, 1), page),
        st.builds(lambda p: (p * 64, 64), page),
        st.builds(lambda p, back, on: (p * 64 - back, back + on),
                  st.integers(min_value=1, max_value=pages),
                  st.integers(min_value=1, max_value=8),
                  st.integers(min_value=1, max_value=8)),
        st.tuples(st.integers(min_value=0, max_value=lines - 1),
                  st.integers(min_value=65, max_value=160)),
    )
    ranges = []
    for first, count in draw(st.lists(shapes, min_size=1, max_size=12)):
        first = min(first, lines - 1)
        last = min(first + count, lines) - 1
        head = draw(st.integers(min_value=0, max_value=_LINE - 1))
        tail = draw(st.integers(min_value=1, max_value=_LINE))
        if first == last:
            tail = max(tail, head + 1)
        kind = draw(st.sampled_from(("persist", "damage")))
        ranges.append((kind, first * _LINE + head, last * _LINE + tail))
    return size, ranges


class TestPageWalk:
    """The page walks and the touched-line tuple against the line-wise
    reference walk (``helpers.line_runs``)."""

    @given(_line_ranges())
    def test_page_runs_and_view_equal_the_line_reference(self, scenario):
        size, ranges = scenario
        image = MemoryImage(size, line_checksums=True)
        touched = set()
        for kind, start, end in ranges:
            data = bytes([len(touched) % 255 + 1]) * (end - start)
            getattr(image, kind)(start, data)
            touched.update(_lines_of(start, end - start))
        lines = sorted(touched)
        runs = line_runs(lines)
        assert image.touched_durable_lines() == tuple(
            base for start, end in runs
            for base in range(start, end, _LINE))
        pages = {base // _PAGE for base in lines}
        assert image_mod._page_runs(pages, size) == _pages_of_runs(runs, size)
        assert (image_mod._line_runs(image._dur_lines)
                == _page_spans_of_runs(runs))


class TestBookkeepingMemory:
    """Touched-line bookkeeping stays small on a megabyte footprint."""

    #: figures' sps 4 KB point: 32 threads x 48 items x 4 KB.
    LINES = 32 * 48 * 4096 // _LINE
    #: The footprint starts mid-page, so it spans one more page.
    FIRST = _PAGE + 7 * _LINE
    #: Over four times the footprint, so :meth:`MemoryImage.recycle`
    #: zeroes and pools rather than drops; it ends in a partial page
    #: and no other test uses it.
    SIZE = 4 * (LINES // 64 + 4) * _PAGE + 20 * _LINE
    CHUNK = 1 << 20

    def _check_plane(self, read, shadow: bytearray) -> None:
        """``read`` equals ``shadow`` over the footprint's pages and is
        zero everywhere else."""
        low, high = _PAGE, _PAGE + len(shadow)
        for at in range(0, self.SIZE, self.CHUNK):
            end = min(at + self.CHUNK, self.SIZE)
            expect = bytearray(end - at)
            lo, hi = max(at, low), min(end, high)
            if lo < hi:
                expect[lo - at:hi - at] = shadow[lo - low:hi - low]
            assert read(at, end - at) == expect, hex(at)

    def test_megabyte_footprint(self):
        # The shadows cover pages 1 to ``extra``: the footprint's pages
        # and one page past them.
        extra = (self.FIRST + self.LINES * _LINE - 1) // _PAGE + 1
        span = extra * _PAGE
        volatile, durable = bytearray(span), bytearray(span)
        patterns = [bytes([i]) * _LINE for i in range(256)]
        image = MemoryImage(self.SIZE)
        addrs = range(self.FIRST, self.FIRST + self.LINES * _LINE, _LINE)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i, addr in enumerate(addrs):
                image.write(addr, patterns[i % 251])
                image.persist(addr, patterns[i % 241])
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 1 << 20, f"bookkeeping grew the heap by {grown:,} B"
        for i, addr in enumerate(addrs):
            volatile[addr - _PAGE:addr - _PAGE + _LINE] = patterns[i % 251]
            durable[addr - _PAGE:addr - _PAGE + _LINE] = patterns[i % 241]
        # A volatile-only word in a page the durable plane never wrote.
        stray = extra * _PAGE + 8
        image.write(stray, b"\xfe" * 8)
        volatile[stray - _PAGE:stray - _PAGE + 8] = b"\xfe" * 8
        self._check_plane(image.read, volatile)
        self._check_plane(image.durable_read, durable)
        assert image.touched_durable_lines() == tuple(addrs)
        try:
            image.crash()
            self._check_plane(image.read, durable)
            self._check_plane(image.durable_read, durable)
            copy = image.durable_copy()
            image.write(self.FIRST, b"\x01")  # the source lives on
            self._check_plane(copy.read, durable)
            self._check_plane(copy.durable_read, durable)
            assert copy.touched_durable_lines() == tuple(addrs)
            planes = {id(copy._durable), id(image._durable)}
            copy.recycle()
            image.recycle()
            pool = image_mod._BUFFER_POOL[self.SIZE]
            assert {id(pair[1]) for pair in pool} == planes
            for _ in planes:
                fresh = MemoryImage(self.SIZE)
                self._check_plane(fresh.read, bytearray(span))
                self._check_plane(fresh.durable_read, bytearray(span))
        finally:
            image_mod._BUFFER_POOL.pop(self.SIZE, None)
