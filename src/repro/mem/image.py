"""Two-image functional memory model.

The simulator separates *values* from *timing*.  Values live in a
:class:`MemoryImage`, which keeps two byte arrays over the same physical
address space:

* the **volatile image** — the latest value of every byte, i.e. what a
  coherent load anywhere in the machine would observe.  Stores update it
  when they issue.
* the **durable image** — the contents of the NVM cells.  Only a persist
  completing at a memory controller updates it (cache writeback, explicit
  flush, log write, or the REDO backend's in-place apply).

Caches therefore carry metadata only (tags, MESI state, dirty and log
bits); a writeback message snapshots the volatile line at send time.  A
power failure simply *discards the volatile image*: recovery and all
post-crash consistency checks read the durable image, which is exactly
the state a real NVM would hold.

Addresses are physical; the :class:`~repro.mem.layout.AddressLayout` maps
them to controllers and log regions.

Touched-line tracking
---------------------
The image records where each plane has been written since construction,
by 4 KB page (64 lines, the interleave granule of ATOM's memory,
§IV-E).  A simulated machine touches a tiny fraction of its address
space, so whole-image operations — the crash reset, the whole-image
digest, :meth:`durable_copy` and buffer recycling — visit only touched
pages.  This is what makes campaign-sized points (litmus grids, fault
matrices, crash sweeps: thousands of machines or power cuts per run)
cheap: the per-point fixed cost is proportional to the state actually
used, not to the configured memory size.

The durable plane keeps one 64-bit line mask per touched page, the
form of LogM's per-bucket bit vectors in the ADR block (§IV-D): it is
exact, so any line whose bit is clear is all-zero in the plane.  The
volatile plane keeps only the numbers of the pages stores wrote since
it was last set to the durable plane (by a crash, or by the
:meth:`durable_copy` that made it) and whether it ever was: outside
those pages it holds only what it took from the durable plane, which
lies within the durable lines touched since, as masks only grow.  A
superset of pages is safe.  A single-line store costs one set
insertion and a single-line persist one dict lookup (and a store when
its bit is new), and the bookkeeping of a machine that writes
megabytes is a few thousand page entries, not one int object per line.

Nothing on a recovered point's path reads touched durable lines one by
one.  The media scrub counts them per controller from the masks, one
popcount per run of a page one controller owns
(:meth:`touched_page_masks`,
:meth:`~repro.mem.layout.AddressLayout.lines_per_controller`), and
recovery judges its own passes by the lines it wrote
(``RecoveryReport.lines_changed``), not by a whole-image digest.  Only
bit-rot's walk and the digest (recovered-image pins and tests) build
the sorted tuple (:meth:`touched_durable_lines`), afresh on each call.
The plane operations walk runs of pages: the store pages as whole
pages (:func:`_page_runs`), the durable pages each from its first to
its last touched line (:func:`_line_runs`), so a point that touches a
few lines per page moves a few lines, not whole pages.  Recycling
zeroes the volatile plane over the durable runs only if it took them
from the durable plane, so neither plane's zeroing faults in a page
that plane did not write.

Each plane is an anonymous private memory mapping rather than a
``bytearray``: the kernel supplies zero pages on first touch, so a plane
costs resident memory only for the pages a machine writes, where a
``bytearray`` is zero-filled in full up front.

Per-line checksum plane
-----------------------
With ``line_checksums=True`` the image keeps a CRC-32 per durable line,
updated by the *legitimate* persist path (:meth:`persist`) and
deliberately **not** by the media-damage paths (:meth:`persist_torn`,
:meth:`damage`).  The plane models per-line ECC
metadata a controller would maintain on its write path: a torn write or
post-crash bit-rot leaves the stored checksum describing the old line,
so :meth:`verify_line` fails exactly on damaged lines.  The plane is
metadata, not memory contents: ``durable_digest`` never hashes it.

Only a line a damage path wrote since its last write-path persist can
fail verification, so the image also keeps that set of
*checksum-suspect* lines: the damage paths add to it and ``persist``
drops from it.  Recovery's media scrub (:meth:`scrub`)
verifies just the suspects and classifies mismatches as *detected*
corruption; without the plane the same damage is silent.  Every other
touched line verifies by construction, and the scrub's modelled read
traffic still charges every touched line.
"""

from __future__ import annotations

import hashlib
import mmap
import struct
import zlib
from itertools import compress

from repro.common.errors import MemoryError_
from repro.common.units import CACHE_LINE_BYTES, CACHE_LINE_SHIFT, PAGE_SHIFT

_U64 = struct.Struct("<Q")
_LINE_MASK = ~(CACHE_LINE_BYTES - 1)
_ZERO_LINE = bytes(CACHE_LINE_BYTES)
#: Touched-line bookkeeping granule: a 4 KB page of 64 lines, one bit
#: per line in a durable page's mask (see module docstring).
_PAGE_BYTES = 1 << PAGE_SHIFT
_PAGE_LINE_BITS = (1 << (PAGE_SHIFT - CACHE_LINE_SHIFT)) - 1
#: Maps a page mask's binary digits to the 0/1 bytes that select its
#: lines (see :meth:`MemoryImage.touched_durable_lines`).
_BIT_BYTES = str.maketrans("01", "\x00\x01")
#: What :func:`_zero_runs` zeroes a run with.  Shared and never
#: written, so its pages stay unbacked: a fresh zero buffer per run
#: would leave its size resident in the heap.
_ZEROS = memoryview(bytes(1 << 20))

#: Recycled (volatile, durable) buffer pairs, keyed by size.  A campaign
#: worker builds thousands of same-shaped machines and power cuts back
#: to back; zeroing a retired image's touched pages and reusing its
#: buffers is far cheaper than two fresh multi-megabyte mappings per
#: point.  Only :meth:`MemoryImage.recycle` puts buffers here, and only
#: a caller that owns the image outright (the point executors) may call
#: it.
_BUFFER_POOL: dict[int, list[tuple[mmap.mmap, mmap.mmap]]] = {}
_POOL_DEPTH = 2


def _plane(size: int) -> mmap.mmap:
    """A zeroed image plane whose pages are backed on first write.

    The mapping is private: mmap's default, a shared mapping, would be
    inherited as shared by a forked campaign worker, whose writes to
    buffers drawn from the pool it inherited would then land in the
    parent's pooled (supposedly zero) buffers.
    """
    return mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)


def _page_runs(pages, limit: int) -> list[tuple[int, int]]:
    """``(start, end)`` byte ranges of the runs of adjacent ``pages``,
    the last one clipped to the image size ``limit``: the walk over the
    pages stores wrote.
    """
    runs = []
    start = end = None
    for page in sorted(pages):
        if page != end:
            if end is not None:
                runs.append((start << PAGE_SHIFT, end << PAGE_SHIFT))
            start = page
        end = page + 1
    if end is not None:
        runs.append((start << PAGE_SHIFT, min(end << PAGE_SHIFT, limit)))
    return runs


def _line_runs(masks: dict[int, int]) -> list[tuple[int, int]]:
    """``(start, end)`` byte ranges covering each page of the page masks
    ``masks`` from its first to its last touched line, with ranges that
    meet merged: a run of full pages is one range.
    """
    runs = []
    start = end = None
    for page in sorted(masks):
        mask = masks[page]
        base = page << PAGE_SHIFT
        first = base + (((mask & -mask).bit_length() - 1) << CACHE_LINE_SHIFT)
        if first != end:
            if end is not None:
                runs.append((start, end))
            start = first
        end = base + (mask.bit_length() << CACHE_LINE_SHIFT)
    if end is not None:
        runs.append((start, end))
    return runs


def _mark_lines(masks: dict[int, int], first: int, last: int) -> None:
    """Set the bits of lines ``first`` to ``last`` (line bases) in the
    page masks ``masks``."""
    page, last_page = first >> PAGE_SHIFT, last >> PAGE_SHIFT
    low = (first >> CACHE_LINE_SHIFT) & _PAGE_LINE_BITS
    high = (last >> CACHE_LINE_SHIFT) & _PAGE_LINE_BITS
    while page <= last_page:
        top = high if page == last_page else _PAGE_LINE_BITS
        masks[page] = masks.get(page, 0) | ((2 << top) - (1 << low))
        page += 1
        low = 0


def _zero_runs(view: memoryview, runs) -> None:
    """Zero the ``(start, end)`` byte ranges ``runs`` of ``view`` from
    the shared zero buffer."""
    step = len(_ZEROS)
    for start, end in runs:
        while end - start > step:
            view[start : start + step] = _ZEROS
            start += step
        view[start:end] = _ZEROS[: end - start]


class MemoryImage:
    """Byte-addressable volatile + durable images of physical memory."""

    def __init__(self, size_bytes: int, line_checksums: bool = False):
        if size_bytes <= 0 or size_bytes % CACHE_LINE_BYTES:
            raise MemoryError_(
                f"image size must be a positive multiple of "
                f"{CACHE_LINE_BYTES}, got {size_bytes}"
            )
        self.size_bytes = size_bytes
        #: Per-data-line checksum plane (see module docstring).
        self.line_checksums = line_checksums
        #: line base -> CRC-32 of the durable line as of its last
        #: *write-path* persist.  Damage paths bypass this on purpose.
        self._line_crc: dict[int, int] = {}
        #: Touched durable lines a damage path wrote since their last
        #: write-path persist: with the plane on, the only lines that
        #: can fail :meth:`verify_line` (see module docstring).
        self._suspect: set[int] = set()
        pooled = _BUFFER_POOL.get(size_bytes)
        if pooled:
            self._volatile, self._durable = pooled.pop()
        else:
            self._volatile = _plane(size_bytes)
            self._durable = _plane(size_bytes)
        # Permanent views for the hot read paths: slicing a memoryview
        # skips one intermediate bytes copy per read.  The planes are
        # never resized (resizing would be refused while these exports
        # exist), only mutated in place.
        self._vol_view = memoryview(self._volatile)
        self._dur_view = memoryview(self._durable)
        #: Touched-line bookkeeping (see module docstring).  The pages
        #: stores wrote since the volatile plane was last set to the
        #: durable plane, and whether it ever was: the volatile plane
        #: is all-zero outside those pages, except, once set, within
        #: the durable plane's touched lines.
        self._vol_pages: set[int] = set()
        self._vol_mirrors_durable = False
        #: page -> 64-bit mask of the durable lines ever written in it:
        #: any line whose bit is clear is all-zero in the durable plane.
        self._dur_lines: dict[int, int] = {}
        #: Writes to the durable plane so far (:meth:`persist` and
        #: :meth:`damage`): while it stands still, the plane, its page
        #: masks and the checksum plane have not moved.
        self.durable_writes = 0

    # -- bounds -----------------------------------------------------------

    def _check(self, addr: int, size: int) -> None:
        if addr < 0 or size < 0 or addr + size > self.size_bytes:
            raise MemoryError_(
                f"access [{addr:#x}, {addr + size:#x}) outside image of "
                f"{self.size_bytes:#x} bytes"
            )

    # -- volatile (latest-value) accessors ---------------------------------
    #
    # write() and persist() inline their single-page and single-line
    # touch (single-line accesses dominate and these are the hottest
    # mutation paths); longer ranges take a range update or
    # _mark_lines, which damage() shares.

    def read(self, addr: int, size: int) -> bytes:
        """Read ``size`` bytes of the latest value at ``addr``."""
        if addr < 0 or size < 0 or addr + size > self.size_bytes:
            self._check(addr, size)
        return self._vol_view[addr : addr + size].tobytes()

    def write(self, addr: int, data: bytes) -> None:
        """Apply a store's bytes to the volatile image."""
        size = len(data)
        if addr < 0 or addr + size > self.size_bytes:
            self._check(addr, size)
        self._volatile[addr : addr + size] = data
        # Inline single-page touch (word stores dominate).
        first = addr >> PAGE_SHIFT
        last = (addr + size - 1) >> PAGE_SHIFT
        if first == last:
            self._vol_pages.add(first)
        else:
            self._vol_pages.update(range(first, last + 1))

    def read_u64(self, addr: int) -> int:
        """Latest 8-byte little-endian word at ``addr``."""
        self._check(addr, 8)
        return _U64.unpack_from(self._volatile, addr)[0]

    def write_u64(self, addr: int, value: int) -> None:
        """Store an 8-byte little-endian word into the volatile image."""
        self._check(addr, 8)
        _U64.pack_into(self._volatile, addr, value)
        self._vol_pages.update((addr >> PAGE_SHIFT,
                                (addr + 7) >> PAGE_SHIFT))

    def volatile_line(self, addr: int) -> bytes:
        """Snapshot the 64 B cache line containing ``addr`` (latest value).

        Used when a writeback/flush message leaves a cache, and when the
        LogI module captures the pre-store value for an undo entry.
        """
        base = addr & _LINE_MASK
        if base < 0 or base + CACHE_LINE_BYTES > self.size_bytes:
            self._check(base, CACHE_LINE_BYTES)
        return self._vol_view[base : base + CACHE_LINE_BYTES].tobytes()

    # -- durable (NVM-cell) accessors --------------------------------------

    def durable_read(self, addr: int, size: int) -> bytes:
        """Read ``size`` bytes of NVM contents at ``addr``."""
        self._check(addr, size)
        return bytes(self._durable[addr : addr + size])

    def durable_read_u64(self, addr: int) -> int:
        """8-byte little-endian word of NVM contents at ``addr``."""
        self._check(addr, 8)
        return _U64.unpack_from(self._durable, addr)[0]

    def durable_line(self, addr: int) -> bytes:
        """The 64 B NVM line containing ``addr``.

        This is what the memory controller reads on a fill — and the old
        value that *source logging* writes into the undo log.
        """
        base = addr & _LINE_MASK
        if base < 0 or base + CACHE_LINE_BYTES > self.size_bytes:
            self._check(base, CACHE_LINE_BYTES)
        return self._dur_view[base : base + CACHE_LINE_BYTES].tobytes()

    def persist(self, addr: int, data: bytes) -> None:
        """A write completes at the NVM: update the durable image."""
        size = len(data)
        if addr < 0 or addr + size > self.size_bytes:
            self._check(addr, size)
        self._durable[addr : addr + size] = data
        self.durable_writes += 1
        first = addr & _LINE_MASK
        last = (addr + size - 1) & _LINE_MASK
        if first == last:
            page = first >> PAGE_SHIFT
            bit = 1 << ((first >> CACHE_LINE_SHIFT) & _PAGE_LINE_BITS)
            mask = self._dur_lines.get(page, 0)
            if not mask & bit:
                self._dur_lines[page] = mask | bit
            if self.line_checksums:
                self._line_crc[first] = zlib.crc32(
                    self._dur_view[first : first + CACHE_LINE_BYTES]
                )
                self._suspect.discard(first)
        else:
            _mark_lines(self._dur_lines, first, last)
            if self.line_checksums:
                lines = range(first, last + 1, CACHE_LINE_BYTES)
                crc = zlib.crc32
                dur = self._dur_view
                crc_map = self._line_crc
                for base in lines:
                    crc_map[base] = crc(dur[base : base + CACHE_LINE_BYTES])
                self._suspect.difference_update(lines)

    def persist_torn(self, addr: int, data: bytes, prefix_bytes: int) -> bool:
        """A write interrupted by power failure: only a prefix lands.

        Models a torn line write (the fault subsystem's torn-log-write /
        torn-data-write models): the first ``prefix_bytes`` of ``data``
        reach the cells, the rest of the range keeps its old durable
        contents — the mixed-epoch line that header checksums exist to
        catch.  Like :meth:`damage`, the tear bypasses the line-checksum
        plane (the write never completed, so the metadata still
        describes the pre-tear line) and returns whether any durable
        byte actually changed.
        """
        if prefix_bytes <= 0:
            return False
        return self.damage(addr, data[:prefix_bytes])

    def damage(self, addr: int, data: bytes) -> bool:
        """Media damage: bytes change in the cells with no write event.

        The raw-mutation sibling of :meth:`persist` for the fault
        subsystem's media models (torn writes, bit-rot): the durable
        bytes and touched-set bookkeeping update exactly as a persist
        would, but the line-checksum plane is deliberately left stale —
        that staleness is what recovery's scrub pass detects, so the
        written lines become checksum-suspect.  Returns
        True iff the durable contents actually changed (the injectors'
        vacuity marker: damage that reproduces the existing bytes is
        physically indistinguishable from no damage).
        """
        size = len(data)
        if addr < 0 or addr + size > self.size_bytes:
            self._check(addr, size)
        changed = self._dur_view[addr : addr + size] != data
        self._durable[addr : addr + size] = data
        self.durable_writes += 1
        first = addr & _LINE_MASK
        last = (addr + size - 1) & _LINE_MASK
        _mark_lines(self._dur_lines, first, last)
        if self.line_checksums:
            # Even an unchanged line is suspect: one only a damage path
            # ever wrote has no checksum to verify against.
            self._suspect.update(range(first, last + 1, CACHE_LINE_BYTES))
        return changed

    def verify_line(self, addr: int) -> bool:
        """Check the line containing ``addr`` against its stored checksum.

        Only meaningful with ``line_checksums`` enabled.  A touched line
        *without* a recorded checksum fails verification: every
        legitimate persist path records one, so its absence means only a
        damage path ever wrote the line.
        """
        base = addr & _LINE_MASK
        if base < 0 or base + CACHE_LINE_BYTES > self.size_bytes:
            self._check(base, CACHE_LINE_BYTES)
        stored = self._line_crc.get(base)
        if stored is None:
            return False
        return stored == zlib.crc32(
            self._dur_view[base : base + CACHE_LINE_BYTES]
        )

    def touched_durable_lines(self) -> tuple[int, ...]:
        """Sorted base addresses of every durable line ever written.

        Damage paths register their lines here too, so this is all
        durable state.  Built from the page masks on each call, for the
        whole-image digest and bit-rot's walk; the media scrub counts
        its lines from the masks (:meth:`touched_page_masks`) instead.
        """
        lines = []
        masks = self._dur_lines
        for page in sorted(masks):
            mask = masks[page]
            base = page << PAGE_SHIFT
            if not mask & (mask - 1):  # one line
                lines.append(base + ((mask.bit_length() - 1)
                                     << CACHE_LINE_SHIFT))
                continue
            # The mask's bits, lowest first, as 0/1 bytes that select
            # the page's lines.
            bits = bin(mask)[:1:-1].translate(_BIT_BYTES).encode()
            lines.extend(compress(
                range(base, base + (len(bits) << CACHE_LINE_SHIFT),
                      CACHE_LINE_BYTES),
                bits,
            ))
        return tuple(lines)

    def touched_page_masks(self) -> dict[int, int]:
        """The durable plane's touched lines as page masks.

        Maps each touched page number (``addr >> PAGE_SHIFT``) to the
        64-bit mask of its lines ever written, bit ``i`` for the page's
        line ``i``: the live map, for reading only.
        """
        return self._dur_lines

    def scrub(self) -> list[int]:
        """Sorted base addresses of the touched lines failing verification.

        Equal to ``[b for b in touched_durable_lines() if not
        verify_line(b)]`` with the checksum plane on, but verifies only
        the checksum-suspect lines: every other touched line was last
        written by a write-path persist that recorded its checksum.
        """
        verify = self.verify_line
        return [base for base in sorted(self._suspect) if not verify(base)]

    def persist_equals_volatile(self, addr: int, size: int) -> bool:
        """True if durable and volatile agree over the range (test aid)."""
        self._check(addr, size)
        return (
            self._volatile[addr : addr + size]
            == self._durable[addr : addr + size]
        )

    def durable_extract(self, ranges) -> bytes:
        """Concatenated NVM contents of ``(addr, size)`` ranges.

        The byte-level sibling of :meth:`durable_digest`: where a digest
        proves two recovered states equal, the extract shows *what*
        differs (the recovery-idempotence tests compare extracts so a
        failure prints the diverging bytes, not two opaque hashes).
        """
        return b"".join(self.durable_read(addr, size) for addr, size in ranges)

    def durable_digest(self, ranges=None) -> str:
        """SHA-256 hex digest of durable contents.

        ``ranges`` is an iterable of ``(addr, size)`` pairs; ``None``
        digests the whole durable image (the recovered-image pins and
        the tests' oracle for recovery's own no-op verdict,
        ``RecoveryReport.lines_changed``).  Range boundaries are hashed
        along with the bytes so two different layouts cannot collide.

        The whole-image digest hashes the sparse encoding — image size
        plus every *non-zero* touched line with its address — instead of
        the raw array.  Two images produce equal digests exactly when
        their full durable contents are byte-identical (untouched lines
        are all-zero by the touched-set invariant, and touched-but-zero
        lines are excluded so re-zeroing a line cannot distinguish it
        from one never written).
        """
        digest = hashlib.sha256()
        update = digest.update
        pack = _U64.pack
        dur = self._dur_view
        if ranges is not None:
            for addr, size in ranges:
                self._check(addr, size)
                update(pack(addr))
                update(pack(size))
                update(dur[addr : addr + size])
            return digest.hexdigest()
        update(b"sparse-durable-v1")
        update(pack(self.size_bytes))
        for base in self.touched_durable_lines():
            chunk = dur[base : base + CACHE_LINE_BYTES]
            if chunk != _ZERO_LINE:
                update(pack(base))
                update(chunk)
        return digest.hexdigest()

    # -- whole-image operations --------------------------------------------

    def crash(self) -> None:
        """Power failure: all volatile state is lost.

        The volatile image is reset to the durable image (after recovery,
        the machine reboots seeing only NVM contents): the pages stores
        wrote are zeroed, one slice per run, and then the durable plane
        is copied one slice per run of its touched lines' pages.
        """
        vol, dur = self._vol_view, self._dur_view
        _zero_runs(vol, _page_runs(self._vol_pages, self.size_bytes))
        for start, end in _line_runs(self._dur_lines):
            vol[start:end] = dur[start:end]
        self._vol_pages = set()
        self._vol_mirrors_durable = True

    def durable_copy(self) -> "MemoryImage":
        """A new image whose two planes both hold this durable plane.

        What :meth:`crash` would make of this image, in buffers of its
        own, while this image lives on untouched — the image of a
        non-destructive power cut (``System.power_cut``).  The checksum
        plane and its suspect lines come along.  The buffers are drawn
        from the pool and the runs of durable pages are copied into
        both; the copy inherits this image's page masks.  The caller
        owns the copy and may :meth:`recycle` it.
        """
        copy = MemoryImage(self.size_bytes, line_checksums=self.line_checksums)
        src = self._dur_view
        vol, dur = copy._vol_view, copy._dur_view
        for start, end in _line_runs(self._dur_lines):
            chunk = src[start:end]
            vol[start:end] = chunk
            dur[start:end] = chunk
        copy._dur_lines = dict(self._dur_lines)
        copy._vol_mirrors_durable = True
        copy._line_crc = dict(self._line_crc)
        copy._suspect = set(self._suspect)
        return copy

    def recycle(self) -> None:
        """Zero the touched pages and donate the buffers to the pool.

        STRICTLY an ownership transfer: the caller must be the sole
        holder of this image (and of any system built around it) and
        must not touch either plane afterwards — the buffers will back a
        *different* machine's memory.  Point executors (litmus, crash,
        fault workers) call this once they have extracted their values
        from a machine or power cut that was private to them.  Each
        plane is zeroed one slice per run of its own touched pages (see
        the module docstring).
        """
        pooled = _BUFFER_POOL.setdefault(self.size_bytes, [])
        if len(pooled) >= _POOL_DEPTH:
            return
        volatile, durable = self._vol_pages, self._dur_lines
        # A heavily-written image is cheaper to reallocate than to zero:
        # drop it once the pages either plane touched pass a quarter of
        # the image.
        touched = len(volatile.union(durable))
        if touched * _PAGE_BYTES * 4 > self.size_bytes:
            return
        runs = _line_runs(durable)
        _zero_runs(self._vol_view, _page_runs(volatile, self.size_bytes))
        if self._vol_mirrors_durable:
            _zero_runs(self._vol_view, runs)
        _zero_runs(self._dur_view, runs)
        self._vol_pages = set()
        self._vol_mirrors_durable = False
        self._dur_lines = {}
        self._line_crc = {}
        self._suspect = set()
        pooled.append((self._volatile, self._durable))

    def __repr__(self) -> str:
        return f"MemoryImage({self.size_bytes:#x} bytes)"
