"""Unit helpers and constants shared across the simulator.

The simulator counts time in core clock cycles.  Table I of the paper fixes
the core frequency at 2 GHz, so converting cycle counts to wall-clock
throughput (transactions per second, as plotted in Figure 8) uses
:data:`CYCLES_PER_SECOND`.
"""

from __future__ import annotations

KB = 1024
MB = 1024 * KB

CACHE_LINE_BYTES = 64
CACHE_LINE_SHIFT = 6
WORD_BYTES = 8
#: The memory image's touched-line granule: a 4 KB page of 64 lines,
#: one bit per line in the page's line mask (``mem/image.py``).
PAGE_SHIFT = 12

#: Core clock frequency from Table I (2 GHz).
CYCLES_PER_SECOND = 2_000_000_000


def line_of(addr: int) -> int:
    """Return the cache-line-aligned base address containing ``addr``."""
    return addr & ~(CACHE_LINE_BYTES - 1)


def line_index(addr: int) -> int:
    """Return the cache line number (address >> 6) containing ``addr``."""
    return addr >> CACHE_LINE_SHIFT


def line_offset(addr: int) -> int:
    """Return the byte offset of ``addr`` within its cache line."""
    return addr & (CACHE_LINE_BYTES - 1)


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to the next multiple of ``alignment``."""
    return (value + alignment - 1) // alignment * alignment


def lines_spanned(addr: int, size: int) -> int:
    """Number of distinct cache lines touched by ``size`` bytes at ``addr``."""
    if size <= 0:
        return 0
    first = line_index(addr)
    last = line_index(addr + size - 1)
    return last - first + 1


def split_by_line(addr: int, size: int) -> list[tuple[int, int]]:
    """Split a byte range into per-cache-line (addr, size) chunks.

    Stores wider than a cache line (for example a 512 byte entry copy) are
    executed as one store-queue entry per line-resident chunk, mirroring
    how a memcpy compiles to a sequence of word stores.
    """
    end = addr + size
    # Fast path: the whole range lives in one line (the common case for
    # word-sized loads/stores).
    boundary = (addr | (CACHE_LINE_BYTES - 1)) + 1
    if end <= boundary and size > 0:
        return [(addr, size)]
    chunks: list[tuple[int, int]] = []
    while addr < end:
        boundary = line_of(addr) + CACHE_LINE_BYTES
        take = min(end, boundary) - addr
        chunks.append((addr, take))
        addr += take
    return chunks


def cycles_to_seconds(cycles: int) -> float:
    """Convert a cycle count to seconds at the 2 GHz core clock."""
    return cycles / CYCLES_PER_SECOND


def throughput_per_second(count: int, cycles: int) -> float:
    """Events per second given ``count`` events over ``cycles`` cycles."""
    if cycles <= 0:
        return 0.0
    return count * CYCLES_PER_SECOND / cycles
