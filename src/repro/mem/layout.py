"""Physical address layout: data interleaving and per-controller log space.

The OS role from paper section IV-E is modelled here: data pages are
interleaved across the memory controllers at page granularity, and behind
each controller a proportional slice of physical pages is reserved as the
log region.  No virtual page ever maps to a log page; the LogI module
routes each log entry to the controller owning the corresponding *data*
page, which guarantees log/data co-location (section III-C).

Layout of the simulated physical space::

    [0, data_bytes)                         data, page-interleaved
    [data_bytes, data_bytes + region)       log region of controller 0
    [.. + region, .. + 2*region)            log region of controller 1
    ...

Each controller's log region starts with a small **ADR block** — the
destination of the power-failure flush of LogM's critical structures
(bucket bit vectors, current bucket/record registers; paper section
IV-D) — followed by the buckets of records.  The address math for
bucket/record/line lives here so LogM, recovery and the tests all agree
on it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.common.errors import ConfigError, MemoryError_
from repro.common.units import (CACHE_LINE_BYTES, CACHE_LINE_SHIFT,
                                PAGE_SHIFT, align_up)
from repro.config import LogConfig, MemoryConfig


@dataclass(frozen=True)
class RecordAddress:
    """Identifies one log record within one controller's log region."""

    controller: int
    bucket: int
    record: int


class AddressLayout:
    """Maps physical addresses to controllers, and log coordinates to
    physical addresses."""

    def __init__(self, data_bytes: int, mem: MemoryConfig, log: LogConfig):
        if data_bytes % mem.interleave_bytes:
            raise ConfigError("data space must be whole pages")
        self.data_bytes = data_bytes
        self.num_controllers = mem.num_controllers
        self.interleave_bytes = mem.interleave_bytes
        self.log = log
        self.log_base = data_bytes
        # ADR block: per AUS a bucket bit vector image plus the current
        # bucket/record registers (2 x u16) and the update-start-seq
        # register (u32), behind a 12-byte header (magic, counts, and
        # the payload checksum that detects truncated flushes);
        # line-aligned.
        vec_bytes = (log.buckets_per_controller + 7) // 8
        self.adr_block_bytes = align_up(
            12 + log.aus_per_controller * (vec_bytes + 8), CACHE_LINE_BYTES
        )
        self.log_region_bytes = self.adr_block_bytes + log.region_bytes
        self.total_bytes = data_bytes + self.log_region_bytes * mem.num_controllers

    # -- data space ---------------------------------------------------------

    def is_data(self, addr: int) -> bool:
        """True if ``addr`` lies in the data (non-log) space."""
        return 0 <= addr < self.data_bytes

    def is_log(self, addr: int) -> bool:
        """True if ``addr`` lies in any controller's log region."""
        return self.log_base <= addr < self.total_bytes

    def controller_of(self, addr: int) -> int:
        """The memory controller owning ``addr`` (data or log)."""
        if self.is_data(addr):
            page = addr // self.interleave_bytes
            return page % self.num_controllers
        if self.is_log(addr):
            return (addr - self.log_base) // self.log_region_bytes
        raise MemoryError_(f"address {addr:#x} outside physical space")

    def lines_per_controller(self, masks: Mapping[int, int]) -> list[int]:
        """How many lines of the page masks ``masks`` each controller owns.

        ``masks`` maps a page number (``addr >> PAGE_SHIFT``) to the
        mask of its lines, bit ``i`` for the page's line ``i`` — the
        memory image's touched-line form.  Equal to counting
        ``controller_of`` over the lines, but one ``int.bit_count()``
        per run of a page that one controller owns: an interleave, the
        data/log or a log-region boundary inside a page splits it there,
        whatever its alignment.  The cost grows with the touched pages,
        not the touched lines.
        """
        n = self.num_controllers
        step = self.interleave_bytes
        data_end, log_base = self.data_bytes, self.log_base
        region, total = self.log_region_bytes, self.total_bytes
        counts = [0] * n
        for page, mask in masks.items():
            addr = page << PAGE_SHIFT
            while mask:
                if 0 <= addr < data_end:
                    # The data space is whole granules: no clamp.
                    granule = addr // step
                    owner = granule % n
                    end = (granule + 1) * step
                elif log_base <= addr < total:
                    owner = (addr - log_base) // region
                    end = log_base + (owner + 1) * region
                else:
                    first = addr + (((mask & -mask).bit_length() - 1)
                                    << CACHE_LINE_SHIFT)
                    raise MemoryError_(
                        f"address {first:#x} outside physical space")
                lines = (end - addr) >> CACHE_LINE_SHIFT
                if lines >= 64:  # the run holds the rest of the page
                    counts[owner] += mask.bit_count()
                    break
                counts[owner] += (mask & ((1 << lines) - 1)).bit_count()
                mask >>= lines
                addr = end
        return counts

    # -- log space ------------------------------------------------------------

    def log_region_base(self, controller: int) -> int:
        """Base physical address of ``controller``'s log region."""
        self._check_controller(controller)
        return self.log_base + controller * self.log_region_bytes

    def adr_base(self, controller: int) -> int:
        """Base address of the controller's ADR critical-structure block."""
        return self.log_region_base(controller)

    def bucket_base(self, controller: int, bucket: int) -> int:
        """Base physical address of a bucket in a controller's region."""
        if not 0 <= bucket < self.log.buckets_per_controller:
            raise MemoryError_(f"bucket {bucket} out of range")
        return (
            self.log_region_base(controller)
            + self.adr_block_bytes
            + bucket * self.log.bucket_bytes
        )

    def record_base(self, rec: RecordAddress) -> int:
        """Base physical address of a 512 B log record."""
        if not 0 <= rec.record < self.log.records_per_bucket:
            raise MemoryError_(f"record {rec.record} out of range")
        return self.bucket_base(rec.controller, rec.bucket) + (
            rec.record * self.log.record_bytes
        )

    def record_header_addr(self, rec: RecordAddress) -> int:
        """Physical address of a record's header line.

        The header occupies the *last* line of the record; the preceding
        ``entries_per_record`` lines hold the collated undo data
        (Figure 4(c): 7 cache lines of data plus the header line).
        """
        return self.record_base(rec) + self.log.entries_per_record * CACHE_LINE_BYTES

    def record_entry_addr(self, rec: RecordAddress, slot: int) -> int:
        """Physical address of entry ``slot`` (0-based) of a record."""
        if not 0 <= slot < self.log.entries_per_record:
            raise MemoryError_(f"entry slot {slot} out of range")
        return self.record_base(rec) + slot * CACHE_LINE_BYTES

    def _check_controller(self, controller: int) -> None:
        if not 0 <= controller < self.num_controllers:
            raise MemoryError_(f"controller {controller} out of range")

    def __repr__(self) -> str:
        return (
            f"AddressLayout(data={self.data_bytes:#x}, "
            f"controllers={self.num_controllers}, "
            f"log_region={self.log_region_bytes:#x})"
        )
