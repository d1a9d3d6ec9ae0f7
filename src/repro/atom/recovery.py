"""Post-crash recovery: undo incomplete atomic updates (section IV-D).

Recovery is a software routine (a system call in the paper) operating on
nothing but the durable NVM image.  It proceeds per memory controller:

1. Read the ADR block: per-AUS bucket bit vectors and current
   bucket/record registers, flushed by hardware at the power failure.
   The block carries a checksum; a block that fails validation (a
   truncated or corrupted ADR flush — the fault subsystem's
   ``adr-truncation`` model) is *reported* and skipped, never acted on.
2. For each AUS that owned buckets, rebuild its record list:

   * every record of each *full* (non-current) bucket belongs to the
     update — a new bucket is only allocated once the previous one is
     full;
   * in the current bucket, records ``[0, current_record)`` are
     candidates;
   * a candidate record counts only if its header is **valid**: valid
     flag set, byte-exact checksum, owner stamp matching the AUS slot,
     and sequence number strictly increasing along the walk.  The
     sequence check rejects stale headers left behind in re-allocated
     buckets and headers whose persist was still queued (and therefore
     dropped) at the failure — in both cases Invariant 2 guarantees the
     corresponding data lines never persisted, so skipping them is
     correct.  The checksum check rejects *torn* headers — a power cut
     mid-write persists only a prefix of the line — whose stale tail
     might otherwise look valid while the address words are garbage.

3. Undo the accepted records **newest-first** (descending sequence):
   copy each entry's old-value payload back over its data line.  A line
   logged multiple times converges to its oldest (pre-update) value, as
   argued in section III-B.
4. Clear the ADR block so a second recovery is a no-op.

Every durable write of a pass goes through one :class:`PassWrites`,
which charges the crash-storm write budget and keeps the bytes each
written line held before the pass.  The report's ``lines_changed``
compares them with the lines after it, so "a second pass changed
nothing" is read from the pass's own writes, not from a whole-image
digest — the pre-image idea of the undo log itself, applied to
recovery.  REDO's replay (:mod:`repro.atom.redo`) writes through it
too.

The routine is deliberately conservative: it may undo lines whose new
values never persisted (writing the value they already hold), which
costs recovery time but not correctness — the paper makes the same
observation.

Every pass is **instrumented**: the returned report carries a
:class:`~repro.faults.analytics.RecoveryCost` with per-controller line
traffic, rejection counters, and a modeled recovery time in cycles
derived from the NVM timing parameters (paper section VI-E measures
recovery work; the fault subsystem turns it into a differential metric
across designs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.atom import adr
from repro.atom.record import RecordHeader
from repro.common.errors import MemoryError_, RecoveryError
from repro.common.units import CACHE_LINE_BYTES
from repro.config import LogConfig, MemoryConfig
from repro.faults.analytics import ControllerCost, RecoveryCost, adr_block_lines
from repro.mem.image import MemoryImage
from repro.mem.layout import AddressLayout


@dataclass
class UndoneRecord:
    """One record rolled back during recovery (for reporting/tests)."""

    controller: int
    slot: int
    seq: int
    addresses: list[int]


@dataclass
class RecoveryReport:
    """Summary of one recovery pass."""

    updates_rolled_back: int = 0
    records_undone: int = 0
    entries_undone: int = 0
    controllers_with_state: int = 0
    records: list[UndoneRecord] = field(default_factory=list)
    #: ADR blocks that failed validation (per controller, at most one).
    adr_invalid: int = 0
    #: Line addresses recovery *flagged* as corrupt: scrub mismatches,
    #: checksum-rejected headers, skipped undo entries, and the lines of
    #: invalid ADR blocks.  The fault sweep diffs this against the
    #: injector's damage ground truth to count *silent* corruption.
    corrupt_lines: list[int] = field(default_factory=list)
    #: The pass ran out of its write budget (crash-storm mode) before
    #: finishing; counters describe the partial work done.
    interrupted: bool = False
    #: Durable lines the pass left different from before it
    #: (:meth:`PassWrites.lines_changed`); 0 iff the pass was a no-op.
    #: Merged reports sum their passes' counts.
    lines_changed: int = 0
    #: Recovery-time analytics for the pass.
    cost: RecoveryCost = field(default_factory=RecoveryCost)

    def merge(self, other: "RecoveryReport") -> None:
        self.updates_rolled_back += other.updates_rolled_back
        self.records_undone += other.records_undone
        self.entries_undone += other.entries_undone
        self.controllers_with_state += other.controllers_with_state
        self.records.extend(other.records)
        self.adr_invalid += other.adr_invalid
        self.corrupt_lines.extend(other.corrupt_lines)
        self.interrupted = self.interrupted or other.interrupted
        self.lines_changed += other.lines_changed
        self.cost.merge(other.cost)


class RecoveryInterrupted(Exception):
    """A pass's write budget hit zero (crash-storm mode)."""


class PassWrites:
    """The durable writes of one recovery pass, with their pre-images.

    ``budget`` is ``None`` on a normal pass — the common case pays one
    comparison.  In crash-storm mode it caps the pass's writes: the
    n+1-th :meth:`persist` raises :class:`RecoveryInterrupted`,
    modelling power dying *mid-recovery* after exactly n writes reached
    the cells.
    """

    __slots__ = ("image", "left", "pre_images")

    def __init__(self, image: MemoryImage, budget: int | None = None):
        self.image = image
        #: Writes the budget still allows (None: unbudgeted).
        self.left = budget
        #: line base -> the line's durable bytes before the pass first
        #: wrote it.
        self.pre_images: dict[int, bytes] = {}

    def persist(self, addr: int, data: bytes) -> None:
        """Persist ``data`` at ``addr``, charging one write."""
        if self.left is not None:
            if self.left <= 0:
                raise RecoveryInterrupted
            self.left -= 1
        image, pre = self.image, self.pre_images
        base, end = addr & -CACHE_LINE_BYTES, addr + len(data)
        while base < end:
            if base not in pre:
                pre[base] = image.durable_line(base)
            base += CACHE_LINE_BYTES
        image.persist(addr, data)

    def lines_changed(self) -> int:
        """Written lines whose bytes now differ from their pre-image.

        Net: a line written and then restored counts as unchanged, as
        a compare of whole-image digests before and after the pass
        would.  Every durable change of a pass is one of its writes, so
        0 means the pass left the image byte-identical.
        """
        line = self.image.durable_line
        return sum(line(base) != old for base, old in self.pre_images.items())


def scrub_media(image: MemoryImage,
                layout: AddressLayout) -> tuple[list[int], list[int]]:
    """The media scrub of ATOM and REDO recovery (step 0).

    Returns ``(lines_scrubbed, mismatched)``: per controller, how many
    touched durable lines the scrub reads, and the sorted base addresses
    of the lines that fail the checksum plane.  Runs *before* any
    undo/replay traffic so damage is observed pre-healing — an undo
    write over a rotten line would refresh its checksum and turn a
    detectable fault into a silent one.  Only the image's
    checksum-suspect lines are verified (:meth:`MemoryImage.scrub`), as
    every other line verifies by construction, but the modelled read
    traffic charges every touched line, counted per controller from the
    image's page masks (one popcount per page a single controller owns,
    :meth:`AddressLayout.lines_per_controller`).  No-op without the
    plane.
    """
    if not image.line_checksums:
        return [0] * layout.num_controllers, []
    counts = layout.lines_per_controller(image.touched_page_masks())
    return counts, image.scrub()


def recover(image: MemoryImage, layout: AddressLayout,
            cfg: LogConfig, *, clear_adr: bool = True,
            mem: MemoryConfig | None = None,
            write_budget: int | None = None) -> RecoveryReport:
    """Run the full recovery routine over every controller's log.

    ``clear_adr=False`` stops before step 4 (clearing the ADR block) —
    the state a crash *during* recovery leaves behind.  Because the
    undo writes themselves are idempotent, re-running ``recover`` over
    such an image must converge to the same durable contents; the
    idempotence tests exercise exactly this.

    ``mem`` supplies the NVM timing parameters for the modeled recovery
    cycles (defaults to the paper's Table-I device).

    ``write_budget`` caps the pass's durable line writes (crash-storm
    mode: power dies again mid-recovery).  A budget-interrupted pass
    returns with ``report.interrupted`` set and partial counters; undo
    writes are idempotent and the ADR clear happens strictly after a
    controller's undo work, so re-running ``recover`` converges to the
    same durable image an uninterrupted pass produces.
    """
    if mem is None:
        mem = MemoryConfig()
    writes = PassWrites(image, write_budget)
    report = RecoveryReport()
    # Media scrub first (step 0), before any undo write can heal — and
    # thereby hide — damage.  Mismatches are grouped per controller so
    # the read traffic lands on the right ControllerCost.
    scrub_counts, mismatched = scrub_media(image, layout)
    scrub_bad: dict[int, list[int]] = {}
    for base in mismatched:
        scrub_bad.setdefault(layout.controller_of(base), []).append(base)
    for controller in range(layout.num_controllers):
        try:
            report.merge(
                _recover_controller(
                    writes, layout, cfg, controller, mem,
                    clear_adr=clear_adr,
                    scrub_lines=scrub_counts[controller],
                    scrub_bad=scrub_bad.get(controller, []),
                )
            )
        except RecoveryInterrupted:
            # The budget died mid-controller: this pass's remaining work
            # (including this controller's partial counters) is lost,
            # exactly as a real power cut would lose it.
            report.interrupted = True
            break
    report.lines_changed = writes.lines_changed()
    return report


def _clear_adr_block(writes: PassWrites, layout: AddressLayout,
                     base: int) -> None:
    """Zero one controller's ADR block, line by line under a budget.

    The unbudgeted path keeps the original single whole-block persist;
    with a budget active the clear goes line-wise so an interruption
    tears it at line granularity — the next pass then sees a block that
    fails validation (partial magic/checksum), reports ``adr_invalid``,
    and re-clears, which converges to the same zeroed block.
    """
    total = layout.adr_block_bytes  # line-aligned
    if writes.left is None:
        writes.persist(base, bytes(total))
        return
    zeros = bytes(CACHE_LINE_BYTES)
    for off in range(0, total, CACHE_LINE_BYTES):
        writes.persist(base + off, zeros)


def _recover_controller(
    writes: PassWrites,
    layout: AddressLayout,
    cfg: LogConfig,
    controller: int,
    mem: MemoryConfig,
    *,
    clear_adr: bool = True,
    scrub_lines: int = 0,
    scrub_bad: list[int] | None = None,
) -> RecoveryReport:
    image = writes.image
    report = RecoveryReport()
    ctl = ControllerCost(
        controller=controller,
        adr_lines=adr_block_lines(layout.adr_block_bytes),
        scrub_lines=scrub_lines,
    )
    if scrub_bad:
        ctl.line_checksum_rejected += len(scrub_bad)
        report.corrupt_lines.extend(scrub_bad)
    base = layout.adr_base(controller)
    blob = image.durable_read(base, layout.adr_block_bytes)
    try:
        images = adr.deserialize(blob)
    except RecoveryError:
        # The ADR flush never completed (or the block was corrupted):
        # the bucket ownership map is gone, so nothing can be soundly
        # undone for this controller.  Report the detection and clear
        # the block so the failure is not re-reported forever.
        report.adr_invalid = 1
        report.controllers_with_state = 1
        ctl.adr_invalid = 1
        report.corrupt_lines.extend(
            range(base, base + layout.adr_block_bytes, CACHE_LINE_BYTES)
        )
        if clear_adr:
            _clear_adr_block(writes, layout, base)
            ctl.clear_writes = ctl.adr_lines
        report.cost.absorb(ctl.finalize(mem))
        return report
    if not images:
        if clear_adr and any(blob):
            # A budget-interrupted clear zeroes the magic line first and
            # can die before the tail: the block then parses as "never
            # flushed" while stale tail lines survive.  Finish the
            # clear, so a crash-storm converges to the same all-zero
            # block an uninterrupted pass leaves behind.
            _clear_adr_block(writes, layout, base)
            ctl.clear_writes = ctl.adr_lines
        report.cost.absorb(ctl.finalize(mem))
        return report
    report.controllers_with_state = 1
    for aus in images:
        if not aus.active():
            continue
        checksum_before = ctl.checksum_rejected
        records = _collect_records(image, layout, controller, aus, ctl,
                                   report)
        # Damage containment: a checksum rejection (torn/rotten header
        # or entry) cuts off *this AUS's* walk, never the whole scan —
        # count each AUS whose damage was fenced in this way.
        contained = ctl.checksum_rejected > checksum_before
        if records:
            report.updates_rolled_back += 1
            # Undo newest-first: descending sequence order.
            for rec_base, header in sorted(records, key=lambda r: -r[1].seq):
                if _undo_record(writes, layout, rec_base, header, ctl,
                                report):
                    contained = True
                report.records_undone += 1
                report.entries_undone += header.count
                report.records.append(
                    UndoneRecord(
                        controller=controller,
                        slot=aus.slot,
                        seq=header.seq,
                        addresses=list(header.addresses),
                    )
                )
        if contained:
            ctl.aus_contained += 1
    if clear_adr:
        # Recovery complete: clear the ADR block (second recovery = no-op).
        _clear_adr_block(writes, layout, base)
        ctl.clear_writes = ctl.adr_lines
    ctl.records_undone = report.records_undone
    report.cost.absorb(ctl.finalize(mem))
    return report


def _collect_records(
    image: MemoryImage,
    layout: AddressLayout,
    controller: int,
    aus: adr.AdrAusImage,
    ctl: ControllerCost,
    report: RecoveryReport,
) -> list[tuple[int, RecordHeader]]:
    """Gather the valid records of one incomplete update, in write order.

    Returns ``(record base address, header)`` per record.  Each bucket's
    base is taken once, when its first header is read
    (``layout.bucket_base`` range-checks the controller and bucket);
    its records follow every ``record_bytes``, each with its header on
    its last line.
    """
    cfg = layout.log
    if aus.update_start_seq is None:
        return []  # the update never created a record
    start_seq = aus.update_start_seq
    header_offset = cfg.entries_per_record * CACHE_LINE_BYTES
    bases: dict[int, int] = {}
    # Bucket allocation order: full buckets sorted by their first valid
    # record's sequence stamp, the current bucket last.
    full_buckets: list[tuple[int, int]] = []  # (first_seq, bucket)
    for bucket in aus.bucket_vec.iter_ones():
        if bucket == aus.current_bucket:
            continue
        base = bases[bucket] = layout.bucket_base(controller, bucket)
        header = _read_header(image, base + header_offset, ctl)
        if header.valid and not header.checksum_ok:
            ctl.checksum_rejected += 1
            report.corrupt_lines.append(base + header_offset)
            continue
        if (
            header.trustworthy
            and header.owner == aus.slot
            and header.seq >= start_seq
        ):
            full_buckets.append((header.seq, bucket))
    full_buckets.sort()
    ordered: list[tuple[int, int]] = [
        (bucket, cfg.records_per_bucket) for _, bucket in full_buckets
    ]
    if aus.current_bucket is not None:
        ordered.append((aus.current_bucket, aus.current_record))

    accepted: list[tuple[int, RecordHeader]] = []
    last_seq = start_seq - 1
    for bucket, limit in ordered:
        rec_base = bases.get(bucket)
        for index in range(limit):
            if index >= cfg.records_per_bucket:
                raise MemoryError_(f"record {index} out of range")
            if rec_base is None:
                rec_base = layout.bucket_base(controller, bucket)
            header = _read_header(image, rec_base + header_offset, ctl)
            if not header.valid:
                return accepted  # prefix ends at the first invalid header
            if not header.checksum_ok:
                # Torn or corrupted header line: the persist was cut
                # mid-write (or the cells went bad).  Invariant 2 still
                # holds for everything beneath it — the entries' data
                # writes were gated on this very header — so stopping
                # the prefix here is safe; the point is that we *know*.
                ctl.checksum_rejected += 1
                report.corrupt_lines.append(rec_base + header_offset)
                return accepted
            if header.owner != aus.slot or header.seq <= last_seq:
                # Stale header: left in a reallocated bucket by an
                # earlier (committed) update, or a header whose persist
                # was dropped at the failure.  Either way its entries
                # are not durable state of *this* update.
                ctl.stale_rejected += 1
                return accepted
            last_seq = header.seq
            accepted.append((rec_base, header))
            rec_base += cfg.record_bytes
    return accepted


def _read_header(image: MemoryImage, addr: int,
                 ctl: ControllerCost) -> RecordHeader:
    """Decode the record header line at ``addr``."""
    line = image.durable_read(addr, CACHE_LINE_BYTES)
    ctl.headers_scanned += 1
    return RecordHeader.decode(line)


def _undo_record(
    writes: PassWrites,
    layout: AddressLayout,
    rec_base: int,
    header: RecordHeader,
    ctl: ControllerCost,
    report: RecoveryReport,
) -> bool:
    """Write each entry's old value back over its data line.

    ``rec_base`` is the record's base address; entry ``slot`` is its
    line ``slot``.  Entries within one record are undone in reverse
    order too, so a line collated twice into the same record still
    converges to the older value.

    With the checksum plane enabled each entry's payload line is
    verified before it is restored: undoing from a rotten entry would
    spray garbage over a data line *and* refresh its checksum, turning
    detected damage silent.  A failing entry is skipped (the damage
    stays contained to its AUS) and flagged; returns True iff any entry
    was skipped this way.
    """
    image = writes.image
    skipped = False
    if header.count > layout.log.entries_per_record:
        raise MemoryError_(f"entry slot {header.count - 1} out of range")
    for slot in range(header.count - 1, -1, -1):
        data_addr = header.addresses[slot]
        entry_addr = rec_base + slot * CACHE_LINE_BYTES
        payload = image.durable_read(entry_addr, CACHE_LINE_BYTES)
        ctl.entries_read += 1
        if image.line_checksums and not image.verify_line(entry_addr):
            # The scrub pass normally flagged this line already; only a
            # direct (scrub-less) call counts it here.
            if entry_addr not in report.corrupt_lines:
                ctl.line_checksum_rejected += 1
                report.corrupt_lines.append(entry_addr)
            skipped = True
            continue
        ctl.undo_writes += 1
        writes.persist(data_addr, payload)
    return skipped
