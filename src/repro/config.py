"""System configuration mirroring Table I of the paper.

Every knob of the simulated machine lives here as a frozen-ish dataclass
tree rooted at :class:`SystemConfig`.  The defaults reproduce the paper's
evaluation platform:

* 32 out-of-order cores at 2 GHz, 192-entry ROB, 32-entry store queue
* private 32 KB 4-way L1 data caches with 64 B lines, 3-cycle access
* a shared L2 of 32 x 1 MB 16-way tiles, 30-cycle access, 32 MSHRs
* 4 memory controllers on the corners of a 4-row 2D mesh with 16 B flits
* NVM at 10x DRAM latency: 360-cycle writes, 240-cycle reads
* 5.3 GB/s peak bandwidth per memory channel, one channel per controller

Log-manager geometry (paper section IV): 512 B log records holding 7
collated entries plus a header line, buckets of records allocated through
256-bit bucket bit vectors, 32 atomic update structures per controller.

``scaled_down()`` builds a smaller machine with identical ratios for fast
unit/integration tests.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from enum import Enum

from repro.common.errors import ConfigError
from repro.common.units import CACHE_LINE_BYTES, KB, MB


class Design(Enum):
    """The five designs compared in the paper's evaluation (section V)."""

    #: Hardware undo log with the log persist in the store critical path.
    BASE = "base"
    #: ATOM with the posted-log optimization (section III-C).
    ATOM = "atom"
    #: ATOM with posted-log and source-logging (section III-D).
    ATOM_OPT = "atom-opt"
    #: No logging at all: the performance upper bound.  Data modified in an
    #: atomic update is still flushed to NVM on completion.
    NON_ATOMIC = "non-atomic"
    #: The redo-log comparator of Doshi et al. [14] with hardware-issued
    #: log writes, write combining and an infinite victim cache.
    REDO = "redo"


@dataclass
class CoreConfig:
    """Core pipeline parameters (Table I, rows 1-3)."""

    num_cores: int = 32
    rob_size: int = 192
    store_queue_size: int = 32
    #: Fixed cost, in cycles, of issuing one instruction's worth of
    #: non-memory work.  Workloads express computation as Compute(cycles);
    #: this is the default charge for bookkeeping instructions.
    issue_cycles: int = 1
    #: Upper bound on how many cycles a core may run ahead of the global
    #: event queue before re-synchronising (bounded-skew optimisation).
    max_inline_cycles: int = 100
    #: Concurrent line flushes in the Atomic_End "Flush Modified Data"
    #: loop (clwb-style flushes overlap up to this depth before the
    #: closing fence).
    flush_window: int = 4


@dataclass
class CacheConfig:
    """Geometry and latency of one cache level."""

    size_bytes: int
    ways: int
    latency: int
    line_bytes: int = CACHE_LINE_BYTES

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)

    def validate(self, name: str) -> None:
        if self.size_bytes % (self.ways * self.line_bytes):
            raise ConfigError(
                f"{name}: size {self.size_bytes} not divisible by "
                f"ways*line ({self.ways}*{self.line_bytes})"
            )
        if self.num_sets & (self.num_sets - 1):
            raise ConfigError(f"{name}: number of sets must be a power of two")


@dataclass
class HierarchyConfig:
    """Cache hierarchy parameters (Table I, rows 4-8)."""

    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=32 * KB, ways=4, latency=3)
    )
    #: One L2 tile; there is one tile per core (multi-banked shared LLC).
    l2_tile: CacheConfig = field(
        default_factory=lambda: CacheConfig(size_bytes=1 * MB, ways=16, latency=30)
    )
    mshrs: int = 32


@dataclass
class NocConfig:
    """2D mesh on-chip network (Table I, last row)."""

    rows: int = 4
    flit_bytes: int = 16
    #: Per-hop router+link traversal latency in cycles.
    hop_cycles: int = 2
    #: Fixed injection/ejection overhead in cycles.
    inject_cycles: int = 1


@dataclass
class MemoryConfig:
    """Memory controllers and the NVM device model (Table I, rows 9-11).

    ``dram_read_cycles``/``dram_write_cycles`` give the 1x baseline; the
    NVM the paper models is ``latency_multiplier = 10`` times slower
    (360/240 write/read), and Figure 8 sweeps the multiplier over
    {1, 5, 10, 20, 40}.
    """

    num_controllers: int = 4
    channels_per_controller: int = 1
    dram_read_cycles: int = 24
    dram_write_cycles: int = 36
    latency_multiplier: float = 10.0
    #: Peak bandwidth per channel (Table I discussion: 5.3 GB/s at 2 GHz
    #: is ~2.65 bytes/cycle, i.e. ~24 cycles to move a 64 B line).
    bytes_per_cycle: float = 2.65
    #: Bank-level parallelism of the NVM device behind each channel.
    #: An access occupies its bank for the full device latency, so the
    #: channel can only overlap ``device_banks`` accesses; effective
    #: occupancy per access is max(serialization, latency/banks).  This
    #: is what makes NVM *write bandwidth* collapse as the latency
    #: multiplier grows (PCM-like behaviour) — the mechanism behind the
    #: REDO comparator's super-linear degradation in Figure 8.
    device_banks: int = 4
    #: Write-queue capacity per channel; producers stall when full.
    write_queue_depth: int = 64
    #: Reads bypass writes unless the write queue is above this fraction,
    #: at which point writes drain with priority.
    write_drain_watermark: float = 0.75
    #: Data pages are interleaved across controllers at this granularity.
    interleave_bytes: int = 4 * KB
    #: Maintain a per-data-line checksum plane on the durable image
    #: (modeled ECC metadata).  Off by default: it adds a branch to the
    #: persist hot path and exists for the fault subsystem, whose media
    #: models (torn data writes, bit-rot) are only *detectable* when
    #: recovery can scrub lines against it.
    line_checksums: bool = False

    @property
    def read_cycles(self) -> int:
        return max(1, round(self.dram_read_cycles * self.latency_multiplier))

    @property
    def write_cycles(self) -> int:
        return max(1, round(self.dram_write_cycles * self.latency_multiplier))

    @property
    def line_transfer_cycles(self) -> int:
        return max(1, round(CACHE_LINE_BYTES / self.bytes_per_cycle))


@dataclass
class LogConfig:
    """ATOM log-manager geometry (paper section IV).

    A record is 8 cache lines: 7 collated undo entries plus one header
    line.  Buckets group records so allocation/truncation is a bit-vector
    operation; each AUS tracks its buckets in a 256-bit vector.
    """

    record_lines: int = 8
    entries_per_record: int = 7
    records_per_bucket: int = 16
    buckets_per_controller: int = 256
    #: Atomic update structures per controller (one per core in Table I).
    aus_per_controller: int = 32
    #: Penalty, in cycles, of the OS interrupt that grows the log region
    #: on a log overflow (section IV-E).
    os_overflow_cycles: int = 10_000
    #: Whether log entry collation is enabled (ablation knob; the paper's
    #: LogM always collates — disabling writes one header per entry).
    collation: bool = True
    #: Whether log writes are posted (ablation knob: BASE forces False).
    posted: bool = True
    #: Whether log entries are routed to the same controller as their data
    #: (ablation knob; disabling models a design without co-location,
    #: which also forces non-posted ordering, section III-C).
    colocate: bool = True

    @property
    def record_bytes(self) -> int:
        return self.record_lines * CACHE_LINE_BYTES

    @property
    def bucket_bytes(self) -> int:
        return self.records_per_bucket * self.record_bytes

    @property
    def region_bytes(self) -> int:
        return self.buckets_per_controller * self.bucket_bytes


@dataclass
class RedoConfig:
    """Parameters for the REDO comparator design (Doshi et al. [14])."""

    #: Redo log entry size: address + stored word (write combining packs
    #: these into cache-line-sized log writes).
    entry_bytes: int = 16
    #: Victim cache capacity in lines; None models the infinite victim
    #: cache the paper grants the REDO design (section V).
    victim_capacity: int | None = None


@dataclass
class DebugConfig:
    """Optional runtime checking (used heavily by the test suite)."""

    #: Verify Invariant 2 on every durable data write: the undo entry for
    #: any line written inside an uncommitted atomic update must already
    #: be durable.
    check_invariants: bool = False


@dataclass
class SystemConfig:
    """Root configuration object for one simulated machine."""

    design: Design = Design.ATOM_OPT
    cores: CoreConfig = field(default_factory=CoreConfig)
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    noc: NocConfig = field(default_factory=NocConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    log: LogConfig = field(default_factory=LogConfig)
    redo: RedoConfig = field(default_factory=RedoConfig)
    debug: DebugConfig = field(default_factory=DebugConfig)
    #: Size of the simulated physical data space (excludes log regions).
    data_bytes: int = 64 * MB
    seed: int = 42

    def validate(self) -> "SystemConfig":
        """Check cross-field consistency; returns self for chaining."""
        if self.cores.num_cores <= 0:
            raise ConfigError("need at least one core")
        if self.memory.num_controllers <= 0:
            raise ConfigError("need at least one memory controller")
        if self.noc.rows <= 0:
            raise ConfigError("mesh needs at least one row")
        if self.cores.num_cores % self.noc.rows:
            raise ConfigError(
                f"{self.cores.num_cores} cores do not tile a "
                f"{self.noc.rows}-row mesh"
            )
        if self.log.entries_per_record != self.log.record_lines - 1:
            raise ConfigError(
                "log record must hold exactly record_lines-1 entries "
                "plus one header line"
            )
        if self.log.aus_per_controller < 1:
            raise ConfigError("need at least one AUS per controller")
        if self.log.aus_per_controller > 255:
            # The record header stamps its owner AUS slot in one byte
            # (repro.atom.record header layout).
            raise ConfigError("at most 255 AUS per controller (u8 owner "
                              "stamp in the record header)")
        if self.memory.interleave_bytes % CACHE_LINE_BYTES:
            raise ConfigError("interleave granularity must be line-aligned")
        if self.data_bytes % self.memory.interleave_bytes:
            raise ConfigError("data space must be a whole number of pages")
        self.hierarchy.l1.validate("l1")
        self.hierarchy.l2_tile.validate("l2")
        return self

    def replace(self, **changes) -> "SystemConfig":
        """Shallow functional update (sub-configs may be passed whole)."""
        return dataclasses.replace(self, **changes)

    @staticmethod
    def scaled_down(
        design: Design = Design.ATOM_OPT,
        num_cores: int = 4,
        data_bytes: int = 4 * MB,
        seed: int = 42,
        line_checksums: bool = False,
    ) -> "SystemConfig":
        """A small machine with the same ratios, for fast tests.

        4 cores in a 2x2 mesh, 2 memory controllers, 8 KB L1s, 64 KB L2
        tiles.  Timing parameters (latencies, bandwidth) are unchanged so
        per-access behaviour matches the full machine.
        """
        rows = 2 if num_cores % 2 == 0 else 1
        cfg = SystemConfig(
            design=design,
            cores=CoreConfig(num_cores=num_cores, store_queue_size=32),
            hierarchy=HierarchyConfig(
                l1=CacheConfig(size_bytes=8 * KB, ways=4, latency=3),
                l2_tile=CacheConfig(size_bytes=64 * KB, ways=16, latency=30),
                mshrs=16,
            ),
            noc=NocConfig(rows=rows),
            memory=MemoryConfig(num_controllers=min(2, num_cores),
                                line_checksums=line_checksums),
            log=LogConfig(
                buckets_per_controller=64,
                records_per_bucket=8,
                aus_per_controller=num_cores,
            ),
            data_bytes=data_bytes,
            seed=seed,
        )
        return cfg.validate()
