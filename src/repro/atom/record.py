"""Log record format: log entry collation (LEC).

Paper section IV-C: a log record is 512 bytes — seven collated undo
entries (one cache line of old data each) plus one header line.  The
header holds the addresses of the logged lines, the count of valid
entries, and reserved bits.  An entry is durable only once its record
header has persisted; adding an address to the header register is the
"lock" of the posted-log design, persisting-and-clearing the header is
the "unlock".

Header line layout (64 bytes)::

    bytes  0..55   seven u64 line addresses
    byte   56      count of valid entries (low nibble) | flags (high)
    byte   57      u8 owner AUS slot    }  the paper's "reserved bits",
    bytes 58..59   u16 header checksum  }  used for recovery ordering
    bytes 60..63   u32 record sequence  }  and tear/corruption detection

The owner/sequence stamp is this reproduction's use of the header's
reserved bits: recovery orders an update's records by sequence number
and rejects stale headers left in reallocated buckets.

The **checksum** (CRC-32 over the line with the checksum field zeroed,
truncated to 16 bits) is what makes header validation sound under
*torn* writes: a power cut can interrupt the one line currently on the
channel wires, persisting only a prefix of its bytes over whatever the
cells held before.  A torn header whose stale tail still carries a
valid flag would otherwise be accepted — and its address words may be
half new, half stale, so undoing it would corrupt data lines.  The
checksum covers every byte, so any prefix/suffix mix fails validation;
recovery counts the rejection as a *detected* tear (the fault
subsystem's torn-log-write model exercises exactly this path).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

from repro.common.errors import RecoveryError
from repro.common.units import CACHE_LINE_BYTES

_ADDR = struct.Struct("<7Q")
_TAIL = struct.Struct("<BBHI")
_CHECKSUM_OFFSET = 58

FLAG_VALID = 0x01


def header_checksum(line: bytes) -> int:
    """16-bit checksum of a header line (checksum field zeroed)."""
    return zlib.crc32(
        line[:_CHECKSUM_OFFSET] + b"\x00\x00" + line[_CHECKSUM_OFFSET + 2:]
    ) & 0xFFFF


@dataclass
class RecordHeader:
    """Decoded contents of a record header line."""

    addresses: list[int]
    count: int
    flags: int
    owner: int
    seq: int
    #: Stored checksum matched the line contents (encode always makes
    #: this True; a decode of a torn or corrupted line clears it).
    checksum_ok: bool = True

    @property
    def valid(self) -> bool:
        """Structurally valid: flag set and a plausible entry count.

        Recovery additionally requires :attr:`checksum_ok` — a valid
        header with a failing checksum is a torn/corrupt line and must
        be rejected *and counted* as a detection.
        """
        return bool(self.flags & FLAG_VALID) and 0 < self.count <= 7

    @property
    def trustworthy(self) -> bool:
        """Valid and byte-exact: safe for recovery to act on."""
        return self.valid and self.checksum_ok

    def encode(self) -> bytes:
        """Pack into the 64-byte header line image."""
        line = bytearray(CACHE_LINE_BYTES)
        addresses = self.addresses
        _ADDR.pack_into(line, 0, *addresses, *([0] * (7 - len(addresses))))
        _TAIL.pack_into(
            line, 56,
            (self.count & 0x0F) | ((self.flags & 0x0F) << 4),
            self.owner, 0, self.seq,
        )
        # The checksum field is still zero here, so one pass over the
        # line equals header_checksum() without the slice-and-join.
        crc = zlib.crc32(bytes(line))
        struct.pack_into("<H", line, _CHECKSUM_OFFSET, crc & 0xFFFF)
        return bytes(line)

    @classmethod
    def decode(cls, line: bytes) -> "RecordHeader":
        """Unpack a 64-byte header line image."""
        if len(line) != CACHE_LINE_BYTES:
            raise RecoveryError(f"header line must be 64 bytes, got {len(line)}")
        addrs = list(_ADDR.unpack_from(line, 0))
        count_flags, owner, stored, seq = _TAIL.unpack_from(line, 56)
        count = min(count_flags & 0x0F, 7)
        return cls(addresses=addrs[:count], count=count,
                   flags=count_flags >> 4, owner=owner, seq=seq,
                   checksum_ok=stored == header_checksum(line))


@dataclass(slots=True)
class OpenRecord:
    """The record header *register* plus in-flight entry bookkeeping.

    This is the volatile state LogM holds for the record currently being
    filled by one atomic update: the addresses collated so far (the
    locked lines), which entry data lines have persisted, and callbacks
    waiting for the header to persist (entries become durable then).
    """

    bucket: int
    record: int
    owner: int
    seq: int
    addresses: list[int] = field(default_factory=list)
    #: Physical base address of the record (cached by LogM when the
    #: record is opened, so the append path does no address math).
    base_addr: int = -1
    data_persisted: int = 0
    #: Callbacks to run when the record's header persists (BASE acks,
    #: gated data writes).
    on_durable: list = field(default_factory=list)
    #: True once the header write has been requested (closing).
    closing: bool = False

    @property
    def entries(self) -> int:
        return len(self.addresses)

    def holds(self, line_addr: int) -> bool:
        """True if ``line_addr`` is locked by this open record."""
        return line_addr in self.addresses

    def header(self) -> RecordHeader:
        """Materialize the header line for persisting."""
        return RecordHeader(
            addresses=list(self.addresses),
            count=len(self.addresses),
            flags=FLAG_VALID,
            owner=self.owner,
            seq=self.seq,
        )

    def all_data_persisted(self) -> bool:
        """True when every collated entry's data line has persisted.

        The header may only be written after this point; otherwise a
        crash could leave a valid header whose entry payloads never
        reached the NVM cells.
        """
        return self.data_persisted >= len(self.addresses)
