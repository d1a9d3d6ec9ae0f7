"""ADR-style critical-structure flush (paper section IV-D).

On a power failure, platforms with Asynchronous DRAM Refresh guarantee
that a small number of memory-controller buffers reach the NVM.  ATOM
uses that window to persist the LogM critical structures that recovery
needs: per AUS the bucket bit vector and the current bucket / current
record registers.  (The paper counts ~two cache lines; we additionally
flush the per-AUS bucket bit vectors — still comfortably inside ADR's
24-line budget — because recovery must attribute valid buckets to
updates.)

The flushed image lands in the ADR block at the head of the controller's
log region, so post-crash recovery operates on the durable image alone.

Serialized format (little-endian)::

    u32 magic  "ADR3"
    u16 aus_count
    u16 bucket_count
    u32 checksum             CRC-32 of the per-AUS payload that follows
    per AUS:
        bucket bit vector    (bucket_count/8 bytes)
        u16 current_bucket   (0xFFFF = none)
        u16 current_record
        u32 update_start_seq (0xFFFFFFFF = none) — sequence number of
                             the update's first record; recovery rejects
                             stale headers below it (see repro.atom.aus)

The checksum is the flush's *completion proof*.  ADR guarantees the
block only while the platform honours its power budget; the fault
subsystem's ``adr-truncation`` model cuts the flush loop after K lines,
leaving the head of the block new and the tail stale.  Without the
checksum such a block parses as well-formed garbage and recovery would
silently undo the wrong records; with it, :func:`deserialize` raises
:class:`~repro.common.errors.RecoveryError` and recovery reports the
controller as unrecoverable instead of corrupting data.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

from repro.atom.aus import AusState
from repro.common.bitvector import BitVector
from repro.common.errors import RecoveryError
from repro.common.units import CACHE_LINE_BYTES

MAGIC = 0x33524441  # "ADR3"
_HEADER = struct.Struct("<IHHI")
_REGS = struct.Struct("<HHI")
_NO_BUCKET = 0xFFFF
_NO_SEQ = 0xFFFFFFFF


@dataclass
class AdrAusImage:
    """Recovered critical state of one AUS."""

    slot: int
    bucket_vec: BitVector
    current_bucket: int | None
    current_record: int
    update_start_seq: int | None

    def active(self) -> bool:
        """An update was in flight iff it owned at least one bucket."""
        return self.bucket_vec.any()


def serialize(aus_list: list[AusState], bucket_count: int) -> bytes:
    """Pack the critical structures of one controller's LogM."""
    parts = []
    for state in aus_list:
        parts.append(state.bucket_vec.to_bytes())
        bucket = _NO_BUCKET if state.current_bucket is None else state.current_bucket
        seq = _NO_SEQ if state.update_start_seq is None else state.update_start_seq
        parts.append(_REGS.pack(bucket, state.current_record, seq))
    payload = b"".join(parts)
    return _HEADER.pack(
        MAGIC, len(aus_list), bucket_count, zlib.crc32(payload)
    ) + payload


def deserialize(blob: bytes) -> list[AdrAusImage]:
    """Unpack an ADR block; empty list when no flush ever happened.

    Raises :class:`~repro.common.errors.RecoveryError` when the block
    carries the magic but fails validation — a truncated or corrupted
    ADR flush, which recovery must *report*, not act on.
    """
    if len(blob) < _HEADER.size:
        return []
    magic, aus_count, bucket_count, checksum = _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        return []
    vec_bytes = (bucket_count + 7) // 8
    payload_len = aus_count * (vec_bytes + _REGS.size)
    if _HEADER.size + payload_len > len(blob):
        raise RecoveryError("truncated ADR block")
    payload = blob[_HEADER.size:_HEADER.size + payload_len]
    if zlib.crc32(payload) != checksum:
        raise RecoveryError(
            "ADR block failed checksum validation (flush truncated or "
            "log region corrupted)"
        )
    offset = 0
    images: list[AdrAusImage] = []
    for slot in range(aus_count):
        end = offset + vec_bytes
        vec = BitVector.from_bytes(bucket_count, payload[offset:end])
        bucket, record, seq = _REGS.unpack_from(payload, end)
        offset = end + _REGS.size
        images.append(
            AdrAusImage(
                slot=slot,
                bucket_vec=vec,
                current_bucket=None if bucket == _NO_BUCKET else bucket,
                current_record=record,
                update_start_seq=None if seq == _NO_SEQ else seq,
            )
        )
    return images


def flush_on_power_failure(logm, image, layout, *,
                           max_lines: int | None = None) -> bytes:
    """Write one controller's critical structures to its ADR block.

    Called by ``System.crash()``; models the hardware ADR flush, so the
    bytes go straight to the durable image.  ``max_lines`` models a
    failing power budget (the fault subsystem's ``adr-truncation``
    model): only the first ``max_lines`` cache lines of the image reach
    the NVM, the rest of the block keeps its stale contents.  Returns
    the *full* serialized blob either way, so callers can tell whether
    the budget actually truncated anything.
    """
    blob = serialize(logm.aus, logm.cfg.buckets_per_controller)
    base = layout.adr_base(logm.mc.mc_id)
    if len(blob) > layout.adr_block_bytes:
        raise RecoveryError(
            f"ADR image ({len(blob)} B) exceeds reserved block "
            f"({layout.adr_block_bytes} B)"
        )
    flushed = blob
    if max_lines is not None and len(blob) > max_lines * CACHE_LINE_BYTES:
        flushed = blob[:max_lines * CACHE_LINE_BYTES]
    image.persist(base, flushed)
    return blob
