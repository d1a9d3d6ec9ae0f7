"""Content-addressed on-disk cache for simulation results.

A campaign point is fully determined by its spec (every machine and
workload knob, including the seed) and by the simulator code itself —
runs are bit-for-bit deterministic (see ``tests/test_determinism.py``),
so a result computed once can be replayed from disk forever.  The cache
key is therefore a SHA-256 over:

* the canonicalised spec (dataclass fields, enums by value, dicts with
  sorted keys), and
* a **code fingerprint**: a hash of every ``repro`` source file, so any
  change to the simulator invalidates all cached results at once.

A payload is one point's outcome, encoded by :func:`encode_outcome` and
decoded against the submitted spec by :func:`decode_outcome`.  Entries
live under ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro-campaign``)
as ``<key[:2]>/<key>.json``; writes are atomic (temp file + rename) so
concurrent workers never observe a torn entry.  Each entry wraps its payload with a SHA-256 checksum that
``get`` verifies, so torn or bit-rotted entries — like any other
corruption — read as misses and are removed.  The cache layer is
*fail-soft*: a ``put`` that hits a sick filesystem (``ENOSPC``,
permissions) degrades the cache to off with a single warning instead of
crashing the campaign, temp files from interrupted writers are reaped
on init, and a disabled or corrupt cache only ever costs recomputation.
Wipe the cache with ``python -m repro.harness --wipe-cache`` or by
deleting the directory.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from enum import Enum
from functools import lru_cache
from pathlib import Path

from repro.common.log import get_logger

log = get_logger("cache")

#: Temp files older than this are strays from dead writers and are
#: reaped on cache init (a live writer holds one for milliseconds).
STALE_TMP_SECONDS = 3600.0


def default_cache_dir() -> Path:
    """Cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-campaign``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-campaign"


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Hash of every ``repro`` source file (cache-invalidation salt)."""
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def canonicalize(value: object) -> object:
    """Reduce a spec value to deterministic JSON-encodable primitives."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: canonicalize(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        return {str(k): canonicalize(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [canonicalize(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(f"cannot canonicalize {type(value).__name__}: {value!r}")


@lru_cache(maxsize=None)
def _field_names(cls: type) -> tuple[str, ...]:
    """A dataclass type's field names, in declaration order."""
    return tuple(f.name for f in dataclasses.fields(cls))


def encode_outcome(outcome: object) -> dict:
    """JSON-plain cache payload of one campaign point's outcome.

    Field by field and shallow.  The outcome's first field is the
    point's spec, a dataclass encoded one level deep; enums are encoded
    by value, and the JSON-plain containers are shared, not copied.  The
    payload serialises exactly as ``dataclasses.asdict`` with enums by
    value would, key order included.  :func:`decode_outcome` inverts it.
    """
    names = _field_names(type(outcome))
    spec = getattr(outcome, names[0])
    payload = {names[0]: {name: _plain(getattr(spec, name))
                          for name in _field_names(type(spec))}}
    for name in names[1:]:
        payload[name] = _plain(getattr(outcome, name))
    return payload


def _plain(value: object) -> object:
    return value.value if isinstance(value, Enum) else value


def decode_outcome(outcome_type: type, payload: dict, spec: object):
    """The ``outcome_type`` a payload cached under ``spec``'s key encodes.

    The outcome's first field is its spec.  The key covers the spec, so
    the payload's encoded spec equals ``spec``, which is used as is.
    """
    return outcome_type(**{**payload, _field_names(outcome_type)[0]: spec})


def spec_key(spec: object, kind: str = "run") -> str:
    """Stable content hash of ``(kind, spec, simulator code)``."""
    payload = {
        "kind": kind,
        "code": code_fingerprint(),
        "spec": canonicalize(spec),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def payload_digest(payload: dict) -> str:
    """Canonical SHA-256 of a payload (the entry's integrity checksum)."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class ResultCache:
    """Directory of content-addressed, checksummed JSON result payloads."""

    def __init__(self, root: Path | str | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        #: Corrupt entries found by ``get`` and unlinked (torn JSON,
        #: checksum mismatch): each reads as a miss and is evicted.
        self.corrupt_evictions = 0
        #: Set after a failed write: the cache degrades to off (every
        #: ``get`` misses, every ``put`` is a no-op) rather than killing
        #: the campaign over a full disk.
        self.disabled = False
        self._reap_stale_tmps()

    def _reap_stale_tmps(self) -> None:
        """Delete temp files stranded by writers that died mid-``put``."""
        if not self.root.is_dir():
            return
        cutoff = time.time() - STALE_TMP_SECONDS
        for path in self.root.rglob("*.tmp.*"):
            try:
                if path.stat().st_mtime < cutoff:
                    path.unlink()
            except OSError:
                pass  # racing writer or vanished file — not our stray

    def _degrade(self, why: str) -> None:
        if not self.disabled:
            self.disabled = True
            log.warning(f"result cache disabled: {why}; campaign "
                        f"continues without caching")

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """Fetch a payload; corrupt or absent entries read as misses.

        Corrupt covers torn JSON, a missing or mismatching checksum,
        and pre-checksum envelope formats — all are removed and missed,
        never returned.
        """
        if self.disabled:
            self.misses += 1
            return None
        path = self.path_for(key)
        try:
            entry = json.loads(path.read_text())
            payload = entry["payload"]
            if entry.get("sha256") != payload_digest(payload):
                raise ValueError("checksum mismatch")
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            path.unlink(missing_ok=True)
            self.corrupt_evictions += 1
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put(self, key: str, payload: dict) -> None:
        """Store a payload atomically (rename, never a partial file).

        A write failure (``ENOSPC``, permissions, a file squatting on
        the directory path) cleans up its temp file and degrades the
        cache to off with one warning — campaigns outlive sick disks.
        """
        if self.disabled:
            return
        path = self.path_for(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(
                {"sha256": payload_digest(payload), "payload": payload},
                sort_keys=True,
            ))
            os.replace(tmp, path)
        except OSError as exc:
            self._degrade(f"write failed ({exc})")
        finally:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass

    def wipe(self) -> int:
        """Delete every cached entry; returns the number removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for path in self.root.rglob("*.json"):
            path.unlink(missing_ok=True)
            removed += 1
        return removed

    def count(self) -> int:
        """Number of stored entries.  (Deliberately not ``__len__``:
        an empty cache must never be falsy where ``cache is not None``
        decides whether caching is enabled.)"""
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.rglob("*.json"))

    def __repr__(self) -> str:
        return (
            f"ResultCache({str(self.root)!r}, hits={self.hits}, "
            f"misses={self.misses})"
        )
