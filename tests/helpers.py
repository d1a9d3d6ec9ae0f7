"""Shared helpers for the test suite (importable as ``helpers``).

The actual builders live in :mod:`repro.harness.testbed` so that the
benchmark fixtures and the campaign crash sweep construct machines
through the very same code path as the unit tests — configs cannot
silently drift between the suites.
"""

from __future__ import annotations

import hashlib
import struct

from repro.common.units import CACHE_LINE_BYTES
from repro.harness.testbed import (  # noqa: F401 — re-exported
    build_system,
    crash_run,
    run_workload_to_completion,
    small_config,
)

__all__ = [
    "build_system",
    "crash_run",
    "line_runs",
    "reference_digest",
    "run_workload_to_completion",
    "small_config",
]


def line_runs(lines) -> list[tuple[int, int]]:
    """``(start, end)`` byte ranges of the runs of adjacent ``lines``
    (ascending line bases): the line-wise reference for the memory
    image's page-run walk.
    """
    runs = []
    start = end = None
    for base in lines:
        if base != end:
            if end is not None:
                runs.append((start, end))
            start = base
        end = base + CACHE_LINE_BYTES
    if end is not None:
        runs.append((start, end))
    return runs


def reference_digest(image, lines=None) -> str:
    """``image.durable_digest()`` recomputed from the durable plane.

    Hashes the sparse encoding (image size, then every non-zero line
    with its address, in address order) over ``lines``, or over every
    line of the image when ``lines`` is None, so the reference depends
    on neither the image's own digest code nor, by default, its
    touched-line set.
    """
    if lines is None:
        lines = range(0, image.size_bytes, CACHE_LINE_BYTES)
    digest = hashlib.sha256(b"sparse-durable-v1")
    digest.update(struct.pack("<Q", image.size_bytes))
    for base in lines:
        line = image.durable_read(base, CACHE_LINE_BYTES)
        if any(line):
            digest.update(struct.pack("<Q", base))
            digest.update(line)
    return digest.hexdigest()
