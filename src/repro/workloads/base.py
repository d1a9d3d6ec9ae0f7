"""Workload framework.

A workload owns a persistent structure laid out in the simulated NVM,
generates per-thread op traces (generators of micro-ops) that perform
atomic insert/delete/search transactions on it, and can verify — after a
crash and recovery — that the durable structure matches a **golden
model** replayed from the committed-transaction stream.

Key design points:

* **Per-thread structure instances.**  Each thread operates on its own
  instance (its own sub-heap arena), taking an (uncontended) lock around
  each critical section.  This matches the NVHeaps-style benchmarks the
  paper uses and keeps the measured effects memory-system-bound rather
  than lock-bound.  TPC-C, in contrast, shares tables and contends on
  district locks (see :mod:`repro.workloads.tpcc`).
* **Deterministic payloads.**  An entry's payload is a deterministic
  function of (key, version), so the golden model only needs to remember
  an 8-byte tag per key while verification can still check every payload
  byte in the durable image.
* **Commit-ordered golden replay.**  ``System.on_commit`` fires in
  global commit order; the workload applies each transaction's ``info``
  to its golden model.  After crash+recovery, the durable structure must
  equal the golden state exactly: committed transactions survived,
  uncommitted ones were rolled back completely.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass

from repro.common.errors import WorkloadError
from repro.runtime.api import ImageReader
from repro.runtime.driver import DirectDriver

_U64 = struct.Struct("<Q")


@dataclass
class WorkloadParams:
    """Common knobs (paper section V: small = 512 B, large = 4 KB)."""

    entry_bytes: int = 512
    txns_per_thread: int = 20
    threads: int | None = None
    initial_items: int = 64
    #: Modelled computation per transaction (hashing, comparisons).
    compute_cycles: int = 40
    seed: int = 1234


def payload_for(key: int, version: int, size: int) -> bytes:
    """Deterministic payload: the golden model stores only (key, version)."""
    word = _U64.pack((key * 0x9E3779B97F4A7C15 + version) & (2**64 - 1))
    reps = -(-size // 8)
    return (word * reps)[:size]


def payload_tag(key: int, version: int) -> int:
    """First word of :func:`payload_for` — the compact golden tag."""
    return (key * 0x9E3779B97F4A7C15 + version) & (2**64 - 1)


class Workload:
    """Base class for all benchmarks."""

    name = "abstract"

    def __init__(self, system, params: WorkloadParams | None = None, **kw):
        self.system = system
        if params is None:
            params = WorkloadParams(**kw)
        self.params = params
        self.threads_count = params.threads or system.config.cores.num_cores
        if self.threads_count > system.config.cores.num_cores:
            raise WorkloadError("more threads than cores")
        self.rngs = [
            random.Random((params.seed << 8) | tid)
            for tid in range(self.threads_count)
        ]
        self.heap = system.heap
        self.image = system.image
        system.on_commit = self._on_commit
        self.commits = 0

    # -- setup ---------------------------------------------------------------

    def setup(self) -> None:
        """Build the initial structures functionally (state pre-flushed)."""
        driver = DirectDriver(self.image, durable=True)
        for tid in range(self.threads_count):
            self._setup_thread(tid, driver)

    def _setup_thread(self, tid: int, driver: DirectDriver) -> None:
        raise NotImplementedError

    # -- execution -------------------------------------------------------------

    def threads(self) -> list:
        """One op generator per thread."""
        return [self.thread_body(tid) for tid in range(self.threads_count)]

    def thread_body(self, tid: int):
        raise NotImplementedError

    def lock_id(self, tid: int, sub: int = 0) -> int:
        """Lock namespace: per-thread structures get distinct locks."""
        return (tid << 16) | sub | 0x1000_0000

    # -- golden model ----------------------------------------------------------------

    def _on_commit(self, core_id: int, info) -> None:
        self.commits += 1
        if info is not None:
            self.golden_apply(info)

    def golden_apply(self, info) -> None:
        """Apply one committed transaction to the golden model."""
        raise NotImplementedError

    # -- verification -----------------------------------------------------------------

    def reader(self, image=None) -> ImageReader:
        """Durable-image reader for post-crash verification.

        ``image`` defaults to the machine's own; a power cut's image
        (``System.power_cut``) is read the same way.
        """
        return ImageReader(self.image if image is None else image)

    def verify_durable(self, image=None) -> None:
        """Check the durable structure against the golden model.

        Called after ``system.crash(); system.recover()``, or with the
        cut's image after ``system.recover(cut)``.  Raises
        :class:`~repro.common.errors.WorkloadError` on any mismatch.
        """
        raise NotImplementedError

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            raise WorkloadError(f"{self.name}: {message}")
