"""Programmable litmus workload: lowers a LitmusSpec to micro-op streams.

This is the compiler half of the litmus subsystem: each core program of
a :class:`~repro.litmus.spec.LitmusSpec` becomes one thread generator of
:mod:`repro.cpu.ops` micro-ops, so litmus scenarios exercise the real
cores, store queues, caches, LogM/REDO machinery and recovery — not a
shortcut functional model.

The workload allocates one contiguous region from the NVM heap and
places every symbolic variable at its spec-assigned line index, which is
what lets conflict tests force genuine dirty evictions.  The golden
model applies each transaction's write set in global commit order
(``System.on_commit``), like every other workload; write sets are
recorded *dynamically* as each thread executes, so conditional programs
(``loadr``/``br_ne``) stay exact even when a branch direction depends on
another core's timing — by the time a commit reaches its durability
point, every store of that transaction has already been issued and
recorded.
"""

from __future__ import annotations

import struct

from repro.common.units import CACHE_LINE_BYTES
from repro.cpu import ops
from repro.litmus.spec import LitmusSpec
from repro.runtime.api import PMem
from repro.workloads.base import Workload, WorkloadParams

_U64 = struct.Struct("<Q")

#: Litmus lock ids live in their own namespace (cf. Workload.lock_id).
_LOCK_NS = 0x2000_0000


class LitmusWorkload(Workload):
    """Run one litmus program; expose the recovered durable state."""

    name = "litmus"

    def __init__(self, system, params: WorkloadParams | None = None, *,
                 program, **kw):
        spec = (program if isinstance(program, LitmusSpec)
                else LitmusSpec.from_dict(program))
        spec.validate()
        if params is None:
            kw.setdefault("txns_per_thread", 1)
            kw["threads"] = spec.threads
            params = WorkloadParams(**kw)
        else:
            params.threads = spec.threads
        super().__init__(system, params)
        self.spec = spec
        self.base = self.heap.alloc(
            spec.span_lines * CACHE_LINE_BYTES, arena=0
        )
        #: Per-(tid, txn-index) write sets, recorded as the threads
        #: execute (complete before each commit's durability point).
        self._recorded_writes: dict[tuple[int, int],
                                    list[tuple[str, int]]] = {}
        #: Golden state: committed var values (init state until then).
        self.golden = {name: spec.init.get(name, 0) for name in spec.vars}
        #: Vars also written outside any atomic region (their durable
        #: value after a crash is unconstrained by the golden model).
        self.plain_written = self._find_plain_writes()

    def _find_plain_writes(self) -> set[str]:
        line_to_var = {idx: name for name, idx in self.spec.vars.items()}
        plain: set[str] = set()
        for program in self.spec.cores:
            depth = 0
            for instr in program:
                op = instr[0]
                if op == "begin":
                    depth += 1
                elif op == "commit":
                    depth -= 1
                elif op == "store" and depth == 0:
                    plain.add(instr[1])
                elif op == "fill" and depth == 0:
                    base = self.spec.vars[instr[1]]
                    for off in range(instr[3]):
                        var = line_to_var.get(base + off)
                        if var is not None:
                            plain.add(var)
        return plain

    # -- addressing -------------------------------------------------------------

    def addr_of(self, var: str) -> int:
        return self.base + self.spec.vars[var] * CACHE_LINE_BYTES

    def state_ranges(self) -> list[tuple[int, int]]:
        """(addr, size) of every variable's line, in line order."""
        return [
            (self.base + idx * CACHE_LINE_BYTES, CACHE_LINE_BYTES)
            for _, idx in sorted(self.spec.vars.items(),
                                 key=lambda kv: kv[1])
        ]

    # -- setup ------------------------------------------------------------------

    def _setup_thread(self, tid: int, driver) -> None:
        if tid:
            return  # the region is shared; core 0's pass initialises it
        for var, value in self.spec.init.items():
            driver.run(PMem.store_u64(self.addr_of(var), value))

    # -- execution --------------------------------------------------------------

    def thread_body(self, tid: int):
        program = self.spec.cores[tid]
        line_to_var = {idx: name for name, idx in self.spec.vars.items()}
        txn_index = 0
        regs: dict[str, int] = {}
        current: list[tuple[str, int]] | None = None
        pc = 0
        while pc < len(program):
            instr = program[pc]
            pc += 1
            op = instr[0]
            if op == "begin":
                current = self._recorded_writes[(tid, txn_index)] = []
                yield from PMem.atomic_begin()
            elif op == "commit":
                current = None
                yield from PMem.atomic_end((tid, txn_index))
                txn_index += 1
            elif op == "store":
                if current is not None:
                    current.append((instr[1], instr[2]))
                yield from PMem.store_u64(self.addr_of(instr[1]), instr[2])
            elif op == "load":
                yield from PMem.load_u64(self.addr_of(instr[1]))
            elif op == "loadr":
                regs[instr[2]] = yield from PMem.load_u64(
                    self.addr_of(instr[1])
                )
            elif op == "br_ne":
                if regs[instr[1]] != instr[2]:
                    pc += instr[3]
            elif op == "flush":
                yield ops.Flush(self.addr_of(instr[1]))
            elif op == "compute":
                yield from PMem.compute(instr[1])
            elif op == "lock":
                yield from PMem.lock(_LOCK_NS | instr[1])
            elif op == "unlock":
                yield from PMem.unlock(_LOCK_NS | instr[1])
            elif op == "fill":
                if current is not None:
                    base = self.spec.vars[instr[1]]
                    for off in range(instr[3]):
                        var = line_to_var.get(base + off)
                        if var is not None:
                            current.append((var, instr[2]))
                word = _U64.pack(instr[2])
                data = word * (instr[3] * CACHE_LINE_BYTES // 8)
                yield from PMem.store_bytes(self.addr_of(instr[1]), data)

    # -- golden model -----------------------------------------------------------

    def golden_apply(self, info) -> None:
        for var, value in self._recorded_writes.get(tuple(info), ()):
            self.golden[var] = value

    # -- recovered-state extraction ---------------------------------------------

    def durable_state(self, image=None) -> dict[str, int]:
        """Recovered u64 value of every variable (durable image).

        ``image`` defaults to the machine's own; pass a power cut's.
        """
        image = self.image if image is None else image
        return {
            var: image.durable_read_u64(self.addr_of(var))
            for var in self.spec.vars
        }

    def state_digest(self, image=None) -> str:
        """Content digest of the variable region's durable lines."""
        image = self.image if image is None else image
        return image.durable_digest(self.state_ranges())

    # -- verification -----------------------------------------------------------

    def verify_durable(self, image=None) -> None:
        """Golden-differential check over atomically-written variables.

        The litmus *explorer* classifies recovered states against the
        spec's postconditions instead; this check backs the plain
        ``crash_run`` path and completion tests.  Variables also written
        outside atomic regions are skipped — their post-crash value is
        legitimately timing-dependent.
        """
        state = self.durable_state(image)
        for var, expect in self.golden.items():
            if var in self.plain_written:
                continue
            self.check(
                state[var] == expect,
                f"var {var}: durable {state[var]} != golden {expect}",
            )
