"""Transaction-lifecycle tracing for the simulated machine.

The :class:`Tracer` mirrors the fault injector's wiring discipline
(:mod:`repro.faults.injector`): every component that can be traced
holds a ``tracer`` attribute that is ``None`` in normal runs, and each
hook site pays exactly one predictable ``if tracer is not None``
branch — the same gate pattern the injector already established, and
nothing on the per-operation hot paths (the core's inline interpreter
loop and the channel arbiter are untouched; they are observed through
counters and the sampler instead).

An installed tracer is **read-only**: it records timestamps from the
engine clock and appends to its own buffers, never posts engine
events, never touches simulated state, and adds nothing to the stats
tree — so a traced run produces bit-identical golden digests
(``tests/test_kernel_golden.py`` enforces this).

Spans are exported in the Chrome trace-event JSON format (load the
file at https://ui.perfetto.dev or ``chrome://tracing``).  Timestamps
are **simulated cycles**, written into the format's microsecond field:
1 "us" on the timeline = 1 simulated cycle.

Track layout (``pid``/``tid``):

======  ======================  =====================================
pid     tid                     contents
======  ======================  =====================================
1       ``core_id``             transaction spans (async ``b``/``e``),
                                commit-flush windows, durability points
1       ``1000 + core_id``      store-queue entry spans (``X``)
1       ``2000 + mc_id``        undo-log record persists, ADR flush
1       ``3000``                REDO commit records + backend applies
1       ``9000``                machine-level instants (power failure)
2       ``0``                   counter tracks (sampler timelines)
==========================================================================
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.runtime.system import System

PID_SIM = 1
PID_COUNTERS = 2

TID_SQ_BASE = 1000
TID_LOGM_BASE = 2000
TID_REDO = 3000
TID_MACHINE = 9000


class Tracer:
    """Records per-transaction lifecycle spans in simulated cycles.

    Create one, :meth:`install` it on a built
    :class:`~repro.runtime.system.System` *before* the run, then
    :meth:`write` (or :meth:`to_chrome_trace`) after.
    """

    def __init__(self) -> None:
        self.events: list[dict] = []
        # Open-span bookkeeping lives entirely on the tracer so the
        # simulator never grows tracing-only fields.
        self._flush_start: dict[int, tuple[int, int]] = {}   # core -> (txn, t)
        self._log_records: dict[int, tuple[int, int, int]] = {}
        self._redo_commit: dict[int, tuple[int, int]] = {}   # txn -> (core, t)
        self._apply_start: dict[int, tuple[int, int]] = {}   # txn -> (t, lines)
        self._sq_tids: dict[int, int] = {}                   # id(sq) -> tid
        self._logm_tids: dict[int, int] = {}                 # id(logm) -> tid
        self._open_txns: dict[int, int] = {}                 # txn -> core

    # -- wiring ---------------------------------------------------------------

    def install(self, system: System) -> Tracer:
        """Attach to every traceable component of ``system``."""
        system.tracer = self
        self._meta_process(PID_SIM, "simulated machine")
        self._meta_process(PID_COUNTERS, "timelines")
        for core in system.cores:
            core.tracer = self
            core.sq.tracer = self
            self._sq_tids[id(core.sq)] = TID_SQ_BASE + core.core_id
            self._meta_thread(core.core_id, f"core{core.core_id}")
            self._meta_thread(TID_SQ_BASE + core.core_id,
                              f"sq{core.core_id}")
        for mc in system.controllers:
            if mc.logm is not None:
                mc.logm.tracer = self
                self._logm_tids[id(mc.logm)] = TID_LOGM_BASE + mc.mc_id
                self._meta_thread(TID_LOGM_BASE + mc.mc_id,
                                  f"logm{mc.mc_id}")
        if system.redo is not None:
            system.redo.tracer = self
            self._meta_thread(TID_REDO, "redo")
        self._meta_thread(TID_MACHINE, "machine")
        return self

    def _meta_process(self, pid: int, name: str) -> None:
        self.events.append({"name": "process_name", "ph": "M", "pid": pid,
                            "tid": 0, "ts": 0, "args": {"name": name}})

    def _meta_thread(self, tid: int, name: str) -> None:
        self.events.append({"name": "thread_name", "ph": "M", "pid": PID_SIM,
                            "tid": tid, "ts": 0, "args": {"name": name}})

    # -- low-level emitters ---------------------------------------------------

    def _span(self, tid: int, name: str, cat: str, start: int, end: int,
              args: dict | None = None) -> None:
        ev = {"name": name, "cat": cat, "ph": "X", "ts": start,
              "dur": end - start, "pid": PID_SIM, "tid": tid}
        if args:
            ev["args"] = args
        self.events.append(ev)

    def _instant(self, tid: int, name: str, cat: str, t: int,
                 args: dict | None = None) -> None:
        ev = {"name": name, "cat": cat, "ph": "i", "ts": t, "s": "t",
              "pid": PID_SIM, "tid": tid}
        if args:
            ev["args"] = args
        self.events.append(ev)

    def counter(self, name: str, t: int, values: dict) -> None:
        """Counter sample on the timelines track (used by the sampler)."""
        self.events.append({"name": name, "cat": "timeline", "ph": "C",
                            "ts": t, "pid": PID_COUNTERS, "tid": 0,
                            "args": values})

    # -- transaction lifecycle (hooks called by repro.cpu.core) ---------------

    def txn_begin(self, core_id: int, txn_id: int, t: int) -> None:
        self._open_txns[txn_id] = core_id
        self.events.append({"name": "txn", "cat": "txn", "ph": "b",
                            "id": txn_id, "ts": t, "pid": PID_SIM,
                            "tid": core_id,
                            "args": {"txn": txn_id, "core": core_id}})

    def txn_durable(self, core_id: int, txn_id: int, t: int) -> None:
        self._instant(core_id, "txn-durable", "txn", t, {"txn": txn_id})

    def txn_end(self, core_id: int, txn_id: int, t: int) -> None:
        self._open_txns.pop(txn_id, None)
        self.events.append({"name": "txn", "cat": "txn", "ph": "e",
                            "id": txn_id, "ts": t, "pid": PID_SIM,
                            "tid": core_id, "args": {"txn": txn_id}})

    def flush_begin(self, core_id: int, txn_id: int, t: int) -> None:
        self._flush_start[core_id] = (txn_id, t)

    def flush_end(self, core_id: int, t: int) -> None:
        open_flush = self._flush_start.pop(core_id, None)
        if open_flush is None:
            return
        txn_id, start = open_flush
        self._span(core_id, "commit-flush", "txn", start, t,
                   {"txn": txn_id})

    # -- store queue (hooks called by repro.cpu.store_queue) ------------------

    def sq_push(self, sq, occupancy: int, t: int) -> None:
        tid = self._sq_tids.get(id(sq), TID_SQ_BASE)
        self.counter(f"sq{tid - TID_SQ_BASE}.occupancy", t,
                     {"words": occupancy})

    def sq_retire(self, sq, issue_time: int, occupancy: int,
                  t: int) -> None:
        tid = self._sq_tids.get(id(sq), TID_SQ_BASE)
        self._span(tid, "sq-entry", "sq", issue_time, t)
        self.counter(f"sq{tid - TID_SQ_BASE}.occupancy", t,
                     {"words": occupancy})

    # -- undo log (hooks called by repro.atom.logm) ---------------------------

    def log_append(self, logm, record, core_id: int, t: int) -> None:
        key = id(record)
        if key not in self._log_records:
            tid = self._logm_tids.get(id(logm), TID_LOGM_BASE)
            self._log_records[key] = (tid, t, core_id)

    def log_record_durable(self, record, entries: int, t: int) -> None:
        open_rec = self._log_records.pop(id(record), None)
        if open_rec is None:
            return
        tid, start, core_id = open_rec
        self._span(tid, "log-record", "log", start, t,
                   {"entries": entries, "core": core_id})

    def log_record_discarded(self, record, entries: int, t: int) -> None:
        """Undo record dropped at commit truncation before its header
        persisted — the span closes with ``discarded`` set."""
        open_rec = self._log_records.pop(id(record), None)
        if open_rec is None:
            return
        tid, start, core_id = open_rec
        self._span(tid, "log-record", "log", start, t,
                   {"entries": entries, "core": core_id,
                    "discarded": True})

    def log_truncate(self, logm, core_id: int, t: int) -> None:
        tid = self._logm_tids.get(id(logm), TID_LOGM_BASE)
        self._instant(tid, "log-truncate", "log", t, {"core": core_id})

    # -- REDO backend (hooks called by repro.atom.redo) -----------------------

    def redo_commit_begin(self, core_id: int, txn_id: int, t: int) -> None:
        self._redo_commit[txn_id] = (core_id, t)

    def redo_commit_durable(self, txn_id: int, t: int) -> None:
        open_commit = self._redo_commit.pop(txn_id, None)
        if open_commit is None:
            return
        core_id, start = open_commit
        self._span(TID_REDO, "redo-commit", "redo", start, t,
                   {"txn": txn_id, "core": core_id})

    def backend_apply_begin(self, txn_id: int, lines: int, t: int) -> None:
        self._apply_start[txn_id] = (t, lines)

    def backend_apply_end(self, txn_id: int, t: int) -> None:
        open_apply = self._apply_start.pop(txn_id, None)
        if open_apply is None:
            return
        start, lines = open_apply
        self._span(TID_REDO, "backend-apply", "redo", start, t,
                   {"txn": txn_id, "lines": lines})

    # -- machine-level (hooks called by repro.runtime.system) -----------------

    def adr_flush(self, mc_id: int, blob_bytes: int, t: int) -> None:
        self._instant(TID_LOGM_BASE + mc_id, "adr-flush", "adr", t,
                      {"mc": mc_id, "bytes": blob_bytes})

    def power_failure(self, windows: list[str], t: int) -> None:
        self._instant(TID_MACHINE, "power-failure", "machine", t,
                      {"windows": list(windows)})
        # Transactions in flight when power failed end here, cut off —
        # close their spans so every begin stays matched.
        for txn_id, core_id in sorted(self._open_txns.items()):
            self.events.append({"name": "txn", "cat": "txn", "ph": "e",
                                "id": txn_id, "ts": t, "pid": PID_SIM,
                                "tid": core_id,
                                "args": {"txn": txn_id, "cut": True}})
        self._open_txns.clear()

    # -- export ---------------------------------------------------------------

    def to_chrome_trace(self) -> dict:
        """Chrome trace-event JSON object (``traceEvents`` wrapper).

        Events are sorted by timestamp (metadata first) so the file
        diffs cleanly and validators can assume monotonic order.
        """
        meta = [ev for ev in self.events if ev["ph"] == "M"]
        rest = sorted((ev for ev in self.events if ev["ph"] != "M"),
                      key=lambda ev: (ev["ts"], ev["pid"], ev["tid"]))
        return {
            "traceEvents": meta + rest,
            "displayTimeUnit": "ms",
            "otherData": {"clock": "simulated-cycles",
                          "generator": "repro.obs.trace"},
        }

    def write(self, path, *, check: bool = True) -> int:
        """Validate and write the trace; returns the event count."""
        trace = self.to_chrome_trace()
        if check:
            problems = validate_chrome_trace(trace["traceEvents"])
            if problems:
                raise ValueError(
                    f"invalid trace ({len(problems)} problem(s)): "
                    + "; ".join(problems[:5])
                )
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(trace, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return len(trace["traceEvents"])


_VALID_PHASES = {"X", "i", "b", "e", "C", "M"}


def validate_chrome_trace(events: list[dict]) -> list[str]:
    """Schema check for an event list; returns human-readable problems.

    Enforced: required Chrome-trace fields per phase, non-negative
    integer timestamps and durations, numeric counter values, and
    matched async begin/end pairs with ``begin.ts <= end.ts``.
    """
    problems: list[str] = []
    open_async: dict[tuple, list[int]] = {}
    for n, ev in enumerate(events):
        where = f"event {n}"
        ph = ev.get("ph")
        if ph not in _VALID_PHASES:
            problems.append(f"{where}: bad phase {ph!r}")
            continue
        for field in ("name", "pid", "tid"):
            if field not in ev:
                problems.append(f"{where}: missing {field!r}")
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not isinstance(ts, int) or ts < 0:
            problems.append(f"{where}: bad ts {ts!r}")
            continue
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, int) or dur < 0:
                problems.append(f"{where}: bad dur {dur!r}")
        elif ph == "C":
            args = ev.get("args", {})
            if not args or not all(
                isinstance(v, (int, float)) for v in args.values()
            ):
                problems.append(f"{where}: non-numeric counter args")
        elif ph in ("b", "e"):
            key = (ev.get("cat"), ev.get("name"), ev.get("id"))
            if key[2] is None:
                problems.append(f"{where}: async event without id")
                continue
            if ph == "b":
                open_async.setdefault(key, []).append(ts)
            else:
                stack = open_async.get(key)
                if not stack:
                    problems.append(f"{where}: end without begin {key!r}")
                elif stack.pop() > ts:
                    problems.append(
                        f"{where}: span {key!r} ends before it begins"
                    )
    for key, stack in open_async.items():
        if stack:
            problems.append(
                f"unmatched begin for async span {key!r} x{len(stack)}"
            )
    return problems
