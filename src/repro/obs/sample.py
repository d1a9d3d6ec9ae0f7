"""Time-series sampling of a running simulated machine.

:class:`StatSampler` rides the discrete-event engine: an installed
sampler posts itself a tick every ``interval`` simulated cycles and
records a snapshot combining

* **deltas** of :class:`~repro.common.stats.StatDomain` counters since
  the previous tick (channel busy cycles, committed transactions →
  utilization and throughput timelines), and
* **live gauges** read directly from the components (store-queue
  depth, channel write-queue depth, undo-log slots with live AUS
  state — the ADR fill — and REDO outstanding work).

The sampler's tick is a real engine event, but it only *reads*: no
simulated state changes, no stats counters move, and an extra queued
event leaves the ``(time, seq)`` order of all other events unchanged,
so sampled runs produce identical results and golden digests.  The
tick stops rescheduling once every core finished or the machine
crashed, keeping ``System.drain()`` convergent.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.obs.trace import Tracer
    from repro.runtime.system import System

DEFAULT_INTERVAL = 1_000


class StatSampler:
    """Periodic delta-sampler over a system's stat domains."""

    def __init__(self, system: System, interval: int = DEFAULT_INTERVAL):
        if interval <= 0:
            raise ValueError("sampler interval must be > 0 cycles")
        self.system = system
        self.interval = int(interval)
        self.samples: list[dict] = []
        self._prev: dict[str, float] = {}
        self._installed = False

    # -- wiring ---------------------------------------------------------------

    def install(self) -> StatSampler:
        """Schedule the first tick; call once, before ``system.run()``."""
        if self._installed:
            return self
        self._installed = True
        engine = self.system.engine
        engine.post_at(engine.now + self.interval, self._tick)
        return self

    # -- sampling -------------------------------------------------------------

    def _delta(self, key: str, value: float) -> float:
        prev = self._prev.get(key, 0.0)
        self._prev[key] = value
        return value - prev

    def _tick(self) -> None:
        system = self.system
        self.samples.append(self._snapshot())
        # Stop once the machine is done or dead: a self-rescheduling
        # event would otherwise keep System.drain() from converging.
        if system._crashed or len(system._done_cores) >= len(system.cores):
            return
        engine = system.engine
        engine.post_at(engine.now + self.interval, self._tick)

    def _snapshot(self) -> dict:
        system = self.system
        now = system.engine.now
        sample: dict = {"cycle": now}

        committed = sum(
            core.stats.get("txns_committed") for core in system.cores
        )
        sample["txns_committed"] = committed
        sample["txns_delta"] = self._delta("txns", committed)

        sq_depth = sum(core.sq.occupancy() for core in system.cores)
        sample["sq_depth"] = sq_depth

        busy: dict[str, float] = {}
        write_queue = 0
        for mc in system.controllers:
            for channel in mc.channels:
                busy[channel.name] = self._delta(
                    f"busy.{channel.name}",
                    channel.stats.get("busy_cycles"),
                )
                write_queue += channel.pending_writes()
        sample["channel_busy"] = busy
        sample["write_queue_depth"] = write_queue

        log_slots = 0
        log_in_flight = 0
        for mc in system.controllers:
            if mc.logm is not None:
                log_slots += len(mc.logm.active_slots())
                log_in_flight += int(mc.logm.posted_log_in_flight())
        sample["adr_active_slots"] = log_slots
        sample["log_in_flight"] = log_in_flight
        if system.redo is not None:
            sample["redo_log_outstanding"] = int(
                system.redo.log_writes_outstanding()
            )
            sample["backend_apply_pending"] = int(
                system.redo.backend_apply_pending()
            )
        return sample

    # -- export ---------------------------------------------------------------

    def to_dict(self) -> dict:
        """Timeline payload for perf/campaign artifacts."""
        return {"interval_cycles": self.interval,
                "samples": list(self.samples)}

    def emit_counters(self, tracer: Tracer) -> int:
        """Replay the timeline as Chrome-trace counter events."""
        n = 0
        for sample in self.samples:
            t = sample["cycle"]
            tracer.counter("txn-throughput", t,
                           {"committed-per-interval": sample["txns_delta"]})
            tracer.counter("sq-depth", t, {"words": sample["sq_depth"]})
            tracer.counter("write-queue", t,
                           {"lines": sample["write_queue_depth"]})
            busy = {name: cycles
                    for name, cycles in sample["channel_busy"].items()}
            if busy:
                tracer.counter("channel-busy", t, busy)
            tracer.counter("log-occupancy", t, {
                "adr-active-slots": sample["adr_active_slots"],
                "log-in-flight": sample["log_in_flight"],
            })
            if "redo_log_outstanding" in sample:
                tracer.counter("redo-outstanding", t, {
                    "log-writes": sample["redo_log_outstanding"],
                    "backend-apply": sample["backend_apply_pending"],
                })
            n += 1
        return n
