"""Differential net: the channel arbiter and the engine against frozen
reference kernels.

``ReferenceEngine`` (heap-only scheduling, pure ``(time, seq)`` dispatch
order) and ``ReferenceChannel`` (one dispatched arbiter event per device
slot, one posted wake-up per freed write slot) are re-implemented here
and frozen: they are the executable spec that any change to
``Engine`` scheduling or ``Channel`` arbitration is judged against.
The net drives seeded request streams — including backpressure,
priority writes, in-flight tracking and drop/drain crash interleavings
— and seeded scheduling storms through both and requires identical
completion times, completion order, statistics and dispatch traces.
"""

from __future__ import annotations

import random

import pytest

from repro.common.stats import Stats
from repro.config import MemoryConfig
from repro.engine import Engine
from repro.mem.channel import AccessKind, Channel


# -- reference implementations ------------------------------------------------


class ReferenceEngine:
    """Heap-only engine: the scheduling semantics ``Engine`` must match.

    Every handle-free post goes through the heap, dispatch order is pure
    ``(time, seq)``.
    """

    def __init__(self):
        import heapq

        self._heapq = heapq
        self.now = 0
        self._queue = []
        self._seq = 0
        self._stop = False

    def post(self, delay, fn):
        assert delay >= 0
        self._seq += 1
        self._heapq.heappush(self._queue, (self.now + delay, self._seq, fn))

    def post_at(self, time, fn):
        assert time >= self.now
        self._seq += 1
        self._heapq.heappush(self._queue, (time, self._seq, fn))

    def stop(self):
        self._stop = True

    def run(self):
        heappop = self._heapq.heappop
        while self._queue and not self._stop:
            time, _seq, fn = heappop(self._queue)
            self.now = time
            fn()


class ReferenceChannel(Channel):
    """The reference arbiter: one dispatched event per device slot,
    one posted wake-up per freed write slot."""

    def _issue_next(self):
        self._scheduled = False
        req = self._select()
        if req is None:
            return
        now = self.engine.now
        latency, bank_floor, add_bytes, is_read = self._kind_info[req.kind]
        ser = self._serialization_cycles(req.size)
        if bank_floor > ser:
            ser = bank_floor
        req.issue_time = now
        self._busy_until = now + ser
        self._add_busy(ser)
        add_bytes(req.size)
        self._add_queue_wait(now - req.enqueue_time)
        if req.on_done is not None:
            if is_read or not self.track_inflight_writes:
                self.engine.post_at(now + ser + latency, req.on_done)
            else:
                self._inflight_writes.append(req)
                self.engine.post_at(now + ser + latency,
                                    self._write_completion(req))
        if not is_read:
            if self._write_waiters:
                self.engine.post(0, self._write_waiters.popleft())
        if self._read_q or self._write_q:
            busy = self._busy_until
            self._scheduled = True
            self.engine.post_at(busy if busy > now else now,
                                self._issue_next)


# -- randomized stream driver -------------------------------------------------


def _mem_config() -> MemoryConfig:
    cfg = MemoryConfig()
    cfg.write_queue_depth = 4  # small: exercise backpressure often
    return cfg


def _drive(channel_cls, engine, seed: int, crash: str | None,
           track_inflight: bool):
    """Run one seeded random request stream; return the observed trace."""
    rng = random.Random(seed)
    stats = Stats().domain("ch")
    channel = channel_cls(engine, _mem_config(), stats, "ch")
    channel.track_inflight_writes = track_inflight
    trace = []

    def completion(tag):
        def done():
            trace.append((tag, engine.now))
        return done

    def submit_write(tag, kind, addr, size, priority):
        def attempt():
            if not channel.write(kind, addr, size, completion(tag),
                                 priority=priority):
                channel.when_write_space(attempt)
        attempt()

    kinds_w = [AccessKind.DATA_WRITE, AccessKind.LOG_WRITE]
    kinds_r = [AccessKind.DATA_READ, AccessKind.LOG_READ]
    n = 120
    for i in range(n):
        at = rng.randrange(0, 2_500)
        size = rng.choice([32, 64, 64, 64, 512])
        addr = rng.randrange(0, 1 << 20) & ~63
        if rng.random() < 0.55:
            kind = rng.choice(kinds_w)
            priority = rng.random() < 0.1
            engine.post_at(
                at, (lambda t=i, k=kind, a=addr, s=size, p=priority:
                     submit_write(t, k, a, s, p))
            )
        else:
            kind = rng.choice(kinds_r)
            engine.post_at(
                at, (lambda t=i, k=kind, a=addr, s=size:
                     channel.read(k, a, s, completion(t)))
            )
    if crash is not None:
        cut = rng.randrange(500, 2_000)

        def power_cut():
            engine.stop()
            if crash == "drop":
                trace.append(("dropped", channel.drop_pending()))
            else:
                trace.append(("drain-start", engine.now))
                trace.append(("drained", channel.drain_pending()))

        engine.post_at(cut, power_cut)
    engine.run()
    return trace, stats.as_dict(), channel._busy_until


@pytest.mark.parametrize("crash", [None, "drop", "drain"])
@pytest.mark.parametrize("track_inflight", [False, True])
def test_channel_matches_reference(crash, track_inflight):
    """Completion times/order and stats are identical across 20 seeds."""
    for seed in range(20):
        ref = _drive(ReferenceChannel, ReferenceEngine(), seed, crash,
                     track_inflight)
        fast = _drive(Channel, Engine(), seed, crash, track_inflight)
        assert fast[0] == ref[0], (
            f"seed {seed} crash={crash} track={track_inflight}: "
            f"completion trace diverged\nref:  {ref[0]}\nfast: {fast[0]}"
        )
        assert fast[1] == ref[1], (
            f"seed {seed}: stats diverged\nref:  {ref[1]}\nfast: {fast[1]}"
        )
        assert fast[2] == ref[2], f"seed {seed}: busy_until diverged"


# -- engine scheduling equivalence --------------------------------------------


def _engine_script(engine, post, post_at, seed: int):
    """Seeded random scheduling storm; returns the dispatch trace."""
    rng = random.Random(seed)
    trace = []

    def make(tag, depth):
        def fn():
            trace.append((tag, engine.now))
            if depth < 3:
                for j in range(rng.randrange(0, 3)):
                    post(rng.randrange(0, 5), make((tag, j), depth + 1))
        return fn

    for i in range(40):
        if rng.random() < 0.5:
            post(rng.randrange(0, 50), make(i, 0))
        else:
            post_at(rng.randrange(0, 50), make(i, 0))
    return trace


@pytest.mark.parametrize("seed", range(12))
def test_engine_matches_heap_reference(seed):
    """The engine dispatches in exact (time, seq) order."""
    ref_engine = ReferenceEngine()
    ref = _engine_script(ref_engine, ref_engine.post, ref_engine.post_at,
                         seed)
    ref_engine.run()

    eng = Engine()
    fast = _engine_script(eng, eng.post, eng.post_at, seed)
    eng.run()
    assert fast == ref
