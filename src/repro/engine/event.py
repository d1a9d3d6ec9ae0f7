"""A deterministic heap-based discrete-event scheduler.

All timing in the simulator flows through this engine.  Components
schedule zero-argument callbacks at absolute or relative cycle times; the
engine dispatches them in (time, insertion-order) order, so runs with the
same configuration and seed are bit-for-bit reproducible — a property the
crash-injection tests rely on (they re-run a workload and crash it at a
chosen cycle).

Ordering invariant
------------------
Heap entries are plain ``(time, seq, fn, handle)`` tuples.  ``seq`` is a
monotonically increasing insertion counter that is unique per entry, so
heap ordering is decided entirely by the C-level tuple comparison on
``(time, seq)`` — events at equal times dispatch in insertion order, and
the comparison never reaches ``fn``/``handle``.  Every scheduling path
(``at``, ``after``, ``post``, ``post_at``) draws from the same ``seq``
counter, which is what makes interleaved use of the fast and handle
paths deterministic.

Cancellation is O(1): the :class:`Event` handle is tombstoned (its
``cancelled`` flag set, the live-event counter decremented) and the heap
entry is skipped when it surfaces at pop time.  The live counter also
makes ``pending()``/``idle()`` O(1) — the simulation main loop checks
``idle()`` every time ``run`` returns.

Batch-timing support
--------------------
Two primitives let hot components retire events without a heap round
trip, **bit-for-bit exactly** when — and only when — the heap proves no
other event could interleave:

* :meth:`peek_time` exposes the earliest queued entry's time.  A
  component that knows its own future work (e.g. the channel arbiter's
  slot sequence) may perform any slot strictly earlier than that time
  inline: nothing can dispatch in between, so no observer exists to
  tell the difference.
* :meth:`call_soon` fuses a *tail-position* ``post(0, fn)``: when no
  queued entry shares the current cycle (and no stop is pending),
  ``fn`` is invoked directly — it would have been the very next
  dispatch with the same ``now``.

Work retired through either primitive counts as a **virtual dispatch**;
``events_dispatched`` reports heap plus virtual dispatches, so the
events/sec figure of merit keeps measuring the same logical event
stream across kernels that batch differently (see README
"Performance").
"""

from __future__ import annotations

import heapq
from collections.abc import Callable

from repro.common.errors import SimulationError

#: Sentinel returned by :meth:`Engine.peek_time` on an empty heap —
#: larger than any reachable cycle, so ``t < peek_time()`` stays a
#: plain int comparison.
NEVER = 1 << 62


class Event:
    """Handle to a scheduled callback; supports O(1) cancellation."""

    __slots__ = ("time", "seq", "fn", "cancelled", "_engine")

    def __init__(self, time: int, seq: int, fn: Callable[[], None],
                 engine: "Engine | None" = None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.cancelled = False
        #: Owning engine while the event is still queued; dropped at
        #: dispatch or cancellation so a late ``cancel()`` cannot
        #: corrupt the live-event counter.
        self._engine = engine

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent).

        The heap entry stays in place as a tombstone and is discarded
        when it reaches the top, so cancellation itself is O(1).
        """
        if self.cancelled:
            return
        self.cancelled = True
        engine = self._engine
        if engine is not None:
            self._engine = None
            engine._live -= 1

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time}, seq={self.seq}, {state})"


class Engine:
    """The global event queue and simulated clock."""

    def __init__(self) -> None:
        self.now: int = 0
        #: Min-heap of (time, seq, fn, handle-or-None) tuples.
        self._queue: list[tuple] = []
        #: One-slot bypass lane: a single ``(time, seq, fn)`` entry kept
        #: out of the heap.  Handle-free posts claim it when free; the
        #: dispatch loop merges it with the heap by exact ``(time, seq)``
        #: order, so scheduling semantics are bit-for-bit identical to
        #: heap-only — chains of causally dependent events (the common
        #: simulator shape: each callback schedules its continuation)
        #: flow through the lane and skip both heap operations.
        self._next: tuple | None = None
        self._seq = 0
        #: Live (non-cancelled, undispatched) events — kept O(1) so the
        #: per-iteration idle check in ``System.run`` is free.
        self._live = 0
        self._dispatched = 0
        #: Events retired inline by the batch-timing primitives
        #: (``call_soon`` fusion, ``count_virtual`` from slot batching)
        #: instead of through the heap.  Each one corresponds to exactly
        #: one dispatch the reference (unbatched) kernel performs.
        self._virtual = 0
        self._running = False
        self._stop_requested = False

    # -- scheduling -------------------------------------------------------

    def at(self, time: int, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` at absolute cycle ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time}, now is {self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        event = Event(int(time), seq, fn, self)
        heapq.heappush(self._queue, (event.time, seq, fn, event))
        return event

    def rearm(self, event: Event, time: int) -> None:
        """Queue an already-dispatched ``event`` again at ``time`` (>= now).

        The event keeps its original insertion sequence number, so at
        ``time`` it dispatches exactly where a fresh :meth:`at` call made
        at its original insertion point would have: after every event
        with an earlier time, and among same-time events in original
        insertion order.  This is what lets one run stop at a series of
        crash cycles (see ``System.pause_at``) at exactly the dispatch
        position an independent run crashing at each of them would.
        """
        if event._engine is not None or event.cancelled:
            raise SimulationError(f"cannot re-arm {event!r}: it is still "
                                  f"queued or was cancelled")
        if time < self.now:
            raise SimulationError(
                f"cannot re-arm event at {time}, now is {self.now}"
            )
        event.time = int(time)
        event._engine = self
        self._live += 1
        heapq.heappush(self._queue, (event.time, event.seq, event.fn, event))

    def after(self, delay: int, fn: Callable[[], None]) -> Event:
        """Schedule ``fn`` ``delay`` cycles from now (delay >= 0)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.at(self.now + int(delay), fn)

    def post(self, delay: int, fn: Callable[[], None]) -> None:
        """Fast path of :meth:`after`: no cancellation handle.

        Hot components schedule hundreds of thousands of events that are
        never cancelled; skipping the :class:`Event` allocation is a
        measurable win.  ``delay`` MUST be a non-negative int: unlike
        :meth:`after`, no ``int()`` coercion is applied (a float would
        leak into ``now`` and silently break the bit-for-bit golden
        contract — see tests/test_kernel_golden.py).
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        time = self.now + delay
        nxt = self._next
        if nxt is None:
            self._next = (time, seq, fn)
        elif time < nxt[0]:
            # Keep the lane holding the minimum: the displaced entry
            # pays the heap, the soonest event keeps the fast path.
            self._next = (time, seq, fn)
            heapq.heappush(self._queue, (nxt[0], nxt[1], nxt[2], None))
        else:
            heapq.heappush(self._queue, (time, seq, fn, None))

    def post_at(self, time: int, fn: Callable[[], None]) -> None:
        """Fast path of :meth:`at`: no cancellation handle.

        ``time`` MUST be an int >= now (no ``int()`` coercion, unlike
        :meth:`at` — see :meth:`post`).
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time}, now is {self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        nxt = self._next
        if nxt is None:
            self._next = (time, seq, fn)
        elif time < nxt[0]:
            self._next = (time, seq, fn)
            heapq.heappush(self._queue, (nxt[0], nxt[1], nxt[2], None))
        else:
            heapq.heappush(self._queue, (time, seq, fn, None))

    # -- batch-timing primitives ------------------------------------------

    def peek_time(self) -> int:
        """Time of the earliest queued entry (``NEVER`` when empty).

        Tombstoned entries are included, which only makes callers
        conservative: a cancelled event's slot can never be *later*
        than the live minimum.
        """
        queue = self._queue
        t = queue[0][0] if queue else NEVER
        nxt = self._next
        if nxt is not None and nxt[0] < t:
            return nxt[0]
        return t

    def count_virtual(self, n: int = 1) -> None:
        """Account ``n`` events retired inline by a batching component.

        Call once per reference-kernel event whose work was performed
        without a heap round trip (e.g. one channel arbiter slot folded
        into a batch).  Keeps ``events_dispatched`` — the benchmark's
        figure of merit — counting the same logical event stream.
        """
        self._virtual += n

    def call_soon(self, fn: Callable[[], None]) -> None:
        """``post(0, fn)`` with exact tail-call fusion.

        When no queued entry shares the current cycle, ``fn`` would be
        the very next dispatch at the same ``now`` — so it runs inline,
        skipping the heap round trip, and is accounted as a virtual
        dispatch.  Otherwise (same-cycle events pending, a stop
        requested, or the engine not running) this falls back to a
        plain ``post(0, fn)``.

        ONLY sound for tail-position continuations: the caller must do
        nothing observable after this call, or the fused ``fn`` would
        see state the deferred one would not.
        """
        if (
            self._running
            and not self._stop_requested
            and self.peek_time() > self.now
        ):
            self._virtual += 1
            fn()
            return
        # Class-level call on purpose: instrumentation (the perf
        # profiler) patches the instance's ``post``/``call_soon`` and
        # wraps ``fn`` once — the fallback must not wrap it twice.
        Engine.post(self, 0, fn)

    # -- execution --------------------------------------------------------

    def run(self, until: int | None = None, max_events: int | None = None) -> int:
        """Dispatch events until the queue empties or a limit is hit.

        ``until`` bounds simulated time (events at t > until stay queued
        and ``now`` advances to ``until``); ``max_events`` bounds the
        number of dispatched callbacks.  Returns the number of events
        dispatched by this call.
        """
        if self._running:
            raise SimulationError("engine.run() re-entered")
        self._running = True
        self._stop_requested = False
        dispatched = 0
        queue = self._queue
        heappop = heapq.heappop
        # ``until``/``max_events`` are loop-invariant; fold them into
        # int horizons so the dispatch loop tests plain comparisons per
        # event (the common call is run(until=...) with no event limit).
        horizon = NEVER if until is None else until
        budget = NEVER if max_events is None else max_events
        try:
            while True:
                if self._stop_requested or dispatched >= budget:
                    break
                # Merge the bypass lane with the heap in exact
                # (time, seq) order — the lane is just a heap entry
                # that never paid the heap.
                nxt = self._next
                if nxt is not None and (
                    not queue
                    or nxt[0] < queue[0][0]
                    or (nxt[0] == queue[0][0] and nxt[1] < queue[0][1])
                ):
                    time, _seq, fn = nxt
                    if time > horizon:
                        self.now = until
                        break
                    self._next = None
                elif queue:
                    time, _seq, fn, handle = queue[0]
                    if handle is not None and handle.cancelled:
                        heappop(queue)  # tombstone: off the live count
                        continue
                    if time > horizon:
                        self.now = until
                        break
                    heappop(queue)
                    if handle is not None:
                        handle._engine = None
                else:
                    # Natural exit (nothing pending): advance to the
                    # horizon — unless a stop was requested by the
                    # final event, in which case the clock freezes at
                    # that event's time.
                    if (
                        until is not None
                        and until > self.now
                        and not self._stop_requested
                    ):
                        self.now = until
                    break
                self._live -= 1
                self.now = time
                fn()
                dispatched += 1
        finally:
            self._running = False
            self._dispatched += dispatched
        return dispatched

    def stop(self) -> None:
        """Request that ``run`` return after the current event.

        Used by crash injection: the crash callback freezes the machine
        mid-flight, leaving queued events (e.g. pending persists) undone,
        exactly like a power failure.
        """
        self._stop_requested = True

    # -- introspection ----------------------------------------------------

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued (O(1))."""
        return self._live

    @property
    def events_dispatched(self) -> int:
        """Total events dispatched over the engine's lifetime.

        Heap dispatches plus virtual dispatches (events retired inline
        by the batch-timing primitives) — i.e. the size of the logical
        event stream, invariant to how much of it was batched.
        """
        return self._dispatched + self._virtual

    @property
    def virtual_dispatches(self) -> int:
        """Events retired inline by batching (subset of the above)."""
        return self._virtual

    def idle(self) -> bool:
        """True when no live events remain (O(1))."""
        return self._live == 0

    def __repr__(self) -> str:
        return f"Engine(now={self.now}, pending={self._live})"
