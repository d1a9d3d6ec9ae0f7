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
(``at``, ``after``, ``post``, ``post_at``) pushes onto the one heap and
draws from the same ``seq`` counter, which is what makes interleaved
use of the fast and handle paths deterministic; ``run`` pops only that
heap, one callback per dispatch.

Cancellation is O(1): the :class:`Event` handle is tombstoned (its
``cancelled`` flag set, the live-event counter decremented) and the heap
entry is skipped when it surfaces at pop time.  The live counter also
makes ``pending()``/``idle()`` O(1) — the simulation main loop checks
``idle()`` every time ``run`` returns.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable

from repro.common.errors import SimulationError

#: Horizon and budget of an unbounded :meth:`Engine.run` — larger than
#: any reachable cycle, so the dispatch loop's limit tests stay plain
#: int comparisons.
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
        self._seq = 0
        #: Live (non-cancelled, undispatched) events — kept O(1) so the
        #: per-iteration idle check in ``System.run`` is free.
        self._live = 0
        self._dispatched = 0
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
        heapq.heappush(self._queue, (self.now + delay, seq, fn, None))

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
        heapq.heappush(self._queue, (time, seq, fn, None))

    # -- execution --------------------------------------------------------

    def run(self, until: int | None = None, max_events: int | None = None) -> int:
        """Dispatch events until the queue empties or a limit is hit.

        ``until`` bounds simulated time: events at t > until stay queued
        and ``now`` advances to ``until`` (never backwards: a horizon
        already behind the clock leaves it where it is).  ``max_events``
        bounds the number of dispatched callbacks.  Returns the number
        of events dispatched by this call.
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
            while not self._stop_requested and dispatched < budget:
                if not queue or queue[0][0] > horizon:
                    # Nothing left by the horizon: the clock advances to
                    # it.  A stop freezes the clock at the stopping
                    # event's time instead (the loop condition).
                    if until is not None and until > self.now:
                        self.now = until
                    break
                time, _seq, fn, handle = heappop(queue)
                if handle is not None:
                    if handle.cancelled:
                        continue  # tombstone: already off the live count
                    handle._engine = None
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
        """Total events dispatched over the engine's lifetime."""
        return self._dispatched

    def idle(self) -> bool:
        """True when no live events remain (O(1))."""
        return self._live == 0

    def __repr__(self) -> str:
        return f"Engine(now={self.now}, pending={self._live})"
