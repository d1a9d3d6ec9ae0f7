"""2D mesh network timing model.

Messages are charged injection overhead, per-hop router/link latency, and
flit serialization (a 64 B payload plus header is five 16 B flits).  An
optional coarse contention model tracks cumulative occupancy per source
tile and delays injection when a tile has oversubscribed its injection
port; full per-link flow control is intentionally out of scope (the
paper's results are driven by memory-side queueing, not NoC saturation).

Timing is served from tables built at construction: an all-pairs
``hops * hop_cycles`` matrix (from :class:`Topology`'s hop matrix) and a
memoized payload -> flits cache, so :meth:`latency` and :meth:`send` are
a couple of array/dict reads instead of coordinate math per message.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.common.stats import StatDomain
from repro.config import NocConfig
from repro.engine import Engine
from repro.noc.topology import Topology

#: Bytes of header/command metadata charged to every message.
HEADER_BYTES = 8


class Mesh:
    """The on-chip interconnect: latency calculator and message scheduler."""

    def __init__(
        self,
        engine: Engine,
        topology: Topology,
        cfg: NocConfig,
        stats: StatDomain,
        model_contention: bool = True,
    ):
        self.engine = engine
        self.topology = topology
        self.cfg = cfg
        self.stats = stats
        self.model_contention = model_contention
        #: Earliest cycle each tile's injection port is next free.
        self._inject_free = [0] * topology.num_tiles
        # -- precomputed timing tables ------------------------------------
        hop_cycles = cfg.hop_cycles
        #: hops(src, dst) * hop_cycles for every tile pair.
        self._hop_lat = [
            [hops * hop_cycles for hops in row] for row in topology.hop_matrix
        ]
        #: max(1, hops(src, dst)) — the flit-hops accounting distance.
        self._acct_hops = [
            [hops if hops > 0 else 1 for hops in row]
            for row in topology.hop_matrix
        ]
        #: payload_bytes -> flit count, filled on first use.
        self._flit_cache: dict[int, int] = {}
        self._inject_cycles = cfg.inject_cycles
        self._flit_bytes = cfg.flit_bytes
        # Hot-path counters, bound once (see StatDomain.counter).
        self._add_messages = stats.counter("messages")
        self._add_flit_hops = stats.counter("flit_hops")
        self._add_inject_stall = stats.counter("inject_stall_cycles")
        self._add_streamed = stats.counter("streamed_messages")

    # -- timing -----------------------------------------------------------------

    def flits(self, payload_bytes: int) -> int:
        """Number of flits for a message with ``payload_bytes`` of data."""
        flits = self._flit_cache.get(payload_bytes)
        if flits is None:
            total = payload_bytes + HEADER_BYTES
            flits = max(1, -(-total // self._flit_bytes))
            self._flit_cache[payload_bytes] = flits
        return flits

    def latency(self, src_tile: int, dst_tile: int, payload_bytes: int) -> int:
        """Zero-load latency of a message between two tiles."""
        flits = self._flit_cache.get(payload_bytes)
        if flits is None:
            flits = self.flits(payload_bytes)
        return self._inject_cycles + self._hop_lat[src_tile][dst_tile] + flits

    # -- message delivery ---------------------------------------------------------

    def send(
        self,
        src_tile: int,
        dst_tile: int,
        payload_bytes: int,
        on_arrive: Callable[[], None],
    ) -> None:
        """Deliver a message; ``on_arrive`` fires at the destination.

        With contention modelling on, back-to-back messages from one tile
        serialize on its injection port at one flit per cycle.
        """
        flits = self._flit_cache.get(payload_bytes)
        if flits is None:
            flits = self.flits(payload_bytes)
        now = self.engine.now
        depart = now
        if self.model_contention:
            free = self._inject_free[src_tile]
            if free > now:
                depart = free
                self._add_inject_stall(free - now)
            self._inject_free[src_tile] = depart + flits
        arrive = (depart + self._inject_cycles
                  + self._hop_lat[src_tile][dst_tile] + flits)
        self._add_messages()
        self._add_flit_hops(flits * self._acct_hops[src_tile][dst_tile])
        self.engine.post_at(arrive, on_arrive)

    def send_streamed(
        self,
        src_tile: int,
        dst_tile: int,
        payload_bytes: int,
        on_arrive: Callable[[], None],
    ) -> None:
        """Deliver a message on a dedicated streaming virtual network.

        Used for write-combining log streams (the REDO comparator's
        buffers drain through their own datapath, so they do not
        serialize against the tile's demand-miss injection port).
        """
        arrive = self.engine.now + self.latency(src_tile, dst_tile,
                                                payload_bytes)
        self._add_streamed()
        self.engine.post_at(arrive, on_arrive)

    def request_response(
        self,
        src_tile: int,
        dst_tile: int,
        request_bytes: int,
        response_bytes: int,
    ) -> int:
        """Zero-load round-trip latency (request there, response back)."""
        return self.latency(src_tile, dst_tile, request_bytes) + self.latency(
            dst_tile, src_tile, response_bytes
        )

    def __repr__(self) -> str:
        return f"Mesh({self.topology.rows}x{self.topology.cols})"
