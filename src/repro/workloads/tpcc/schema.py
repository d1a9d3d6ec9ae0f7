"""TPC-C schema over persistent B+-Trees.

The paper implements the TPC-C schema with B+-Trees (following
REWIND [6]) and drives it with 32 terminals issuing new-order
transactions at scale factor 1.  Here every table is a
:class:`~repro.workloads.bplustree.BPlusTree` keyed by a packed integer
key, whose values point to fixed-layout row blocks in the NVM heap.

Row layouts (all fields u64, little-endian):

==============  =================================================
WAREHOUSE       [w_id][w_tax][w_ytd]
DISTRICT        [d_id][d_w_id][d_tax][d_next_o_id][d_ytd]
CUSTOMER        [c_id][c_d_id][c_w_id][c_discount][c_balance]
ITEM            [i_id][i_price][i_data]
STOCK           [s_i_id][s_w_id][s_quantity][s_ytd][s_order_cnt]
ORDER           [o_id][o_d_id][o_w_id][o_c_id][o_ol_cnt][o_entry_d]
NEW_ORDER       [no_o_id][no_d_id][no_w_id]
ORDER_LINE      [ol_o_id][ol_d_id][ol_w_id][ol_number][ol_i_id]
                [ol_quantity][ol_amount]
==============  =================================================

Row sizes are deliberately the real column sets (reduced to u64
scalars); row *counts* default to a scaled-down population so Python
simulation stays tractable — ``TpccScale.paper()`` gives the full
scale-factor-1 counts.
"""

from __future__ import annotations

import struct

from dataclasses import dataclass

from repro.cpu import ops

# Hot-path op helpers: the structure methods below yield ops directly
# instead of delegating to PMem generators — one generator frame less
# per simulated memory access (see the kernel perf notes in README).
_Load = ops.Load
_Store = ops.Store
_u64 = struct.Struct("<Q")
_unpack = _u64.unpack
_pack = _u64.pack

from repro.workloads.bplustree import BPlusTree

#: Field counts per row (u64s).
WAREHOUSE_FIELDS = 3
DISTRICT_FIELDS = 5
CUSTOMER_FIELDS = 5
ITEM_FIELDS = 3
STOCK_FIELDS = 5
ORDER_FIELDS = 6
NEW_ORDER_FIELDS = 3
ORDER_LINE_FIELDS = 7

#: DISTRICT field offsets used by new-order.
D_NEXT_O_ID = 3 * 8
#: STOCK field offsets used by new-order.
S_QUANTITY = 2 * 8
S_YTD = 3 * 8
S_ORDER_CNT = 4 * 8


@dataclass
class TpccScale:
    """Population knobs (defaults scaled for simulation speed)."""

    warehouses: int = 1
    districts_per_warehouse: int = 10
    customers_per_district: int = 30
    items: int = 200
    #: Order-line items per new-order transaction: TPC-C draws 5..15.
    min_ol: int = 5
    max_ol: int = 15

    @staticmethod
    def paper() -> "TpccScale":
        """Full TPC-C scale factor 1 (slow in pure-Python simulation)."""
        return TpccScale(
            warehouses=1,
            districts_per_warehouse=10,
            customers_per_district=3000,
            items=100_000,
        )


def _key_wd(w: int, d: int) -> int:
    return w * 100 + d


def _key_wdc(w: int, d: int, c: int) -> int:
    return (w * 100 + d) * 100_000 + c


def _key_order(w: int, d: int, o: int) -> int:
    return (w * 100 + d) * 10_000_000 + o


def _key_order_line(w: int, d: int, o: int, number: int) -> int:
    return _key_order(w, d, o) * 100 + number


def _key_stock(w: int, i: int) -> int:
    return w * 1_000_000 + i


class TpccTables:
    """All TPC-C tables plus row allocation helpers.

    Physical design notes (concurrency-correctness):

    * The ORDERS / NEW_ORDER / ORDER_LINE tables are **partitioned per
      district** — a standard main-memory TPC-C layout — so every
      structural insert is covered by the inserting transaction's
      district lock.  The remaining tables are structurally read-only
      at run time (only row fields are updated).
    * All rows are **cache-line aligned**: ATOM logs and rolls back
      whole lines, so rows of concurrent transactions must never share
      a line (the same no-false-sharing rule Atlas imposes on
      critical-section data).
    """

    def __init__(self, heap, scale: TpccScale, order: int = 16):
        self.heap = heap
        self.scale = scale
        # Tables share arena 0: TPC-C state is global, unlike the
        # per-thread micro-benchmark instances.
        self.warehouse = BPlusTree(heap, arena=0, order=order)
        self.district = BPlusTree(heap, arena=0, order=order)
        self.customer = BPlusTree(heap, arena=0, order=order)
        self.item = BPlusTree(heap, arena=0, order=order)
        self.stock = BPlusTree(heap, arena=0, order=order)
        # Per-district partitions, keyed by key_wd(w, d).
        self.orders: dict[int, BPlusTree] = {}
        self.new_order: dict[int, BPlusTree] = {}
        self.order_line: dict[int, BPlusTree] = {}
        for w in range(1, scale.warehouses + 1):
            for d in range(1, scale.districts_per_warehouse + 1):
                key = _key_wd(w, d)
                self.orders[key] = BPlusTree(heap, arena=0, order=order)
                self.new_order[key] = BPlusTree(heap, arena=0, order=order)
                self.order_line[key] = BPlusTree(heap, arena=0, order=order)

    # -- key packing (exposed for the workload and tests) ----------------------

    key_wd = staticmethod(_key_wd)
    key_wdc = staticmethod(_key_wdc)
    key_order = staticmethod(_key_order)
    key_order_line = staticmethod(_key_order_line)
    key_stock = staticmethod(_key_stock)

    # -- population ---------------------------------------------------------------

    def create_all(self):
        """Create every tree (generator; run under a driver)."""
        for tree in (
            self.warehouse, self.district, self.customer, self.item,
            self.stock,
        ):
            yield from tree.create()
        for partition in (self.orders, self.new_order, self.order_line):
            for tree in partition.values():
                yield from tree.create()

    def populate(self, rng):
        """Load the initial population (generator)."""
        s = self.scale
        for w in range(1, s.warehouses + 1):
            row = yield from self._new_row(WAREHOUSE_FIELDS,
                                           [w, rng.randrange(2000), 0])
            yield from self.warehouse.put(w, row)
            for d in range(1, s.districts_per_warehouse + 1):
                row = yield from self._new_row(
                    DISTRICT_FIELDS, [d, w, rng.randrange(2000), 3001, 0]
                )
                yield from self.district.put(_key_wd(w, d), row)
                for c in range(1, s.customers_per_district + 1):
                    row = yield from self._new_row(
                        CUSTOMER_FIELDS,
                        [c, d, w, rng.randrange(5000), 0],
                    )
                    yield from self.customer.put(_key_wdc(w, d, c), row)
            for i in range(1, s.items + 1):
                srow = yield from self._new_row(
                    STOCK_FIELDS, [i, w, 50 + rng.randrange(50), 0, 0]
                )
                yield from self.stock.put(_key_stock(w, i), srow)
        for i in range(1, s.items + 1):
            row = yield from self._new_row(
                ITEM_FIELDS, [i, 100 + rng.randrange(9900), rng.randrange(2**32)]
            )
            yield from self.item.put(i, row)

    def _new_row(self, fields: int, values: list[int]):
        """Allocate and fill a row block; returns its address.

        Rows are line-aligned: concurrent transactions must never share
        a cache line, because undo logging and rollback operate on whole
        lines.
        """
        row = self.heap.alloc(fields * 8, arena=0, align=64)
        for index, value in enumerate(values):
            yield _Store(row + index * 8, _pack(value))
        return row
