"""TPC-C workload: 32 terminals issuing new-order transactions.

Unlike the micro-benchmarks, the tables are shared: terminals contend
on district locks (one lock per (warehouse, district)), matching the
paper's setup of 32 threads simulating 32 terminals at scale factor 1
with wait times removed (section V).

The golden model tracks, per district, the committed ``next_o_id`` and
the set of committed orders with their line counts.  Verification
re-reads the district rows and walks the ORDERS / NEW_ORDER /
ORDER_LINE trees in the durable image.
"""

from __future__ import annotations

from repro.common.errors import WorkloadError
from repro.runtime.api import PMem
from repro.runtime.driver import DirectDriver
from repro.workloads.base import Workload, WorkloadParams
from repro.workloads.tpcc import schema
from repro.workloads.tpcc.neworder import (
    NewOrderSpec,
    execute,
    generate_spec,
    stock_lock_ids,
)
from repro.workloads.tpcc.schema import TpccScale, TpccTables


class TpccWorkload(Workload):
    """New-order-only TPC-C driver."""

    name = "tpcc"

    def __init__(self, system, params: WorkloadParams | None = None,
                 scale: TpccScale | None = None, order: int = 16, **kw):
        super().__init__(system, params, **kw)
        self.scale = scale or TpccScale()
        self.tables = TpccTables(self.heap, self.scale, order=order)
        #: Golden model per district key: next_o_id.
        self.golden_next_o_id: dict[int, int] = {}
        #: Golden committed orders: order key -> number of lines.
        self.golden_orders: dict[int, int] = {}

    # -- setup ---------------------------------------------------------------------

    def setup(self) -> None:
        driver = DirectDriver(self.image, durable=True)
        driver.run(self.tables.create_all())
        driver.run(self.tables.populate(self.rngs[0]))
        for w in range(1, self.scale.warehouses + 1):
            for d in range(1, self.scale.districts_per_warehouse + 1):
                self.golden_next_o_id[self.tables.key_wd(w, d)] = 3001

    def _setup_thread(self, tid: int, driver) -> None:  # pragma: no cover
        raise NotImplementedError("TPC-C shares tables; see setup()")

    # -- locks ------------------------------------------------------------------------

    def district_lock(self, w_id: int, d_id: int) -> int:
        return 0x7C00_0000 | self.tables.key_wd(w_id, d_id)

    # -- transaction stream ---------------------------------------------------------------

    def thread_body(self, tid: int):
        rng = self.rngs[tid]
        for _ in range(self.params.txns_per_thread):
            spec = generate_spec(rng, tid, self.scale)
            stock_locks = stock_lock_ids(self.tables, spec)
            yield from PMem.compute(self.params.compute_cycles)
            # Two-phase locking, deadlock-free by global order: the
            # district lock first, then stock row locks ascending.
            yield from PMem.lock(self.district_lock(spec.w_id, spec.d_id))
            for lock in stock_locks:
                yield from PMem.lock(lock)
            yield from PMem.atomic_begin()
            yield from execute(self.tables, spec)
            yield from PMem.atomic_end(spec)
            for lock in reversed(stock_locks):
                yield from PMem.unlock(lock)
            yield from PMem.unlock(self.district_lock(spec.w_id, spec.d_id))

    # -- golden model -----------------------------------------------------------------------

    def golden_apply(self, info) -> None:
        spec: NewOrderSpec = info
        d_key = self.tables.key_wd(spec.w_id, spec.d_id)
        o_id = self.golden_next_o_id[d_key]
        self.golden_next_o_id[d_key] = o_id + 1
        o_key = self.tables.key_order(spec.w_id, spec.d_id, o_id)
        self.golden_orders[o_key] = len(spec.lines)

    # -- verification --------------------------------------------------------------------------

    def verify_durable(self, image=None) -> None:
        reader = self.reader(image)
        # District counters match the committed transaction count.
        districts = self.tables.district.walk_durable(reader)
        for d_key, row in districts.items():
            durable_next = reader.load_u64(row + schema.D_NEXT_O_ID)
            expect = self.golden_next_o_id[d_key]
            self.check(
                durable_next == expect,
                f"district {d_key}: next_o_id {durable_next} != {expect}",
            )
        # Committed orders all present with full order-line sets;
        # uncommitted ones absent.  Merge the per-district partitions.
        orders: dict[int, int] = {}
        new_orders: dict[int, int] = {}
        lines: dict[int, int] = {}
        for partition, sink in (
            (self.tables.orders, orders),
            (self.tables.new_order, new_orders),
            (self.tables.order_line, lines),
        ):
            for tree in partition.values():
                sink.update(tree.walk_durable(reader))
        self.check(
            set(orders) == set(self.golden_orders),
            f"durable ORDERS keys diverge: {len(orders)} vs "
            f"{len(self.golden_orders)} committed",
        )
        self.check(
            set(new_orders) == set(self.golden_orders),
            "durable NEW_ORDER keys diverge from committed set",
        )
        lines_per_order: dict[int, int] = {}
        for ol_key in lines:
            lines_per_order[ol_key // 100] = lines_per_order.get(
                ol_key // 100, 0
            ) + 1
        self.check(
            lines_per_order == self.golden_orders,
            "durable ORDER_LINE counts diverge from committed set",
        )
        for o_key, row in orders.items():
            ol_cnt = reader.load_u64(row + 4 * 8)
            self.check(
                ol_cnt == self.golden_orders[o_key],
                f"order {o_key}: ol_cnt {ol_cnt} != "
                f"{self.golden_orders[o_key]}",
            )
