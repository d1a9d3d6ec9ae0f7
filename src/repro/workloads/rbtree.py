"""RBTree micro-benchmark: insert/delete nodes in a red-black tree.

A textbook red-black tree implemented directly over simulated NVM.
Rebalancing rotations and recolourings make this the pointer-update-rich
workload of the suite; the paper uses it for the latency-sensitivity
study (Figure 8).

Node layout::

    [key u64][color u64][left u64][right u64][parent u64][payload ...]

A NIL sentinel node per tree keeps the algorithms uniform; the root
pointer lives in a one-word header.  All structural mutation happens
inside atomic regions under the thread's lock.
"""

from __future__ import annotations

import struct

from repro.cpu import ops
from repro.runtime.api import PMem

# Hot-path op helpers: the structure methods below yield ops directly
# instead of delegating to PMem generators — one generator frame less
# per simulated memory access (see the kernel perf notes in README).
_Load = ops.Load
_Store = ops.Store
_u64 = struct.Struct("<Q")
_unpack = _u64.unpack
_pack = _u64.pack

from repro.workloads.base import Workload, payload_for, payload_tag

RED = 0
BLACK = 1

OFF_KEY = 0
OFF_COLOR = 8
OFF_LEFT = 16
OFF_RIGHT = 24
OFF_PARENT = 32
NODE_HDR = 40


class RBTreeWorkload(Workload):
    """Red-black tree with per-thread instances."""

    name = "rbtree"

    def __init__(self, system, params=None, **kw):
        super().__init__(system, params, **kw)
        self.node_bytes = NODE_HDR + self.params.entry_bytes
        self.roots: list[int] = []  # address of root-pointer word
        self.nils: list[int] = []  # per-tree NIL sentinel node
        self.golden: list[dict[int, int]] = [
            dict() for _ in range(self.threads_count)
        ]
        self._next_key = [1 for _ in range(self.threads_count)]

    # -- setup ---------------------------------------------------------------------

    def _setup_thread(self, tid: int, driver) -> None:
        root_ptr = self.heap.alloc(8, arena=tid)
        nil = self.heap.alloc(NODE_HDR, arena=tid)
        self.roots.append(root_ptr)
        self.nils.append(nil)
        driver.run(PMem.store_u64(nil + OFF_COLOR, BLACK))
        driver.run(PMem.store_u64(root_ptr, nil))
        rng = self.rngs[tid]
        for _ in range(self.params.initial_items):
            key = self._fresh_key(tid, rng)
            driver.run(self._insert(tid, key, 0))
            self.golden[tid][key] = payload_tag(key, 0)

    def _fresh_key(self, tid: int, rng) -> int:
        # Spread keys so trees are not pathological insertion orders.
        key = self._next_key[tid]
        self._next_key[tid] += 1
        return ((key * 2654435761) & 0xFFFFFF) * 64 + tid + 1

    # -- rotations -----------------------------------------------------------------------

    def _rotate_left(self, tid, x):
        nil = self.nils[tid]
        y = _unpack((yield _Load(x + OFF_RIGHT, 8)))[0]
        y_left = _unpack((yield _Load(y + OFF_LEFT, 8)))[0]
        yield _Store(x + OFF_RIGHT, _pack(y_left))
        if y_left != nil:
            yield _Store(y_left + OFF_PARENT, _pack(x))
        x_parent = _unpack((yield _Load(x + OFF_PARENT, 8)))[0]
        yield _Store(y + OFF_PARENT, _pack(x_parent))
        if x_parent == nil:
            yield _Store(self.roots[tid], _pack(y))
        else:
            parent_left = _unpack((yield _Load(x_parent + OFF_LEFT, 8)))[0]
            side = OFF_LEFT if parent_left == x else OFF_RIGHT
            yield _Store(x_parent + side, _pack(y))
        yield _Store(y + OFF_LEFT, _pack(x))
        yield _Store(x + OFF_PARENT, _pack(y))

    def _rotate_right(self, tid, x):
        nil = self.nils[tid]
        y = _unpack((yield _Load(x + OFF_LEFT, 8)))[0]
        y_right = _unpack((yield _Load(y + OFF_RIGHT, 8)))[0]
        yield _Store(x + OFF_LEFT, _pack(y_right))
        if y_right != nil:
            yield _Store(y_right + OFF_PARENT, _pack(x))
        x_parent = _unpack((yield _Load(x + OFF_PARENT, 8)))[0]
        yield _Store(y + OFF_PARENT, _pack(x_parent))
        if x_parent == nil:
            yield _Store(self.roots[tid], _pack(y))
        else:
            parent_right = _unpack((yield _Load(x_parent + OFF_RIGHT, 8)))[0]
            side = OFF_RIGHT if parent_right == x else OFF_LEFT
            yield _Store(x_parent + side, _pack(y))
        yield _Store(y + OFF_RIGHT, _pack(x))
        yield _Store(x + OFF_PARENT, _pack(y))

    # -- insert ---------------------------------------------------------------------------

    def _insert(self, tid, key, version):
        nil = self.nils[tid]
        node = self.heap.alloc(self.node_bytes, arena=tid)
        yield _Store(node + OFF_KEY, _pack(key))
        yield from PMem.store_bytes(
            node + NODE_HDR, payload_for(key, version, self.params.entry_bytes)
        )
        parent = nil
        cursor = _unpack((yield _Load(self.roots[tid], 8)))[0]
        while cursor != nil:
            parent = cursor
            cursor_key = _unpack((yield _Load(cursor + OFF_KEY, 8)))[0]
            if key < cursor_key:
                cursor = _unpack((yield _Load(cursor + OFF_LEFT, 8)))[0]
            else:
                cursor = _unpack((yield _Load(cursor + OFF_RIGHT, 8)))[0]
        yield _Store(node + OFF_PARENT, _pack(parent))
        if parent == nil:
            yield _Store(self.roots[tid], _pack(node))
        else:
            parent_key = _unpack((yield _Load(parent + OFF_KEY, 8)))[0]
            side = OFF_LEFT if key < parent_key else OFF_RIGHT
            yield _Store(parent + side, _pack(node))
        yield _Store(node + OFF_LEFT, _pack(nil))
        yield _Store(node + OFF_RIGHT, _pack(nil))
        yield _Store(node + OFF_COLOR, _pack(RED))
        yield from self._insert_fixup(tid, node)

    def _insert_fixup(self, tid, z):
        nil = self.nils[tid]
        while True:
            parent = _unpack((yield _Load(z + OFF_PARENT, 8)))[0]
            if parent == nil:
                break
            parent_color = _unpack((yield _Load(parent + OFF_COLOR, 8)))[0]
            if parent_color != RED:
                break
            grand = _unpack((yield _Load(parent + OFF_PARENT, 8)))[0]
            grand_left = _unpack((yield _Load(grand + OFF_LEFT, 8)))[0]
            if parent == grand_left:
                uncle = _unpack((yield _Load(grand + OFF_RIGHT, 8)))[0]
                uncle_color = _unpack((yield _Load(uncle + OFF_COLOR, 8)))[0]
                if uncle_color == RED:
                    yield _Store(parent + OFF_COLOR, _pack(BLACK))
                    yield _Store(uncle + OFF_COLOR, _pack(BLACK))
                    yield _Store(grand + OFF_COLOR, _pack(RED))
                    z = grand
                else:
                    parent_right = _unpack((yield _Load(parent + OFF_RIGHT, 8)))[0]
                    if z == parent_right:
                        z = parent
                        yield from self._rotate_left(tid, z)
                        parent = _unpack((yield _Load(z + OFF_PARENT, 8)))[0]
                        grand = _unpack((yield _Load(parent + OFF_PARENT, 8)))[0]
                    yield _Store(parent + OFF_COLOR, _pack(BLACK))
                    yield _Store(grand + OFF_COLOR, _pack(RED))
                    yield from self._rotate_right(tid, grand)
            else:
                uncle = _unpack((yield _Load(grand + OFF_LEFT, 8)))[0]
                uncle_color = _unpack((yield _Load(uncle + OFF_COLOR, 8)))[0]
                if uncle_color == RED:
                    yield _Store(parent + OFF_COLOR, _pack(BLACK))
                    yield _Store(uncle + OFF_COLOR, _pack(BLACK))
                    yield _Store(grand + OFF_COLOR, _pack(RED))
                    z = grand
                else:
                    parent_left = _unpack((yield _Load(parent + OFF_LEFT, 8)))[0]
                    if z == parent_left:
                        z = parent
                        yield from self._rotate_right(tid, z)
                        parent = _unpack((yield _Load(z + OFF_PARENT, 8)))[0]
                        grand = _unpack((yield _Load(parent + OFF_PARENT, 8)))[0]
                    yield _Store(parent + OFF_COLOR, _pack(BLACK))
                    yield _Store(grand + OFF_COLOR, _pack(RED))
                    yield from self._rotate_left(tid, grand)
        root = _unpack((yield _Load(self.roots[tid], 8)))[0]
        yield _Store(root + OFF_COLOR, _pack(BLACK))

    # -- search ------------------------------------------------------------------------------

    def _search(self, tid, key):
        nil = self.nils[tid]
        cursor = _unpack((yield _Load(self.roots[tid], 8)))[0]
        while cursor != nil:
            cursor_key = _unpack((yield _Load(cursor + OFF_KEY, 8)))[0]
            if key == cursor_key:
                return cursor
            if key < cursor_key:
                cursor = _unpack((yield _Load(cursor + OFF_LEFT, 8)))[0]
            else:
                cursor = _unpack((yield _Load(cursor + OFF_RIGHT, 8)))[0]
        return 0

    # -- delete ------------------------------------------------------------------------------

    def _transplant(self, tid, u, v):
        nil = self.nils[tid]
        u_parent = _unpack((yield _Load(u + OFF_PARENT, 8)))[0]
        if u_parent == nil:
            yield _Store(self.roots[tid], _pack(v))
        else:
            parent_left = _unpack((yield _Load(u_parent + OFF_LEFT, 8)))[0]
            side = OFF_LEFT if parent_left == u else OFF_RIGHT
            yield _Store(u_parent + side, _pack(v))
        yield _Store(v + OFF_PARENT, _pack(u_parent))

    def _minimum(self, tid, node):
        nil = self.nils[tid]
        while True:
            left = _unpack((yield _Load(node + OFF_LEFT, 8)))[0]
            if left == nil:
                return node
            node = left

    def _delete(self, tid, z):
        nil = self.nils[tid]
        y = z
        y_color = _unpack((yield _Load(y + OFF_COLOR, 8)))[0]
        z_left = _unpack((yield _Load(z + OFF_LEFT, 8)))[0]
        z_right = _unpack((yield _Load(z + OFF_RIGHT, 8)))[0]
        if z_left == nil:
            x = z_right
            yield from self._transplant(tid, z, z_right)
        elif z_right == nil:
            x = z_left
            yield from self._transplant(tid, z, z_left)
        else:
            y = yield from self._minimum(tid, z_right)
            y_color = _unpack((yield _Load(y + OFF_COLOR, 8)))[0]
            x = _unpack((yield _Load(y + OFF_RIGHT, 8)))[0]
            y_parent = _unpack((yield _Load(y + OFF_PARENT, 8)))[0]
            if y_parent == z:
                yield _Store(x + OFF_PARENT, _pack(y))
            else:
                yield from self._transplant(tid, y, x)
                new_right = _unpack((yield _Load(z + OFF_RIGHT, 8)))[0]
                yield _Store(y + OFF_RIGHT, _pack(new_right))
                yield _Store(new_right + OFF_PARENT, _pack(y))
            yield from self._transplant(tid, z, y)
            new_left = _unpack((yield _Load(z + OFF_LEFT, 8)))[0]
            yield _Store(y + OFF_LEFT, _pack(new_left))
            yield _Store(new_left + OFF_PARENT, _pack(y))
            z_color = _unpack((yield _Load(z + OFF_COLOR, 8)))[0]
            yield _Store(y + OFF_COLOR, _pack(z_color))
        if y_color == BLACK:
            yield from self._delete_fixup(tid, x)
        self.heap.free(z, self.node_bytes, arena=tid)

    def _delete_fixup(self, tid, x):
        nil = self.nils[tid]
        while True:
            root = _unpack((yield _Load(self.roots[tid], 8)))[0]
            x_color = _unpack((yield _Load(x + OFF_COLOR, 8)))[0]
            if x == root or x_color != BLACK:
                break
            parent = _unpack((yield _Load(x + OFF_PARENT, 8)))[0]
            parent_left = _unpack((yield _Load(parent + OFF_LEFT, 8)))[0]
            if x == parent_left:
                w = _unpack((yield _Load(parent + OFF_RIGHT, 8)))[0]
                w_color = _unpack((yield _Load(w + OFF_COLOR, 8)))[0]
                if w_color == RED:
                    yield _Store(w + OFF_COLOR, _pack(BLACK))
                    yield _Store(parent + OFF_COLOR, _pack(RED))
                    yield from self._rotate_left(tid, parent)
                    w = _unpack((yield _Load(parent + OFF_RIGHT, 8)))[0]
                w_left = _unpack((yield _Load(w + OFF_LEFT, 8)))[0]
                w_right = _unpack((yield _Load(w + OFF_RIGHT, 8)))[0]
                wl_color = _unpack((yield _Load(w_left + OFF_COLOR, 8)))[0]
                wr_color = _unpack((yield _Load(w_right + OFF_COLOR, 8)))[0]
                if wl_color == BLACK and wr_color == BLACK:
                    yield _Store(w + OFF_COLOR, _pack(RED))
                    x = parent
                else:
                    if wr_color == BLACK:
                        yield _Store(w_left + OFF_COLOR, _pack(BLACK))
                        yield _Store(w + OFF_COLOR, _pack(RED))
                        yield from self._rotate_right(tid, w)
                        w = _unpack((yield _Load(parent + OFF_RIGHT, 8)))[0]
                    parent_color = _unpack((yield _Load(parent + OFF_COLOR, 8)))[0]
                    yield _Store(w + OFF_COLOR, _pack(parent_color))
                    yield _Store(parent + OFF_COLOR, _pack(BLACK))
                    w_right = _unpack((yield _Load(w + OFF_RIGHT, 8)))[0]
                    yield _Store(w_right + OFF_COLOR, _pack(BLACK))
                    yield from self._rotate_left(tid, parent)
                    x = _unpack((yield _Load(self.roots[tid], 8)))[0]
            else:
                w = _unpack((yield _Load(parent + OFF_LEFT, 8)))[0]
                w_color = _unpack((yield _Load(w + OFF_COLOR, 8)))[0]
                if w_color == RED:
                    yield _Store(w + OFF_COLOR, _pack(BLACK))
                    yield _Store(parent + OFF_COLOR, _pack(RED))
                    yield from self._rotate_right(tid, parent)
                    w = _unpack((yield _Load(parent + OFF_LEFT, 8)))[0]
                w_left = _unpack((yield _Load(w + OFF_LEFT, 8)))[0]
                w_right = _unpack((yield _Load(w + OFF_RIGHT, 8)))[0]
                wl_color = _unpack((yield _Load(w_left + OFF_COLOR, 8)))[0]
                wr_color = _unpack((yield _Load(w_right + OFF_COLOR, 8)))[0]
                if wl_color == BLACK and wr_color == BLACK:
                    yield _Store(w + OFF_COLOR, _pack(RED))
                    x = parent
                else:
                    if wl_color == BLACK:
                        yield _Store(w_right + OFF_COLOR, _pack(BLACK))
                        yield _Store(w + OFF_COLOR, _pack(RED))
                        yield from self._rotate_left(tid, w)
                        w = _unpack((yield _Load(parent + OFF_LEFT, 8)))[0]
                    parent_color = _unpack((yield _Load(parent + OFF_COLOR, 8)))[0]
                    yield _Store(w + OFF_COLOR, _pack(parent_color))
                    yield _Store(parent + OFF_COLOR, _pack(BLACK))
                    w_left = _unpack((yield _Load(w + OFF_LEFT, 8)))[0]
                    yield _Store(w_left + OFF_COLOR, _pack(BLACK))
                    yield from self._rotate_right(tid, parent)
                    x = _unpack((yield _Load(self.roots[tid], 8)))[0]
        yield _Store(x + OFF_COLOR, _pack(BLACK))

    # -- transaction stream -------------------------------------------------------------------

    def thread_body(self, tid: int):
        rng = self.rngs[tid]
        live = list(self.golden[tid])
        lock = self.lock_id(tid)
        for _ in range(self.params.txns_per_thread):
            yield from PMem.compute(self.params.compute_cycles)
            do_insert = (not live) or rng.random() < 0.55
            yield from PMem.lock(lock)
            if do_insert:
                key = self._fresh_key(tid, rng)
                while key in self.golden[tid] or key in live:
                    key = self._fresh_key(tid, rng)
                yield from self._search(tid, rng.choice(live) if live else key)
                yield from PMem.atomic_begin()
                yield from self._insert(tid, key, 0)
                yield from PMem.atomic_end(("ins", tid, key, 0))
                live.append(key)
            else:
                key = live.pop(rng.randrange(len(live)))
                node = yield from self._search(tid, key)
                self.check(node != 0, f"live key {key} missing")
                yield from PMem.atomic_begin()
                yield from self._delete(tid, node)
                yield from PMem.atomic_end(("del", tid, key))
            yield from PMem.unlock(lock)

    # -- golden / verification ---------------------------------------------------------------

    def golden_apply(self, info) -> None:
        if info[0] == "ins":
            _, tid, key, version = info
            self.golden[tid][key] = payload_tag(key, version)
        elif info[0] == "del":
            _, tid, key = info
            self.golden[tid].pop(key, None)

    def verify_durable(self, image=None) -> None:
        reader = self.reader(image)
        for tid in range(self.threads_count):
            nil = self.nils[tid]
            root = reader.load_u64(self.roots[tid])
            found: dict[int, int] = {}
            black_heights: set[int] = set()

            def walk(node, lo, hi, blacks, tid=tid, nil=nil, found=found,
                     black_heights=black_heights):
                if node == nil:
                    black_heights.add(blacks)
                    return
                key = reader.load_u64(node + OFF_KEY)
                color = reader.load_u64(node + OFF_COLOR)
                self.check(lo < key < hi, f"BST violation at key {key}")
                self.check(key not in found, f"duplicate key {key}")
                found[key] = reader.load_u64(node + NODE_HDR)
                left = reader.load_u64(node + OFF_LEFT)
                right = reader.load_u64(node + OFF_RIGHT)
                if color == RED:
                    for child in (left, right):
                        if child != nil:
                            child_color = reader.load_u64(child + OFF_COLOR)
                            self.check(
                                child_color == BLACK,
                                f"red-red violation under key {key}",
                            )
                nb = blacks + (1 if color == BLACK else 0)
                walk(left, lo, key, nb)
                walk(right, key, hi, nb)

            if root != nil:
                self.check(
                    reader.load_u64(root + OFF_COLOR) == BLACK,
                    f"thread {tid}: red root",
                )
            walk(root, -1, 2**63, 0)
            self.check(
                len(black_heights) <= 1,
                f"thread {tid}: unequal black heights {black_heights}",
            )
            self.check(
                found == self.golden[tid],
                f"thread {tid}: durable tree ({len(found)} keys) diverges "
                f"from golden ({len(self.golden[tid])} keys)",
            )
