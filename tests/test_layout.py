"""Physical address layout: interleaving, log regions, record math."""

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import MemoryError_
from repro.common.units import (CACHE_LINE_BYTES, CACHE_LINE_SHIFT,
                                PAGE_SHIFT)
from repro.config import LogConfig, MemoryConfig
from repro.mem.layout import AddressLayout, RecordAddress


def make_layout(data_mb: int = 4) -> AddressLayout:
    return AddressLayout(data_mb * 1024 * 1024, MemoryConfig(), LogConfig())


class TestDataSpace:
    def test_page_interleaving(self):
        layout = make_layout()
        page = layout.interleave_bytes
        assert layout.controller_of(0) == 0
        assert layout.controller_of(page) == 1
        assert layout.controller_of(2 * page) == 2
        assert layout.controller_of(3 * page) == 3
        assert layout.controller_of(4 * page) == 0

    def test_same_page_same_controller(self):
        layout = make_layout()
        assert layout.controller_of(100) == layout.controller_of(4000)

    def test_is_data_vs_is_log(self):
        layout = make_layout()
        assert layout.is_data(0)
        assert not layout.is_log(0)
        assert layout.is_log(layout.log_base)
        assert not layout.is_data(layout.log_base)

    def test_out_of_range_rejected(self):
        layout = make_layout()
        with pytest.raises(MemoryError_):
            layout.controller_of(layout.total_bytes)


class TestLogRegions:
    def test_regions_are_disjoint_and_ordered(self):
        layout = make_layout()
        bases = [layout.log_region_base(c) for c in range(4)]
        assert bases == sorted(bases)
        for c in range(3):
            assert bases[c + 1] - bases[c] == layout.log_region_bytes

    def test_log_addresses_map_to_owner(self):
        layout = make_layout()
        for c in range(4):
            assert layout.controller_of(layout.log_region_base(c)) == c
            last = layout.log_region_base(c) + layout.log_region_bytes - 1
            assert layout.controller_of(last) == c

    def test_adr_block_precedes_buckets(self):
        layout = make_layout()
        assert layout.adr_base(0) == layout.log_region_base(0)
        assert layout.bucket_base(0, 0) == (
            layout.log_region_base(0) + layout.adr_block_bytes
        )

    def test_adr_block_is_line_aligned(self):
        layout = make_layout()
        assert layout.adr_block_bytes % 64 == 0


class TestRecordMath:
    def test_record_size_is_512(self):
        layout = make_layout()
        r0 = layout.record_base(RecordAddress(0, 0, 0))
        r1 = layout.record_base(RecordAddress(0, 0, 1))
        assert r1 - r0 == 512

    def test_header_is_last_line(self):
        layout = make_layout()
        rec = RecordAddress(1, 2, 3)
        header = layout.record_header_addr(rec)
        assert header == layout.record_base(rec) + 7 * 64

    def test_entry_slots(self):
        layout = make_layout()
        rec = RecordAddress(0, 0, 0)
        for slot in range(7):
            addr = layout.record_entry_addr(rec, slot)
            assert addr == layout.record_base(rec) + slot * 64
        with pytest.raises(MemoryError_):
            layout.record_entry_addr(rec, 7)

    def test_bucket_bounds_checked(self):
        layout = make_layout()
        with pytest.raises(MemoryError_):
            layout.bucket_base(0, LogConfig().buckets_per_controller)

    def test_records_stay_inside_their_bucket(self):
        layout = make_layout()
        cfg = LogConfig()
        last = RecordAddress(0, 0, cfg.records_per_bucket - 1)
        end = layout.record_header_addr(last) + 64
        assert end <= layout.bucket_base(0, 1)


#: Interleave granules for the page-mask counts: below, at and above
#: the 4 KB page of the image's line masks.
INTERLEAVES = (1024, 2048, 4096, 8192)


def page_masks(lines) -> dict[int, int]:
    """Line addresses as the memory image keeps them: page -> mask."""
    masks: dict[int, int] = {}
    for line in lines:
        page = line >> PAGE_SHIFT
        bit = 1 << ((line >> CACHE_LINE_SHIFT) & 63)
        masks[page] = masks.get(page, 0) | bit
    return masks


class TestLinesPerController:
    """Per-controller line counts from page masks equal ``controller_of``.

    The data space is one interleave granule more than 64 KB, so at 1
    and 2 KB interleaves the data/log boundary falls inside a page; the
    log regions are not page-aligned, so each boundary between two of
    them falls inside a page too.
    """

    @staticmethod
    def _layout(controllers: int, interleave: int) -> AddressLayout:
        return AddressLayout(
            64 * 1024 + interleave,
            MemoryConfig(num_controllers=controllers,
                         interleave_bytes=interleave),
            LogConfig(),
        )

    @staticmethod
    def _reference(layout: AddressLayout, lines) -> list[int]:
        owners = Counter(layout.controller_of(line) for line in lines)
        return [owners[c] for c in range(layout.num_controllers)]

    @staticmethod
    def _boundary_lines(layout: AddressLayout) -> list[int]:
        """The lines either side of every interleave, data/log and
        log-region boundary, and the first and last line of the space."""
        edges = set(range(0, layout.data_bytes, layout.interleave_bytes))
        edges.update(layout.log_region_base(c)
                     for c in range(layout.num_controllers))
        edges.add(layout.total_bytes)
        lines = set()
        for edge in edges:
            lines.update(line for line in (edge - CACHE_LINE_BYTES, edge)
                         if 0 <= line < layout.total_bytes)
        return sorted(lines)

    @pytest.mark.parametrize("controllers", [1, 2, 4])
    def test_boundaries_match_controller_of(self, controllers):
        for interleave in INTERLEAVES:
            layout = self._layout(controllers, interleave)
            lines = self._boundary_lines(layout)
            assert (layout.lines_per_controller(page_masks(lines))
                    == self._reference(layout, lines))
            assert layout.lines_per_controller({}) == [0] * controllers

    @pytest.mark.parametrize("controllers", [1, 2, 4])
    @given(data=st.data())
    def test_random_lines_match_controller_of(self, controllers, data):
        layout = self._layout(controllers, data.draw(
            st.sampled_from(INTERLEAVES)))
        count = layout.total_bytes // CACHE_LINE_BYTES
        data_lines = layout.data_bytes // CACHE_LINE_BYTES
        # The pages around each boundary between two controllers' spans.
        edges = [layout.data_bytes // CACHE_LINE_BYTES] + [
            layout.log_region_base(c) // CACHE_LINE_BYTES
            for c in range(1, controllers)
        ]
        # A third of the draws fall in the (much smaller) data space and
        # a third within a page of a boundary.
        indices = data.draw(st.sets(st.one_of(
            st.integers(min_value=0, max_value=data_lines - 1),
            st.integers(min_value=0, max_value=count - 1),
            st.builds(lambda edge, off: min(max(edge + off, 0), count - 1),
                      st.sampled_from(edges),
                      st.integers(min_value=-64, max_value=63)),
        ), max_size=200))
        lines = [i * CACHE_LINE_BYTES for i in indices]
        assert (layout.lines_per_controller(page_masks(lines))
                == self._reference(layout, lines))

    @pytest.mark.parametrize("controllers", [1, 2, 4])
    def test_out_of_range_rejected(self, controllers):
        for interleave in INTERLEAVES:
            layout = self._layout(controllers, interleave)
            last = layout.total_bytes - CACHE_LINE_BYTES
            assert sum(layout.lines_per_controller(page_masks([last]))) == 1
            with pytest.raises(MemoryError_):
                layout.lines_per_controller(
                    page_masks([0, layout.total_bytes]))
            with pytest.raises(MemoryError_):
                layout.lines_per_controller(
                    page_masks([-CACHE_LINE_BYTES, 0]))
