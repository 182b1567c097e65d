"""Unit tests for the region map and the log allocator."""

import pytest

from repro.errors import StorageError
from repro.storage.allocator import LogAllocator, RegionMap
from tests.helpers import allocate_run, is_index, is_swap


class TestRegionMap:
    def test_layout_is_contiguous(self):
        rm = RegionMap(logical_blocks=100, log_blocks=20, index_blocks=10, swap_blocks=5)
        assert rm.home_base == 0
        assert rm.log_base == 100
        assert rm.index_base == 120
        assert rm.swap_base == 130
        assert rm.total_blocks == 135

    def test_home_of(self):
        rm = RegionMap(100, 10, 10, 10)
        assert rm.home_of(42) == 42
        with pytest.raises(StorageError):
            rm.home_of(100)
        with pytest.raises(StorageError):
            rm.home_of(-1)

    def test_region_predicates(self):
        rm = RegionMap(100, 20, 10, 5)
        assert rm.is_home(0) and rm.is_home(99) and not rm.is_home(100)
        assert rm.is_log(100) and rm.is_log(119) and not rm.is_log(120)
        assert is_index(rm, 120) and not is_index(rm, 130)
        assert is_swap(rm, 130) and is_swap(rm, 134) and not is_swap(rm, 135)

    def test_for_logical_space(self):
        rm = RegionMap.for_logical_space(1000, log_fraction=0.5)
        assert rm.logical_blocks == 1000
        assert rm.log_blocks == 500

    def test_empty_home_rejected(self):
        with pytest.raises(StorageError):
            RegionMap(0, 1, 1, 1)


class TestLogAllocator:
    def test_sequential_frontier(self):
        a = LogAllocator(base=100, nblocks=10)
        assert [a.allocate() for _ in range(3)] == [100, 101, 102]

    def test_allocate_run(self):
        a = LogAllocator(0, 10)
        assert allocate_run(a, 4) == [0, 1, 2, 3]

    def test_free_and_recycle(self):
        a = LogAllocator(0, 3)
        blocks = [a.allocate() for _ in range(3)]
        a.free(blocks[1])
        assert a.allocate() == blocks[1]

    def test_exhaustion(self):
        a = LogAllocator(0, 2)
        a.allocate()
        a.allocate()
        with pytest.raises(StorageError):
            a.allocate()

    def test_double_free_rejected(self):
        a = LogAllocator(0, 4)
        b = a.allocate()
        a.free(b)
        with pytest.raises(StorageError):
            a.free(b)

    def test_foreign_free_rejected(self):
        a = LogAllocator(10, 4)
        with pytest.raises(StorageError):
            a.free(3)

    def test_counters(self):
        a = LogAllocator(0, 5)
        a.allocate()
        a.allocate()
        assert a.allocated_count == 2
        assert a.free_count == 3

    def test_owns_and_is_allocated(self):
        a = LogAllocator(10, 4)
        b = a.allocate()
        assert a.owns(b) and a.is_allocated(b)
        assert not a.owns(9) and not a.owns(14)
        a.free(b)
        assert not a.is_allocated(b)
