"""Unit tests for volume extents, coalescing and the content store."""

import pytest

from repro.errors import StorageError
from repro.sim.request import OpType
from repro.storage.volume import (
    ContentStore,
    VolumeOp,
    coalesce_extents,
    extents_to_ops,
)


class TestVolumeOp:
    def test_end_pba(self):
        assert VolumeOp(OpType.READ, 10, 5).end_pba == 15

    def test_invalid(self):
        with pytest.raises(StorageError):
            VolumeOp(OpType.READ, -1, 1)
        with pytest.raises(StorageError):
            VolumeOp(OpType.READ, 0, 0)


class TestCoalesce:
    def test_empty(self):
        assert coalesce_extents([]) == []

    def test_single(self):
        assert coalesce_extents([5]) == [(5, 1)]

    def test_contiguous_run(self):
        assert coalesce_extents([3, 4, 5]) == [(3, 3)]

    def test_unordered_input(self):
        assert coalesce_extents([7, 3, 4, 5, 9]) == [(3, 3), (7, 1), (9, 1)]

    def test_duplicates_collapse(self):
        assert coalesce_extents([2, 2, 3, 3]) == [(2, 2)]

    def test_fragmentation_visible(self):
        """Scattered blocks produce one extent each -- the read
        amplification that category 2 avoids."""
        scattered = [0, 10, 20, 30]
        assert len(coalesce_extents(scattered)) == 4

    def test_extents_to_ops(self):
        ops = extents_to_ops(OpType.READ, [1, 2, 8])
        assert ops == [VolumeOp(OpType.READ, 1, 2), VolumeOp(OpType.READ, 8, 1)]


class TestContentStore:
    def test_write_read_roundtrip(self):
        cs = ContentStore(100)
        cs.write(5, 1234)
        assert cs.read(5) == 1234

    def test_unwritten_reads_none(self):
        assert ContentStore(100).read(3) is None

    def test_overwrite(self):
        cs = ContentStore(100)
        cs.write(5, 1)
        cs.write(5, 2)
        assert cs.read(5) == 2
        assert cs.occupied_blocks() == 1

    def test_discard(self):
        cs = ContentStore(100)
        cs.write(5, 1)
        cs.discard(5)
        assert cs.read(5) is None
        assert len(cs) == 0

    def test_bounds_checked(self):
        cs = ContentStore(10)
        with pytest.raises(StorageError):
            cs.write(10, 1)
        with pytest.raises(StorageError):
            cs.read(-1)

    def test_invalid_capacity(self):
        with pytest.raises(StorageError):
            ContentStore(0)
