"""Behavioural tests for the Native (no-dedup) baseline."""

import pytest

from repro.baselines.base import SchemeConfig
from repro.baselines.native import Native
from repro.sim.request import OpType
from tests.helpers import translate_many
from tests.conftest import Oracle


@pytest.fixture
def native():
    return Native(SchemeConfig(logical_blocks=2048, memory_bytes=128 * 1024))


class TestNative:
    def test_no_fingerprinting(self, native):
        o = Oracle(native)
        planned = o.write(0, [1, 2])
        assert planned.delay == 0.0
        assert native.hash_engine.chunks_hashed == 0

    def test_never_eliminates_writes(self, native):
        o = Oracle(native)
        o.write(0, [1])
        planned = o.write(100, [1])  # duplicate content, still written
        assert not planned.eliminated
        assert native.write_requests_removed == 0

    def test_writes_land_in_place(self, native):
        o = Oracle(native)
        o.write(5, [1, 2, 3])
        assert translate_many(native.map_table, [5, 6, 7]) == [5, 6, 7]
        assert len(native.map_table) == 0

    def test_full_memory_is_read_cache(self, native):
        assert native.cache.index.capacity_bytes == 0
        assert native.cache.read.capacity_bytes == native.config.memory_bytes

    def test_read_hits_after_miss(self, native):
        o = Oracle(native)
        o.write(0, [1, 2])
        first = o.read(0, 2)
        assert first.cache_hit_blocks == 0
        second = o.read(0, 2)
        assert second.cache_hit_blocks == 2
        assert second.volume_ops == []

    def test_write_invalidates_read_cache(self, native):
        o = Oracle(native)
        o.write(0, [1])
        o.read(0, 1)
        o.write(0, [2])
        planned = o.read(0, 1)
        assert planned.cache_hit_blocks == 0  # stale entry was dropped

    def test_reads_are_single_extents(self, native):
        o = Oracle(native)
        o.write(10, [1, 2, 3, 4])
        planned = o.read(10, 4)
        assert len(planned.volume_ops) == 1
        assert planned.volume_ops[0].op is OpType.READ

    def test_capacity_equals_unique_lbas(self, native):
        o = Oracle(native)
        o.write(0, [1, 2])
        o.write(1, [3, 4])  # overlaps one block
        assert native.capacity_blocks() == 3

    def test_integrity(self, native, rng):
        o = Oracle(native)
        for _ in range(200):
            lba = int(rng.integers(0, 500))
            o.write(lba, [int(rng.integers(1, 50))])
        o.check()
