"""Behavioural tests for POD (Select-Dedupe + iCache)."""

import pytest

from repro.baselines.base import SchemeConfig
from repro.core.icache import ICache
from repro.core.pod import POD
from tests.conftest import Oracle
from tests.helpers import is_swap


@pytest.fixture
def pod():
    return POD(
        SchemeConfig(
            logical_blocks=4096,
            memory_bytes=256 * 1024,
            icache_epoch=0.5,
        )
    )


class TestComposition:
    def test_uses_icache(self, pod):
        assert isinstance(pod.cache, ICache)
        assert pod.icache is pod.cache

    def test_epoch_interval_from_config(self, pod):
        assert pod.epoch_interval == 0.5

    def test_index_table_attached_for_swap_in(self, pod):
        assert pod.cache._index_table is pod.index_table

    def test_inherits_select_dedupe_policy(self, pod):
        o = Oracle(pod)
        o.write(0, [1])
        planned = o.write(100, [1])
        assert planned.eliminated
        o.check()

    def test_features_table1(self, pod):
        assert pod.features["cache_partitioning"] == "dynamic/adaptive"
        assert pod.features["small_writes_elimination"] is True
        assert pod.features["capacity_saving"] is True


class TestEpochBehaviour:
    def test_on_epoch_returns_swap_ops(self, pod):
        # Force an index-favouring epoch.
        pod.cache.ghost_index.record_eviction(1)
        pod.cache.ghost_index.hit(1)
        ops = pod.on_epoch(1.0)
        assert len(ops) == 2  # swap-in read + swap-out write
        for op in ops:
            assert is_swap(pod.regions, op.pba)

    def test_quiet_epoch_no_swap(self, pod):
        assert pod.on_epoch(1.0) == []

    def test_swap_cursor_wraps_region(self, pod):
        pod_swap_blocks = pod.regions.swap_blocks
        for i in range(pod_swap_blocks * 3):
            side = pod.cache.ghost_index if i % 2 else pod.cache.ghost_read
            side.record_eviction(i)
            side.hit(i)
            for op in pod.on_epoch(float(i + 1)):
                assert is_swap(pod.regions, op.pba)
                assert is_swap(pod.regions, op.pba + op.nblocks - 1)

    def test_integrity_with_epochs_interleaved(self, pod, rng):
        o = Oracle(pod)
        for step in range(200):
            lba = int(rng.integers(0, 500))
            content = [int(rng.integers(1, 30)) for _ in range(int(rng.integers(1, 5)))]
            o.write(lba, content)
            if step % 10 == 0:
                pod.on_epoch(o.now)
        o.check()
