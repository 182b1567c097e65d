"""Unit tests for iCache: ghosts, cost-benefit, repartitioning."""

import pytest

from repro.cache.lru import LRUCache
from repro.constants import BLOCK_SIZE, INDEX_ENTRY_SIZE
from repro.core.icache import ICache, ICacheConfig
from repro.dedup.index_table import IndexEntry, IndexTable
from repro.errors import CacheError

TOTAL = 64 * BLOCK_SIZE  # room for 64 read blocks / 8192 index entries


def make_icache(**kw):
    cfg = dict(total_bytes=TOTAL, initial_index_fraction=0.5, step_fraction=0.1)
    cfg.update(kw)
    return ICache(ICacheConfig(**cfg))


class TestConfig:
    def test_invalid(self):
        with pytest.raises(CacheError):
            ICacheConfig(total_bytes=-1)
        with pytest.raises(CacheError):
            ICacheConfig(total_bytes=10, initial_index_fraction=2.0)
        with pytest.raises(CacheError):
            ICacheConfig(total_bytes=10, step_fraction=0.0)
        with pytest.raises(CacheError):
            ICacheConfig(total_bytes=10, min_fraction=0.7)


class TestGhostPlumbing:
    def test_read_miss_probes_ghost(self):
        ic = make_icache()
        ic.read_insert(1)
        # Evict by filling beyond the read capacity (32 blocks).
        for pba in range(2, 40):
            ic.read_insert(pba)
        assert 1 not in ic.read
        assert ic.read_lookup(1) is False
        assert ic.ghost_read.hits == 1

    def test_index_miss_probes_ghost(self):
        ic = make_icache()
        ic.note_index_evictions([(123, IndexEntry(pba=5))])
        ic.on_index_miss(123)
        assert ic.ghost_index.hits == 1

    def test_ghost_plus_actual_bounded_by_total(self):
        ic = make_icache()
        assert ic.index.capacity_bytes + ic.ghost_index.capacity_bytes == TOTAL
        assert ic.read.capacity_bytes + ic.ghost_read.capacity_bytes == TOTAL

    def test_read_remove_clears_both(self):
        ic = make_icache()
        ic.read_insert(1)
        ic.read_remove(1)
        assert ic.read_lookup(1) is False
        # miss above was after removal: ghost should not hold it either
        assert ic.ghost_read.hits == 0


class TestCostBenefit:
    def test_benefits_scale_with_hits(self):
        ic = make_icache(read_miss_cost=10e-3, write_saved_cost=20e-3)
        ic.note_index_evictions([(1, IndexEntry(0)), (2, IndexEntry(1))])
        ic.on_index_miss(1)
        ic.on_index_miss(2)
        ic.read_insert(9)
        for pba in range(10, 50):
            ic.read_insert(pba)
        ic.read_lookup(9)  # ghost read hit
        ib, rb = ic.cost_benefit()
        assert ib == pytest.approx(2 * 20e-3)
        assert rb == pytest.approx(1 * 10e-3)


class TestRepartition:
    def test_index_wins_grows_index(self):
        ic = make_icache()
        before = ic.index.capacity_bytes
        ic.note_index_evictions([(1, IndexEntry(0))])
        ic.on_index_miss(1)
        swapped = ic.on_epoch(1.0)
        assert ic.index.capacity_bytes == before + int(TOTAL * 0.1)
        assert swapped == pytest.approx(int(TOTAL * 0.1))
        assert ic.repartitions == 1

    def test_read_wins_grows_read(self):
        ic = make_icache()
        before = ic.read.capacity_bytes
        ic.read_insert(1)
        for pba in range(2, 40):
            ic.read_insert(pba)
        ic.read_lookup(1)
        ic.on_epoch(1.0)
        assert ic.read.capacity_bytes == before + int(TOTAL * 0.1)

    def test_tie_no_repartition(self):
        ic = make_icache()
        assert ic.on_epoch(1.0) == 0.0
        assert ic.repartitions == 0

    def test_min_fraction_floor(self):
        ic = make_icache(min_fraction=0.25)
        floor = int(TOTAL * 0.25)
        for epoch in range(50):
            ic.read_insert(epoch + 1000)
            # force read wins every epoch
            ic.ghost_read.record_eviction(epoch)
            ic.ghost_read.hit(epoch)
            ic.on_epoch(float(epoch))
        assert ic.index.capacity_bytes >= floor

    def test_epoch_resets_ghost_counters(self):
        ic = make_icache()
        ic.note_index_evictions([(1, IndexEntry(0))])
        ic.on_index_miss(1)
        ic.on_epoch(1.0)
        assert ic.ghost_index.hits == 0

    def test_partition_history_recorded(self):
        ic = make_icache()
        ic.on_epoch(1.0)
        ic.on_epoch(2.0)
        assert len(ic.partition_history) == 2
        assert ic.partition_history[0][0] == 1.0

    def test_total_capacity_invariant(self):
        ic = make_icache()
        for epoch in range(30):
            if epoch % 2:
                ic.note_index_evictions([(epoch, IndexEntry(epoch))])
                ic.on_index_miss(epoch)
            else:
                ic.ghost_read.record_eviction(epoch + 500)
                ic.ghost_read.hit(epoch + 500)
            ic.on_epoch(float(epoch))
            assert ic.index.capacity_bytes + ic.read.capacity_bytes == TOTAL


class TestSwapIn:
    def test_index_entries_restored_through_index_table(self):
        ic = make_icache(step_fraction=0.25)
        table = IndexTable(ic.index)
        ic.attach_index_table(table)
        # Fill the index beyond half so a shrink evicts real entries.
        n = ic.index.capacity_bytes // INDEX_ENTRY_SIZE
        for fp in range(n):
            table.insert(fp, fp + 10_000)
        ic.note_index_evictions(table.drain_evicted())
        # Force a read-favouring epoch: index shrinks.
        ic.ghost_read.record_eviction("blk")
        ic.ghost_read.hit("blk")
        ic.on_epoch(1.0)
        shrunk = len(ic.index)
        # Now force an index-favouring epoch: grow and swap back in.
        ic.on_index_miss(0)  # may or may not hit ghost; force benefit:
        ic.ghost_index.hits += 1
        ic.on_epoch(2.0)
        assert len(ic.index) > shrunk
        # Restored entries are usable for dedup lookups again.
        restored = sum(1 for fp in range(n) if table.peek(fp) is not None)
        assert restored > shrunk

    def test_read_blocks_restored_on_growth(self):
        ic = make_icache(step_fraction=0.25)
        for pba in range(32):
            ic.read_insert(pba)
        # Shrink the read cache (index wins), then grow it back.
        ic.ghost_index.record_eviction(1)
        ic.ghost_index.hit(1)
        ic.on_epoch(1.0)
        held_after_shrink = len(ic.read)
        ic.ghost_read.record_eviction("x")
        ic.ghost_read.hit("x")
        ic.on_epoch(2.0)
        assert len(ic.read) > held_after_shrink

    def test_stats_keys(self):
        ic = make_icache()
        s = ic.stats()
        assert {"index_bytes", "read_bytes", "repartitions", "total_swapped_bytes"} <= set(s)


class TestParkedStore:
    """Swapped-out index entries are parked only while the ghost index
    remembers their key: swap-in reads ghost keys only."""

    def _parked_within_ghost(self, ic):
        assert set(ic.parked_index_entries()) <= set(ic.ghost_index.keys_mru())

    def test_pruned_on_ghost_hit_and_on_shrink(self):
        # 64 index slots in all: 32 live, a 32-key ghost index.
        ic = make_icache(total_bytes=64 * INDEX_ENTRY_SIZE, step_fraction=0.25)
        table = IndexTable(ic.index)
        ic.attach_index_table(table)
        # Live entries claim PBAs 0-31, so no parked entry can be
        # swapped back in and the grown index leaves the ghost full.
        for fp in range(32):
            table.insert(1000 + fp, fp)
        ic.note_index_evictions([(fp, IndexEntry(fp)) for fp in range(32)])
        assert len(ic.parked_index_entries()) == 32
        ic.on_index_miss(5)
        assert ic.ghost_index.hits == 1
        assert 5 not in ic.parked_index_entries()
        self._parked_within_ghost(ic)
        ic.on_epoch(1.0)  # the index grows: the ghost index shrinks to 16 keys
        assert len(ic.ghost_index) == 16
        self._parked_within_ghost(ic)
        assert len(ic.parked_index_entries()) == 16


class TestBareICache:
    """An iCache with no Index table attached parks raw PBA ints (as
    ``index_insert`` stores them), which carry no Count."""

    def test_index_regrows_after_an_evicting_shrink(self):
        # 128 index-entry slots, half of them the index; each epoch's
        # repartition moves 16 of them.
        ic = ICache(
            ICacheConfig(total_bytes=128 * INDEX_ENTRY_SIZE, step_fraction=0.125)
        )
        for fp in range(60):
            ic.index_insert(fp, 1000 + fp)
        # A read-favouring epoch shrinks the index to 48 slots ...
        ic.ghost_read.hits += 1
        ic.on_epoch(1.0)
        assert len(ic.index) == 48
        parked = dict(ic.parked_index_entries())
        assert len(parked) == 12
        # ... and an index-favouring one grows it back, swapping the
        # parked PBAs in.
        ic.ghost_index.hits += 1
        ic.on_epoch(2.0)
        assert len(ic.index) == 60
        assert {fp: ic.index.peek(fp) for fp in parked} == parked
        assert not ic.parked_index_entries()
