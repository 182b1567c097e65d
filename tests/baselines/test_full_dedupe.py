"""Behavioural tests for the Full-Dedupe baseline."""

import pytest

from repro.baselines.base import SchemeConfig
from repro.baselines.full_dedupe import FullDedupe
from repro.constants import INDEX_ENTRY_SIZE
from repro.sim.request import OpType
from tests.conftest import Oracle
from tests.helpers import is_index


def make(entries=1024, charge_index_io=True):
    # memory sized so the index cache holds `entries` fingerprints
    memory = entries * INDEX_ENTRY_SIZE * 2
    return FullDedupe(
        SchemeConfig(
            logical_blocks=4096,
            memory_bytes=memory,
            charge_index_io=charge_index_io,
        )
    )


class TestFullDedupe:
    def test_dedupes_everything_redundant(self):
        s = make()
        o = Oracle(s)
        o.write(0, [1])
        o.write(2, [2])
        # scattered partial: Full-Dedupe dedupes it anyway
        planned = o.write(100, [1, 50, 2, 51])
        written = sum(op.nblocks for op in planned.volume_ops if op.op is OpType.WRITE)
        assert written == 2  # both duplicates removed
        assert s.write_blocks_deduped >= 2
        o.check()

    def test_fragmented_write_is_multiple_extents(self):
        s = make()
        o = Oracle(s)
        o.write(0, [1])
        o.write(2, [2])
        planned = o.write(100, [50, 1, 51, 2, 52])
        writes = [op for op in planned.volume_ops if op.op is OpType.WRITE]
        assert len(writes) >= 2  # holes fragment the residual write

    def test_cold_lookup_pays_index_region_read(self):
        s = make(entries=2)  # tiny hot cache
        o = Oracle(s)
        for i in range(10):
            o.write(i * 4, [100 + i])
        before = s.disk_index_lookups
        o.write(200, [100])  # fp 100 long evicted from the hot cache
        assert s.disk_index_lookups > before
        o.check()

    def test_cold_lookup_ops_target_index_region(self):
        s = make(entries=2)
        o = Oracle(s)
        for i in range(10):
            o.write(i * 4, [100 + i])
        planned = o.write(200, [100])
        index_reads = [
            op for op in planned.volume_ops if is_index(s.regions, op.pba)
        ]
        assert index_reads and all(op.op is OpType.READ for op in index_reads)

    def test_charge_index_io_can_be_disabled(self):
        s = make(entries=2, charge_index_io=False)
        o = Oracle(s)
        for i in range(10):
            o.write(i * 4, [100 + i])
        planned = o.write(200, [100])
        assert not any(is_index(s.regions, op.pba) for op in planned.volume_ops)
        assert s.disk_index_lookups > 0  # still counted

    def test_full_index_finds_evicted_duplicates(self):
        """The defining difference from Select-Dedupe: cold
        duplicates are still detected (at disk-lookup cost)."""
        s = make(entries=2)
        o = Oracle(s)
        o.write(0, [777])
        for i in range(10):  # push fp 777 out of the hot cache
            o.write(4 + i * 4, [1000 + i])
        planned = o.write(400, [777])
        assert planned.eliminated is True
        o.check()

    def test_full_index_invalidated_on_overwrite(self):
        s = make()
        o = Oracle(s)
        o.write(0, [1])
        o.write(0, [2])  # PBA 0 content changed
        planned = o.write(100, [1])  # fp 1 no longer on disk
        assert not planned.eliminated
        o.check()

    def test_full_index_entry_count_reported(self):
        s = make()
        o = Oracle(s)
        o.write(0, [1, 2, 3])
        assert s.stats()["full_index_entries"] == 3

    def test_reclaimed_log_block_leaves_full_index(self):
        s = make()
        o = Oracle(s)
        o.write(0, [1])
        o.write(100, [1])   # LBA 100 -> PBA 0
        o.write(0, [2])     # LBA 0 redirected to log with fp 2
        log_pba = s.map_table.translate(0)
        o.write(100, [3])   # unpin home
        o.write(0, [4])     # back to home; log block freed
        assert not s.log_alloc.is_allocated(log_pba)
        # fp 2 must not resolve to the freed block anymore
        planned = o.write(300, [2])
        assert not planned.eliminated or s.map_table.translate(300) != log_pba
        o.check()

    def test_integrity_under_churn(self, rng):
        s = make(entries=16)
        o = Oracle(s)
        for _ in range(400):
            lba = int(rng.integers(0, 600))
            n = int(rng.integers(1, 5))
            o.write(lba, [int(rng.integers(1, 60)) for _ in range(n)])
        o.check()
