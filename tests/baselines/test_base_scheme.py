"""Tests of the shared DedupScheme machinery, driven directly.

The scheme subclasses are covered by their own behavioural suites;
these tests pin down the *base-class* contracts: swap-op placement,
stale-dedupe fallback, counter bookkeeping, the eliminated flag, and
the write-target interplay with the log allocator.
"""

import pytest

from repro.baselines.base import PlannedIO, SchemeConfig
from repro.core.select_dedupe import SelectDedupe
from repro.sim.request import OpType
from tests.conftest import Oracle
from tests.helpers import is_swap


@pytest.fixture
def scheme():
    return SelectDedupe(
        SchemeConfig(logical_blocks=2048, memory_bytes=128 * 1024)
    )


class TestPlannedIO:
    def test_defaults(self):
        p = PlannedIO()
        assert p.delay == 0.0
        assert p.volume_ops == [] and p.background_ops == []
        assert not p.eliminated
        assert p.ssd_read_blocks == 0 and p.ssd_write_blocks == 0


class TestSwapOps:
    def test_swap_ops_stay_in_swap_region(self, scheme):
        ops = scheme._swap_ops(64 * 4096)
        assert len(ops) == 2
        for op in ops:
            assert is_swap(scheme.regions, op.pba)
            assert is_swap(scheme.regions, op.pba + op.nblocks - 1)
        assert ops[0].op is OpType.READ and ops[1].op is OpType.WRITE

    def test_zero_bytes_no_ops(self, scheme):
        assert scheme._swap_ops(0.0) == []

    def test_cursor_advances_and_wraps(self, scheme):
        starts = []
        for _ in range(6):
            ops = scheme._swap_ops(16 * 4096)
            if ops:
                starts.append(ops[0].pba)
        # the cursor rotates through the region and wraps to its base
        assert len(set(starts)) >= 3
        assert starts[0] == scheme.regions.swap_base
        assert scheme.regions.swap_base in starts[1:]  # wrapped around


class TestEliminatedFlag:
    def test_eliminated_iff_no_data_ops(self, scheme):
        o = Oracle(scheme)
        unique = o.write(0, [1, 2])
        assert not unique.eliminated and unique.volume_ops
        dup = o.write(100, [1, 2])
        assert dup.eliminated and not dup.volume_ops


class TestWriteTargetAndLog:
    def test_redirect_counts(self, scheme):
        o = Oracle(scheme)
        o.write(0, [1])
        o.write(100, [1])  # pin home 0
        before = scheme.redirected_writes
        o.write(0, [2])  # must redirect
        assert scheme.redirected_writes == before + 1
        assert scheme.log_alloc.allocated_count == 1
        o.check()

    def test_log_block_update_in_place_no_new_alloc(self, scheme):
        o = Oracle(scheme)
        o.write(0, [1])
        o.write(100, [1])
        o.write(0, [2])  # redirected to log
        allocated = scheme.log_alloc.allocated_count
        o.write(0, [3])  # private log block: update in place
        assert scheme.log_alloc.allocated_count == allocated
        o.check()


class TestCounters:
    def test_block_accounting_balances(self, scheme, rng):
        o = Oracle(scheme)
        total = 0
        for _ in range(100):
            n = int(rng.integers(1, 5))
            o.write(int(rng.integers(0, 900)), [int(rng.integers(1, 30)) for _ in range(n)])
            total += n
        assert scheme.write_blocks_total == total
        assert (
            scheme.write_blocks_written + scheme.write_blocks_deduped == total
        )

    def test_stats_contains_cache_and_index_sections(self, scheme):
        s = scheme.stats()
        assert any(k.startswith("cache_") for k in s)
        assert any(k.startswith("index_") for k in s)
        assert s["scheme"] == "Select-Dedupe"

    def test_read_counters(self, scheme):
        o = Oracle(scheme)
        o.write(0, [1, 2, 3])
        o.read(0, 3)
        o.read(0, 3)
        assert scheme.reads_total == 2
        assert scheme.read_blocks_total == 6
        assert scheme.read_cache_hit_blocks == 3  # second read hits


class TestIntraRequestStaleness:
    def test_duplicate_of_chunk_overwritten_in_same_request(self, scheme):
        """A request that overwrites a donor block and later dedupes
        onto it must fall back to a plain write (content check)."""
        o = Oracle(scheme)
        o.write(10, [7])         # donor: fp 7 at PBA 10
        # one request: chunk 0 overwrites LBA 10 (new content), the
        # index still claims fp 7 @ 10 at lookup time for chunk 1...
        planned = o.write(10, [8, 7])
        # ...but the commit must not dedupe onto the now-stale block.
        o.check()
        assert scheme.stale_dedupe_avoided >= 0  # counted when it happens
