"""Behavioural tests for the iDedup baseline."""

import pytest

from repro.baselines.base import SchemeConfig
from repro.baselines.idedup import IDedup
from tests.helpers import translate_many
from tests.conftest import Oracle


@pytest.fixture
def idedup():
    return IDedup(
        SchemeConfig(
            logical_blocks=4096,
            memory_bytes=256 * 1024,
            idedup_threshold=4,
        )
    )


class TestIDedup:
    def test_small_redundant_write_ignored(self, idedup):
        """The behaviour POD's paper criticises: a fully redundant
        4 KB write passes straight through."""
        o = Oracle(idedup)
        o.write(0, [1])
        planned = o.write(100, [1])
        assert not planned.eliminated
        assert idedup.write_requests_removed == 0
        o.check()

    def test_below_threshold_run_ignored(self, idedup):
        o = Oracle(idedup)
        o.write(0, [1, 2, 3])
        planned = o.write(100, [1, 2, 3])  # run of 3 < threshold 4
        assert not planned.eliminated
        o.check()

    def test_long_sequential_run_deduplicated(self, idedup):
        o = Oracle(idedup)
        o.write(0, [1, 2, 3, 4, 5])
        planned = o.write(100, [1, 2, 3, 4, 5])
        assert planned.eliminated
        assert translate_many(idedup.map_table, range(100, 105)) == list(range(5))
        o.check()

    def test_partial_long_run_dedupes_run_only(self, idedup):
        o = Oracle(idedup)
        o.write(0, [1, 2, 3, 4])
        planned = o.write(100, [1, 2, 3, 4, 90, 91])
        written = sum(op.nblocks for op in planned.volume_ops)
        assert written == 2
        o.check()

    def test_scattered_duplicates_never_deduplicated(self, idedup):
        o = Oracle(idedup)
        o.write(0, [1])
        o.write(2, [2])
        o.write(4, [3])
        o.write(6, [4])
        planned = o.write(100, [1, 2, 3, 4])  # redundant but scattered
        assert not planned.eliminated
        written = sum(op.nblocks for op in planned.volume_ops)
        assert written == 4
        o.check()

    def test_no_disk_index_lookups(self, idedup, rng):
        o = Oracle(idedup)
        for _ in range(100):
            o.write(int(rng.integers(0, 500)), [int(rng.integers(1, 30))])
        assert idedup.disk_index_lookups == 0

    def test_threshold_comes_from_config(self):
        s = IDedup(
            SchemeConfig(logical_blocks=2048, memory_bytes=64 * 1024, idedup_threshold=2)
        )
        o = Oracle(s)
        o.write(0, [1, 2])
        planned = o.write(100, [1, 2])
        assert planned.eliminated
        o.check()

    def test_integrity_under_churn(self, idedup, rng):
        o = Oracle(idedup)
        for _ in range(300):
            lba = int(rng.integers(0, 600))
            n = int(rng.integers(1, 8))
            o.write(lba, [int(rng.integers(1, 40)) for _ in range(n)])
        o.check()
