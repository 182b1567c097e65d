"""Unit tests for the Map table (LBA -> PBA with refcounts)."""

import pytest

from repro.dedup.map_table import MapTable
from repro.errors import DedupError
from repro.storage.allocator import RegionMap
from repro.storage.nvram import NvramMeter
from tests.helpers import clear_mapping, translate_many


@pytest.fixture
def regions():
    return RegionMap(logical_blocks=100, log_blocks=50, index_blocks=10, swap_blocks=10)


@pytest.fixture
def table(regions):
    return MapTable(regions)


class TestTranslate:
    def test_identity_by_default(self, table):
        assert table.translate(7) == 7

    def test_explicit_mapping(self, table):
        table.set_mapping(5, 40)
        assert table.translate(5) == 40
        assert table.is_redirected(5)

    def test_translate_many(self, table):
        table.set_mapping(1, 90)
        assert translate_many(table, [0, 1, 2]) == [0, 90, 2]

    def test_identity_mapping_stored_as_no_entry(self, table):
        table.set_mapping(5, 5)
        assert len(table) == 0
        assert not table.is_redirected(5)


class TestRefcounts:
    def test_refs_counted(self, table):
        table.set_mapping(1, 40)
        table.set_mapping(2, 40)
        assert table.refs(40) == 2
        assert table.refs(40) > 0

    def test_clear_decrements(self, table):
        table.set_mapping(1, 40)
        table.set_mapping(2, 40)
        assert clear_mapping(table, 1) is None  # still referenced by 2
        assert clear_mapping(table, 2) == 40  # last reference gone
        assert not table.refs(40) > 0

    def test_remap_releases_old_target(self, table):
        table.set_mapping(1, 40)
        freed = table.set_mapping(1, 41)
        assert freed == 40
        assert table.refs(41) == 1

    def test_clear_unmapped_is_noop(self, table):
        assert clear_mapping(table, 3) is None

    def test_referencing_lbas(self, table):
        table.set_mapping(1, 40)
        table.set_mapping(2, 40)
        assert table.referencing_lbas(40) == {1, 2}

    def test_nvram_tracks_entries(self, regions):
        nvram = NvramMeter()
        t = MapTable(regions, nvram)
        t.set_mapping(1, 40)
        t.set_mapping(2, 41)
        assert nvram.entries == 2
        clear_mapping(t, 1)
        assert nvram.entries == 1
        assert nvram.peak_entries == 2

    def test_out_of_range_rejected(self, table, regions):
        with pytest.raises(Exception):
            table.set_mapping(1000, 0)
        with pytest.raises(DedupError):
            table.set_mapping(1, regions.total_blocks)


class TestWriteTargetPolicy:
    def test_unreferenced_home_is_in_place(self, table):
        assert table.choose_write_target(5) == 5

    def test_referenced_home_forces_redirect(self, table):
        table.set_mapping(1, 5)  # LBA 1 references LBA 5's home block
        assert table.choose_write_target(5) is None

    def test_private_log_block_updated_in_place(self, table, regions):
        log_block = regions.log_base + 3
        # Home 5 is shared with LBA 1, so LBA 5 was redirected.
        table.set_mapping(1, 5)
        table.set_mapping(5, log_block)
        assert table.choose_write_target(5) == log_block

    def test_shared_log_block_forces_redirect(self, table, regions):
        log_block = regions.log_base + 3
        table.set_mapping(1, 5)  # home of 5 is referenced
        table.set_mapping(5, log_block)
        table.set_mapping(6, log_block)  # the log block is now shared
        assert table.choose_write_target(5) is None

    def test_stale_redirection_reclaims_home(self, table, regions):
        """LBA redirected but home free again -> write home."""
        log_block = regions.log_base + 3
        table.set_mapping(5, log_block)
        assert table.choose_write_target(5) == 5


class TestLivePbas:
    def test_counts_shared_once(self, table):
        table.set_mapping(1, 40)
        table.set_mapping(2, 40)
        live = table.live_pbas([1, 2, 3])
        assert live == {40, 3}

    def test_native_identity(self, table):
        assert table.live_pbas(range(5)) == set(range(5))
