"""Unit tests for the write-ahead Map-table journal."""

import pytest

from repro.errors import DedupError, FaultError
from repro.storage.allocator import RegionMap
from repro.storage.journal import (
    KIND_CLEAR,
    KIND_SET,
    JournalRecord,
    MapJournal,
)
from repro.storage.nvram import NvramMeter
from tests.helpers import clear_mapping


class TestRecords:
    def test_make_and_verify(self):
        rec = JournalRecord.make(0, KIND_SET, 5, 99)
        assert rec.verifies()

    def test_tampering_breaks_crc(self):
        rec = JournalRecord.make(3, KIND_SET, 5, 99)
        import dataclasses

        assert not dataclasses.replace(rec, pba=98).verifies()
        assert not dataclasses.replace(rec, lba=6).verifies()
        assert not dataclasses.replace(rec, seq=4).verifies()
        assert not dataclasses.replace(rec, kind=KIND_CLEAR).verifies()

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError):
            JournalRecord.make(0, "X", 1, 2)


class TestReplay:
    def test_empty_journal_replays_empty(self):
        mapping, replayed, torn = MapJournal().replay()
        assert mapping == {} and replayed == 0 and not torn

    def test_set_and_clear_replay_in_order(self):
        j = MapJournal()
        j.append_set(1, 100)
        j.append_set(2, 200)
        j.append_set(1, 101)  # remap wins
        j.append_clear(2)
        mapping, replayed, torn = j.replay()
        assert mapping == {1: 101}
        assert replayed == 4 and not torn

    def test_checkpoint_folds_tail(self):
        j = MapJournal()
        j.append_set(1, 100)
        j.checkpoint({1: 100})
        assert len(j) == 0 and j.checkpoint_entries == 1
        j.append_clear(1)
        mapping, replayed, torn = j.replay()
        assert mapping == {} and replayed == 1 and not torn
        assert j.records_appended == 2 and j.checkpoints_taken == 1

    def test_torn_tail_detected_and_discarded(self):
        j = MapJournal()
        for i in range(6):
            j.append_set(i, 100 + i)
        assert j.tear_tail(2) == 2
        mapping, replayed, torn = j.replay()
        assert torn
        assert replayed == 4
        # the torn suffix is untrusted: its mutations are gone
        assert mapping == {i: 100 + i for i in range(4)}
        # and physically discarded so later appends restart cleanly
        assert len(j) == 4

    def test_lost_tail_is_silent(self):
        j = MapJournal()
        for i in range(5):
            j.append_set(i, 100 + i)
        assert j.lose_tail(2) == 2
        mapping, replayed, torn = j.replay()
        # lost records leave no trace: replay succeeds on the prefix
        assert not torn and replayed == 3
        assert mapping == {0: 100, 1: 101, 2: 102}

    def test_lose_then_tear_composes(self):
        j = MapJournal()
        for i in range(8):
            j.append_set(i, 100 + i)
        j.lose_tail(2)
        j.tear_tail(2)
        mapping, replayed, torn = j.replay()
        assert torn and replayed == 4
        assert set(mapping) == {0, 1, 2, 3}

    def test_seq_chain_break_detected(self):
        j = MapJournal()
        j.append_set(1, 100)
        j.append_set(2, 200)
        j.append_set(3, 300)
        # drop the *middle* record: both neighbours still verify, but
        # the sequence chain 0 -> 2 breaks.
        del j._records[1]
        mapping, replayed, torn = j.replay()
        assert torn and replayed == 1
        assert mapping == {1: 100}

    def test_tear_beyond_length_clamped(self):
        j = MapJournal()
        j.append_set(1, 100)
        assert j.tear_tail(10) == 1
        assert j.lose_tail(10) == 1 or j.lose_tail(10) == 0

    def test_negative_amounts_rejected(self):
        j = MapJournal()
        with pytest.raises(FaultError):
            j.tear_tail(-1)
        with pytest.raises(FaultError):
            j.lose_tail(-1)


class TestMapTableIntegration:
    def make_table(self):
        from repro.dedup.map_table import MapTable

        regions = RegionMap(
            logical_blocks=256, log_blocks=64, index_blocks=8, swap_blocks=8
        )
        return MapTable(regions, NvramMeter())

    def attach(self, table):
        j = MapJournal()
        table.attach_journal(j)
        return j

    def test_write_ahead_logging_of_mutations(self):
        table = self.make_table()
        j = self.attach(table)
        log_pba = table.regions.log_base
        table.set_mapping(3, log_pba)
        clear_mapping(table, 3)
        assert j.records_appended == 2
        mapping, _, torn = j.replay()
        assert mapping == {} and not torn

    def test_attach_checkpoints_existing_state(self):
        table = self.make_table()
        log_pba = table.regions.log_base
        table.set_mapping(3, log_pba)
        j = self.attach(table)
        assert j.checkpoint_entries == 1
        mapping, _, _ = j.replay()
        assert mapping == {3: log_pba}

    def test_restore_mapping_rederives_refcounts(self):
        table = self.make_table()
        log = table.regions.log_base
        mapping = {1: log, 2: log, 3: log + 1}
        table.restore_mapping(mapping)
        assert len(table) == 3
        assert table.refs(log) == 2 and table.refs(log + 1) == 1
        assert table.nvram.entries == 3
        assert table.translate(1) == log and table.translate(9) == table.regions.home_of(9)

    def test_restore_mapping_validates_targets(self):
        table = self.make_table()
        with pytest.raises(DedupError):
            table.restore_mapping({1: table.regions.total_blocks + 5})

    def test_crash_recovery_round_trip(self):
        """set/clear churn -> journal replay -> restore == snapshot."""
        table = self.make_table()
        self.attach(table)
        log = table.regions.log_base
        for i in range(10):
            table.set_mapping(i, log + (i % 4))
        for i in range(0, 10, 3):
            clear_mapping(table, i)
        truth = table.snapshot()
        mapping, _, torn = table.journal.replay()
        assert not torn and mapping == truth
        # wipe and restore
        table.restore_mapping(mapping)
        assert table.snapshot() == truth
        import collections

        assert table._refs == dict(collections.Counter(truth.values()))
