"""Unit tests for the RAID-5 rebuild controller."""

import pytest

from repro.constants import BLOCKS_PER_STRIPE_UNIT
from repro.errors import StorageError
from repro.sim.request import OpType
from repro.storage.raid import RaidArray, RaidGeometry, RaidLevel
from repro.storage.rebuild import RebuildController

SU = BLOCKS_PER_STRIPE_UNIT


def raid5(ndisks=4):
    return RaidArray(RaidGeometry(RaidLevel.RAID5, ndisks))


def step(rc, rows):
    """Plan ``rows`` rows from the committed cursor and commit them, as
    one paced rebuild step does; returns the planned ops."""
    ops, end = rc.plan_rows(rc.cursor, rows)
    rc.commit_rows(rc.cursor, end)
    return ops


class TestBatches:
    def test_one_row_traffic(self):
        rc = RebuildController(raid5(), failed_disk=2, disk_rows=10)
        ops = step(rc, 1)
        reads = [o for o in ops if o.op is OpType.READ]
        writes = [o for o in ops if o.op is OpType.WRITE]
        assert len(reads) == 3 and len(writes) == 1
        assert writes[0].disk_id == 2
        assert {o.disk_id for o in reads} == {0, 1, 3}
        assert all(o.nblocks == SU for o in ops)

    def test_rows_advance(self):
        rc = RebuildController(raid5(), failed_disk=0, disk_rows=3)
        for expected_pba in (0, SU, 2 * SU):
            ops = step(rc, 1)
            assert all(o.pba == expected_pba for o in ops)
        assert rc.done
        assert step(rc, 1) == []
        assert rc.progress == 1.0

    def test_multi_row_batch(self):
        rc = RebuildController(raid5(), failed_disk=1, disk_rows=8)
        ops = step(rc, 4)
        assert len(ops) == 4 * 4  # (3 reads + 1 write) x 4 rows
        assert rc.progress == pytest.approx(0.5)

    def test_full_rebuild_covers_every_row_once(self):
        rc = RebuildController(raid5(), failed_disk=3, disk_rows=17)
        pbas = []
        while not rc.done:
            for op in step(rc, 5):
                if op.op is OpType.WRITE:
                    pbas.append(op.pba)
        assert pbas == [row * SU for row in range(17)]
        assert rc.rows_rebuilt == 17


class TestCapacityAware:
    def test_dead_rows_skipped(self):
        # live data only in rows 0 and 2 (row = 3 data units of SU)
        row_blocks = 3 * SU
        live = {5, row_blocks * 2 + 7}
        rc = RebuildController(raid5(), failed_disk=1, disk_rows=4, live_pbas=live)
        pbas = []
        while not rc.done:
            for op in step(rc, 1):
                if op.op is OpType.WRITE:
                    pbas.append(op.pba)
        assert pbas == [0, 2 * SU]
        assert rc.rows_rebuilt == 2 and rc.rows_skipped == 2

    def test_empty_live_set_skips_everything(self):
        rc = RebuildController(raid5(), failed_disk=1, disk_rows=5, live_pbas=[])
        assert step(rc, 10) == []
        assert rc.done and rc.rows_skipped == 5


class TestBoundedScan:
    """A step's work is bounded by rows *scanned*, not rows rebuilt.

    Regression tests for the unbounded-walk bug: on a mostly-empty
    disk the old controller kept walking until it found ``rows`` live
    rows, so one "paced" batch could scan the whole array in a single
    call and the background-load model charged nothing for it.
    """

    def test_sparse_disk_batches_stay_bounded(self):
        row_blocks = 3 * SU
        # live data only in the very last of 100 rows
        rc = RebuildController(
            raid5(), failed_disk=1, disk_rows=100, live_pbas={99 * row_blocks}
        )
        assert step(rc, 10) == []  # nothing live in rows 0..9 ...
        assert rc.rows_scanned == 10  # ... but only 10 rows examined
        assert rc.rows_skipped == 10 and not rc.done
        batches = 1
        while not rc.done:
            before = rc.rows_scanned
            step(rc, 10)
            assert rc.rows_scanned - before <= 10
            batches += 1
        assert batches == 10
        assert rc.rows_rebuilt == 1 and rc.rows_skipped == 99

    def test_scanned_equals_rebuilt_plus_skipped(self):
        row_blocks = 3 * SU
        live = {r * row_blocks for r in (0, 3, 4, 9)}
        rc = RebuildController(raid5(), failed_disk=0, disk_rows=12, live_pbas=live)
        while not rc.done:
            step(rc, 5)
            assert rc.rows_scanned == rc.rows_rebuilt + rc.rows_skipped
        assert rc.rows_scanned == 12
        assert rc.rows_rebuilt == 4 and rc.rows_skipped == 8

    def test_oblivious_mode_scans_exactly_what_it_rebuilds(self):
        rc = RebuildController(raid5(), failed_disk=2, disk_rows=7)
        while not rc.done:
            step(rc, 2)
        assert rc.rows_scanned == rc.rows_rebuilt == 7
        assert rc.rows_skipped == 0

    def test_progress_counts_scanned_rows(self):
        rc = RebuildController(raid5(), failed_disk=1, disk_rows=8, live_pbas=[])
        step(rc, 4)
        assert rc.progress == pytest.approx(0.5)
        assert rc.rows_scanned == 4


class TestGuards:
    def test_raid0_rejected(self):
        r0 = RaidArray(RaidGeometry(RaidLevel.RAID0, 4))
        with pytest.raises(StorageError):
            RebuildController(r0, 0, 10)

    def test_bad_disk_rejected(self):
        with pytest.raises(StorageError):
            RebuildController(raid5(), 7, 10)

    def test_bad_rows_rejected(self):
        with pytest.raises(StorageError):
            RebuildController(raid5(), 0, 0)
        rc = RebuildController(raid5(), 0, 5)
        with pytest.raises(StorageError):
            rc.plan_rows(rc.cursor, 0)
