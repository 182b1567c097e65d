"""Unit tests for the trace-analysis functions on hand-built traces."""

import pytest

from typing import List, Tuple

from repro.errors import TraceError
from repro.sim.request import OpType
from repro.traces.format import Trace, TraceRecord
from repro.traces.stats import (
    io_vs_capacity_redundancy,
    redundancy_by_size,
    trace_characteristics,
)


def burstiness_profile(trace: Trace, window: float = 1.0) -> List[Tuple[float, int, int]]:
    """Reads/writes per time window: ``(window_start, reads, writes)``
    rows for every window with traffic."""
    if window <= 0:
        raise TraceError("window must be positive")
    rows: List[Tuple[float, int, int]] = []
    cur_start = 0.0
    reads = writes = 0
    for rec in trace.records:
        while rec.time >= cur_start + window:
            if reads or writes:
                rows.append((cur_start, reads, writes))
            cur_start += window
            reads = writes = 0
        if rec.is_write:
            writes += 1
        else:
            reads += 1
    if reads or writes:
        rows.append((cur_start, reads, writes))
    return rows


def make_trace(records, warmup=0, blocks=1024):
    return Trace(name="t", records=records, logical_blocks=blocks, warmup_count=warmup)


def w(t, lba, fps):
    return TraceRecord(t, OpType.WRITE, lba, len(fps), tuple(fps))


def r(t, lba, n):
    return TraceRecord(t, OpType.READ, lba, n)


class TestCharacteristics:
    def test_basic(self):
        t = make_trace([w(0, 0, [1]), w(1, 4, [2, 3]), r(2, 0, 1)])
        ch = trace_characteristics(t)
        assert ch.write_ratio == pytest.approx(2 / 3)
        assert ch.io_count == 3
        assert ch.mean_request_kb == pytest.approx(4 * 4 / 3)

    def test_warmup_excluded(self):
        t = make_trace([w(0, 0, [1]), r(1, 0, 1)], warmup=1)
        ch = trace_characteristics(t)
        assert ch.io_count == 1 and ch.write_ratio == 0.0

    def test_empty_rejected(self):
        with pytest.raises(TraceError):
            trace_characteristics(make_trace([]))


class TestRedundancyBySize:
    def test_buckets(self):
        t = make_trace(
            [
                w(0, 0, [1]),           # 4 KB, unique
                w(1, 10, [1]),          # 4 KB, fully redundant
                w(2, 20, [1, 9]),       # 8 KB, partially redundant
                w(3, 30, [8, 7, 6, 5]), # 16 KB, unique
            ]
        )
        rows = {row.bucket_kb: row for row in redundancy_by_size(t)}
        assert rows[4].total == 2 and rows[4].fully_redundant == 1
        assert rows[8].partially_redundant == 1
        assert rows[16].total == 1 and rows[16].redundant == 0

    def test_warmup_fingerprints_seed_history(self):
        t = make_trace([w(0, 0, [1]), w(1, 10, [1])], warmup=1)
        rows = {row.bucket_kb: row for row in redundancy_by_size(t)}
        # the measured write duplicates warm-up content
        assert rows[4].total == 1 and rows[4].fully_redundant == 1

    def test_reads_ignored(self):
        t = make_trace([w(0, 0, [1]), r(1, 0, 1)])
        assert sum(row.total for row in redundancy_by_size(t)) == 1


class TestIoVsCapacity:
    def test_same_location_rewrite(self):
        t = make_trace([w(0, 0, [1]), w(1, 0, [1])])
        b = io_vs_capacity_redundancy(t)
        assert b.same_location_pct == pytest.approx(50.0)
        assert b.different_location_pct == 0.0

    def test_different_location_duplicate(self):
        t = make_trace([w(0, 0, [1]), w(1, 10, [1])])
        b = io_vs_capacity_redundancy(t)
        assert b.different_location_pct == pytest.approx(50.0)
        assert b.io_redundancy_pct == pytest.approx(50.0)

    def test_overwritten_content_no_longer_capacity_redundant(self):
        t = make_trace(
            [
                w(0, 0, [1]),
                w(1, 0, [2]),   # LBA 0 now holds 2; content 1 gone
                w(2, 10, [1]),  # not redundant anymore
            ]
        )
        b = io_vs_capacity_redundancy(t)
        assert b.different_location_pct == 0.0
        assert b.same_location_pct == 0.0

    def test_no_writes_rejected(self):
        with pytest.raises(TraceError):
            io_vs_capacity_redundancy(make_trace([r(0, 0, 1)]))

    def test_warmup_populates_state_not_counts(self):
        t = make_trace([w(0, 0, [1]), w(1, 10, [1])], warmup=1)
        b = io_vs_capacity_redundancy(t)
        # only the measured write counts, and it is redundant
        assert b.io_redundancy_pct == pytest.approx(100.0)


class TestBurstiness:
    def test_windows(self):
        t = make_trace([w(0.1, 0, [1]), r(0.2, 0, 1), w(1.5, 4, [2])])
        rows = burstiness_profile(t, window=1.0)
        assert rows[0] == (0.0, 1, 1)
        assert rows[1] == (1.0, 0, 1)

    def test_invalid_window(self):
        with pytest.raises(TraceError):
            burstiness_profile(make_trace([]), window=0)
