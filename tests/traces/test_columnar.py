"""Columnar trace representation: lossless round-trips, payload
shipping, validation and the multi-volume merge."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.sim.request import OpType
from repro.traces.columnar import (
    ColumnarTrace,
    merge_columnar,
)
from repro.traces.format import Trace, TraceRecord
from repro.traces.synthetic import WEB_VM, generate_trace

LOGICAL = 128

# Fingerprint values deliberately include > 2**63 (FIU MD5s are
# 128-bit): the interned pool must stay exact, not silently truncate
# to an int64 column.
fingerprints = st.integers(min_value=0, max_value=1 << 130)


@st.composite
def small_traces(draw) -> Trace:
    n = draw(st.integers(min_value=0, max_value=25))
    deltas = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    records = []
    t = 0.0
    for delta in deltas:
        t += delta
        nblocks = draw(st.integers(min_value=1, max_value=8))
        lba = draw(st.integers(min_value=0, max_value=LOGICAL - nblocks))
        is_write = draw(st.booleans())
        fps = (
            tuple(
                draw(fingerprints) for _ in range(nblocks)
            )
            if is_write
            else None
        )
        records.append(
            TraceRecord(
                time=t,
                op=OpType.WRITE if is_write else OpType.READ,
                lba=lba,
                nblocks=nblocks,
                fingerprints=fps,
            )
        )
    warmup = draw(st.integers(min_value=0, max_value=n))
    return Trace(
        name="prop", records=records, logical_blocks=LOGICAL, warmup_count=warmup
    )


class TestRoundTrip:
    @given(trace=small_traces())
    @settings(max_examples=150, deadline=None)
    def test_from_trace_to_trace_is_lossless(self, trace):
        back = ColumnarTrace.from_trace(trace).to_trace()
        assert back.name == trace.name
        assert back.logical_blocks == trace.logical_blocks
        assert back.warmup_count == trace.warmup_count
        assert back.records == trace.records

    @given(trace=small_traces())
    @settings(max_examples=75, deadline=None)
    def test_payload_round_trip(self, trace):
        ct = ColumnarTrace.from_trace(trace)
        rebuilt = ColumnarTrace.from_payload(ct.payload())
        assert rebuilt.to_trace().records == trace.records
        assert rebuilt.pool == ct.pool
        for col in ("times", "ops", "lbas", "nblocks", "fp_offsets", "fp_ids"):
            np.testing.assert_array_equal(
                getattr(rebuilt, col), getattr(ct, col)
            )

    def test_paper_trace_round_trips(self):
        trace = generate_trace(WEB_VM, scale=0.01)
        ct = ColumnarTrace.from_trace(trace)
        assert len(ct) == len(trace.records)
        assert ct.to_trace().records == trace.records

    def test_pool_preserves_wide_fingerprints(self):
        fp = (1 << 127) + 12345
        trace = Trace(
            name="wide",
            records=[
                TraceRecord(0.0, OpType.WRITE, 0, 1, (fp,)),
            ],
            logical_blocks=4,
        )
        ct = ColumnarTrace.from_trace(trace)
        assert ct.pool == [fp]
        assert ct.to_trace().records[0].fingerprints == (fp,)


class TestValidation:
    def _columns(self, **over):
        cols = dict(
            name="v",
            logical_blocks=8,
            warmup_count=0,
            times=np.asarray([0.0, 1.0]),
            ops=np.asarray([1, 0], dtype=np.uint8),
            lbas=np.asarray([0, 2], dtype=np.int64),
            nblocks=np.asarray([2, 1], dtype=np.int64),
            fp_offsets=np.asarray([0, 2, 2], dtype=np.int64),
            fp_ids=np.asarray([0, 1], dtype=np.int64),
            pool=[11, 22],
        )
        cols.update(over)
        return cols

    def test_valid_columns_pass(self):
        ColumnarTrace(**self._columns())

    @pytest.mark.parametrize(
        "over",
        [
            {"times": np.asarray([1.0, 0.5])},
            {"times": np.asarray([-1.0, 0.5])},
            {"lbas": np.asarray([0, 8], dtype=np.int64)},
            {"lbas": np.asarray([-1, 2], dtype=np.int64)},
            {"nblocks": np.asarray([0, 1], dtype=np.int64)},
            {"fp_offsets": np.asarray([0, 1, 1], dtype=np.int64)},
            {"fp_ids": np.asarray([0, 5], dtype=np.int64)},
            {"warmup_count": 7},
            {"logical_blocks": 0},
        ],
    )
    def test_bad_columns_rejected(self, over):
        with pytest.raises(TraceError):
            ColumnarTrace(**self._columns(**over))


class TestMerge:
    @given(ts=st.lists(small_traces(), min_size=1, max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_merge_matches_object_merge(self, ts):
        """The stable column merge reproduces heapq.merge order: sort
        by time, ties broken by volume order then within-volume
        order."""
        bases = []
        base = 0
        for t in ts:
            bases.append(base)
            base += t.logical_blocks
        merged = merge_columnar(
            [ColumnarTrace.from_trace(t) for t in ts], bases
        )
        expect = sorted(
            (
                (rec.time, vid, i, rec, bases[vid])
                for vid, t in enumerate(ts)
                for i, rec in enumerate(t.records)
            ),
            key=lambda item: (item[0], item[1], item[2]),
        )
        assert len(merged) == len(expect)
        for k, (time, vid, i, rec, b) in enumerate(expect):
            assert merged.times[k] == time
            assert merged.volume_ids[k] == vid
            assert merged.lbas[k] == b + rec.lba
            assert merged.nblocks[k] == rec.nblocks
            assert bool(merged.measured[k]) == (i >= ts[vid].warmup_count)
            lo, hi = merged.fp_offsets[k], merged.fp_offsets[k + 1]
            fps = tuple(merged.pool[j] for j in merged.fp_ids[lo:hi])
            assert fps == (rec.fingerprints or ())

    def test_requires_matching_bases(self):
        ct = ColumnarTrace.from_trace(generate_trace(WEB_VM, scale=0.005))
        with pytest.raises(TraceError):
            merge_columnar([ct], [0, 1])
        with pytest.raises(TraceError):
            merge_columnar([], [])
