"""Unit tests for trace records and serialisation."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.sim.request import OpType
from repro.traces.format import Trace, TraceRecord, load_trace, save_trace
from repro.traces.synthetic import WEB_VM, generate_trace


def sample_trace():
    return Trace(
        name="sample",
        records=[
            TraceRecord(0.0, OpType.WRITE, 0, 2, (11, 22)),
            TraceRecord(0.5, OpType.READ, 0, 2),
            TraceRecord(1.0, OpType.WRITE, 10, 1, (33,)),
        ],
        logical_blocks=64,
        warmup_count=1,
    )


class TestTraceRecord:
    def test_to_request(self):
        rec = TraceRecord(1.0, OpType.WRITE, 5, 2, (1, 2))
        req = rec.to_request(req_id=7)
        assert req.req_id == 7 and req.lba == 5 and req.fingerprints == (1, 2)

    def test_is_write(self):
        assert TraceRecord(0.0, OpType.WRITE, 0, 1, (1,)).is_write
        assert not TraceRecord(0.0, OpType.READ, 0, 1).is_write


class TestTraceValidation:
    def test_time_must_be_monotone(self):
        with pytest.raises(TraceError):
            Trace(
                name="bad",
                records=[
                    TraceRecord(1.0, OpType.READ, 0, 1),
                    TraceRecord(0.5, OpType.READ, 0, 1),
                ],
                logical_blocks=64,
            )

    def test_records_must_fit_logical_space(self):
        with pytest.raises(TraceError):
            Trace(
                name="bad",
                records=[TraceRecord(0.0, OpType.READ, 63, 2)],
                logical_blocks=64,
            )

    def test_warmup_count_bounded(self):
        with pytest.raises(TraceError):
            Trace(name="bad", records=[], logical_blocks=64, warmup_count=1)

    def test_measured_records(self):
        t = sample_trace()
        assert len(t.measured_records) == 2
        m = t.measured_only()
        assert m.warmup_count == 0 and len(m) == 2

    def test_requests_have_stable_ids(self):
        reqs = list(sample_trace().requests())
        assert [r.req_id for r in reqs] == [0, 1, 2]


class TestRoundtrip:
    def test_save_load_roundtrip(self, tmp_path):
        t = sample_trace()
        path = tmp_path / "sample.trace"
        save_trace(t, path)
        loaded = load_trace(path)
        assert loaded.name == t.name
        assert loaded.logical_blocks == t.logical_blocks
        assert loaded.warmup_count == t.warmup_count
        assert loaded.records == t.records

    def test_generated_trace_loads_back_as_itself(self, tmp_path):
        """Times survive the text format exactly (no rounding), so the
        loaded trace equals the generated one, records and columns."""
        t = generate_trace(WEB_VM, scale=0.02)
        path = tmp_path / "web.trace"
        save_trace(t, path)
        loaded = load_trace(path)
        assert loaded == t
        assert loaded.records == t.records
        for col in ("times", "ops", "lbas", "nblocks", "fp_offsets"):
            assert np.array_equal(getattr(loaded.columns, col), getattr(t.columns, col)), col
        pool, got = t.columns.pool, loaded.columns.pool
        assert [pool[j] for j in t.columns.fp_ids.tolist()] == [
            got[j] for j in loaded.columns.fp_ids.tolist()
        ]

    def test_load_infers_logical_space_when_missing(self, tmp_path):
        path = tmp_path / "x.trace"
        path.write_text("0.0 W 5 2 1,2\n")
        t = load_trace(path)
        assert t.logical_blocks == 7

    def test_load_rejects_bad_op(self, tmp_path):
        path = tmp_path / "x.trace"
        path.write_text("0.0 Z 0 1 -\n")
        with pytest.raises(TraceError):
            load_trace(path)

    def test_load_rejects_bad_field_count(self, tmp_path):
        path = tmp_path / "x.trace"
        path.write_text("0.0 R 0\n")
        with pytest.raises(TraceError):
            load_trace(path)

    def test_blank_lines_and_comments_skipped(self, tmp_path):
        path = tmp_path / "x.trace"
        path.write_text("# a comment\n\n0.0 R 0 1 -\n")
        assert len(load_trace(path)) == 1
