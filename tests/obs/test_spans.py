"""Unit tests for the causal span tracer.

Span ids are a deterministic counter (1-based); 0 is the over-cap
sentinel that no span ever owns, so ``end(t, 0)`` and ``parent=0``
guards stay cheap no-ops on the hot path.
"""

import io
import json

from repro.obs.spans import (
    DEFAULT_MAX_SPANS,
    SPAN_SCHEMA_VERSION,
    SpanTracer,
)
from tests.helpers import find_root, span_children


class TestLifecycle:
    def test_ids_are_deterministic_and_one_based(self):
        t = SpanTracer()
        a = t.start(0.0, "request", req_id=1)
        b = t.start(0.1, "classify", parent=a, req_id=1)
        assert (a, b) == (1, 2)
        t.end(0.2, b)
        t.end(0.3, a)
        assert [s.span_id for s in t.spans] == [1, 2]
        assert t.spans[1].parent == a
        assert t.spans[0].end == 0.3

    def test_emit_is_start_plus_end(self):
        t = SpanTracer()
        sid = t.emit(1.0, 2.0, "disk", req_id=3, blocks=8)
        (span,) = t.spans
        assert span.span_id == sid
        assert (span.start, span.end) == (1.0, 2.0)
        assert span.attrs == {"blocks": 8}

    def test_end_attrs_merge_into_span(self):
        t = SpanTracer()
        sid = t.start(0.0, "request")
        t.end(1.0, sid, response=1.0)
        assert t.spans[0].attrs["response"] == 1.0

    def test_by_name_counts(self):
        t = SpanTracer()
        t.emit(0.0, 0.1, "disk")
        t.emit(0.2, 0.3, "disk")
        t.emit(0.2, 0.3, "rpc.lookup")
        assert t.by_name() == {"disk": 2, "rpc.lookup": 1}

    def test_summary_shape(self):
        t = SpanTracer()
        t.start(0.0, "request")  # left open on purpose
        s = t.summary()
        assert s["schema_version"] == SPAN_SCHEMA_VERSION
        assert s["spans"] == 1 and s["open"] == 1 and s["dropped"] == 0


class TestOverCapSentinel:
    def test_cap_returns_zero_and_counts_drops(self):
        t = SpanTracer(max_spans=2)
        assert t.start(0.0, "a") == 1
        assert t.start(0.0, "b") == 2
        assert t.start(0.0, "c") == 0
        assert t.start(0.0, "d") == 0
        assert t.dropped == 2
        assert len(t.spans) == 2

    def test_end_of_sentinel_is_a_noop(self):
        t = SpanTracer(max_spans=1)
        t.start(0.0, "a")
        assert t.start(0.0, "b") == 0
        t.end(1.0, 0)  # must not raise or touch any span
        assert all(s.end == -1.0 for s in t.spans)

    def test_default_cap_is_generous(self):
        assert SpanTracer().max_spans == DEFAULT_MAX_SPANS


class TestTreeHelpers:
    def _tree(self):
        t = SpanTracer()
        root = t.start(0.0, "request", req_id=9)
        t.emit(0.0, 0.1, "classify", parent=root, req_id=9)
        t.emit(0.1, 0.5, "disk", parent=root, req_id=9)
        t.end(0.5, root)
        return t

    def test_span_children_groups_by_parent(self):
        t = self._tree()
        kids = span_children(t.spans)
        assert [s.name for s in kids[1]] == ["classify", "disk"]

    def test_find_root_by_req_id(self):
        t = self._tree()
        root = find_root(t.spans, 9)
        assert root is not None and root.name == "request"
        assert find_root(t.spans, 404) is None


class TestSerialisation:
    def test_jsonl_header_then_spans(self):
        t = SpanTracer()
        t.emit(0.0, 0.1, "disk", req_id=1)
        buf = io.StringIO()
        lines = t.write_jsonl(buf)
        rows = [json.loads(x) for x in buf.getvalue().splitlines()]
        assert lines == len(rows) == 2
        assert rows[0]["etype"] == "span.header"
        assert rows[0]["schema_version"] == SPAN_SCHEMA_VERSION
        assert rows[1]["etype"] == "span"
        assert rows[1]["span_id"] == 1
