"""Unit tests for the windowed timeline sampler.

Covers window addressing, the per-window histogram reset, gauge/
activity/RPC semantics, the JSONL round trip, and the reconciliation
contract: summing any counter over all windows must equal the
whole-run aggregate, per run and per volume (the sampler is fed by
``MetricsCollector.record`` with identical arguments, so this is a
property of the wiring, and this test pins it against a real replay).
"""

import io
import json

import pytest

from repro.errors import ConfigError
from repro.experiments import runner
from repro.obs.slo import SloObjective, SloPolicy
from repro.obs.timeline import (
    TIMELINE_SCHEMA_VERSION,
    TimelineConfig,
    TimelineSampler,
    load_timeline,
    read_timeline_jsonl,
    write_timeline_jsonl,
)
from repro.sim.replay import ReplayConfig


class TestConfig:
    def test_rejects_nonpositive_window(self):
        with pytest.raises(ConfigError):
            TimelineConfig(window=0.0)
        with pytest.raises(ConfigError):
            TimelineConfig(window=-1.0)

    def test_rejects_bad_origin_and_caps(self):
        with pytest.raises(ConfigError):
            TimelineConfig(origin=-0.5)
        with pytest.raises(ConfigError):
            TimelineConfig(max_windows=0)
        with pytest.raises(ConfigError):
            TimelineConfig(latency_per_decade=0)

    def test_is_hashable_for_memo_keys(self):
        assert hash(TimelineConfig()) == hash(TimelineConfig())


class TestWindowing:
    def test_samples_land_in_their_window(self):
        s = TimelineSampler(TimelineConfig(window=1.0))
        s.note_request(0.5, is_read=True, nblocks=4, response=0.01)
        s.note_request(2.5, is_read=False, nblocks=8, response=0.02)
        docs = s.window_docs()
        assert [d["index"] for d in docs] == [0, 2]
        assert docs[0]["reads"] == 1 and docs[0]["read_blocks"] == 4
        assert docs[1]["writes"] == 1 and docs[1]["write_blocks"] == 8

    def test_out_of_order_completions_bucket_correctly(self):
        """The analytic replay reports completions out of call order;
        windows are sparse dicts, never closed early."""
        s = TimelineSampler(TimelineConfig(window=1.0))
        s.note_request(5.2, is_read=True, nblocks=1, response=0.01)
        s.note_request(1.1, is_read=True, nblocks=1, response=0.01)
        assert [d["index"] for d in s.window_docs()] == [1, 5]

    def test_per_window_histograms_reset(self):
        s = TimelineSampler(TimelineConfig(window=1.0))
        for _ in range(10):
            s.note_request(0.5, is_read=True, nblocks=1, response=0.001)
        s.note_request(1.5, is_read=True, nblocks=1, response=1.0)
        d0, d1 = s.window_docs()
        assert d0["read_latency"]["count"] == 10
        assert d0["read_latency"]["max"] < 0.01
        assert d1["read_latency"]["count"] == 1
        assert d1["read_latency"]["p50"] > 0.1

    def test_window_cap_raises_instead_of_dropping(self):
        s = TimelineSampler(TimelineConfig(window=1.0, max_windows=2))
        s.note_request(0.5, is_read=True, nblocks=1, response=0.01)
        s.note_request(1.5, is_read=True, nblocks=1, response=0.01)
        with pytest.raises(ConfigError):
            s.note_request(2.5, is_read=True, nblocks=1, response=0.01)

    def test_derived_rates(self):
        s = TimelineSampler(TimelineConfig())
        s.note_request(0.1, is_read=False, nblocks=8, response=0.01,
                       deduped_blocks=4)
        s.note_request(0.2, is_read=True, nblocks=4, response=0.01,
                       cache_hit_blocks=1)
        (doc,) = s.window_docs()
        assert doc["dedup_ratio"] == pytest.approx(0.5)
        assert doc["read_cache_hit_rate"] == pytest.approx(0.25)


class TestGaugesActivityRpc:
    def test_gauges_keep_window_maximum(self):
        s = TimelineSampler(TimelineConfig())
        s.note_gauges(0.1, nvram_bytes=100.0)
        s.note_gauges(0.9, nvram_bytes=40.0, queue_lag=0.5)
        s.note_gauges(0.5, node_id=1, nvram_bytes=7.0)
        (doc,) = s.window_docs()
        assert doc["gauges"] == {"nvram_bytes": 100.0, "queue_lag": 0.5}
        assert doc["node_gauges"] == {"1": {"nvram_bytes": 7.0}}

    def test_activity_keeps_maximum_progress(self):
        s = TimelineSampler(TimelineConfig())
        s.note_activity(0.2, "rebuild", 0.1)
        s.note_activity(0.8, "rebuild", 0.4)
        (doc,) = s.window_docs()
        assert doc["activity"] == {"rebuild": 0.4}

    def test_interval_annotations_cover_every_overlapped_window(self):
        s = TimelineSampler(TimelineConfig(window=1.0))
        s.note_request(0.5, is_read=True, nblocks=1, response=0.01)
        s.finish(4.0)
        s.annotate_interval("fail_slow", 1.2, 3.4)
        docs = s.window_docs()
        flagged = [d["index"] for d in docs if "fail_slow" in d["activity"]]
        assert flagged == [1, 2, 3]

    def test_interval_past_window_cap_raises_instead_of_dropping(self):
        s = TimelineSampler(TimelineConfig(window=1.0, max_windows=2))
        s.note_request(0.5, is_read=True, nblocks=1, response=0.01)
        s.finish(4.0)
        s.annotate_interval("fail_slow", 0.2, 3.4)
        with pytest.raises(ConfigError, match="exceeded 2 windows"):
            s.window_docs()

    def test_interval_end_before_start_rejected(self):
        s = TimelineSampler(TimelineConfig())
        with pytest.raises(ConfigError):
            s.annotate_interval("x", 2.0, 1.0)

    def test_rpc_accumulates_per_directed_link(self):
        s = TimelineSampler(TimelineConfig(window=1.0))
        s.note_rpc(0.1, 0, 1, 64, 0.25)
        s.note_rpc(0.2, 0, 1, 64, 0.25)
        s.note_rpc(0.3, 1, 0, 40, 0.1)
        (doc,) = s.window_docs()
        assert doc["net"]["0->1"] == {
            "bytes": 128, "busy": 0.5, "rpcs": 2, "utilisation": 0.5,
        }
        assert doc["net"]["1->0"]["rpcs"] == 1


class TestSloCounting:
    POLICY = SloPolicy(objectives=(
        SloObjective(name="rd", metric="latency", threshold=0.01, op="read"),
        SloObjective(name="v1", metric="latency", threshold=0.01,
                     scope="volume:1"),
    ))

    def test_exact_good_bad_counts_per_rule(self):
        s = TimelineSampler(TimelineConfig(), policy=self.POLICY)
        s.note_request(0.1, is_read=True, nblocks=1, response=0.005,
                       volume_id=0)
        s.note_request(0.2, is_read=True, nblocks=1, response=0.05,
                       volume_id=1)
        s.note_request(0.3, is_read=False, nblocks=1, response=0.05,
                       volume_id=1)
        (doc,) = s.window_docs()
        # rule 0 (run-scope reads): one good, one bad (write ignored)
        # rule 1 (volume 1, all ops): two bad
        assert doc["slo_counts"] == [[1, 1], [0, 2]]

    def test_no_policy_emits_no_slo_counts(self):
        s = TimelineSampler(TimelineConfig())
        s.note_request(0.1, is_read=True, nblocks=1, response=0.005)
        (doc,) = s.window_docs()
        assert "slo_counts" not in doc


class TestSerialisation:
    def _sampled(self):
        s = TimelineSampler(TimelineConfig(window=0.5))
        s.note_request(0.1, is_read=True, nblocks=4, response=0.01,
                       volume_id=0)
        s.note_node_request(0.1, node_id=0, is_read=True, nblocks=4,
                            response=0.01)
        s.note_gauges(0.2, queue_lag=0.1)
        s.note_rpc(0.3, 0, 1, 64, 0.01)
        s.note_activity(0.6, "rebuild", 0.5)
        s.finish(1.0)
        return s

    def test_jsonl_round_trip_preserves_windows(self):
        s = self._sampled()
        buf = io.StringIO()
        lines = s.write_jsonl(buf)
        doc = read_timeline_jsonl(buf.getvalue().splitlines())
        assert lines == 1 + len(doc["windows"])
        assert doc["schema_version"] == TIMELINE_SCHEMA_VERSION
        assert doc["windows"] == s.as_dict()["windows"]

    def test_reader_rejects_newer_schema(self):
        header = json.dumps({
            "etype": "timeline.header",
            "schema_version": TIMELINE_SCHEMA_VERSION + 1,
        })
        with pytest.raises(ConfigError):
            read_timeline_jsonl([header])

    def test_reader_rejects_unknown_lines(self):
        with pytest.raises(ConfigError):
            read_timeline_jsonl([json.dumps({"etype": "mystery"})])

    def test_load_timeline_accepts_all_three_forms(self, tmp_path):
        s = self._sampled()
        doc = s.as_dict()
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(doc))
        jsonl = tmp_path / "tl.jsonl"
        write_timeline_jsonl(doc, str(jsonl))
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"timeline": doc}))
        for path in (bare, jsonl, report):
            assert load_timeline(str(path))["windows"] == doc["windows"]


class TestReconciliation:
    """Window sums must equal the whole-run aggregates exactly."""

    def test_single_node_run_and_volume_sums_match_metrics(self):
        result = runner.run_multi(
            ["web-vm"], "POD", copies=2, scale=0.02, seed=5,
            replay_config=ReplayConfig(timeline=TimelineConfig(window=1.0)),
        )
        windows = result.timeline.as_dict()["windows"]
        metrics = result.metrics.as_dict()
        assert metrics["requests"] > 0
        pairs = [
            ("requests", "requests"),
            ("reads", "read_requests"),
            ("writes", "write_requests"),
            ("deduped_blocks", "writes_eliminated_blocks"),
            ("eliminated_requests", "writes_eliminated_requests"),
            ("cache_hit_blocks", "read_cache_hit_blocks"),
        ]
        for window_key, metric_key in pairs:
            assert sum(w[window_key] for w in windows) == metrics[metric_key]
        for vid in result.metrics.volume_ids():
            per_vol = result.metrics.volume_as_dict(vid)
            wsum = sum(
                w["volumes"].get(str(vid), {}).get("requests", 0)
                for w in windows
            )
            assert wsum == per_vol["requests"]
