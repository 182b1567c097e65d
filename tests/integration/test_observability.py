"""End-to-end observability tests.

The two load-bearing guarantees:

1. **Observation does not perturb the simulation** -- a replay with a
   CHUNK-level recorder attached produces byte-identical per-request
   completion times to an un-instrumented replay.
2. **The CLI artifacts are real** -- ``run --report-out/--trace-out``
   writes a valid versioned report and parseable JSONL, and ``stats``
   renders/diffs them.
"""

import json

import pytest

from repro.cli import main
from repro.experiments import runner
from repro.metrics.analysis import DetailedCollector
from repro.obs import (
    EVENT_FIELDS,
    EVENT_SCHEMA_VERSION,
    EventType,
    TraceLevel,
    TraceRecorder,
    load_report,
    read_jsonl,
)
from repro.sim.replay import ReplayConfig, replay_trace
from repro.traces.synthetic import generate_trace, paper_traces


@pytest.fixture(autouse=True)
def fresh_cache():
    runner.clear_run_cache()
    yield
    runner.clear_run_cache()


SCALE = 0.02


def _replay(recorder=None, scheme_name="POD", collector=None):
    spec = paper_traces()["web-vm"]
    trace = generate_trace(spec, seed=11, scale=SCALE)
    scheme = runner.build_scheme(scheme_name, spec, scale=SCALE)
    return replay_trace(
        trace, scheme, ReplayConfig(), collector=collector, recorder=recorder
    )


class TestObservationIsPure:
    @pytest.mark.parametrize("scheme_name", ["POD", "Select-Dedupe", "Native"])
    def test_tracing_enabled_does_not_change_results(self, scheme_name):
        plain = _replay(collector=DetailedCollector(), scheme_name=scheme_name)
        traced = _replay(
            recorder=TraceRecorder(level=TraceLevel.CHUNK),
            collector=DetailedCollector(),
            scheme_name=scheme_name,
        )
        assert len(traced.recorder.events) > 0
        # Exact per-request samples, not just aggregates.
        assert [
            (s.req_id, s.arrival, s.completion) for s in plain.metrics.samples
        ] == [
            (s.req_id, s.arrival, s.completion) for s in traced.metrics.samples
        ]
        assert plain.metrics.as_dict() == traced.metrics.as_dict()
        assert plain.utilisation == traced.utilisation
        assert plain.scheme_stats == traced.scheme_stats
        assert plain.epoch_timeline == traced.epoch_timeline

    def test_off_recorder_records_nothing_and_changes_nothing(self):
        plain = _replay(collector=DetailedCollector())
        off = _replay(
            recorder=TraceRecorder(level=TraceLevel.OFF),
            collector=DetailedCollector(),
        )
        assert len(off.recorder.events) == 0
        assert plain.metrics.as_dict() == off.metrics.as_dict()

    def test_epoch_timeline_surfaces_in_result(self):
        result = _replay()
        assert result.epoch_timeline, "POD replay should record iCache epochs"
        first = result.epoch_timeline[0]
        assert {"epoch", "t", "index_bytes", "read_bytes", "direction"} <= set(first)

    def test_event_fields_honour_schema_on_real_replay(self):
        result = _replay(recorder=TraceRecorder(level=TraceLevel.CHUNK))
        seen = set()
        for event in result.recorder.events:
            seen.add(event.etype)
            assert set(event.fields) == set(EVENT_FIELDS[event.etype])
        assert EventType.REQUEST_ARRIVE in seen
        assert EventType.ICACHE_EPOCH in seen
        assert EventType.DISK_OP in seen


class TestSeedReproducibility:
    def test_same_seed_same_report(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            runner.clear_run_cache()
            rc = main([
                "run", "--trace", "web-vm", "--scheme", "pod",
                "--scale", str(SCALE), "--seed", "5", "--report-out", str(path),
            ])
            assert rc == 0
        ra, rb = load_report(a), load_report(b)
        assert ra["seed"] == rb["seed"] == 5
        assert ra["counters"] == rb["counters"]
        assert ra["histograms"] == rb["histograms"]
        assert ra["icache_timeline"] == rb["icache_timeline"]

    def test_different_seed_different_trace(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["run", "--trace", "web-vm", "--scheme", "pod",
              "--scale", str(SCALE), "--seed", "1", "--report-out", str(a)])
        main(["run", "--trace", "web-vm", "--scheme", "pod",
              "--scale", str(SCALE), "--seed", "2", "--report-out", str(b)])
        ra, rb = load_report(a), load_report(b)
        assert ra["counters"] != rb["counters"]


class TestCliArtifacts:
    def test_run_writes_report_and_trace(self, tmp_path, capsys):
        report_path = tmp_path / "r.json"
        trace_path = tmp_path / "t.jsonl"
        rc = main([
            "run", "--trace", "web-vm", "--scheme", "pod", "--scale", str(SCALE),
            "--report-out", str(report_path), "--trace-out", str(trace_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "wrote" in out

        report = load_report(report_path)
        assert report["version"] == 1
        assert report["scheme"] == "POD"  # case-insensitive lookup
        assert report["counters"]["requests"] > 0
        assert report["counters"]["writes_eliminated_blocks"] >= report[
            "counters"]["writes_eliminated_requests"]
        for series in ("overall", "read", "write"):
            h = report["histograms"][series]
            assert h["p50"] <= h["p95"] <= h["p99"] <= h["p999"]
        assert report["icache_timeline"], "POD report must carry epoch timeline"
        assert report["tracing"]["level"] == "request"
        assert report["overhead"]["replay_wall_s"] > 0

        docs = list(read_jsonl(trace_path))
        header = docs[0]
        assert header["schema_version"] == EVENT_SCHEMA_VERSION
        assert header["events"] == len(docs) - 1
        etypes = {d["etype"] for d in docs[1:]}
        assert EventType.REQUEST_COMPLETE in etypes
        assert EventType.ICACHE_EPOCH in etypes

    def test_trace_level_off_writes_report_without_events(self, tmp_path):
        report_path = tmp_path / "r.json"
        rc = main([
            "run", "--trace", "web-vm", "--scheme", "POD", "--scale", str(SCALE),
            "--trace-level", "off", "--report-out", str(report_path),
        ])
        assert rc == 0
        report = load_report(report_path)
        assert report["tracing"]["level"] == "off"
        assert report["tracing"]["events_recorded"] == 0
        assert report["icache_timeline"], "timeline is independent of tracing"

    def test_report_identical_with_tracing_off_and_chunk(self, tmp_path):
        """The acceptance check: --trace-level off does not change the
        simulated numbers."""
        a, b = tmp_path / "off.json", tmp_path / "chunk.json"
        main(["run", "--trace", "web-vm", "--scheme", "POD", "--scale", str(SCALE),
              "--seed", "3", "--trace-level", "off", "--report-out", str(a)])
        runner.clear_run_cache()
        main(["run", "--trace", "web-vm", "--scheme", "POD", "--scale", str(SCALE),
              "--seed", "3", "--trace-level", "chunk", "--report-out", str(b)])
        ra, rb = load_report(a), load_report(b)
        assert ra["counters"] == rb["counters"]
        assert ra["histograms"] == rb["histograms"]
        assert ra["utilisation"] == rb["utilisation"]

    def test_stats_renders_report(self, tmp_path, capsys):
        report_path = tmp_path / "r.json"
        main(["run", "--trace", "web-vm", "--scheme", "POD", "--scale", str(SCALE),
              "--seed", "1", "--report-out", str(report_path)])
        capsys.readouterr()
        rc = main(["stats", str(report_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "POD on web-vm" in out
        assert "p999" in out
        assert "iCache epoch timeline" in out

    def test_stats_diffs_two_reports(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["run", "--trace", "web-vm", "--scheme", "POD", "--scale", str(SCALE),
              "--seed", "1", "--report-out", str(a)])
        main(["run", "--trace", "web-vm", "--scheme", "Native",
              "--scale", str(SCALE), "--seed", "1", "--report-out", str(b)])
        capsys.readouterr()
        rc = main(["stats", str(a), str(b)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "vs" in out
        assert "overall.p95" in out

    def test_stats_rejects_three_paths(self, tmp_path, capsys):
        rc = main(["stats", "a", "b", "c"])
        assert rc == 2

    def test_stats_missing_file_is_an_error(self, capsys):
        rc = main(["stats", "/nonexistent/report.json"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_compare_report_out(self, tmp_path, capsys):
        path = tmp_path / "cmp.json"
        rc = main(["compare", "--trace", "web-vm", "--scale", str(SCALE),
                   "--seed", "2", "--report-out", str(path)])
        assert rc == 0
        report = load_report(path)
        assert report["kind"] == "pod-compare-report"
        assert [r["scheme"] for r in report["runs"]] == list(
            runner.PAPER_SCHEMES)
        assert all(r["seed"] == 2 for r in report["runs"])
        capsys.readouterr()
        rc = main(["stats", str(path)])
        assert rc == 0
        assert "POD on web-vm" in capsys.readouterr().out

    def test_lowercase_scheme_accepted(self):
        result = runner.execute(runner.RunSpec(
            "web-vm", "select-dedupe", scale=SCALE,
        ))
        assert result.scheme_name == "Select-Dedupe"
