"""Telemetry-schema stability: golden timeline + span JSONL snapshots.

The golden trace from :mod:`tests.obs.test_golden_trace` is replayed
with the full telemetry stack armed (timeline + spans + a two-objective
SLO policy) and both JSONL serialisations are compared byte-for-byte
against committed snapshots.  Any change to window document layout,
span fields, serialisation order or the instrumentation points shows
up as a diff here -- if intentional, bump the relevant schema version
(:data:`repro.obs.timeline.TIMELINE_SCHEMA_VERSION` /
:data:`repro.obs.spans.SPAN_SCHEMA_VERSION`) and regenerate with::

    PYTHONPATH=src:tests python -c \
        "from obs.test_golden_timeline import regenerate; regenerate()"
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Optional

from repro.baselines.base import SchemeConfig
from repro.core.pod import POD
from repro.obs.slo import SloObjective, SloPolicy
from repro.obs.timeline import TimelineConfig
from repro.sim.replay import ReplayConfig, ReplayResult, replay_trace

from tests.obs.test_golden_trace import _golden_trace

GOLDEN_TIMELINE = Path(__file__).parent / "data" / "golden_timeline.jsonl"
GOLDEN_SPANS = Path(__file__).parent / "data" / "golden_spans.jsonl"

POLICY = SloPolicy(objectives=(
    SloObjective(name="write-latency", metric="latency", threshold=0.01,
                 op="write", target=0.9),
    SloObjective(name="throughput", metric="throughput", threshold=1.0,
                 target=0.9, burn_threshold=0.5),
))


def _golden_telemetry_replay(
    spans: bool = True, batch_size: Optional[int] = None
) -> ReplayResult:
    scheme = POD(
        SchemeConfig(logical_blocks=64, memory_bytes=8192, icache_epoch=1.0)
    )
    return replay_trace(
        _golden_trace(),
        scheme,
        ReplayConfig(
            timeline=TimelineConfig(window=0.5),
            spans=spans,
            slo=POLICY,
        ),
        batch_size=batch_size,
    )


def regenerate() -> None:  # pragma: no cover - maintenance helper
    result = _golden_telemetry_replay()
    GOLDEN_TIMELINE.parent.mkdir(parents=True, exist_ok=True)
    with open(GOLDEN_TIMELINE, "w", encoding="utf-8") as fh:
        result.timeline.write_jsonl(fh)
    with open(GOLDEN_SPANS, "w", encoding="utf-8") as fh:
        result.spans.write_jsonl(fh)
    print(f"wrote {GOLDEN_TIMELINE} and {GOLDEN_SPANS}")


def _jsonl(result: ReplayResult) -> str:
    buf = io.StringIO()
    result.timeline.write_jsonl(buf)
    return buf.getvalue()


def test_golden_timeline_snapshot():
    result = _golden_telemetry_replay()
    buf = io.StringIO()
    result.timeline.write_jsonl(buf)
    assert buf.getvalue() == GOLDEN_TIMELINE.read_text(encoding="utf-8"), (
        "timeline JSONL drifted from the golden snapshot -- if the "
        "schema change is intentional, bump TIMELINE_SCHEMA_VERSION "
        "and regenerate (see module docstring)"
    )


def test_golden_timeline_snapshot_on_the_columnar_driver():
    """Spans do not feed the timeline, so with them off the replay
    takes the columnar batch driver -- and must still write the
    committed snapshot byte for byte, with the same SLO verdict."""
    untraced = _golden_telemetry_replay(spans=False)
    assert _jsonl(untraced) == GOLDEN_TIMELINE.read_text(encoding="utf-8")
    columnar = _golden_telemetry_replay(spans=False, batch_size=4096)
    assert columnar.spans is None
    assert _jsonl(columnar) == GOLDEN_TIMELINE.read_text(encoding="utf-8")
    assert columnar.slo_stats == _golden_telemetry_replay().slo_stats


def test_golden_spans_snapshot():
    result = _golden_telemetry_replay()
    buf = io.StringIO()
    result.spans.write_jsonl(buf)
    assert buf.getvalue() == GOLDEN_SPANS.read_text(encoding="utf-8"), (
        "span JSONL drifted from the golden snapshot -- if the schema "
        "change is intentional, bump SPAN_SCHEMA_VERSION and regenerate "
        "(see module docstring)"
    )


def test_golden_run_is_byte_stable_within_a_session():
    a, b = _golden_telemetry_replay(), _golden_telemetry_replay()
    buf_a, buf_b = io.StringIO(), io.StringIO()
    a.timeline.write_jsonl(buf_a)
    b.timeline.write_jsonl(buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()
    assert a.slo_stats == b.slo_stats


def test_golden_telemetry_exercises_the_whole_surface():
    """The snapshot is only a schema pin if it covers the schema."""
    result = _golden_telemetry_replay()
    doc = result.timeline.as_dict()
    assert doc["windows_total"] > 1
    busy = [w for w in doc["windows"] if w["requests"]]
    assert busy and any(w["deduped_blocks"] for w in busy)
    assert any(w["gauges"] for w in doc["windows"])
    assert all("slo_counts" in w for w in doc["windows"])
    names = set(result.spans.by_name())
    assert {"request", "scheme.lookup"} <= names
    assert result.slo_stats is not None
    assert result.slo_stats["objectives"]
