"""Golden bit-identity: the columnar batch driver vs the object path.

The batch driver's contract is *bit*-identity, not statistical
closeness: every metric, scheme counter, disk utilisation figure and
epoch timeline entry must match the event-loop replay exactly, for
every scheme, at any batch size, for single- and multi-volume runs.
These tests are the contract's pin; the performance side lives in
benchmarks/ (bench_replay_throughput.py, emit_bench.py).
"""

from __future__ import annotations

import dataclasses
import io
import json
from typing import List

import pytest

from repro.baselines.base import SchemeConfig
from repro.cluster.replay import ClusterConfig
from repro.dedup.chunking import ChunkingConfig
from repro.experiments.runner import SCHEME_CLASSES
from repro.metrics.analysis import DetailedCollector
from repro.obs.slo import SloObjective, SloPolicy
from repro.obs.timeline import TimelineConfig
from repro.sim import batch
from repro.sim.replay import (
    ReplayConfig,
    ReplayRun,
    refusal,
    replay_trace,
    replay_traces,
)
from repro.sim.request import OpType
from repro.storage.raid import RaidLevel
from repro.traces.columnar import ColumnarTrace
from repro.traces.format import Trace, TraceRecord
from repro.traces.synthetic import HOMES, WEB_VM, generate_trace

SCALE = 0.02


@pytest.fixture(scope="module")
def web_trace():
    return generate_trace(WEB_VM, scale=SCALE)


@pytest.fixture(scope="module")
def homes_trace():
    return generate_trace(HOMES, seed=7, scale=0.015)


def fingerprint(result) -> str:
    """Everything observable about a replay, as one canonical string."""
    doc = {
        "summary": result.metrics.as_dict(),
        "stats": result.scheme_stats,
        "util": result.utilisation,
        "writes_total": result.writes_total,
        "write_requests_removed": result.write_requests_removed,
        "capacity_blocks": result.capacity_blocks,
        "epochs": result.epoch_timeline,
        "volumes": result.volumes,
    }
    if result.timeline is not None:
        doc["timeline"] = result.timeline.as_dict()
    if result.slo_stats is not None:
        doc["slo"] = result.slo_stats
    return json.dumps(doc, sort_keys=True, default=str)


#: One entry per replay that took the columnar driver.
DRIVER_CALLS: List[int] = []


@pytest.fixture(autouse=True)
def spy_driver(monkeypatch):
    """Counts the replays that take the columnar driver, so that
    ``replay`` can check which loop ran (a capability rule that sent a
    config to the event loop would otherwise compare that loop with
    itself)."""
    replay_columnar = batch.replay_columnar

    def spy(*args, **kwargs):
        DRIVER_CALLS.append(1)
        return replay_columnar(*args, **kwargs)

    monkeypatch.setattr(batch, "replay_columnar", spy)


def replay(traces, scheme_name, batch_size, config=None, collector=None,
           driver=None, **overrides):
    """Replay on a fresh scheme and check the loop that ran: the
    driver for a batch size, the event loop for ``None`` (or as
    ``driver`` says)."""
    params = dict(
        logical_blocks=sum(t.logical_blocks for t in traces),
        memory_bytes=256 * 1024,
    )
    params.update(overrides)
    scheme = SCHEME_CLASSES[scheme_name](SchemeConfig(**params))
    calls = len(DRIVER_CALLS)
    result = replay_traces(
        traces,
        scheme,
        config if config is not None else ReplayConfig(),
        collector=collector,
        batch_size=batch_size,
    )
    took = len(DRIVER_CALLS) > calls
    expected = batch_size is not None if driver is None else driver
    assert took == expected, (
        f"batch_size={batch_size} ran on the {'driver' if took else 'event loop'}"
    )
    return result


def driver_reason(config, scheme_name="POD"):
    """The capability table's reason to keep a default-batch replay of
    ``config`` off the driver (None: the driver takes it)."""
    scheme = SCHEME_CLASSES[scheme_name](
        SchemeConfig(logical_blocks=1024, memory_bytes=256 * 1024)
    )
    run = ReplayRun(config, ClusterConfig(), [scheme], batch_size=4096)
    return refusal(run, driver=True)


@pytest.mark.parametrize("scheme_name", sorted(SCHEME_CLASSES))
def test_single_volume_bit_identity(scheme_name, web_trace):
    base = fingerprint(replay([web_trace], scheme_name, None))
    for batch_size in (1, 7, 4096):
        assert (
            fingerprint(replay([web_trace], scheme_name, batch_size)) == base
        ), f"{scheme_name} diverges at batch_size={batch_size}"


@pytest.mark.parametrize("scheme_name", sorted(SCHEME_CLASSES))
def test_multi_volume_bit_identity(scheme_name, web_trace, homes_trace):
    traces = [web_trace, homes_trace]
    base = fingerprint(replay(traces, scheme_name, None))
    for batch_size in (1, 4096):
        assert (
            fingerprint(replay(traces, scheme_name, batch_size)) == base
        ), f"{scheme_name} diverges at batch_size={batch_size}"


@pytest.mark.parametrize("scheme_name", ["Native", "POD"])
def test_columnar_trace_input_identical(scheme_name, web_trace):
    """A trace's bare columns replay identically to the Trace that
    holds them, on the batch driver and on the object path."""
    ctrace = ColumnarTrace.from_trace(web_trace)
    base = fingerprint(replay([web_trace], scheme_name, None))
    assert fingerprint(replay([ctrace], scheme_name, None)) == base
    assert fingerprint(replay([ctrace], scheme_name, 4096)) == base


@pytest.mark.parametrize("scheme_name", ["POD", "Full-Dedupe"])
def test_chunking_bit_identity(scheme_name, web_trace):
    """Content-defined chunking is stream-order-dependent state; the
    batch driver must feed it in exactly arrival order."""
    chunking = ChunkingConfig(min_blocks=2, avg_blocks=4, max_blocks=16)
    base = fingerprint(
        replay([web_trace], scheme_name, None, chunking=chunking)
    )
    got = fingerprint(
        replay([web_trace], scheme_name, 4096, chunking=chunking)
    )
    assert got == base


@pytest.mark.parametrize("scheme_name", ["POD", "Full-Dedupe"])
def test_multi_volume_chunking_bit_identity(scheme_name, web_trace, homes_trace):
    """Multi-volume + CDC: the chunker's stream state spans volumes and
    the driver plans straight off the merged columns, counting
    cross-volume redundancy by fingerprint id -- all of it must match
    the object path at any batch size."""
    chunking = ChunkingConfig(min_blocks=2, avg_blocks=4, max_blocks=16)
    traces = [web_trace, homes_trace]
    base = replay(traces, scheme_name, None, chunking=chunking)
    assert sum(v.get("cross_volume_deduped_blocks", 0) for v in base.volumes) > 0
    expected = fingerprint(base)
    for batch_size in (1, 7, 4096):
        got = replay(traces, scheme_name, batch_size, chunking=chunking)
        assert fingerprint(got) == expected, (
            f"{scheme_name} diverges at batch_size={batch_size}"
        )


def test_raid0_bit_identity(web_trace):
    config = ReplayConfig(raid_level=RaidLevel.RAID0)
    base = fingerprint(replay([web_trace], "POD", None, config=config))
    assert fingerprint(replay([web_trace], "POD", 4096, config=config)) == base


def test_single_disk_bit_identity(web_trace):
    config = ReplayConfig(raid_level=RaidLevel.SINGLE, ndisks=1)
    base = fingerprint(replay([web_trace], "Native", None, config=config))
    assert (
        fingerprint(replay([web_trace], "Native", 4096, config=config)) == base
    )


@pytest.mark.parametrize("scheme_name", ["Native", "POD"])
@pytest.mark.parametrize("failed_disk", range(4))
def test_degraded_array_bit_identity(scheme_name, failed_disk, web_trace):
    """A RAID-5 array with one member failed runs on the driver (every
    extent maps degraded) and matches the object path, whichever member
    is down."""
    config = ReplayConfig(failed_disk=failed_disk)
    assert driver_reason(config, scheme_name) is None
    base = replay([web_trace], scheme_name, None, config=config)
    assert base.utilisation[failed_disk]["ops"] == 0
    expected = fingerprint(base)
    for batch_size in (1, 7, 4096):
        got = replay([web_trace], scheme_name, batch_size, config=config)
        assert fingerprint(got) == expected, (
            f"{scheme_name}, disk {failed_disk} failed, diverges at "
            f"batch_size={batch_size}"
        )


def test_ineligible_config_falls_back(web_trace):
    """Configs outside the batch fast path (span tracing) silently take
    the object path -- same results, no error."""
    config = ReplayConfig(spans=True)
    assert driver_reason(config) == "span tracing runs on the event loop"
    base = fingerprint(replay([web_trace], "POD", None, config=config))
    got = replay([web_trace], "POD", 4096, config=config, driver=False)
    assert fingerprint(got) == base


def test_replay_trace_entry_point(web_trace):
    scheme_a = SCHEME_CLASSES["POD"](
        SchemeConfig(logical_blocks=web_trace.logical_blocks, memory_bytes=256 * 1024)
    )
    scheme_b = SCHEME_CLASSES["POD"](
        SchemeConfig(logical_blocks=web_trace.logical_blocks, memory_bytes=256 * 1024)
    )
    a = replay_trace(web_trace, scheme_a)
    b = replay_trace(web_trace, scheme_b, batch_size=512)
    assert fingerprint(a) == fingerprint(b)


#: Timeline + SLO armed: small windows (many window boundaries inside
#: every planning batch) and read/write latency objectives at run and
#: volume scope, so ``slo_counts`` cover both matcher kinds.
TELEMETRY = ReplayConfig(
    timeline=TimelineConfig(window=0.5),
    slo=SloPolicy(objectives=(
        SloObjective(name="rd", metric="latency", threshold=0.01, op="read",
                     target=0.9),
        SloObjective(name="wr", metric="latency", threshold=0.005,
                     op="write", target=0.9),
        SloObjective(name="v0-rd", metric="latency", threshold=0.01,
                     scope="volume:0", op="read", target=0.9),
        SloObjective(name="v1-wr", metric="latency", threshold=0.005,
                     scope="volume:1", op="write", target=0.9),
    )),
)


def _timeline_jsonl(result) -> str:
    buf = io.StringIO()
    result.timeline.write_jsonl(buf)
    return buf.getvalue()


@pytest.mark.parametrize("multi", [False, True], ids=["single", "multi"])
@pytest.mark.parametrize("scheme_name", sorted(SCHEME_CLASSES))
def test_telemetry_bit_identity(scheme_name, multi, web_trace, homes_trace):
    """Timeline + SLO armed: the columnar driver writes the object
    path's timeline JSONL and ``slo_stats`` byte for byte.  POD runs
    1 s iCache epochs (tick gauges, NVRAM moving inside a batch) and
    plans a fingerprinting ``delay`` per write (the heap branch)."""
    traces = [web_trace, homes_trace] if multi else [web_trace]
    base = replay(traces, scheme_name, None, config=TELEMETRY, icache_epoch=1.0)
    assert base.timeline is not None and base.slo_stats is not None
    if scheme_name == "POD":
        gauges = [w["gauges"] for w in base.timeline.as_dict()["windows"]]
        assert any("icache_index_bytes" in g for g in gauges)
        assert len({g.get("nvram_bytes") for g in gauges}) > 2
        assert SchemeConfig.fingerprint_delay > 0
    for batch_size in (1, 7, 4096):
        got = replay(
            traces, scheme_name, batch_size, config=TELEMETRY, icache_epoch=1.0
        )
        where = f"{scheme_name} diverges at batch_size={batch_size}"
        assert _timeline_jsonl(got) == _timeline_jsonl(base), where
        assert got.slo_stats == base.slo_stats, where
        assert fingerprint(got) == fingerprint(base), where


@pytest.mark.parametrize("window", [0.05, 1000.0])
@pytest.mark.parametrize("scheme_name", ["Native", "POD"])
def test_telemetry_window_scale_bit_identity(scheme_name, window, web_trace):
    """Planning batches ignore timeline windows: at 0.05 s one planning
    batch spans many windows (each batch's NVRAM bytes fold into every
    window it touches), at 1000 s one window spans every batch."""
    config = dataclasses.replace(TELEMETRY, timeline=TimelineConfig(window=window))
    base = replay([web_trace], scheme_name, None, config=config, icache_epoch=1.0)
    windows = base.timeline.as_dict()["windows_total"]
    assert windows > 100 if window < 1 else windows == 1
    for batch_size in (1, 7, 4096):
        got = replay(
            [web_trace], scheme_name, batch_size, config=config, icache_epoch=1.0
        )
        where = f"{scheme_name} diverges at batch_size={batch_size}"
        assert _timeline_jsonl(got) == _timeline_jsonl(base), where
        assert got.slo_stats == base.slo_stats, where
        assert fingerprint(got) == fingerprint(base), where


def test_timeline_ends_on_unmeasured_delayed_finish(web_trace):
    """The run's last event is the delayed finish of a warm-up write
    arriving after all measured traffic has completed: no measured
    request notes its time, so only the final heap pop can carry the
    timeline's end clock to it."""
    last = web_trace.records[-1].time
    tail = Trace(
        "tail",
        [TraceRecord(last + 30.0, OpType.WRITE, 0, 1, (0xD1FF,))],
        logical_blocks=8,
        warmup_count=1,
    )
    config = ReplayConfig(timeline=TimelineConfig(window=0.5))
    base = replay([web_trace, tail], "Select-Dedupe", None, config=config)
    assert SchemeConfig.fingerprint_delay > 0
    assert base.timeline.t_end > last + 30.0
    for batch_size in (1, 4096):
        got = replay([web_trace, tail], "Select-Dedupe", batch_size, config=config)
        assert got.timeline.t_end == base.timeline.t_end, batch_size
        assert _timeline_jsonl(got) == _timeline_jsonl(base), batch_size


@pytest.mark.parametrize("multi", [False, True], ids=["single", "multi"])
def test_detailed_collector_samples_on_the_driver(multi, web_trace, homes_trace):
    """The driver folds completions in batches; a collector that keeps
    per-request samples still gets every one, in the object path's
    order, with the object path's fields."""
    traces = [web_trace, homes_trace] if multi else [web_trace]
    base = DetailedCollector()
    replay(traces, "POD", None, config=TELEMETRY, collector=base)
    assert base.samples and len(base.samples) == base.requests
    for batch_size in (1, 7, 4096):
        got = DetailedCollector()
        result = replay(traces, "POD", batch_size, config=TELEMETRY, collector=got)
        assert result.metrics is got
        assert got.samples == base.samples, batch_size
        assert got.registry.as_dict(True) == base.registry.as_dict(True), batch_size


def test_queue_lag_counts_epoch_tick_ops():
    """The driver's ``queue_lag`` gauge is a running maximum of disk
    service completions; an epoch tick's background ops must raise it.
    Post-Process scans every block written before its first tick (t=2)
    and one read arrives just behind that scan, so the lag its window
    keeps is the scan's backlog."""
    records = [
        TraceRecord(0.001 * k, OpType.WRITE, 16 * k, 4,
                    tuple(range(4 * k, 4 * k + 4)))
        for k in range(64)
    ]
    records += [TraceRecord(t, OpType.READ, 0, 1) for t in (2.0005, 3.5)]
    trace = Trace("scan", records, logical_blocks=16 * 64)
    config = ReplayConfig(timeline=TimelineConfig(window=0.5))
    base = replay([trace], "Post-Process", None, config=config)
    lags = {
        w["index"]: w["gauges"].get("queue_lag")
        for w in base.timeline.as_dict()["windows"]
    }
    assert base.scheme_stats["offline_scans"] == 1 and lags[4] > 0.0
    for batch_size in (1, 4096):
        got = replay([trace], "Post-Process", batch_size, config=config)
        assert _timeline_jsonl(got) == _timeline_jsonl(base), batch_size
