"""GC disruption: online leased refcount GC vs stop-the-world sweep.

casstor reclaims dedup space in a "cleanup time" window: foreground
I/O drains while the directory is swept.  The replicated directory
replaces that with a leased :class:`~repro.cluster.directory.gc.GcJob`
that consumes decrement intents in small paced batches.  This bench
runs the same trace, same directory, same per-intent processing cost
under both modes and compares the *worst per-window foreground p99* --
the disruption metric that matters for tail SLOs.

Shape contracts:

* the stop-the-world sweep really stalls foreground arrivals, and both
  modes reclaim directory entries;
* the online GC's worst p99 window is strictly better than the
  stop-the-world run's worst window (the acceptance criterion for the
  replicated-directory PR);
* whole-run mean response is no worse online (the paced background
  work never beats foreground I/O to the fabric).
"""

from conftest import emit

from repro.cluster import ClusterConfig, DirectoryConfig, GcSpec
from repro.experiments import runner
from repro.jobs import JobsConfig
from repro.metrics.report import render_table
from repro.obs.timeline import TimelineConfig
from repro.sim.replay import ReplayConfig

TRACES = ["web-vm", "mail"]
COPIES = 2
SEED = 11
NODES = 2
#: Same per-intent directory processing cost in both modes: online it
#: paces the background job, stop-the-world it stalls the foreground.
ENTRY_COST = 1e-3
WINDOWS = 64


def _trace_end(scale):
    volumes = runner.multi_tenant_traces(
        TRACES, copies=COPIES, scale=scale, seed=SEED
    )
    return max(rec.time for t in volumes for rec in t.records)


def _run(scale, mode, t_end):
    gc = GcSpec(
        start=0.5 * t_end,
        interval=t_end / 256,
        batch=64,
        entry_cost=ENTRY_COST,
        mode=mode,
    )
    jobs = JobsConfig() if mode == "online" else None
    return runner.execute(runner.RunSpec(
        TRACES, "POD", tenants=runner.Tenants(copies=COPIES), nodes=NODES,
        replay=ReplayConfig(
            jobs=jobs, timeline=TimelineConfig(window=t_end / WINDOWS)
        ),
        cluster=ClusterConfig(
            directory=DirectoryConfig(replication=2, gc=gc)
        ),
        seed=SEED, scale=scale,
    ))


def _worst_window_p99(result):
    worst = 0.0
    for doc in result.timeline.window_docs():
        if doc["requests"] == 0:
            continue
        worst = max(
            worst, doc["read_latency"]["p99"], doc["write_latency"]["p99"]
        )
    return worst


def run_modes(scale):
    t_end = _trace_end(scale)
    rows = []
    for mode in ("online", "stw"):
        result = _run(scale, mode, t_end)
        overall = result.metrics.overall_summary()
        gc = result.cluster_stats["directory"]["gc"]
        rows.append(
            {
                "mode": mode,
                "mean_ms": overall.mean * 1e3,
                "p99_ms": overall.p99 * 1e3,
                "worst_window_p99_ms": _worst_window_p99(result) * 1e3,
                "reclaimed": gc["gc_reclaimed_blocks"],
                "live_skips": gc["gc_live_skips"],
                "stalled": gc.get("stw_stalled_requests", 0),
            }
        )
    return rows


def test_gc_disruption(benchmark, scale):
    rows = benchmark(run_modes, scale)
    text = render_table(
        "Refcount GC disruption: online leased job vs stop-the-world sweep",
        [
            "mode", "mean (ms)", "p99 (ms)", "worst win p99 (ms)",
            "reclaimed", "stalled req",
        ],
        [
            [
                r["mode"],
                r["mean_ms"],
                r["p99_ms"],
                r["worst_window_p99_ms"],
                r["reclaimed"],
                r["stalled"],
            ]
            for r in rows
        ],
        note="same per-intent cost; only *when* it is paid differs",
    )
    emit("gc_disruption", text)

    online, stw = rows
    assert online["mode"] == "online" and stw["mode"] == "stw"
    # both modes reclaim, and neither ever collects a live block
    assert online["reclaimed"] > 0 and stw["reclaimed"] > 0
    assert online["live_skips"] == 0 and stw["live_skips"] == 0
    # the sweep really does stall the foreground
    assert stw["stalled"] > 0
    # the acceptance criterion: online's worst window beats the
    # stop-the-world run's cleanup-time window outright
    assert online["worst_window_p99_ms"] < stw["worst_window_p99_ms"]
    # and the whole-run mean is no worse online
    assert online["mean_ms"] <= stw["mean_ms"]
