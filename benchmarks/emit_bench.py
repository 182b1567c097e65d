"""Emit the committed replay-throughput trajectory (BENCH_replay.json).

Measures object-path vs columnar-batch replay throughput on fixed
(trace, scheme) pairs and appends one run record -- git revision,
requests/sec for both paths, speedup, the trace generator's cost per
request, and a bit-identity verdict -- to ``BENCH_replay.json`` at the
repo root.  The file is committed: each PR that touches replay
performance appends a run, building a trajectory reviewers can diff
instead of re-measuring.

Method: every number is the best of ``--trials`` runs (min wall time;
single-core CI boxes jitter 20%+, and the minimum is the least noisy
location estimate of machine capability).  The columnar variant
replays a pre-interned ColumnarTrace -- conversion is load-time cost,
like parsing.  Bit-identity is asserted on the full result fingerprint
(metrics, scheme stats, utilisation; plus the timeline document and
``slo_stats`` on telemetry-armed rows), not just sampled fields.

The exit status is 1 when any entry is not bit-identical, with or
without ``--dry-run``, so ``--dry-run --trials 1`` is a quick check.

The ``mail x4`` entry is the ``pod-tenants`` shape: four mail tenants
in one dedup domain, POD with iCache and Gear CDC, on an 8-disk
RAID-5; it times both loops on the merged stream like the grid rows.

The ``cluster`` entry is the ``cluster-quorum`` shape (3 POD nodes,
an R=2 QUORUM replicated directory, online refcount GC as a leased job
and the per-node content oracle), which only the event loop runs: it
records the event loop's requests/sec and the sha256 of the run
report, so a change that claims cluster speed shows both the rate and
unchanged report bytes.  Each of its trials is bracketed by the
benchmark's host-speed calibration (``perfbench/calibration.py``), and
the entry also records the median rate scaled to the reference host:
on a shared machine the best raw rate moves with the neighbours.

Usage::

    PYTHONPATH=src python benchmarks/emit_bench.py [--trials 3] [--dry-run]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.baselines.base import SchemeConfig
from repro.cluster.directory.gc import GcSpec
from repro.cluster.directory.quorum import Consistency, DirectoryConfig
from repro.cluster.replay import ClusterConfig, replay_cluster
from repro.dedup.chunking import ChunkingConfig
from repro.experiments.runner import SCHEME_CLASSES, multi_tenant_traces, paper_traces
from repro.jobs.plan import JobsConfig
from repro.obs.report import build_run_report
from repro.obs.slo import SloPolicy
from repro.obs.timeline import TimelineConfig
from repro.sim.batch import DEFAULT_BATCH_SIZE
from repro.sim.replay import ReplayConfig, ReplayResult, replay_trace, replay_traces
from repro.traces.columnar import ColumnarTrace
from repro.traces.format import Trace
from repro.traces.synthetic import HOMES, WEB_VM, TraceSpec, generate_trace

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "perfbench"))
from calibration import REFERENCE_S, calibrate
DEFAULT_OUT = REPO_ROOT / "BENCH_replay.json"

#: Timeline + SLO armed (1 s windows, the policy of examples/slo.json):
#: the CLI's ``--timeline 1.0 --slo examples/slo.json``.
TELEMETRY = ReplayConfig(
    timeline=TimelineConfig(window=1.0),
    slo=SloPolicy.load(str(REPO_ROOT / "examples" / "slo.json")),
)

#: The fixed measurement grid: (trace name, generator spec, scale,
#: scheme, replay config).  Small enough to run in CI, large enough
#: that per-run wall times sit well above timer resolution.
GRID = [
    ("web-vm", WEB_VM, 0.2, "Native", ReplayConfig()),
    ("homes", HOMES, 1.0, "Native", ReplayConfig()),
    ("web-vm", WEB_VM, 0.2, "POD", ReplayConfig()),
    ("web-vm", WEB_VM, 0.2, "Native", TELEMETRY),
]


#: The pod-tenants row: (trace, tenant copies, scale, seed), replayed
#: by POD with iCache and CDC on an 8-disk array.
TENANTS_ROW = ("mail", 4, 0.03, 1)
TENANTS = ReplayConfig(ndisks=8)

#: The cluster row: (traces, tenant copies per trace, nodes, scale,
#: seed), replayed with the ``cluster-quorum`` configuration below.
CLUSTER_ROW = (("web-vm", "mail"), 2, 3, 0.04, 1)
CLUSTER = ClusterConfig(
    verify_content=True,
    directory=DirectoryConfig(replication=2, consistency=Consistency.QUORUM, gc=GcSpec()),
)
CLUSTER_JOBS = ReplayConfig(jobs=JobsConfig())


#: The measured code: a ledger run is ``+dirty`` only when these differ
#: from HEAD (an edited document does not change what was measured).
MEASURED_PATHS = ("src", "benchmarks", "perfbench")


def _git_rev() -> str:
    """Short HEAD revision; ``+dirty`` when tracked files under
    :data:`MEASURED_PATHS` differ from it (the measured code is then
    HEAD plus uncommitted changes)."""
    try:
        rev = subprocess.check_output(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO_ROOT, text=True
        ).strip()
        dirty = subprocess.check_output(
            ["git", "status", "--porcelain", "--untracked-files=no", "--",
             *MEASURED_PATHS],
            cwd=REPO_ROOT,
            text=True,
        ).strip()
    except (subprocess.CalledProcessError, OSError):
        return "unknown"
    return rev + "+dirty" if dirty else rev


def _fingerprint(result: ReplayResult) -> str:
    return json.dumps(
        {
            "summary": result.metrics.as_dict(),
            "stats": result.scheme_stats,
            "util": result.utilisation,
            "capacity": result.capacity_blocks,
            "epochs": result.epoch_timeline,
        },
        sort_keys=True,
        default=str,
    )


def _telemetry_fingerprint(result: ReplayResult) -> str:
    """:func:`_fingerprint` plus the timeline document and SLO verdict."""
    timeline = result.timeline.as_dict() if result.timeline is not None else None
    return _fingerprint(result) + json.dumps(
        {"timeline": timeline, "slo": result.slo_stats}, sort_keys=True, default=str
    )


def _replay(
    trace: Any,
    logical_blocks: int,
    scheme_name: str,
    config: ReplayConfig,
    batch_size: Optional[int],
) -> ReplayResult:
    scheme = SCHEME_CLASSES[scheme_name](
        SchemeConfig(logical_blocks=logical_blocks, memory_bytes=256 * 1024)
    )
    return replay_trace(trace, scheme, config, batch_size=batch_size)


def _best_rate(
    trace: Any,
    logical_blocks: int,
    requests: int,
    scheme_name: str,
    config: ReplayConfig,
    batch_size: Optional[int],
    trials: int,
) -> float:
    best = float("inf")
    for _ in range(trials):
        t0 = time.perf_counter()
        _replay(trace, logical_blocks, scheme_name, config, batch_size)
        best = min(best, time.perf_counter() - t0)
    return requests / best


def _best_generate(spec: TraceSpec, scale: float, trials: int) -> Tuple[Trace, float]:
    """The generated trace and the best of ``trials`` generation times."""
    best = float("inf")
    for _ in range(trials):
        t0 = time.perf_counter()
        trace = generate_trace(spec, scale=scale)
        best = min(best, time.perf_counter() - t0)
    return trace, best


def measure(trials: int) -> List[Dict[str, Any]]:
    entries: List[Dict[str, Any]] = []
    for trace_name, spec, scale, scheme_name, config in GRID:
        trace, generate_s = _best_generate(spec, scale, trials)
        ctrace = ColumnarTrace.from_trace(trace)
        n = len(trace.records)
        generate_us = generate_s / n * 1e6
        logical = trace.logical_blocks
        identical = _telemetry_fingerprint(
            _replay(trace, logical, scheme_name, config, None)
        ) == _telemetry_fingerprint(
            _replay(ctrace, logical, scheme_name, config, DEFAULT_BATCH_SIZE)
        )
        obj = _best_rate(trace, logical, n, scheme_name, config, None, trials)
        col = _best_rate(
            ctrace, logical, n, scheme_name, config, DEFAULT_BATCH_SIZE, trials
        )
        telemetry = "timeline+slo" if config.effective_timeline() else "off"
        entry = {
            "trace": trace_name,
            "scale": scale,
            "scheme": scheme_name,
            "telemetry": telemetry,
            "requests": n,
            "batch_size": DEFAULT_BATCH_SIZE,
            "object_req_per_s": round(obj, 1),
            "columnar_req_per_s": round(col, 1),
            "speedup": round(col / obj, 2),
            "generate_us_per_req": round(generate_us, 2),
            "bit_identical": identical,
        }
        entries.append(entry)
        print(
            f"{trace_name:8s} {scheme_name:8s} {telemetry:12s} "
            f"object {obj:9.0f} req/s  "
            f"columnar {col:9.0f} req/s  speedup {col / obj:5.2f}x  "
            f"generate {generate_us:5.1f} us/req  bit-identical {identical}"
        )
    return entries


def measure_tenants(trials: int) -> Dict[str, Any]:
    """The pod-tenants row: both loops on the merged tenant stream."""
    name, copies, scale, seed = TENANTS_ROW
    volumes = multi_tenant_traces((name,), copies=copies, scale=scale, seed=seed)
    columns = [ColumnarTrace.from_trace(t) for t in volumes]
    n = sum(len(t.records) for t in volumes)
    config = SchemeConfig(
        logical_blocks=sum(t.logical_blocks for t in volumes),
        memory_bytes=copies * paper_traces()[name].scaled(scale).memory_bytes,
        icache_epoch=max(1.0, 16.0 * scale),
        chunking=ChunkingConfig(),
    )

    def replay(batch_size: Optional[int]) -> Tuple[ReplayResult, float]:
        scheme = SCHEME_CLASSES["POD"](config)
        traces = volumes if batch_size is None else columns
        t0 = time.perf_counter()
        result = replay_traces(traces, scheme, TENANTS, batch_size=batch_size)
        return result, time.perf_counter() - t0

    identical = _fingerprint(replay(None)[0]) == _fingerprint(replay(DEFAULT_BATCH_SIZE)[0])
    obj = n / min(replay(None)[1] for _ in range(trials))
    col = n / min(replay(DEFAULT_BATCH_SIZE)[1] for _ in range(trials))
    entry = {
        "trace": f"{name} x{copies}",
        "scale": scale,
        "scheme": "POD",
        "telemetry": "off",
        "shape": f"{copies} tenants, iCache + gear CDC, ndisks=8",
        "requests": n,
        "batch_size": DEFAULT_BATCH_SIZE,
        "object_req_per_s": round(obj, 1),
        "columnar_req_per_s": round(col, 1),
        "speedup": round(col / obj, 2),
        "bit_identical": identical,
    }
    print(
        f"{entry['trace']:8s} POD      cdc          object {obj:9.0f} req/s  "
        f"columnar {col:9.0f} req/s  speedup {col / obj:5.2f}x  bit-identical {identical}"
    )
    return entry


def _cluster_replay(volumes: List[Trace]) -> Tuple[ReplayResult, float]:
    """One cluster-row replay on fresh nodes (sized as
    :func:`repro.experiments.runner.execute` sizes them) and its wall
    time."""
    names, copies, nodes, scale, _seed = CLUSTER_ROW
    specs = paper_traces()
    assignment = [vid % nodes for vid in range(len(volumes))]
    schemes = []
    for node in range(nodes):
        vids = [vid for vid, owner in enumerate(assignment) if owner == node]
        schemes.append(SCHEME_CLASSES["POD"](SchemeConfig(
            logical_blocks=sum(volumes[v].logical_blocks for v in vids),
            memory_bytes=sum(specs[names[v // copies]].scaled(scale).memory_bytes for v in vids),
            icache_epoch=max(1.0, 16.0 * scale),
        )))
    t0 = time.perf_counter()
    result = replay_cluster(volumes, schemes, CLUSTER, CLUSTER_JOBS, assignment=assignment)
    return result, time.perf_counter() - t0


def measure_cluster(trials: int) -> Dict[str, Any]:
    """The cluster row: best-of-``trials`` event-loop rate and the
    run report's sha256 (report clock pinned, as the goldens take it)."""
    names, copies, nodes, scale, seed = CLUSTER_ROW
    volumes = multi_tenant_traces(names, copies=copies, scale=scale, seed=seed)
    n = sum(len(t.records) for t in volumes)
    best = float("inf")
    scaled: List[float] = []
    digests = set()
    before = calibrate()
    for _ in range(trials):
        result, seconds = _cluster_replay(volumes)
        after = calibrate()
        best = min(best, seconds)
        # Host speed relative to the reference host, as perfbench scales.
        scaled.append(n / seconds * (before + after) / (2 * REFERENCE_S))
        before = after
        report = build_run_report(result, seed=seed, scale=scale, clock=lambda: 0.0)
        digests.add(hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest())
    entry = {
        "trace": "+".join(names),
        "scale": scale,
        "scheme": "POD",
        "telemetry": "off",
        "shape": f"{nodes} nodes, {copies} tenants per trace, R=2 quorum, "
        "online gc job, verify_content",
        "requests": n,
        "event_loop_req_per_s": round(n / best, 1),
        "event_loop_req_per_s_calibrated": round(statistics.median(scaled), 1),
        "report_sha256": sorted(digests)[0],
        "deterministic": len(digests) == 1,
    }
    print(
        f"cluster  {entry['trace']:13s} event loop {n / best:9.0f} req/s  "
        f"calibrated {entry['event_loop_req_per_s_calibrated']:9.0f} req/s  "
        f"report {entry['report_sha256'][:16]}  deterministic {entry['deterministic']}"
    )
    return entry


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    parser.add_argument("--trials", type=int, default=3)
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="measure and print, but do not rewrite the trajectory file",
    )
    args = parser.parse_args()
    if args.trials < 1:
        parser.error("--trials must be at least 1")

    entries = measure(args.trials)
    entries.append(measure_tenants(args.trials))
    cluster = measure_cluster(args.trials)
    run = {
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "trials": args.trials,
        "entries": entries,
        "cluster": cluster,
    }
    if args.dry_run:
        print(json.dumps(run, indent=2))
    else:
        trajectory: Dict[str, Any] = {"runs": []}
        if args.out.exists():
            trajectory = json.loads(args.out.read_text())
        trajectory.setdefault("runs", []).append(run)
        args.out.write_text(json.dumps(trajectory, indent=2) + "\n")
        print(f"wrote {args.out} ({len(trajectory['runs'])} runs)")
    if not all(e["bit_identical"] for e in entries):
        print("FAIL: columnar path diverged from the object path")
        return 1
    if not cluster["deterministic"]:
        print("FAIL: the cluster row's report bytes differ between trials")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
