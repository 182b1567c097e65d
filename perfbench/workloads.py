"""The three benchmark workloads: inputs from a seed, a fresh system per
replay, the public replay call, and the checks on its result.

Each workload is built only from the repository's public generators and
replay entry points.  ``repro.experiments.runner.run_*`` is deliberately
not used: its trace and result memos would make a repeated timed replay
free.  See README.md for why each workload exists.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.baselines.base import SchemeConfig  # noqa: E402
from repro.baselines.registry import DEFAULT_REGISTRY  # noqa: E402
from repro.cluster.directory import Consistency, DirectoryConfig, GcSpec  # noqa: E402
from repro.cluster.replay import ClusterConfig, replay_cluster  # noqa: E402
from repro.dedup.chunking import ChunkingConfig  # noqa: E402
from repro.jobs import JobsConfig  # noqa: E402
from repro.obs import SloPolicy, TimelineConfig  # noqa: E402
from repro.obs.slo import SloObjective  # noqa: E402
from repro.sim.batch import DEFAULT_BATCH_SIZE  # noqa: E402
from repro.sim.replay import ReplayConfig, ReplayResult, replay_trace, replay_traces  # noqa: E402
from repro.traces.columnar import ColumnarTrace  # noqa: E402
from repro.traces.format import Trace  # noqa: E402
from repro.traces.synthetic import (  # noqa: E402
    FP_FAMILY_STRIDE,
    MAIL,
    WEB_VM,
    TraceSpec,
    clone_tenants,
    generate_trace,
    salt_fingerprints,
)

#: Set-up phases, timed separately (each feeds ``setup_s``).
PHASES = ("generate", "clone", "columnar", "build")


@dataclass
class Inputs:
    """One workload instance: generated inputs plus how to replay them."""

    #: Volumes as handed to the replay call.
    traces: Sequence[Any]
    #: Builds a fresh scheme (or per-node scheme list) for one replay.
    build: Callable[[], Any]
    #: The system set-up built for the first replay (None once taken).
    system: Any
    #: Runs the public replay call on a freshly built system.
    replay: Callable[[Any], ReplayResult]
    #: Requests the replay must complete, warm-up included.
    total_requests: int
    #: Measured (post-warm-up) requests per volume.
    metered: List[int]
    #: Simulated span of the trace arrivals, seconds.
    span_s: float
    #: Seconds spent in each set-up phase (keys from PHASES).
    phases: Dict[str, float]

    def fresh_system(self) -> Any:
        """The set-up system for the first replay, a new one after."""
        system, self.system = self.system, None
        return system if system is not None else self.build()


class _Phases:
    """Accumulates wall time per set-up phase."""

    def __init__(self) -> None:
        self.seconds = {p: 0.0 for p in PHASES}

    def run(self, phase: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.seconds[phase] += time.perf_counter() - t0
        return out


def _tenant_families(
    phases: _Phases, specs: Sequence[TraceSpec], copies: int, seed: int, scale: float
) -> List[Trace]:
    """The multi-tenant volume set, built like
    ``runner.multi_tenant_traces`` but without its trace memo: one
    salted fingerprint family per base trace, ``copies`` diverged
    tenant clones each."""
    volumes: List[Trace] = []
    for family, spec in enumerate(specs):
        base = phases.run("generate", generate_trace, spec, seed=seed, scale=scale)
        base = phases.run("clone", salt_fingerprints, base, family * FP_FAMILY_STRIDE)
        volumes.extend(
            phases.run("clone", clone_tenants, base, copies, seed=seed + family)
        )
    return volumes


def _scheme(name: str, logical_blocks: int, memory_bytes: int, scale: float, **kw: Any):
    return DEFAULT_REGISTRY.build(
        name,
        SchemeConfig(
            logical_blocks=logical_blocks,
            memory_bytes=memory_bytes,
            icache_epoch=max(1.0, 16.0 * scale),
            **kw,
        ),
    )


def _inputs(
    phases: _Phases,
    traces: Sequence[Any],
    plain: Sequence[Trace],
    build: Callable[[], Any],
    replay: Callable[[Any], ReplayResult],
) -> Inputs:
    return Inputs(
        traces=traces,
        build=build,
        system=phases.run("build", build),
        replay=replay,
        total_requests=sum(len(t.records) for t in plain),
        metered=[len(t.records) - t.warmup_count for t in plain],
        span_s=max(t.records[-1].time for t in plain)
        - min(t.records[0].time for t in plain),
        phases=phases.seconds,
    )


# ----------------------------------------------------------------------
# pod-tenants: POD + iCache + Gear CDC, 4 mail tenants, one dedup domain
# ----------------------------------------------------------------------

POD_TENANTS_COPIES = 4
#: Four consolidated tenants get an 8-disk RAID-5: on the paper's 4-disk
#: array the merged stream saturates it (utilisation 0.55-0.69) and the
#: simulated latencies swing by +-80% from seed to seed.
POD_TENANTS_ARRAY = ReplayConfig(ndisks=8)


def pod_tenants(seed: int, scale: float) -> Inputs:
    phases = _Phases()
    vols = _tenant_families(phases, [MAIL], POD_TENANTS_COPIES, seed, scale)
    cols = [phases.run("columnar", ColumnarTrace.from_trace, v) for v in vols]
    logical = sum(v.logical_blocks for v in vols)
    memory = POD_TENANTS_COPIES * MAIL.scaled(scale).memory_bytes

    def build():
        return _scheme("POD", logical, memory, scale, chunking=ChunkingConfig())

    def replay(scheme) -> ReplayResult:
        return replay_traces(cols, scheme, POD_TENANTS_ARRAY, batch_size=DEFAULT_BATCH_SIZE)

    return _inputs(phases, cols, vols, build, replay)


# ----------------------------------------------------------------------
# native-telemetry: Native on web-vm with timeline + SLO armed
# ----------------------------------------------------------------------

#: Read and write latency objectives (the shape of examples/slo.json).
SLO = SloPolicy(
    (
        SloObjective("read-p99", "latency", 0.05, op="read", target=0.99, burn_threshold=2.0),
        SloObjective("write-p95", "latency", 0.02, op="write", target=0.95),
    )
)
TELEMETRY = ReplayConfig(timeline=TimelineConfig(), slo=SLO)


def native_telemetry(seed: int, scale: float) -> Inputs:
    phases = _Phases()
    trace = phases.run("generate", generate_trace, WEB_VM, seed=seed, scale=scale)
    memory = WEB_VM.scaled(scale).memory_bytes

    def build():
        return _scheme("Native", trace.logical_blocks, memory, scale)

    def replay(scheme) -> ReplayResult:
        # batch_size is passed so that telemetry reaching the columnar
        # driver would show here; today the armed timeline keeps the
        # replay on the object event loop.
        return replay_trace(trace, scheme, TELEMETRY, batch_size=DEFAULT_BATCH_SIZE)

    return _inputs(phases, [trace], [trace], build, replay)


# ----------------------------------------------------------------------
# cluster-quorum: 3 POD nodes, R=2 QUORUM directory, online GC as a job
# ----------------------------------------------------------------------

CLUSTER_NODES = 3
CLUSTER_COPIES = 2
CLUSTER = ClusterConfig(
    verify_content=True,
    directory=DirectoryConfig(
        replication=2, consistency=Consistency.QUORUM, gc=GcSpec()
    ),
)
JOBS = ReplayConfig(jobs=JobsConfig())


def cluster_quorum(seed: int, scale: float) -> Inputs:
    phases = _Phases()
    families = [WEB_VM, MAIL]
    vols = _tenant_families(phases, families, CLUSTER_COPIES, seed, scale)
    # Volume placement and per-node sizing follow runner.run_cluster.
    assignment = [vid % CLUSTER_NODES for vid in range(len(vols))]
    budget = [families[vid // CLUSTER_COPIES].scaled(scale).memory_bytes for vid in range(len(vols))]

    def build():
        schemes = []
        for node in range(CLUSTER_NODES):
            vids = [v for v, owner in enumerate(assignment) if owner == node]
            schemes.append(
                _scheme(
                    "POD",
                    sum(vols[v].logical_blocks for v in vids),
                    sum(budget[v] for v in vids),
                    scale,
                )
            )
        return schemes

    def replay(schemes) -> ReplayResult:
        return replay_cluster(vols, schemes, CLUSTER, JOBS, assignment=assignment)

    return _inputs(phases, vols, vols, build, replay)


#: Input ``i`` of seed ``s`` is generated with seed ``SEED_STRIDE * s + i``.
SEED_STRIDE = 1000


@dataclass(frozen=True)
class Workload:
    """A workload maker with its input size.

    A run replays at least ``inputs`` independent inputs and pools their
    simulated metrics, so that those metrics are exact per seed and
    steady across seeds.  Each input is smaller than one pooled run:
    more, shorter replays give the host-rate median more samples.
    """

    make: Callable[[int, float], Inputs]
    scale: float
    inputs: int

    def input(self, seed: int, index: int, scale: Optional[float] = None) -> Inputs:
        return self.make(SEED_STRIDE * seed + index, self.scale if scale is None else scale)


WORKLOADS: Dict[str, Workload] = {
    "pod-tenants": Workload(pod_tenants, scale=0.03, inputs=10),
    "native-telemetry": Workload(native_telemetry, scale=0.25, inputs=10),
    "cluster-quorum": Workload(cluster_quorum, scale=0.04, inputs=8),
}


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------

class SimPool:
    """The paper's simulated metrics, pooled over a run's inputs: the
    latency histograms are merged, eliminated writes are summed, and
    capacity is the mean per input."""

    def __init__(self) -> None:
        self.hist: Dict[str, Any] = {}
        self.writes = 0
        self.removed = 0
        self.capacity: List[int] = []

    def add(self, result: ReplayResult) -> None:
        for name, h in result.metrics.histograms().items():
            self.hist[name] = h if name not in self.hist else self.hist[name].merge(h)
        self.writes += result.writes_total
        self.removed += result.write_requests_removed
        self.capacity.append(result.capacity_blocks)

    def metrics(self) -> Dict[str, float]:
        overall = self.hist["overall"]
        return {
            "sim_mean_ms": overall.mean * 1e3,
            "sim_p50_ms": overall.p50 * 1e3,
            "sim_p999_ms": overall.p999 * 1e3,
            "sim_read_mean_ms": self.hist["read"].mean * 1e3,
            "sim_write_mean_ms": self.hist["write"].mean * 1e3,
            "writes_issued_pct": 100.0 * (1.0 - self.removed / self.writes),
            "capacity_blocks": sum(self.capacity) / len(self.capacity),
        }


def _sums_match(parts: List[Dict[str, Any]], totals: Dict[str, Any], keys: Sequence[str]) -> List[str]:
    return [
        f"sum of {k} over parts {sum(p.get(k, 0) for p in parts)} != total {totals[k]}"
        for k in keys
        if sum(p.get(k, 0) for p in parts) != totals[k]
    ]


def check(result: ReplayResult, inputs: Inputs) -> List[str]:
    """Every way this replay's output is wrong (empty = correct)."""
    errors: List[str] = []
    m = result.metrics.as_dict()
    stats = result.scheme_stats
    processed = stats["reads"] + stats["writes"]
    if processed != inputs.total_requests:
        errors.append(f"scheme processed {processed} of {inputs.total_requests} requests")
    if m["requests"] != sum(inputs.metered):
        errors.append(f"{m['requests']} metered completions, expected {sum(inputs.metered)}")
    if m["read_requests"] + m["write_requests"] != m["requests"]:
        errors.append("read + write completions != completions")
    totals = {
        "requests": m["requests"],
        "read_requests": m["read_requests"],
        "write_requests": m["write_requests"],
        "writes_eliminated_requests": m["writes_eliminated_requests"],
    }
    if result.volumes:
        got = [v["requests"] for v in result.volumes]
        if got != inputs.metered:
            errors.append(f"per-volume completions {got} != metered {inputs.metered}")
        errors += _sums_match(result.volumes, totals, list(totals))
    if result.nodes:
        errors += _sums_match(result.nodes, totals, list(totals))
        node_capacity = sum(n["capacity_blocks"] for n in result.nodes)
        if node_capacity != result.capacity_blocks:
            errors.append(f"node capacity sum {node_capacity} != {result.capacity_blocks}")
    if result.cluster_stats is not None:
        for oracle in result.cluster_stats.get("oracle") or []:
            if oracle["mismatches"]:
                errors.append(f"content oracle: node {oracle['node']} read wrong content")
    if result.jobs_stats is not None:
        ledger = result.jobs_stats["oracle"]
        if ledger["violations"]:
            errors.append(f"jobs step ledger: {ledger['violations']}")
        counters = result.jobs_stats["counters"]
        if counters["jobs_completed"] != counters["jobs_submitted"]:
            errors.append("not every leased job completed")
    if result.timeline is not None:
        windows = result.timeline.as_dict()["windows"]
        noted = sum(w["reads"] + w["writes"] for w in windows)
        if noted != m["requests"]:
            errors.append(f"timeline windows hold {noted} completions, expected {m['requests']}")
        if result.slo_stats is None:
            errors.append("SLO policy armed but not evaluated")
    return errors
