"""Open-loop trace replay: trace(s) + scheme + array -> response times.

Reproduces the paper's methodology (Section IV-A): requests are
injected at their trace timestamps (open loop -- a slow disk builds a
queue rather than slowing the workload down), the first part of the
trace warms the caches and is excluded from the metrics, and user
response time is completion minus arrival.

Per request, the scheme plans a :class:`PlannedIO`: a processing delay
(fingerprinting), the extent ops the request must wait for, and
optional background ops (iCache swap traffic) that load the disks
without gating completion.  Schemes with an ``epoch_interval`` get a
periodic callback for cache management.

Two entry points:

* :func:`replay_trace` -- the classic single-volume replay;
* :func:`replay_traces` -- N timestamped trace streams merge-sorted
  open-loop onto one array, each stream mapped to its own
  :class:`~repro.storage.namespace.VolumeNamespace` inside one shared
  dedup domain (the paper's cross-VM cloud scenario, Section I).
  ``replay_trace`` is exactly the N=1 special case: a single-volume
  replay through either entry point is bit-identical (pinned by the
  golden regression tests).

Both run every config the columnar driver (:mod:`repro.sim.batch`)
carries on that driver, and everything else on the event loop of
:func:`repro.cluster.replay.replay_cluster` as a one-node cluster.
Which loop carries what, and which combinations no loop runs, is one
table, :data:`CAPABILITIES`.  This module holds no event loop of its
own; the two loops give bit-identical results wherever both apply.
Both are set up and torn down by :class:`ReplayScaffold`: node build,
collector and timeline arming, the warm-up boundary and the result
fields every replay has.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, NamedTuple, Optional,
    Sequence, Tuple, Union,
)

from repro.analysis.sanitizer import PodSanitizer
from repro.baselines.base import DedupScheme
from repro.constants import BLOCKS_PER_STRIPE_UNIT
from repro.errors import ConfigError
from repro.faults.plan import FaultPlan
from repro.jobs.plan import JobsConfig
from repro.metrics.collector import MetricsCollector
from repro.obs.slo import SloPolicy, evaluate_slo
from repro.obs.spans import SpanTracer
from repro.obs.timeline import TimelineConfig, TimelineSampler
from repro.obs.trace import TraceRecorder
from repro.sim.request import IORequest, OpType
from repro.storage.disk import Disk, DiskParams, disk_utilisation
from repro.storage.namespace import NamespaceMapper
from repro.storage.raid import RaidArray, RaidGeometry, RaidLevel
from repro.storage.ssd import SsdParams
from repro.traces.columnar import OP_WRITE, ColumnarTrace, merge_columnar
from repro.traces.format import Trace

if TYPE_CHECKING:
    from repro.cluster.replay import ClusterConfig


@dataclass(frozen=True)
class ReplayConfig:
    """Array geometry and replay options.

    Defaults mirror the paper's main setup: a 4-disk RAID-5 with a
    64 KB stripe unit (Section IV-B).
    """

    raid_level: RaidLevel = RaidLevel.RAID5
    ndisks: int = 4
    stripe_unit_blocks: int = BLOCKS_PER_STRIPE_UNIT
    disk_params: Optional[DiskParams] = None
    #: Include warm-up requests in the metrics (diagnostics only).
    collect_warmup: bool = False
    #: Run the RAID-5 array in degraded mode with this member failed:
    #: reads touching it reconstruct from the row's survivors (one
    #: node only; a multi-node replay rejects it).
    failed_disk: Optional[int] = None
    #: SSD staging device for SAR-style schemes (None = no SSD; a
    #: scheme with ``uses_ssd`` is refused without one).
    ssd_params: Optional[SsdParams] = None
    #: Debug mode: run the :class:`~repro.analysis.sanitizer.PodSanitizer`
    #: against the scheme every :attr:`sanitize_every` requests, at every
    #: epoch boundary and at end of run, raising on the first broken POD
    #: invariant.  Observation only -- enabling this must not change a
    #: single simulated completion time.
    check_invariants: bool = False
    #: Structural-check cadence, in arrived requests.
    sanitize_every: int = 1000
    #: Deterministic fault plan (see :mod:`repro.faults`; one node
    #: only).  ``None`` keeps the replay on the healthy path,
    #: bit-identical to a build without the fault subsystem
    #: (zero-overhead off path).
    faults: Optional[FaultPlan] = None
    #: Windowed time-series sampling (see :mod:`repro.obs.timeline`).
    #: ``None`` keeps the replay on the zero-overhead path -- one
    #: ``is not None`` test per instrumentation site, bit-identical
    #: output to a build without the telemetry subsystem.
    timeline: Optional[TimelineConfig] = None
    #: Causal span tracing through the request lifecycle
    #: (see :mod:`repro.obs.spans`).  Observation only.
    spans: bool = False
    #: Per-tenant SLO objectives evaluated over the timeline
    #: (see :mod:`repro.obs.slo`).  Arming a policy implies a default
    #: timeline when none is configured explicitly.
    slo: Optional[SloPolicy] = None
    #: Leased background-job subsystem (see :mod:`repro.jobs`):
    #: simulated workers claim maintenance jobs under epoch-fenced
    #: leases, with stale-lease recovery, an optional scrubber and
    #: per-tenant admission control.  ``None`` keeps the replay
    #: bit-identical to a build without the jobs subsystem.
    jobs: Optional[JobsConfig] = None

    def __post_init__(self) -> None:
        if self.failed_disk is not None and not (0 <= self.failed_disk < self.ndisks):
            raise ConfigError(f"no member disk {self.failed_disk} to fail")
        if self.check_invariants and self.sanitize_every <= 0:
            raise ConfigError("sanitize_every must be positive")

    def geometry(self) -> RaidGeometry:
        return RaidGeometry(
            level=self.raid_level,
            ndisks=self.ndisks,
            stripe_unit_blocks=self.stripe_unit_blocks,
        )

    def effective_timeline(self) -> Optional[TimelineConfig]:
        """The timeline config this replay samples with: the explicit
        one, a default when an SLO policy needs windows, else None."""
        if self.timeline is not None:
            return self.timeline
        if self.slo is not None:
            return TimelineConfig()
        return None


@dataclass
class ReplayResult:
    """Everything one replay produced."""

    trace_name: str
    scheme_name: str
    metrics: MetricsCollector
    scheme_stats: Dict[str, Any]
    utilisation: Dict[int, Dict[str, float]]
    capacity_blocks: int
    writes_total: int
    write_requests_removed: int
    #: Per-epoch iCache decision records (list of dicts; empty for
    #: schemes without an adaptive cache).
    epoch_timeline: List[Dict[str, Any]] = field(default_factory=list)
    #: The trace recorder used for this replay, when one was attached.
    recorder: Optional[TraceRecorder] = None
    #: The invariant sanitizer, when ``check_invariants`` was enabled
    #: (its ``summary()`` lands in run reports).
    sanitizer: Optional[PodSanitizer] = None
    #: Per-volume metric breakdowns (one dict per volume, id-ordered;
    #: empty for classic single-volume replays via ``replay_trace``).
    volumes: List[Dict[str, Any]] = field(default_factory=list)
    #: Fault-injection summary (counters, recovery-latency and
    #: blast-radius histograms, oracle verdict); ``None`` for healthy
    #: replays.
    fault_stats: Optional[Dict[str, Any]] = None
    #: Per-node metric breakdowns (one dict per node, id-ordered;
    #: empty outside :func:`repro.cluster.replay.replay_cluster`
    #: multi-node runs).
    nodes: List[Dict[str, Any]] = field(default_factory=list)
    #: Cluster-wide summary (router/ring state, network fabric totals,
    #: rebalance and node-failure progress); ``None`` outside cluster
    #: replays.
    cluster_stats: Optional[Dict[str, Any]] = None
    #: Windowed time-series sampler (``None`` unless the replay armed
    #: ``ReplayConfig.timeline``/``slo``); its ``as_dict()`` is the run
    #: report's ``timeline`` section.
    timeline: Optional[TimelineSampler] = None
    #: Causal span tracer (``None`` unless ``ReplayConfig.spans``).
    spans: Optional[SpanTracer] = None
    #: SLO evaluation output (``None`` unless ``ReplayConfig.slo``).
    slo_stats: Optional[Dict[str, Any]] = None
    #: Leased-job subsystem summary (lease/claim counters, per-job
    #: records, step-ledger verdict, admission totals); ``None``
    #: unless ``ReplayConfig.jobs`` armed the subsystem.
    jobs_stats: Optional[Dict[str, Any]] = None

    @property
    def removed_write_pct(self) -> float:
        """Fig. 11's metric: % of write requests eliminated."""
        if self.writes_total == 0:
            return 0.0
        return self.write_requests_removed / self.writes_total * 100.0

    def summary(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"trace": self.trace_name, "scheme": self.scheme_name}
        out.update(self.metrics.as_dict())
        out["capacity_blocks"] = self.capacity_blocks
        out["removed_write_pct"] = self.removed_write_pct
        if self.volumes:
            out["volumes"] = self.volumes
        if self.nodes:
            out["nodes"] = self.nodes
        if self.cluster_stats is not None:
            out["cluster"] = self.cluster_stats
        return out


#: Planning window of the columnar driver, in requests (the default
#: ``batch_size`` of :func:`replay_trace`/:func:`replay_traces`).  Large
#: enough to amortise the NumPy slicing per batch, small enough to keep
#: materialised request windows cache-friendly; results are invariant
#: to it (tested).
DEFAULT_BATCH_SIZE = 4096


def size_disks(total_volume_blocks: int, config: ReplayConfig) -> DiskParams:
    """Pick per-disk capacity so the array exposes the needed volume.

    The cluster replay sizes each node's private array with this same
    rule (a bit-identity requirement at N=1)."""
    geometry = config.geometry()
    data_disks = geometry.data_disks
    su = geometry.stripe_unit_blocks
    units = math.ceil(total_volume_blocks / su)
    rows = math.ceil(units / data_disks)
    per_disk = (rows + 2) * su  # small slack row
    base = config.disk_params if config.disk_params is not None else DiskParams()
    if base.total_blocks >= per_disk:
        return base
    return DiskParams(
        total_blocks=per_disk,
        rpm=base.rpm,
        seek_min=base.seek_min,
        seek_max=base.seek_max,
        transfer_rate=base.transfer_rate,
        controller_overhead=base.controller_overhead,
    )


def _merge_streams(
    traces: Sequence[Union[Trace, ColumnarTrace]], bases: Sequence[int]
) -> Tuple[List[IORequest], List[bool], List[int]]:
    """Merge-sort N timestamped streams into one global request list.

    Each stream's requests are rebased by its volume's base address
    (``bases[vid]``: the volume's slice of the shared domain here, its
    owner node's local space in :mod:`repro.cluster.replay`) and tagged
    with the volume id; global ``req_id``s are assigned in merged order.
    The merge is stable: equal timestamps keep volume order, so the
    merged stream is a pure function of its inputs (determinism).
    Returns the requests, a parallel measured-flag list (a request
    is measured when it is past its *own* volume's warm-up prefix) and
    the merged fingerprint pool (every distinct fingerprint, in first
    interned order).

    The order and the rebased columns are :func:`merge_columnar`'s;
    the requests are built from them unchecked (:meth:`IORequest.raw`),
    since a trace's columns were validated when it was built.
    """
    merged = merge_columnar([t.columns for t in traces], bases)
    offsets = merged.fp_offsets.tolist()
    pool = merged.pool
    values = [pool[j] for j in merged.fp_ids.tolist()]
    raw = IORequest.raw
    write, read = OpType.WRITE, OpType.READ
    requests = [
        raw(time, write, lba, n, tuple(values[offsets[i] : offsets[i + 1]]), i, vid)
        if is_write
        else raw(time, read, lba, n, None, i, vid)
        for i, (time, is_write, lba, n, vid) in enumerate(zip(
            merged.times.tolist(), (merged.ops == OP_WRITE).tolist(),
            merged.lbas.tolist(), merged.nblocks.tolist(),
            merged.volume_ids.tolist(),
        ))
    ]
    return requests, merged.measured.tolist(), pool


def _aggregate_stats(stats_list: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum numeric scheme stats across nodes (non-numerics from node 0)."""
    out: Dict[str, Any] = dict(stats_list[0])
    for stats in stats_list[1:]:
        for key, value in stats.items():
            if isinstance(value, bool):
                continue
            prev = out.get(key)
            if isinstance(value, (int, float)) and isinstance(prev, (int, float)):
                out[key] = prev + value
    return out


class ReplayScaffold:
    """Set-up and teardown shared by both replay loops.

    Rejects a non-positive epoch interval, builds one
    :class:`~repro.cluster.node.ClusterNode` per scheme -- the
    node-local :class:`NamespaceMapper` over the volumes
    ``assignment[vid]`` names it the owner of, member disks sized by
    :func:`size_disks` and a :class:`RaidArray` -- and arms the
    collector (per-volume tracking, timeline).  The loop
    calls :meth:`mark_boundary` at the warm-up boundary, and at the end
    :meth:`result` closes the timeline, evaluates the SLO policy and
    fills the :class:`ReplayResult` fields every replay has.  The
    columnar driver (:mod:`repro.sim.batch`) is its one-node case; the
    event loop (:mod:`repro.cluster.replay`) adds its cluster sections
    to the result.
    """

    def __init__(
        self,
        traces: Sequence[Union[Trace, ColumnarTrace]],
        schemes: Sequence[DedupScheme],
        config: ReplayConfig,
        collector: Optional[MetricsCollector],
        per_volume_metrics: bool,
        assignment: Sequence[int],
    ) -> None:
        # Imported here: repro.cluster imports this module.
        from repro.cluster.node import ClusterNode

        for scheme in schemes:
            if scheme.epoch_interval is not None and scheme.epoch_interval <= 0:
                raise ConfigError("epoch interval must be positive")
        self.schemes = list(schemes)
        self.config = config
        self.per_volume_metrics = per_volume_metrics
        #: (name, logical blocks) per volume, in volume-id order.
        self.volumes = [(t.name, t.logical_blocks) for t in traces]
        geometry = config.geometry()
        #: Per-volume base addresses in the owner node's local space.
        self.bases = [0] * len(traces)
        self.nodes: List[ClusterNode] = []
        for n, scheme in enumerate(schemes):
            vids = [vid for vid, owner in enumerate(assignment) if owner == n]
            mapper = NamespaceMapper(self.volumes[vid] for vid in vids)
            if mapper.total_logical_blocks > scheme.regions.logical_blocks:
                where = f"node {n}: " if len(schemes) > 1 else ""
                raise ConfigError(
                    f"{where}volumes touch {mapper.total_logical_blocks} logical "
                    f"blocks but the scheme was configured for "
                    f"{scheme.regions.logical_blocks}"
                )
            params = size_disks(scheme.regions.total_blocks, config)
            disks = [
                Disk(params, disk_id=n * geometry.ndisks + j)
                for j in range(geometry.ndisks)
            ]
            node = ClusterNode(n, scheme, disks, RaidArray(geometry), mapper)
            node.failed_disk = config.failed_disk
            node.volume_ids = vids
            for local_vid, vid in enumerate(vids):
                self.bases[vid] = mapper.volume(local_vid).base
            self.nodes.append(node)
        self.multi = len(traces) > 1
        self.run_name = (
            traces[0].name if not self.multi else "+".join(t.name for t in traces)
        )
        self.metrics = collector if collector is not None else MetricsCollector()
        if per_volume_metrics:
            self.metrics.track_volumes()
        # The timeline sampler is fed by every collector record (None
        # when neither ``timeline`` nor ``slo`` is armed).
        tl_config = config.effective_timeline()
        self.sampler: Optional[TimelineSampler] = None
        if tl_config is not None:
            self.sampler = TimelineSampler(tl_config, policy=config.slo)
            self.metrics.attach_timeline(self.sampler)
        # Fig. 11 counts removed write requests over the measured day
        # only: the schemes' counters at the warm-up boundary.
        self.writes_at_boundary = 0
        self.removed_at_boundary = 0
        #: Per-node ``stats()``, filled by :meth:`result`.
        self.node_stats: List[Dict[str, Any]] = []

    def mark_boundary(self) -> None:
        """Snapshot the schemes' write counters at the warm-up boundary
        (just before the first measured request is planned)."""
        self.writes_at_boundary = sum(s.writes_total for s in self.schemes)
        self.removed_at_boundary = sum(s.write_requests_removed for s in self.schemes)

    def result(self, t_end: float) -> ReplayResult:
        """End the timeline at ``t_end`` (the clock of the run's last
        event), evaluate the SLO policy over its count document and
        build the result (the full timeline document is rendered only
        when someone reads ``result.timeline``)."""
        schemes = self.schemes
        metrics = self.metrics
        slo_stats: Optional[Dict[str, Any]] = None
        if self.sampler is not None:
            self.sampler.finish(t_end)
            if self.config.slo is not None:
                slo_stats = evaluate_slo(
                    self.config.slo, self.sampler.as_dict(counts_only=True)
                )

        volumes: List[Dict[str, Any]] = []
        if self.per_volume_metrics:
            tracked = set(metrics.volume_ids())
            for vid, (name, logical_blocks) in enumerate(self.volumes):
                entry: Dict[str, Any] = {
                    "volume_id": vid,
                    "name": name,
                    "logical_blocks": logical_blocks,
                }
                if vid in tracked:
                    entry.update(metrics.volume_as_dict(vid))
                else:  # volume with no measured traffic
                    entry["requests"] = 0
                volumes.append(entry)

        utilisation: Dict[int, Dict[str, float]] = {}
        for node in self.nodes:
            utilisation.update(disk_utilisation(node.disks))
        # One stats() per node: it walks every written LBA for capacity.
        self.node_stats = [s.stats() for s in schemes]
        if len(schemes) == 1:
            scheme_stats = self.node_stats[0]
            timeline = getattr(schemes[0].cache, "epoch_timeline", [])
        else:
            scheme_stats = _aggregate_stats(self.node_stats)
            timeline = []
        return ReplayResult(
            trace_name=self.run_name,
            scheme_name=schemes[0].name,
            metrics=metrics,
            scheme_stats=scheme_stats,
            utilisation=utilisation,
            capacity_blocks=sum(st["capacity_blocks"] for st in self.node_stats),
            writes_total=sum(s.writes_total for s in schemes) - self.writes_at_boundary,
            write_requests_removed=(
                sum(s.write_requests_removed for s in schemes)
                - self.removed_at_boundary
            ),
            epoch_timeline=[
                e.as_dict() if hasattr(e, "as_dict") else dict(e) for e in timeline
            ],
            volumes=volumes,
            timeline=self.sampler,
            slo_stats=slo_stats,
        )


class ReplayRun(NamedTuple):
    """What a capability rule looks at: one replay's inputs.  The
    number of nodes is ``len(schemes)``; ``batch_size`` and
    ``recorder`` are :func:`replay_traces`' arguments."""

    config: ReplayConfig
    cluster: "ClusterConfig"
    schemes: Sequence[DedupScheme]
    recorder: Optional[TraceRecorder] = None
    batch_size: Optional[int] = None


#: A path's cell in a rule: ``CARRIED`` (None) or the reason the path
#: does not run what the rule matches.
CARRIED = None

#: A rule's cells: (driver, event loop at one node, event loop at N>1).
Cells = Tuple[Optional[str], Optional[str], Optional[str]]


class Capability(NamedTuple):
    """One rule of :data:`CAPABILITIES`: the runs ``applies`` matches
    and, per path, ``CARRIED`` or a reason."""

    name: str
    applies: Callable[[ReplayRun], bool]
    cells: Cells


def _event_loop(feature: str) -> Cells:
    """Cells of a feature only the event loop carries (at any N)."""
    return (f"{feature} runs on the event loop", CARRIED, CARRIED)


def _refused(reason: str) -> Cells:
    """Cells of a combination no path runs (the driver's reason sends
    the run to the event loop, which refuses it)."""
    return (reason, reason, reason)


def _member_failure(run: ReplayRun) -> bool:
    """Does the fault plan fail a member disk?"""
    faults = run.config.faults
    return faults is not None and faults.member_failure is not None


#: Which path carries what: one rule per row, one cell per path
#: (driver, event loop at one node, event loop at N>1).  The rules that
#: refuse at N>1 come first, then the combinations no path runs (their
#: driver reason sends the run to the event loop, which refuses it),
#: then what only the event loop carries.  :func:`refusal` returns the
#: first reason in a path's column among the rules a run matches;
#: :func:`replay_traces` falls back to the event loop on a driver
#: reason, and :func:`repro.cluster.replay.replay_cluster` raises
#: ``ConfigError`` with its reason before it builds a node.  Moving a
#: feature onto a path flips one cell.  Value checks (ids, ranges,
#: sizes) stay with the layer that owns the value.
CAPABILITIES: Tuple[Capability, ...] = (
    Capability(
        "faults need one node",
        lambda r: r.config.faults is not None,
        (CARRIED, CARRIED, "multi-node replays take node faults via "
         "ClusterConfig.node_failure, not ReplayConfig.faults"),
    ),
    Capability(
        "failed disk needs one node",
        lambda r: r.config.failed_disk is not None,
        (CARRIED, CARRIED, "multi-node replays take degraded arrays via "
         "ClusterConfig.node_failure, not ReplayConfig.failed_disk"),
    ),
    # Each would flip and heal the same array's failed member.
    Capability(
        "node failure + faults/disk",
        lambda r: r.cluster.node_failure is not None and (
            r.config.faults is not None or r.config.failed_disk is not None
        ),
        _refused(
            "ClusterConfig.node_failure cannot be combined with "
            "ReplayConfig.faults or ReplayConfig.failed_disk"
        ),
    ),
    # The content oracle checks reads against the raw trace
    # fingerprints; CDC rewrites what the scheme stores.
    Capability(
        "CDC under a content oracle",
        lambda r: any(s.chunker is not None for s in r.schemes) and (
            r.config.faults is not None or r.cluster.verify_content
        ),
        _refused(
            "content-defined chunking cannot run under a content oracle "
            "(fault injection or verify_content)"
        ),
    ),
    Capability(
        "directory + rebalance",
        lambda r: r.cluster.directory is not None and r.cluster.rebalance is not None,
        _refused(
            "the replicated directory and shard rebalancing cannot be "
            "combined yet (replica sets would race the migration)"
        ),
    ),
    Capability(
        "online GC without jobs",
        lambda r: (
            r.cluster.directory is not None
            and r.cluster.directory.gc is not None
            and r.cluster.directory.gc.mode == "online"
            and r.config.jobs is None
        ),
        _refused(
            "online refcount GC runs as a leased job and needs "
            "ReplayConfig.jobs (pass --jobs, or --gc implies it on the CLI)"
        ),
    ),
    # Only RAID-5 parity rebuilds or serves a failed member's blocks.
    Capability(
        "member failure off RAID-5",
        lambda r: (
            _member_failure(r) or r.cluster.node_failure is not None
        ) and r.config.raid_level is not RaidLevel.RAID5,
        _refused("member failure requires a RAID-5 array"),
    ),
    Capability(
        "member failure, degraded array",
        lambda r: _member_failure(r) and r.config.failed_disk is not None,
        _refused(
            "cannot schedule a member failure on an array that "
            "already runs degraded (ReplayConfig.failed_disk)"
        ),
    ),
    Capability(
        "failed disk off RAID-5",
        lambda r: (
            r.config.failed_disk is not None
            and r.config.raid_level is not RaidLevel.RAID5
        ),
        _refused("a degraded array (ReplayConfig.failed_disk) requires RAID-5"),
    ),
    Capability(
        "SSD scheme without an SSD",
        lambda r: r.config.ssd_params is None and any(s.uses_ssd for s in r.schemes),
        _refused(
            "the scheme emits SSD traffic but the replay has no "
            "ssd_params configured"
        ),
    ),
    Capability("faults", lambda r: r.config.faults is not None,
               _event_loop("fault injection")),
    Capability("ssd tier", lambda r: r.config.ssd_params is not None,
               _event_loop("the SSD tier")),
    Capability("invariant checks", lambda r: r.config.check_invariants,
               _event_loop("invariant checking")),
    Capability("spans", lambda r: r.config.spans, _event_loop("span tracing")),
    Capability("jobs", lambda r: r.config.jobs is not None,
               _event_loop("the job subsystem")),
    Capability("recorder", lambda r: r.recorder is not None,
               _event_loop("a trace recorder")),
    Capability("batch_size=None", lambda r: r.batch_size is None,
               _event_loop("batch_size=None")),
)


def refusal(run: ReplayRun, driver: bool = False) -> Optional[str]:
    """The first reason :data:`CAPABILITIES` gives for keeping ``run``
    off a path: the columnar driver's cell when ``driver``, else the
    event loop's at ``len(run.schemes)`` nodes.  ``None``: the path
    carries the run."""
    path = 0 if driver else (1 if len(run.schemes) == 1 else 2)
    for rule in CAPABILITIES:
        reason = rule.cells[path]
        if reason is not None and rule.applies(run):
            return reason
    return None


def replay_trace(
    trace: Union[Trace, ColumnarTrace],
    scheme: DedupScheme,
    config: ReplayConfig = ReplayConfig(),
    collector: Optional[MetricsCollector] = None,
    recorder: Optional[TraceRecorder] = None,
    batch_size: Optional[int] = DEFAULT_BATCH_SIZE,
) -> ReplayResult:
    """Replay ``trace`` through ``scheme`` on the configured array.

    ``collector`` lets callers supply a richer collector (e.g.
    :class:`repro.metrics.analysis.DetailedCollector` for per-request
    samples); the default records summary statistics only.

    ``recorder`` attaches a :class:`~repro.obs.trace.TraceRecorder` to
    every layer (scheme, cache, disk service).  Recording is observation
    only -- with any level, including ``OFF``, the simulated results
    are identical to an un-instrumented replay; the disabled path
    costs one integer compare per instrumentation site.

    The replay runs on the columnar batch driver, planning
    ``batch_size`` requests per batch, unless :data:`CAPABILITIES`
    sends it to the one-node event loop (a ``recorder``, for one,
    does; so does ``batch_size=None``, the reference the driver is
    pinned bit-identical to by the golden tests).

    This is the N=1 special case of :func:`replay_traces` (without
    the per-volume metric breakdowns); the two are bit-identical for
    a single volume.
    """
    return replay_traces(
        [trace],
        scheme,
        config,
        collector=collector,
        recorder=recorder,
        per_volume_metrics=False,
        batch_size=batch_size,
    )


def replay_traces(
    traces: Sequence[Union[Trace, ColumnarTrace]],
    scheme: DedupScheme,
    config: ReplayConfig = ReplayConfig(),
    collector: Optional[MetricsCollector] = None,
    recorder: Optional[TraceRecorder] = None,
    per_volume_metrics: bool = True,
    batch_size: Optional[int] = DEFAULT_BATCH_SIZE,
) -> ReplayResult:
    """Replay N trace streams onto one shared-dedup-domain array.

    Each trace becomes one :class:`~repro.storage.namespace.VolumeNamespace`
    laid out back-to-back in the global logical space; the streams are
    merge-sorted by timestamp and injected open-loop, so tenants whose
    bursts collide genuinely queue against each other.  Because every
    volume shares one scheme (one Map table, one index, one allocator),
    identical content written by different volumes deduplicates to a
    single physical copy -- the paper's cross-VM scenario.

    With ``per_volume_metrics`` (default), the collector additionally
    tracks per-volume response times and eliminated writes, and each
    inline-deduplicated block is classified as *cross-volume* (its
    content was first written by another volume) or *intra-volume*.

    The loop is chosen as in :func:`replay_trace`: the columnar driver
    for every run its :data:`CAPABILITIES` cells carry, the one-node
    cluster event loop for the rest.
    """
    if not traces:
        raise ConfigError("replay_traces needs at least one trace")
    from repro.cluster.replay import ClusterConfig, replay_cluster

    run = ReplayRun(config, ClusterConfig(), (scheme,), recorder, batch_size)
    if refusal(run, driver=True) is None:
        from repro.sim.batch import replay_columnar

        assert batch_size is not None  # the table sends None to the event loop
        return replay_columnar(
            traces,
            scheme,
            config,
            collector=collector,
            batch_size=batch_size,
            per_volume_metrics=per_volume_metrics,
        )
    return replay_cluster(
        traces,
        [scheme],
        run.cluster,
        config,
        collector=collector,
        recorder=recorder,
        per_volume_metrics=per_volume_metrics,
    )
