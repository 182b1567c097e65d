"""The event loop: N POD nodes on one clock.

The driver runs N complete POD nodes (private RAID array, Index table,
Map table, iCache budget) against a single shared clock -- arrive,
plan, issue, complete, with each node's periodic iCache epoch -- and
adds a cluster overlay on the write path:

* every write's blocks stay on the request-owner node (Select-Dedupe's
  sequentiality rule is a per-node property -- remote *data* placement
  would shred exactly the sequential runs Figure 5 protects);
* every write's fingerprints are looked up in the sharded cluster
  directory: a consistent-hash :class:`~repro.cluster.router.FingerprintRouter`
  names each fingerprint's shard-owner node, remote lookups pay the
  :class:`~repro.cluster.netmodel.NetworkModel` (latency + bandwidth +
  per-link queueing) and their cost lands on the request's response
  time; duplicates first written by *another* node are detected and
  counted (``remote_duplicate_blocks``) but deliberately not
  deduplicated across nodes -- each node remains a standard POD
  instance, so the PodSanitizer and the content oracle hold per node;
* membership changes (node add/remove) re-route fingerprint arcs
  immediately and migrate the displaced directory entries as paced
  background RPC load (:class:`~repro.cluster.rebalance.ShardMigrator`);
  lookups that race the migration miss -- POD's miss-as-unique
  semantics, counted as ``rebalance_misses``;
* a :class:`~repro.faults.plan.NodeFailureSpec` degrades one node's
  array mid-replay and rebuilds it in place, generalising the fault
  layer's member failure to the cluster.

It is also the single-node event loop: :func:`repro.sim.replay.replay_traces`
sends every config the columnar driver (:mod:`repro.sim.batch`) does
not take here as a one-node cluster.  Two things only a single node
carries are accepted at N=1 and rejected at N>1: a deterministic
:class:`~repro.faults.plan.FaultPlan` (``ReplayConfig.faults``, whose
:class:`~repro.faults.injector.FaultInjector` targets the one
:class:`~repro.cluster.node.ClusterNode`) and a degraded array
(``ReplayConfig.failed_disk``).  At N=1 spans carry no ``node`` tag,
timeline gauges no ``node_id`` and the scrubber job is named
``scrub``, the single-node forms the goldens pin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.analysis.sanitizer import PodSanitizer
from repro.baselines.base import DedupScheme, PlannedIO
from repro.cluster.directory.gc import MODE_ONLINE, GcJob, RefcountGc
from repro.cluster.directory.quorum import (
    DirectoryConfig,
    ReplicatedDirectory,
    RequestRound,
)
from repro.cluster.netmodel import NetworkFabric, NetworkModel
from repro.cluster.node import ClusterNode
from repro.cluster.rebalance import RebalanceSpec, ShardMigrator
from repro.cluster.router import FingerprintRouter
from repro.errors import ClusterError, ConfigError
from repro.faults.injector import FaultInjector
from repro.faults.oracle import ContentOracle
from repro.faults.plan import FailSlowSpec, NodeFailureSpec
from repro.jobs.admission import AdmissionController
from repro.jobs.jobs import MigrationJob, RebuildJob, ScrubJob
from repro.jobs.runtime import JobRuntime
from repro.metrics.collector import Completions, MetricsCollector
from repro.obs.events import EventType, TraceLevel
from repro.obs.slo import evaluate_slo
from repro.obs.spans import SpanTracer
from repro.obs.timeline import TimelineSampler
from repro.obs.trace import NULL_RECORDER, TraceRecorder
from repro.sim.engine import Simulator
from repro.sim.replay import DEFAULT_BATCH_SIZE, ReplayConfig, ReplayResult, size_disks
# The single-node merge, with each volume rebased into its owner
# node's local space (the bases coincide at N=1: bit-identical).
from repro.sim.replay import _merge_streams as _merge_cluster_streams
from repro.sim.request import IORequest, OpType
from repro.storage.disk import Disk, disk_utilisation, queue_lag
from repro.storage.namespace import NamespaceMapper
from repro.storage.raid import RaidArray
from repro.storage.rebuild import RebuildController
from repro.storage.ssd import Ssd
from repro.storage.volume import VolumeOp
from repro.traces.format import Trace


@dataclass(frozen=True)
class ClusterConfig:
    """Cluster-layer options (frozen and hashable, like ReplayConfig).

    Attributes
    ----------
    vnodes:
        Virtual nodes per ring member (router fairness knob).
    net:
        The inter-node network cost model.
    rebalance:
        An optional scheduled membership change with paced shard
        migration.
    node_failure:
        An optional whole-node fault (one member disk of that node's
        array fails and is rebuilt in place).
    fail_slow:
        Fail-slow windows on individual cluster disks, addressed by
        *global* disk id (``node * ndisks + member``).  A window
        overlapping a leased rebuild is the stale-lease recovery
        scenario: the stalled worker's lease expires mid-step and the
        job is re-claimed at the next epoch.
    verify_content:
        Run one end-to-end :class:`~repro.faults.oracle.ContentOracle`
        per node (observation only; raises on any wrong read).
    directory:
        The replicated fingerprint directory
        (:class:`~repro.cluster.directory.quorum.DirectoryConfig`):
        R-way replica placement, tunable consistency, read repair,
        metadata-node kills and online refcount GC.  ``None`` keeps
        the legacy single-copy sharded directory bit-identical.
    """

    vnodes: int = 64
    net: NetworkModel = NetworkModel()
    rebalance: Optional[RebalanceSpec] = None
    node_failure: Optional[NodeFailureSpec] = None
    fail_slow: Tuple[FailSlowSpec, ...] = ()
    verify_content: bool = False
    directory: Optional[DirectoryConfig] = None

    def __post_init__(self) -> None:
        if self.vnodes <= 0:
            raise ClusterError(f"vnodes must be positive, got {self.vnodes}")


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


def replay_cluster(
    traces: Sequence[Trace],
    schemes: Sequence[DedupScheme],
    cluster: ClusterConfig = ClusterConfig(),
    config: ReplayConfig = ReplayConfig(),
    *,
    assignment: Optional[Sequence[int]] = None,
    collector: Optional[MetricsCollector] = None,
    recorder: Optional[TraceRecorder] = None,
    per_volume_metrics: bool = True,
) -> ReplayResult:
    """Replay N trace streams across a sharded multi-node dedup domain.

    ``schemes[n]`` becomes node *n*'s POD instance; each node gets a
    private array built from ``config`` (same geometry and disk-sizing
    rule as the single-node replay).  ``assignment[vid]`` names the
    node serving volume ``vid`` (default: ``vid % len(schemes)``).

    With one node this *is* the single-node event loop
    (``replay_traces`` with ``batch_size=None`` calls it), so a
    one-node run without cluster features equals
    ``replay_traces(traces, schemes[0], config)`` by construction.
    ``config.faults`` and ``config.failed_disk`` need exactly one node.
    """
    if not traces:
        raise ConfigError("replay_cluster needs at least one trace")
    if not schemes:
        raise ConfigError("replay_cluster needs at least one scheme (node)")
    nnodes = len(schemes)
    if nnodes > 1:
        if config.faults is not None or config.fault_seed is not None:
            raise ConfigError(
                "multi-node replays take node faults via "
                "ClusterConfig.node_failure, not ReplayConfig.faults"
            )
        if config.failed_disk is not None:
            raise ConfigError(
                "multi-node replays take degraded arrays via "
                "ClusterConfig.node_failure, not ReplayConfig.failed_disk"
            )
    elif config.faults is None and config.fault_seed is not None:
        raise ConfigError("fault_seed given without a fault plan")
    if cluster.node_failure is not None and (
        config.faults is not None or config.failed_disk is not None
    ):
        # Each would flip and heal the same array's failed member.
        raise ConfigError(
            "ClusterConfig.node_failure cannot be combined with "
            "ReplayConfig.faults or ReplayConfig.failed_disk"
        )
    if any(s.chunker is not None for s in schemes) and (
        config.faults is not None or cluster.verify_content
    ):
        # The content oracle checks reads against the raw trace
        # fingerprints; CDC rewrites what the scheme stores, so the
        # two are incompatible by construction.
        raise ConfigError(
            "content-defined chunking cannot run under a content oracle "
            "(fault injection or verify_content)"
        )
    if assignment is None:
        assignment = [vid % nnodes for vid in range(len(traces))]
    if len(assignment) != len(traces):
        raise ClusterError(
            f"assignment names {len(assignment)} volumes for {len(traces)} traces"
        )
    for vid, node_id in enumerate(assignment):
        if not (0 <= node_id < nnodes):
            raise ClusterError(f"volume {vid} assigned to unknown node {node_id}")
    served: Set[int] = set(assignment)
    if served != set(range(nnodes)):
        missing = sorted(set(range(nnodes)) - served)
        raise ClusterError(f"node(s) {missing} serve no volume")

    rebalance = cluster.rebalance
    node_failure = cluster.node_failure
    if node_failure is not None:
        if node_failure.node >= nnodes:
            raise ClusterError(
                f"node-failure spec names unknown node {node_failure.node}"
            )
        if node_failure.disk >= config.ndisks:
            raise ClusterError(
                f"node-failure spec names unknown member disk {node_failure.disk}"
            )
    if rebalance is not None:
        if rebalance.remove_node is not None and (
            rebalance.remove_node >= nnodes + rebalance.add_nodes
        ):
            raise ClusterError(
                f"rebalance removes unknown member {rebalance.remove_node}"
            )
    directory_cfg = cluster.directory
    if directory_cfg is not None:
        if rebalance is not None:
            raise ConfigError(
                "the replicated directory and shard rebalancing cannot be "
                "combined yet (replica sets would race the migration)"
            )
        if directory_cfg.replication > nnodes:
            raise ClusterError(
                f"replication factor {directory_cfg.replication} exceeds the "
                f"{nnodes}-node cluster"
            )
        if directory_cfg.kill is not None and directory_cfg.kill.node >= nnodes:
            raise ClusterError(
                f"kill-metadata-node names unknown node {directory_cfg.kill.node}"
            )
        if (
            directory_cfg.gc is not None
            and directory_cfg.gc.mode == MODE_ONLINE
            and config.jobs is None
        ):
            raise ConfigError(
                "online refcount GC runs as a leased job and needs "
                "ReplayConfig.jobs (pass --jobs, or --gc implies it on the CLI)"
            )

    # -- feature gates (each one must leave the plain N=1 path alone) --
    multi = len(traces) > 1
    multi_node = nnodes > 1
    net_active = multi_node or (rebalance is not None and rebalance.add_nodes > 0)
    dir_active = directory_cfg is not None
    cluster_active = (
        net_active or node_failure is not None or rebalance is not None or dir_active
    )
    # Per-node series and the cluster sections of the result: at N>1,
    # with any cluster feature, or with the per-node content oracle,
    # whose summary they carry (also at one node).
    cluster_report = multi_node or cluster_active or cluster.verify_content

    # ------------------------------------------------------------------
    # build the nodes
    # ------------------------------------------------------------------
    geometry = config.geometry()
    node_traces: List[List[Trace]] = [[] for _ in range(nnodes)]
    node_vids: List[List[int]] = [[] for _ in range(nnodes)]
    for vid, trace in enumerate(traces):
        node_traces[assignment[vid]].append(trace)
        node_vids[assignment[vid]].append(vid)

    nodes: List[ClusterNode] = []
    bases: List[int] = [0] * len(traces)
    for n in range(nnodes):
        scheme = schemes[n]
        mapper = NamespaceMapper(
            (t.name, t.logical_blocks) for t in node_traces[n]
        )
        if mapper.total_logical_blocks > scheme.regions.logical_blocks:
            raise ConfigError(
                f"node {n}: volumes touch {mapper.total_logical_blocks} logical "
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
        node.volume_ids = list(node_vids[n])
        for local_vid, vid in enumerate(node_vids[n]):
            bases[vid] = mapper.volume(local_vid).base
        nodes.append(node)

    node_of: List[ClusterNode] = [nodes[assignment[vid]] for vid in range(len(traces))]

    for fs in cluster.fail_slow:
        fs_node, fs_member = divmod(fs.disk, geometry.ndisks)
        if not (0 <= fs_node < nnodes):
            raise ClusterError(
                f"fail-slow spec names unknown cluster disk {fs.disk} "
                f"(have {nnodes * geometry.ndisks})"
            )
        nodes[fs_node].disks[fs_member].add_slow_window(
            fs.start, fs.end, fs.multiplier
        )

    sim = Simulator()
    metrics = collector if collector is not None else MetricsCollector()
    if per_volume_metrics:
        metrics.track_volumes()
    if cluster_report:
        metrics.track_nodes()
    ssds: List[Optional[Ssd]] = [
        Ssd(config.ssd_params) if config.ssd_params is not None else None
        for _ in range(nnodes)
    ]

    obs = recorder if recorder is not None else NULL_RECORDER
    if recorder is not None:
        for node in nodes:
            node.scheme.attach_observer(recorder)

    # -- telemetry (observation only; absent unless armed) -------------
    timeline_config = config.effective_timeline()
    sampler: Optional[TimelineSampler] = None
    if timeline_config is not None:
        sampler = TimelineSampler(timeline_config, policy=config.slo)
        metrics.attach_timeline(sampler)
        for fs in cluster.fail_slow:
            sampler.annotate_interval("fail_slow", fs.start, fs.end)
    tracer: Optional[SpanTracer] = SpanTracer() if config.spans else None
    if tracer is not None:
        for node in nodes:
            node.scheme.spans = tracer

    sanitizer: Optional[PodSanitizer] = None
    if config.check_invariants:
        if config.sanitize_every <= 0:
            raise ConfigError("sanitize_every must be positive")
        sanitizer = PodSanitizer(registry=metrics.registry)
        for node in nodes:
            sanitizer.attach(node.scheme)

    # Deterministic fault injection (one node only): installed before
    # the arrivals are scheduled, so its timed faults keep their tie
    # order against them.  Its content oracle is the node's.
    injector: Optional[FaultInjector] = None
    oracles: Optional[List[ContentOracle]] = None
    if config.faults is not None:
        plan = config.faults
        if config.fault_seed is not None:
            plan = plan.with_seed(config.fault_seed)
        injector = FaultInjector(plan, registry=metrics.registry)
        if recorder is not None:
            injector.attach_observer(recorder)
        injector.timeline = sampler
        injector.spans = tracer
        injector.install(sim, nodes[0])
        oracles = [injector.oracle]
    elif cluster.verify_content:
        oracles = [ContentOracle() for _ in range(nnodes)]

    # -- cluster overlay state -----------------------------------------
    router = FingerprintRouter(range(nnodes), vnodes=cluster.vnodes)
    fabric = NetworkFabric(cluster.net)
    lookup_bytes = cluster.net.lookup_bytes
    entry_bytes = cluster.net.entry_bytes
    #: Shard-owner member id -> (fingerprint -> first-writer node id).
    shards: Dict[int, Dict[int, int]] = {n: {} for n in range(nnodes)}
    migration: Dict[str, Optional[ShardMigrator]] = {"migrator": None}

    def send_links(
        now: float,
        src: int,
        counts: Dict[int, int],
        entry_bytes: int,
        span: str = "",
        count_field: str = "",
        root: int = -1,
        req_id: int = -1,
    ) -> float:
        """One batched RPC of ``count * entry_bytes`` from ``src`` to
        each destination in ``counts``, in destination order and in
        parallel: returns the latest completion (``now`` for none).
        ``span`` names a traced span per RPC under ``root``, carrying
        ``count`` as ``count_field``."""
        latest = now
        traced = bool(span) and tracer is not None and root > 0
        for dst in sorted(counts):
            count = counts[dst]
            nbytes = count * entry_bytes
            done = fabric.round_trip(now, src, dst, nbytes)
            if done > latest:
                latest = done
            if sampler is not None:
                sampler.note_rpc(now, src, dst, nbytes, fabric.last_service)
            if traced:
                assert tracer is not None
                tracer.emit(
                    now,
                    done,
                    span,
                    parent=root,
                    req_id=req_id,
                    node=src,
                    dst=dst,
                    **{count_field: count},
                )
            if obs.level >= TraceLevel.CHUNK:
                obs.emit(
                    TraceLevel.CHUNK,
                    now,
                    EventType.NET_RPC,
                    src=src,
                    dst=dst,
                    bytes=nbytes,
                    queued=fabric.last_queue_wait,
                    done=done,
                )
        return latest

    def send_background(links: Dict[Tuple[int, int], int]) -> float:
        """Background entry pushes (migration, GC decrements): one
        batched RPC per ``(src, dst)`` link, in link order and in
        parallel, issued now."""
        now = sim.now
        return max([now] + [
            send_links(now, src, {dst: count}, entry_bytes)
            for (src, dst), count in sorted(links.items())
        ])

    # -- replicated directory (None = legacy single-copy shards) -------
    directory: Optional[ReplicatedDirectory] = None
    refcount_gc: Optional[RefcountGc] = None
    #: Per-node logical shadow (node-local lba -> fingerprint held) so
    #: overwrites queue refcount-decrement intents for the old content.
    block_content: Optional[List[Dict[int, int]]] = None
    if directory_cfg is not None:
        directory = ReplicatedDirectory(router, nnodes, directory_cfg)
        block_content = [{} for _ in range(nnodes)]
        if directory_cfg.gc is not None:
            refcount_gc = RefcountGc(directory)

    requests, measured_flags = _merge_cluster_streams(traces, bases)
    # Handed over after the fault injector's callbacks and before every
    # other: the arrivals win timestamp ties against jobs, epochs and
    # finishes, and lose them against timed faults.
    arrival_times = [request.time for request in requests]
    sim.set_arrivals(arrival_times, requests)

    # Leased background jobs (see repro.jobs): the cluster's
    # maintenance work -- node-failure rebuild, shard migration, one
    # scrubber per node -- runs under epoch-fenced worker leases when
    # armed; None keeps the legacy self-paced tick path bit-identical.
    jobs_runtime: Optional[JobRuntime] = None
    admission: Optional[AdmissionController] = None
    if config.jobs is not None:
        jobs_runtime = JobRuntime(
            config.jobs,
            sim,
            horizon=requests[-1].time if requests else 0.0,
            oracle=injector.oracle if injector is not None else None,
            registry=metrics.registry,
        )
        jobs_runtime.timeline = sampler
        jobs_runtime.spans = tracer
        admission = jobs_runtime.admission
        if injector is not None:
            # Member-failure rebuilds become leased jobs instead of
            # self-paced ticks.
            injector.jobs = jobs_runtime
        scrub_spec = config.jobs.scrub
        if scrub_spec is not None:
            for node in nodes:

                def scrub_read(
                    pba: int, nblocks: int, node: ClusterNode = node
                ) -> float:
                    vop = VolumeOp(OpType.READ, pba, nblocks)
                    if multi_node:
                        # Through the RAID layer so degraded rows
                        # reconstruct like any foreground read.
                        return node.service_volume_ops(obs, sim.now, [vop])
                    # One node scrubs the healthy mapping (degraded
                    # rows included) through the fault hook, which
                    # credits latent errors it finds to the scrubber.
                    if injector is not None:
                        injector.in_scrub = True
                    try:
                        return node.service_disk_ops(
                            obs, sim.now, node.raid.map(vop)
                        )
                    finally:
                        if injector is not None:
                            injector.in_scrub = False

                jobs_runtime.submit(
                    f"scrub.n{node.node_id}" if multi_node else "scrub",
                    ScrubJob(
                        node.scheme.regions.total_blocks,
                        scrub_spec.region_blocks,
                        scrub_read,
                        regions_cap=(
                            scrub_spec.regions
                            if scrub_spec.regions is not None
                            else 0
                        ),
                    ),
                    scrub_spec.interval,
                    not_before=scrub_spec.start,
                )
        gc_spec = directory_cfg.gc if directory_cfg is not None else None
        if (
            refcount_gc is not None
            and gc_spec is not None
            and gc_spec.mode == MODE_ONLINE
        ):
            # Online refcount GC as a leased job: the ledger needs a
            # fixed total, so the job runs a fixed number of rounds
            # sized to the trace horizon, each draining up to ``batch``
            # decrement intents from the fenced cursor.
            gc_horizon = requests[-1].time if requests else 0.0
            gc_rounds = (
                gc_spec.rounds
                if gc_spec.rounds is not None
                else max(
                    1,
                    int(max(0.0, gc_horizon - gc_spec.start) / gc_spec.interval)
                    + 1,
                )
            )

            # Decrement pushes from each entry's coordinating replica
            # to the others; sunk cost on a fenced step, exactly like
            # migration sends.
            jobs_runtime.submit(
                "gc",
                GcJob(
                    refcount_gc,
                    gc_spec.batch,
                    gc_rounds,
                    gc_spec.entry_cost,
                    send_background,
                ),
                gc_spec.interval,
                not_before=gc_spec.start,
            )
        jobs_runtime.start()

    run_name = traces[0].name if not multi else "+".join(t.name for t in traces)
    total_warmup = sum(t.warmup_count for t in traces)
    #: Per-node first-writer maps for the cross-volume vs intra-volume
    #: split (content only collapses within a node, so classification
    #: is a per-node question; one dict at N=1, exactly the classic
    #: multi-volume path).
    fp_owner: Optional[List[Dict[int, int]]] = (
        [{} for _ in range(nnodes)] if multi else None
    )
    if obs.level >= TraceLevel.SUMMARY:
        extra_run: Dict[str, Any] = {"volumes": len(traces)} if multi else {}
        if multi_node:
            extra_run["nodes"] = nnodes
        obs.emit(
            TraceLevel.SUMMARY,
            requests[0].time if requests else 0.0,
            EventType.RUN_START,
            trace=run_name,
            scheme=schemes[0].name,
            requests=len(requests),
            warmup=total_warmup,
            **extra_run,
        )

    # ------------------------------------------------------------------
    # the request path
    # ------------------------------------------------------------------

    #: Per-node span attributes: node-tagged only at N>1, so a
    #: one-node run emits the single-node forms (as do the gauges).
    span_tags: List[Dict[str, Any]] = [
        {"node": n} if multi_node else {} for n in range(nnodes)
    ]

    def remote_lookup(
        node: ClusterNode, request: IORequest
    ) -> Tuple[Dict[int, int], Dict[Tuple[int, int], int], int]:
        """Consult the sharded directory for one write's fingerprints.

        Returns ``(per_dst, repair_links, remote_duplicate_blocks)``
        (the legacy directory repairs nothing) and registers first
        writers: one lookup per fingerprint, batched into one RPC per
        distinct remote shard owner.
        """
        assert request.fingerprints is not None
        migrator = migration["migrator"]
        pending = migrator.pending if migrator is not None else None
        per_dst: Dict[int, int] = {}
        remote_dups = 0
        for fp in request.fingerprints:
            shard = router.route(fp)
            if shard != node.node_id:
                per_dst[shard] = per_dst.get(shard, 0) + 1
            table = shards.setdefault(shard, {})
            writer = table.get(fp)
            if writer is None:
                if pending is not None and fp in pending:
                    # Entry still in flight to this (new) owner:
                    # miss-as-unique, charged to the rebalance.
                    node.rebalance_misses += 1
                table[fp] = node.node_id
                if migrator is not None:
                    migrator.note_registered(fp)
            elif writer != node.node_id:
                remote_dups += 1
        return per_dst, {}, remote_dups

    def directory_lookup(
        node: ClusterNode, request: IORequest
    ) -> Tuple[Dict[int, int], Dict[Tuple[int, int], int], int]:
        """Consult the *replicated* directory for one write's blocks.

        Same contract as :func:`remote_lookup`.  The directory does the
        request's overwrites, lookups, registrations and read repairs
        in one whole-request ``lookup_register`` call, which fills in
        the lookups per remote destination and the repair pushes per
        ``(origin, stale replica)`` link.  At R=1 the contacted set is
        exactly the legacy shard owner, so counts and wire arithmetic
        reduce to the legacy path block for block.
        """
        assert request.fingerprints is not None
        assert directory is not None and block_content is not None
        origin = node.node_id
        rnd = RequestRound(request.fingerprints, request.lba, block_content[origin])
        directory.lookup_register(0, origin, True, request=rnd)
        return rnd.per_dst, rnd.repair_links, rnd.remote_dups

    lookup = directory_lookup if dir_active else remote_lookup
    lookups_on = dir_active or net_active

    # Measured completions, buffered as rows and folded into the
    # collector (and its timeline) as columns every DEFAULT_BATCH_SIZE
    # completions and after the run: the state ``record`` and
    # ``record_node`` per completion would leave.  A row is (req id,
    # arrival, completion, eliminated, cache-hit, deduped and
    # cross-volume blocks, net delay, remote lookups, remote dups).
    done: List[Tuple[Any, ...]] = []
    i8, f8 = np.int64, np.float64
    row_types = (f8, f8, bool, i8, i8, i8, f8, i8, i8)

    def fold() -> None:
        cols = list(zip(*done))
        reqs = [requests[k] for k in cols[0]]
        rest = [np.array(col, dtype=t) for col, t in zip(cols[1:], row_types)]
        rows = Completions(
            np.array(cols[0], dtype=i8),
            np.array([r.op is OpType.READ for r in reqs], dtype=bool),
            np.array([r.nblocks for r in reqs], dtype=i8),
            np.array([r.volume_id for r in reqs], dtype=i8),
            *rest[:6],
        )
        metrics.record_columns(rows)
        if metrics.tracks_nodes:
            node_ids = [node_of[r.volume_id].node_id for r in reqs]
            metrics.record_node_columns(rows, np.array(node_ids, dtype=i8), *rest[6:])
        done.clear()

    def finish(
        request: IORequest,
        planned: PlannedIO,
        arrival: float,
        cross: int,
        net_info: Tuple[float, int, int],
        root: int = -1,
    ) -> None:
        node = node_of[request.volume_id]
        issue_time = sim.now

        ssd = ssds[node.node_id]
        ssd_done = issue_time
        if planned.ssd_read_blocks or planned.ssd_write_blocks:
            if ssd is None:
                raise ConfigError(
                    f"scheme {node.scheme.name} emitted SSD traffic but the "
                    "replay has no ssd_params configured"
                )
            if planned.ssd_read_blocks:
                ssd_done = ssd.service(issue_time, planned.ssd_read_blocks)
            if planned.ssd_write_blocks:
                ssd.service(issue_time, planned.ssd_write_blocks)  # background

        completion = node.service_volume_ops(obs, issue_time, planned.volume_ops)
        completion = max(completion, ssd_done)
        measured = config.collect_warmup or measured_flags[request.req_id]
        completed_at = max(completion, issue_time)
        if tracer is not None and root > 0:
            if planned.volume_ops:
                disk_tags = span_tags[node.node_id]
                if disk_tags:
                    disk_tags = dict(
                        disk_tags, blocks=sum(op.nblocks for op in planned.volume_ops)
                    )
                tracer.emit(
                    issue_time,
                    completed_at,
                    "disk",
                    parent=root,
                    req_id=request.req_id,
                    **disk_tags,
                )
            tracer.end(completed_at, root, response=completed_at - arrival)
        if measured:
            done.append((
                request.req_id, arrival, completed_at, planned.eliminated,
                planned.cache_hit_blocks, planned.deduped_blocks, cross, *net_info,
            ))
            if len(done) >= DEFAULT_BATCH_SIZE:
                fold()
        if obs.level >= TraceLevel.REQUEST:
            extra: Dict[str, Any] = {"volume": request.volume_id} if multi else {}
            obs.emit(
                TraceLevel.REQUEST,
                completed_at,
                EventType.REQUEST_COMPLETE,
                req_id=request.req_id,
                op=request.op.value,
                nblocks=request.nblocks,
                response=completed_at - arrival,
                eliminated=planned.eliminated,
                deduped_blocks=planned.deduped_blocks,
                cache_hit_blocks=planned.cache_hit_blocks,
                measured=measured,
                **extra,
            )
        if planned.background_ops:
            node.service_volume_ops(obs, issue_time, planned.background_ops)

    # Fig. 11 counts removed write requests over the measured day only,
    # so snapshot the (cluster-wide) scheme counters at the warm-up
    # boundary -- the first arrival past its volume's warm-up prefix.
    boundary = {"writes": 0, "removed": 0, "taken": total_warmup == 0}
    arrivals = {"count": 0}
    #: Stop-the-world GC window: arrivals stall until ``until`` while
    #: the sweep runs (the casstor "cleanup time" the online GC beats).
    stw_state: Dict[str, float] = {"until": 0.0, "stalled": 0.0, "processed": 0.0}

    def handle_request(request: IORequest, arrival: float) -> None:
        now = sim.now
        node = node_of[request.volume_id]
        if not boundary["taken"] and measured_flags[request.req_id]:
            boundary["writes"] = sum(s.writes_total for s in schemes)
            boundary["removed"] = sum(s.write_requests_removed for s in schemes)
            boundary["taken"] = True
        root = -1
        if tracer is not None:
            # Root span: arrival to completion (ended in finish()).
            tags = span_tags[node.node_id]
            root = tracer.start(arrival, "request", req_id=request.req_id, **tags)
            if now > arrival:
                # Admission stalled behind crash recovery, throttling
                # or a stop-the-world sweep.
                tracer.emit(
                    arrival, now, "admission.stall",
                    parent=root, req_id=request.req_id, **tags,
                )
            node.scheme.span_parent = root
        if sampler is not None:
            sampler.note_gauges(
                now,
                node_id=node.node_id if multi_node else None,
                nvram_bytes=float(node.scheme.nvram.bytes_used),
                queue_lag=queue_lag(node.disks, now),
            )
        if obs.level >= TraceLevel.REQUEST:
            extra: Dict[str, Any] = {"volume": request.volume_id} if multi else {}
            obs.emit(
                TraceLevel.REQUEST,
                now,
                EventType.REQUEST_ARRIVE,
                req_id=request.req_id,
                op=request.op.value,
                lba=request.lba,
                nblocks=request.nblocks,
                **extra,
            )
        node.requests_served += 1
        planned = node.scheme.process(request, now)
        if oracles is not None:
            if request.is_write:
                oracles[node.node_id].note_write(request)
            else:
                oracles[node.node_id].check_read(request, node.scheme)
        net_info: Tuple[float, int, int] = (0.0, 0, 0)
        if lookups_on and request.is_write and request.fingerprints is not None:
            origin = node.node_id
            per_dst, repair_links, remote_dups = lookup(node, request)
            # One batched lookup RPC per remote destination and one
            # repair push per stale replica, all in parallel.
            done = send_links(
                now, origin, per_dst, lookup_bytes, "rpc.lookup", "lookups",
                root, request.req_id,
            )
            if repair_links:
                repairs = {dst: count for (_src, dst), count in repair_links.items()}
                repaired = send_links(
                    now, origin, repairs, entry_bytes, "directory.repair", "entries",
                    root, request.req_id,
                )
                done = max(done, repaired)
            net_info = (done - now, sum(per_dst.values()), remote_dups)
            node.remote_lookups += net_info[1]
            node.remote_duplicate_blocks += remote_dups
            node.net_delay_total += net_info[0]
        cross = 0
        if fp_owner is not None and request.fingerprints is not None:
            owners = fp_owner[node.node_id]
            vid = request.volume_id
            for i in planned.deduped_idx:
                owner = owners.get(request.fingerprints[i])
                if owner is not None and owner != vid:
                    cross += 1
            for fp in request.fingerprints:
                owners.setdefault(fp, vid)
        if sanitizer is not None:
            arrivals["count"] += 1
            if arrivals["count"] % config.sanitize_every == 0:
                sanitizer.assert_clean(node.scheme, now)
        total_delay = planned.delay + net_info[0]
        if total_delay > 0:
            if tracer is not None and root > 0 and planned.delay > 0:
                # Fingerprint classification: the planning delay between
                # arrival handling and op issue (net wait is the rpc span).
                tracer.emit(
                    now,
                    now + planned.delay,
                    "classify",
                    parent=root,
                    req_id=request.req_id,
                    **span_tags[node.node_id],
                )
            sim.schedule_callback(
                now + total_delay,
                finish,
                request,
                planned,
                arrival,
                cross,
                net_info,
                root,
            )
        else:
            finish(request, planned, arrival, cross, net_info, root)

    def on_arrival(now: float, request: IORequest) -> None:
        if stw_state["until"] > now:
            # Foreground drained for the stop-the-world sweep; the
            # stall is charged to response time (arrival kept).
            stw_state["stalled"] += 1
            sim.schedule_callback(stw_state["until"], handle_request, request, now)
            return
        release = now
        if injector is not None:
            # Crash recovery stalls admission: globally, or only for
            # the volume whose namespace is replaying (per-volume
            # NVRAM-loss scope).
            blocked = injector.blocked_until_for(request.volume_id)
            if blocked > release:
                release = blocked
        if admission is not None:
            # Per-tenant token bucket; charged even when not
            # throttling so the bucket drains deterministically.
            admitted = admission.admit(request.volume_id, release, request.nblocks)
            if admitted > release:
                release = admitted
        if release > now:
            # The request keeps its arrival timestamp (the stall is
            # charged to its response time) and is processed once
            # recovery/throttling releases it.
            sim.schedule_callback(release, handle_request, request, now)
            return
        handle_request(request, now)

    # ------------------------------------------------------------------
    # per-node iCache epochs
    # ------------------------------------------------------------------
    if requests:
        last_arrival = requests[-1].time
        for node in nodes:
            interval = node.scheme.epoch_interval
            if interval is None:
                continue
            if interval <= 0:
                raise ConfigError("epoch interval must be positive")

            def epoch_tick(
                node: ClusterNode = node, interval: float = interval
            ) -> None:
                ops = node.scheme.on_epoch(sim.now)
                if sanitizer is not None:
                    sanitizer.assert_clean(node.scheme, sim.now)
                if sampler is not None:
                    sampler.note_gauges(
                        sim.now,
                        node_id=node.node_id if multi_node else None,
                        icache_index_bytes=float(
                            node.scheme.cache.index.capacity_bytes
                        ),
                        icache_read_bytes=float(
                            node.scheme.cache.read.capacity_bytes
                        ),
                    )
                if ops:
                    node.service_volume_ops(obs, sim.now, ops)
                next_time = sim.now + interval
                if next_time <= last_arrival + interval:
                    sim.schedule_callback(next_time, epoch_tick)

            sim.schedule_callback(requests[0].time + interval, epoch_tick)

    # ------------------------------------------------------------------
    # node failure: degrade one node's array, rebuild it in place
    # ------------------------------------------------------------------
    rebuild_state: Dict[str, Any] = {"controller": None, "failed_at": None}
    if node_failure is not None:
        spec = node_failure

        def complete_node_failure() -> None:
            node = nodes[spec.node]
            ctrl = rebuild_state["controller"]
            assert ctrl is not None
            node.failed_disk = None
            failed_at = rebuild_state["failed_at"]
            assert failed_at is not None
            if tracer is not None:
                tracer.emit(
                    failed_at,
                    sim.now,
                    "recovery.rebuild",
                    node=spec.node,
                    disk=spec.disk,
                    rows_rebuilt=ctrl.rows_rebuilt,
                )
            if obs.level >= TraceLevel.SUMMARY:
                obs.emit(
                    TraceLevel.SUMMARY,
                    sim.now,
                    EventType.FAULT_RECOVER,
                    kind="node_failure",
                    latency=sim.now - failed_at,
                    detail=(
                        f"node {spec.node} disk {spec.disk} rebuilt: "
                        f"{ctrl.rows_rebuilt} rows rebuilt, "
                        f"{ctrl.rows_skipped} skipped"
                    ),
                )

        def begin_node_failure() -> None:
            node = nodes[spec.node]
            node.failed_disk = spec.disk
            rebuild_state["failed_at"] = sim.now
            su = geometry.stripe_unit_blocks
            disk_rows = max(1, node.disks[spec.disk].params.total_blocks // su)
            live = (
                node.scheme.map_table.live_pbas(node.scheme.written_lbas)
                if spec.capacity_aware
                else None
            )
            ctrl = RebuildController(node.raid, spec.disk, disk_rows, live)
            rebuild_state["controller"] = ctrl
            if sampler is not None:
                sampler.note_activity(sim.now, "node_failure", 1.0)
            if obs.level >= TraceLevel.SUMMARY:
                obs.emit(
                    TraceLevel.SUMMARY,
                    sim.now,
                    EventType.CLUSTER_NODE_FAIL,
                    node=spec.node,
                    disk=spec.disk,
                )
            if jobs_runtime is not None:
                # Reconstruction runs as a leased job: a worker claims
                # it, plans batches from the committed cursor, and a
                # fail-slow stall that outlives the lease hands the job
                # to the next epoch's claimant.
                def issue(ops: List[Any], node: ClusterNode = node) -> float:
                    # Background load on the failed node's spindles only.
                    return node.service_disk_ops(obs, sim.now, ops)

                jobs_runtime.submit(
                    "rebuild",
                    RebuildJob(ctrl, spec.rows_per_batch, issue),
                    spec.interval,
                    on_done=lambda _t: complete_node_failure(),
                )
                return
            sim.schedule_callback(sim.now + spec.interval, rebuild_tick)

        def rebuild_tick() -> None:
            node = nodes[spec.node]
            ctrl = rebuild_state["controller"]
            assert ctrl is not None
            if not ctrl.done:
                ops = ctrl.next_batch(spec.rows_per_batch)
                if ops:
                    # Background load on the failed node's spindles only.
                    node.service_disk_ops(obs, sim.now, ops)
            if sampler is not None:
                sampler.note_activity(sim.now, "rebuild", ctrl.progress)
            if ctrl.done:
                complete_node_failure()
                return
            sim.schedule_callback(sim.now + spec.interval, rebuild_tick)

        sim.schedule_callback(spec.time, begin_node_failure)

    # ------------------------------------------------------------------
    # metadata-node kill + stop-the-world GC baseline
    # ------------------------------------------------------------------
    if directory is not None and directory_cfg is not None:
        kill_spec = directory_cfg.kill
        if kill_spec is not None:
            kill = kill_spec

            def do_kill() -> None:
                assert directory is not None
                directory.kill(kill.node)
                if sampler is not None:
                    sampler.note_activity(sim.now, "metadata_kill", 1.0)
                if obs.level >= TraceLevel.SUMMARY:
                    obs.emit(
                        TraceLevel.SUMMARY,
                        sim.now,
                        EventType.FAULT_INJECT,
                        kind="metadata_kill",
                        detail=(
                            f"node {kill.node} directory replica down "
                            "(data plane unaffected)"
                        ),
                    )

            sim.schedule_callback(kill.time, do_kill)
        stw_spec = directory_cfg.gc
        if (
            refcount_gc is not None
            and stw_spec is not None
            and stw_spec.mode != MODE_ONLINE
        ):
            sweep_spec = stw_spec

            def stw_sweep() -> None:
                assert refcount_gc is not None
                processed = refcount_gc.drain_all()
                stall = processed * sweep_spec.entry_cost
                stw_state["processed"] += processed
                stw_state["until"] = sim.now + stall
                if sampler is not None and stall > 0:
                    sampler.annotate_interval("gc_stw", sim.now, sim.now + stall)
                if obs.level >= TraceLevel.SUMMARY:
                    obs.emit(
                        TraceLevel.SUMMARY,
                        sim.now,
                        EventType.FAULT_INJECT,
                        kind="gc_stw",
                        detail=(
                            f"stop-the-world gc: {processed} intents, "
                            f"{stall:.6f}s foreground stall"
                        ),
                    )

            sim.schedule_callback(sweep_spec.start, stw_sweep)

    # ------------------------------------------------------------------
    # membership change + paced shard migration
    # ------------------------------------------------------------------
    if rebalance is not None:
        rb = rebalance

        def begin_rebalance() -> None:
            added = [nnodes + i for i in range(rb.add_nodes)]
            for member in added:
                router.add_member(member)
                shards.setdefault(member, {})
            if rb.remove_node is not None:
                router.remove_member(rb.remove_node)
            migrator = ShardMigrator(router, shards)
            migration["migrator"] = migrator
            if sampler is not None:
                sampler.note_activity(sim.now, "rebalance", 1.0)
            if obs.level >= TraceLevel.SUMMARY:
                obs.emit(
                    TraceLevel.SUMMARY,
                    sim.now,
                    EventType.CLUSTER_REBALANCE,
                    added=len(added),
                    removed=0 if rb.remove_node is None else 1,
                    moves=migrator.entries_total,
                    ring_size=router.ring_size(),
                )
            if migrator.done:
                return
            if jobs_runtime is not None:
                # Migration runs as a leased job; the per-link wire
                # charge happens at plan time (sunk cost on a fenced
                # step -- the bytes were already on the wire), the
                # directory mutation only at the fenced commit.
                jobs_runtime.submit(
                    "migrate",
                    MigrationJob(migrator, rb.entries_per_batch, send_background),
                    rb.interval,
                )
                return
            sim.schedule_callback(sim.now + rb.interval, migrate_tick)

        def migrate_tick() -> None:
            migrator = migration["migrator"]
            assert migrator is not None
            links = migrator.next_batch(rb.entries_per_batch)
            if sampler is not None:
                sampler.note_activity(sim.now, "migration", migrator.progress)
            send_background(links)
            if obs.level >= TraceLevel.SUMMARY:
                obs.emit(
                    TraceLevel.SUMMARY,
                    sim.now,
                    EventType.CLUSTER_MIGRATE,
                    moved=migrator.entries_migrated,
                    remaining=migrator.remaining,
                )
            if not migrator.done:
                sim.schedule_callback(sim.now + rb.interval, migrate_tick)

        sim.schedule_callback(rb.time, begin_rebalance)

    # ------------------------------------------------------------------

    sim.run(arrival_handler=on_arrival)
    if done:
        fold()

    if jobs_runtime is not None:
        # Mirror job counters into the registry and verify the step
        # ledger (no step lost, none double-applied).
        jobs_runtime.finalize()

    if sanitizer is not None:
        for node in nodes:
            sanitizer.assert_clean(node.scheme, sim.now)

    if injector is not None:
        # Sweep still-latent faults into the blast-radius histogram and
        # run the end-to-end content oracle over the final state.
        injector.finalize()
    elif oracles is not None:
        for node in nodes:
            oracles[node.node_id].assert_clean(node.scheme)

    if obs.level >= TraceLevel.SUMMARY:
        obs.emit(
            TraceLevel.SUMMARY,
            sim.now,
            EventType.RUN_END,
            events_processed=sim.events_processed,
            makespan=metrics.as_dict()["makespan"],
        )

    # ------------------------------------------------------------------
    # result assembly
    # ------------------------------------------------------------------

    slo_stats: Optional[Dict[str, Any]] = None
    if sampler is not None:
        sampler.finish(sim.now)
        if config.slo is not None:
            slo_stats = evaluate_slo(config.slo, sampler.as_dict())

    volumes: List[Dict[str, Any]] = []
    if per_volume_metrics:
        tracked = set(metrics.volume_ids())
        for vid, trace in enumerate(traces):
            entry: Dict[str, Any] = {
                "volume_id": vid,
                "name": trace.name,
                "logical_blocks": trace.logical_blocks,
            }
            if vid in tracked:
                entry.update(metrics.volume_as_dict(vid))
            else:  # volume with no measured traffic
                entry["requests"] = 0
            volumes.append(entry)

    utilisation: Dict[int, Dict[str, float]] = {}
    for node in nodes:
        utilisation.update(disk_utilisation(node.disks))

    # One stats() per node: it walks every written LBA for capacity.
    node_stats = [s.stats() for s in schemes]
    if nnodes == 1:
        scheme_stats = node_stats[0]
        timeline = getattr(schemes[0].cache, "epoch_timeline", [])
    else:
        scheme_stats = _aggregate_stats(node_stats)
        timeline = []

    node_summaries: List[Dict[str, Any]] = []
    cluster_stats: Optional[Dict[str, Any]] = None
    if cluster_report:
        tracked_nodes = set(metrics.node_ids())
        for node in nodes:
            node_entry: Dict[str, Any] = {
                "node_id": node.node_id,
                "name": node.name,
                "volumes": list(node.volume_ids),
                "logical_blocks": node.mapper.total_logical_blocks,
                "capacity_blocks": node_stats[node.node_id]["capacity_blocks"],
            }
            if node.node_id in tracked_nodes:
                node_entry.update(metrics.node_as_dict(node.node_id))
            else:  # node with no measured traffic
                node_entry["requests"] = 0
            # Raw whole-run node counters deliberately override the
            # measured-window metric counters of the same name: the
            # per-node breakdown must sum exactly to the cluster totals
            # below (which are whole-run).
            node_entry.update(
                {
                    "writes_total": node.scheme.writes_total,
                    "write_requests_removed": node.scheme.write_requests_removed,
                    "requests_served": node.requests_served,
                    "remote_lookups": node.remote_lookups,
                    "remote_duplicate_blocks": node.remote_duplicate_blocks,
                    "rebalance_misses": node.rebalance_misses,
                    "net_delay_total": node.net_delay_total,
                }
            )
            if directory is not None:
                node_entry["directory"] = directory.member_summary(node.node_id)
            node_summaries.append(node_entry)

        net = cluster.net
        cluster_stats = {
            "nodes": nnodes,
            "vnodes": cluster.vnodes,
            "ring_members": list(router.members),
            "net": {
                "latency": net.latency,
                "bandwidth": net.bandwidth,
                "lookup_bytes": net.lookup_bytes,
                "entry_bytes": net.entry_bytes,
            },
            "fabric": fabric.summary(),
            "remote_lookups": sum(n.remote_lookups for n in nodes),
            "remote_duplicate_blocks": sum(
                n.remote_duplicate_blocks for n in nodes
            ),
            "rebalance_misses": sum(n.rebalance_misses for n in nodes),
            "shard_entries": (
                directory.entries_by_member()
                if directory is not None
                else {
                    str(member): len(shards[member]) for member in sorted(shards)
                }
            ),
        }
        migrator = migration["migrator"]
        if rebalance is not None:
            rb_stats: Dict[str, Any] = {
                "time": rebalance.time,
                "add_nodes": rebalance.add_nodes,
                "remove_node": rebalance.remove_node,
            }
            if migrator is not None:
                rb_stats.update(migrator.summary())
            cluster_stats["rebalance"] = rb_stats
        ctrl = rebuild_state["controller"]
        if node_failure is not None:
            nf_stats: Dict[str, Any] = {
                "node": node_failure.node,
                "disk": node_failure.disk,
                "time": node_failure.time,
            }
            if ctrl is not None:
                nf_stats.update(
                    {
                        "done": ctrl.done,
                        "progress": ctrl.progress,
                        "rows_scanned": ctrl.rows_scanned,
                        "rows_rebuilt": ctrl.rows_rebuilt,
                        "rows_skipped": ctrl.rows_skipped,
                    }
                )
            cluster_stats["node_failure"] = nf_stats
        if directory is not None and directory_cfg is not None:
            dir_stats: Dict[str, Any] = dict(directory.summary())
            if directory_cfg.kill is not None:
                dir_stats["kill"] = {
                    "node": directory_cfg.kill.node,
                    "time": directory_cfg.kill.time,
                }
            if refcount_gc is not None and directory_cfg.gc is not None:
                gc_stats: Dict[str, Any] = dict(refcount_gc.summary())
                gc_stats["mode"] = directory_cfg.gc.mode
                gc_stats["start"] = directory_cfg.gc.start
                gc_stats["batch"] = directory_cfg.gc.batch
                if directory_cfg.gc.mode != MODE_ONLINE:
                    gc_stats["stw_stalled_requests"] = int(stw_state["stalled"])
                    gc_stats["stw_processed_intents"] = int(
                        stw_state["processed"]
                    )
                dir_stats["gc"] = gc_stats
            cluster_stats["directory"] = dir_stats
        if oracles is not None:
            cluster_stats["oracle"] = [
                {"node": node_id, **oracle.summary()}
                for node_id, oracle in enumerate(oracles)
            ]

    return ReplayResult(
        trace_name=run_name,
        scheme_name=schemes[0].name,
        metrics=metrics,
        scheme_stats=scheme_stats,
        utilisation=utilisation,
        capacity_blocks=sum(stats["capacity_blocks"] for stats in node_stats),
        writes_total=sum(s.writes_total for s in schemes) - boundary["writes"],
        write_requests_removed=(
            sum(s.write_requests_removed for s in schemes) - boundary["removed"]
        ),
        epoch_timeline=[
            e.as_dict() if hasattr(e, "as_dict") else dict(e) for e in timeline
        ],
        recorder=recorder,
        sanitizer=sanitizer,
        volumes=volumes,
        fault_stats=injector.summary() if injector is not None else None,
        nodes=node_summaries,
        cluster_stats=cluster_stats,
        timeline=sampler,
        spans=tracer,
        slo_stats=slo_stats,
        jobs_stats=jobs_runtime.summary() if jobs_runtime is not None else None,
    )
