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

:func:`replay_cluster` builds one :class:`_ClusterReplay`, runs it and
returns its result.  The object holds the run's state in attributes
and has one method per step: arrival and admission, request handling,
completion and the columnar fold, the network sends, the two directory
lookups, the epoch tick, node failure and rebuild, the metadata kill
and stop-the-world GC sweep, and rebalance with its migration.  Node
build, collector and timeline arming, the warm-up boundary and the
result fields every replay has come from
:class:`~repro.sim.replay.ReplayScaffold`, shared with the columnar
driver; this module adds the cluster sections.

It is also the single-node event loop: :func:`repro.sim.replay.replay_traces`
sends every config the columnar driver (:mod:`repro.sim.batch`) does
not take here as a one-node cluster.  What it runs at one node and at
N>1 is the table :data:`~repro.sim.replay.CAPABILITIES`:
:func:`replay_cluster` refuses a run there before it builds a node.
Two things only a single node carries are a deterministic
:class:`~repro.faults.plan.FaultPlan` (``ReplayConfig.faults``, whose
:class:`~repro.faults.injector.FaultInjector` targets the one
:class:`~repro.cluster.node.ClusterNode`) and a degraded array
(``ReplayConfig.failed_disk``).  At N=1 spans carry no ``node`` tag,
timeline gauges no ``node_id`` and the scrubber job is named
``scrub``, the single-node forms the goldens pin.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

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
from repro.jobs.jobs import MigrationJob, ScrubJob
from repro.jobs.runtime import JobRuntime, pace
from repro.metrics.collector import Completions, MetricsCollector
from repro.obs.events import EventType, TraceLevel
# Not called here (the scaffold evaluates SLOs): kept as a module
# attribute because perfbench's layer tracer wraps it by name.
from repro.obs.slo import evaluate_slo  # noqa: F401
from repro.obs.spans import SpanTracer
from repro.obs.trace import NULL_RECORDER, TraceRecorder
from repro.sim.engine import Simulator
from repro.sim.replay import (
    DEFAULT_BATCH_SIZE,
    ReplayConfig,
    ReplayResult,
    ReplayRun,
    ReplayScaffold,
    refusal,
)
# The single-node merge, with each volume rebased into its owner
# node's local space (the bases coincide at N=1: bit-identical).
from repro.sim.replay import _merge_streams as _merge_cluster_streams
from repro.sim.request import IORequest, OpType
from repro.storage.disk import queue_lag
from repro.storage.rebuild import RebuildController
from repro.storage.ssd import Ssd
from repro.storage.volume import VolumeOp
from repro.traces.columnar import ColumnarTrace
from repro.traces.format import Trace

#: Trace levels read per arrival, completion and RPC destination,
#: bound once: an attribute lookup on an Enum class costs several
#: times a module-global lookup.
_REQUEST = TraceLevel.REQUEST
_CHUNK = TraceLevel.CHUNK
_SUMMARY = TraceLevel.SUMMARY


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


def replay_cluster(
    traces: Sequence[Union[Trace, ColumnarTrace]],
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
    A run :data:`~repro.sim.replay.CAPABILITIES` refuses at this node
    count raises ``ConfigError`` with the table's reason.
    """
    assignment = _check_inputs(traces, schemes, cluster, config, assignment)
    reason = refusal(ReplayRun(config, cluster, schemes, recorder))
    if reason is not None:
        raise ConfigError(reason)
    replay = _ClusterReplay(
        traces, schemes, cluster, config, assignment, collector, recorder,
        per_volume_metrics,
    )
    # The loop churns short-lived acyclic objects (requests, plans,
    # events die by refcount): generational scans find nothing to
    # collect, so gate the collector off for the run, as the driver does.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        result = replay.run()
    finally:
        if gc_was_enabled:
            gc.enable()
    # Job callbacks hold bound methods of the replay, which puts it in
    # reference cycles: drop its state now rather than leave the whole
    # run (nodes, directory, requests) to the cycle collector.
    vars(replay).clear()
    return result


def _check_inputs(
    traces: Sequence[Union[Trace, ColumnarTrace]],
    schemes: Sequence[DedupScheme],
    cluster: ClusterConfig,
    config: ReplayConfig,
    assignment: Optional[Sequence[int]],
) -> List[int]:
    """Reject a node, disk or volume id the run lacks; return the
    volume-to-node assignment (default ``vid % len(schemes)``)."""
    if not traces:
        raise ConfigError("replay_cluster needs at least one trace")
    if not schemes:
        raise ConfigError("replay_cluster needs at least one scheme (node)")
    nnodes = len(schemes)
    if assignment is None:
        assignment = [vid % nnodes for vid in range(len(traces))]
    if len(assignment) != len(traces):
        raise ClusterError(
            f"assignment names {len(assignment)} volumes for {len(traces)} traces"
        )
    for vid, node_id in enumerate(assignment):
        if not (0 <= node_id < nnodes):
            raise ClusterError(f"volume {vid} assigned to unknown node {node_id}")
    missing = sorted(set(range(nnodes)) - set(assignment))
    if missing:
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
    if rebalance is not None and rebalance.remove_node is not None:
        if rebalance.remove_node >= nnodes + rebalance.add_nodes:
            raise ClusterError(
                f"rebalance removes unknown member {rebalance.remove_node}"
            )
    for fs in cluster.fail_slow:
        if not (0 <= fs.disk // config.ndisks < nnodes):
            raise ClusterError(
                f"fail-slow spec names unknown cluster disk {fs.disk} "
                f"(have {nnodes * config.ndisks})"
            )
    kill = cluster.directory.kill if cluster.directory is not None else None
    if kill is not None and kill.node >= nnodes:
        raise ClusterError(f"kill-metadata-node names unknown node {kill.node}")
    return list(assignment)


#: Per-node cluster counters the result reports per node and summed.
_NODE_TOTALS = ("remote_lookups", "remote_duplicate_blocks", "rebalance_misses")

#: Column dtypes of a buffered completion row past its request id:
#: arrival, completion, eliminated, cache-hit, deduped and
#: cross-volume blocks, net delay, remote lookups, remote dups.
_ROW_TYPES = (
    np.float64, np.float64, bool, np.int64, np.int64, np.int64,
    np.float64, np.int64, np.int64,
)


class _ClusterReplay:
    """One run of the event loop: the state of :func:`replay_cluster`
    in attributes, one method per step."""

    def __init__(
        self,
        traces: Sequence[Union[Trace, ColumnarTrace]],
        schemes: Sequence[DedupScheme],
        cluster: ClusterConfig,
        config: ReplayConfig,
        assignment: Sequence[int],
        collector: Optional[MetricsCollector],
        recorder: Optional[TraceRecorder],
        per_volume_metrics: bool,
    ) -> None:
        self.cluster = cluster
        self.config = config
        self.recorder = recorder
        self.nnodes = nnodes = len(schemes)
        rebalance = cluster.rebalance
        directory_cfg = cluster.directory
        # -- feature gates (each one must leave the plain N=1 path alone) --
        self.multi = len(traces) > 1
        self.multi_node = nnodes > 1
        net_active = self.multi_node or (
            rebalance is not None and rebalance.add_nodes > 0
        )
        dir_active = directory_cfg is not None
        cluster_active = (
            net_active
            or cluster.node_failure is not None
            or rebalance is not None
            or dir_active
        )
        # Per-node series and the cluster sections of the result: at N>1,
        # with any cluster feature, or with the per-node content oracle,
        # whose summary they carry (also at one node).
        self.cluster_report = (
            self.multi_node or cluster_active or cluster.verify_content
        )

        self.scaffold = scaffold = ReplayScaffold(
            traces, schemes, config, collector, per_volume_metrics, assignment
        )
        self.nodes = nodes = scaffold.nodes
        self.node_of: List[ClusterNode] = [nodes[owner] for owner in assignment]
        for fs in cluster.fail_slow:
            fs_node, fs_member = divmod(fs.disk, config.ndisks)
            nodes[fs_node].disks[fs_member].add_slow_window(
                fs.start, fs.end, fs.multiplier
            )

        self.sim = Simulator()
        self.metrics = metrics = scaffold.metrics
        if self.cluster_report:
            metrics.track_nodes()
        self.ssds: List[Optional[Ssd]] = [
            Ssd(config.ssd_params) if config.ssd_params is not None else None
            for _ in range(nnodes)
        ]
        self.obs = recorder if recorder is not None else NULL_RECORDER
        if recorder is not None:
            for node in nodes:
                node.scheme.attach_observer(recorder)

        # -- telemetry (observation only; absent unless armed) -------------
        self.sampler = sampler = scaffold.sampler
        if sampler is not None:
            for fs in cluster.fail_slow:
                sampler.annotate_interval("fail_slow", fs.start, fs.end)
        self.tracer: Optional[SpanTracer] = SpanTracer() if config.spans else None
        self.sanitizer: Optional[PodSanitizer] = None
        if config.check_invariants:
            self.sanitizer = PodSanitizer(registry=metrics.registry)
            for node in nodes:
                self.sanitizer.attach(node.scheme)

        self._arm_faults()

        # -- cluster overlay state -----------------------------------------
        self.router = FingerprintRouter(range(nnodes), vnodes=cluster.vnodes)
        self.fabric = NetworkFabric(cluster.net)
        self.lookup_bytes = cluster.net.lookup_bytes
        self.entry_bytes = cluster.net.entry_bytes
        #: Shard-owner member id -> (fingerprint -> first-writer node id).
        self.shards: Dict[int, Dict[int, int]] = {n: {} for n in range(nnodes)}
        self.migrator: Optional[ShardMigrator] = None
        # The replicated directory (None = legacy single-copy shards).
        self.directory: Optional[ReplicatedDirectory] = None
        self.refcount_gc: Optional[RefcountGc] = None
        #: Per-node logical shadow (node-local lba -> fingerprint held) so
        #: overwrites queue refcount-decrement intents for the old content.
        self.block_content: List[Dict[int, int]] = []
        if directory_cfg is not None:
            self.directory = ReplicatedDirectory(self.router, nnodes, directory_cfg)
            self.block_content = [{} for _ in range(nnodes)]
            if directory_cfg.gc is not None:
                self.refcount_gc = RefcountGc(self.directory)
        self.lookup = self.directory_lookup if dir_active else self.remote_lookup
        self.lookups_on = dir_active or net_active

        self.requests, self.measured_flags, pool = _merge_cluster_streams(
            traces, scaffold.bases
        )
        if self.directory is not None:
            # The ring cannot change while the directory is armed
            # (directory plus rebalance is refused), so the run's whole
            # fingerprint pool is placed once, up front.
            self.directory.placer.place_all(pool)
        # Handed over after the fault injector's callbacks and before every
        # other: the arrivals win timestamp ties against jobs, epochs and
        # finishes, and lose them against timed faults.
        self.sim.set_arrivals([r.time for r in self.requests], self.requests)
        self.last_arrival = self.requests[-1].time if self.requests else 0.0
        self.jobs_runtime: Optional[JobRuntime] = None
        self.admission: Optional[AdmissionController] = None
        if config.jobs is not None:
            self._arm_jobs()

        self.total_warmup = sum(t.warmup_count for t in traces)
        #: Per-node span attributes: node-tagged only at N>1, so a
        #: one-node run emits the single-node forms (as do the gauges).
        self.span_tags: List[Dict[str, Any]] = [
            {"node": n} if self.multi_node else {} for n in range(nnodes)
        ]
        #: Per-node first-writer maps for the cross-volume vs intra-volume
        #: split (content only collapses within a node, so classification
        #: is a per-node question; one dict at N=1, exactly the classic
        #: multi-volume path).  A node hosting one volume keeps none: its
        #: cross-volume count is always 0 (volumes never move).
        self.fp_owner: List[Optional[Dict[int, int]]] = [
            {} if assignment.count(n) > 1 else None for n in range(nnodes)
        ]
        # Measured completions, buffered as rows (see ``finish``).
        self.done: List[Tuple[Any, ...]] = []
        # Fig. 11 counts removed write requests over the measured day only,
        # so snapshot the (cluster-wide) scheme counters at the warm-up
        # boundary -- the first handled request past its volume's warm-up
        # prefix.
        self.boundary_taken = self.total_warmup == 0
        self.handled = 0
        #: Stop-the-world GC window: arrivals stall until ``stw_until``
        #: while the sweep runs (the casstor "cleanup time" the online GC
        #: beats).
        self.stw_until = 0.0
        self.stw_stalled = 0
        self.stw_processed = 0
        self.rebuild_ctrl: Optional[RebuildController] = None
        self.failed_at = 0.0
        self._schedule_events()

    # ------------------------------------------------------------------
    # set-up
    # ------------------------------------------------------------------

    def _arm_faults(self) -> None:
        """Deterministic fault injection (one node only), installed
        before the arrivals are handed over so its timed faults keep
        their tie order against them (its content oracle is the
        node's), or one content oracle per node for ``verify_content``."""
        config = self.config
        self.injector: Optional[FaultInjector] = None
        self.oracles: Optional[List[ContentOracle]] = None
        if config.faults is not None:
            injector = FaultInjector(config.faults, registry=self.metrics.registry)
            if self.recorder is not None:
                injector.attach_observer(self.recorder)
            injector.timeline = self.sampler
            injector.spans = self.tracer
            injector.install(self.sim, self.nodes[0])
            self.injector = injector
            self.oracles = [injector.oracle]
        elif self.cluster.verify_content:
            self.oracles = [ContentOracle() for _ in range(self.nnodes)]

    def _arm_jobs(self) -> None:
        """Leased background jobs (see repro.jobs): the cluster's
        maintenance work -- node-failure rebuild, shard migration, one
        scrubber per node, online GC -- runs under epoch-fenced worker
        leases; without jobs the rebuild and migration jobs are paced
        (:func:`~repro.jobs.runtime.pace`)."""
        jobs = self.config.jobs
        assert jobs is not None
        horizon = self.last_arrival
        injector = self.injector
        runtime = JobRuntime(
            jobs,
            self.sim,
            horizon=horizon,
            oracle=injector.oracle if injector is not None else None,
            registry=self.metrics.registry,
        )
        runtime.timeline = self.sampler
        runtime.spans = self.tracer
        self.jobs_runtime = runtime
        self.admission = runtime.admission
        if injector is not None:
            # A fault plan's member rebuild is submitted here too.
            injector.jobs = runtime
        scrub = jobs.scrub
        if scrub is not None:
            for node in self.nodes:
                runtime.submit(
                    f"scrub.n{node.node_id}" if self.multi_node else "scrub",
                    ScrubJob(
                        node.scheme.regions.total_blocks,
                        scrub.region_blocks,
                        partial(self.scrub_read, node),
                        regions_cap=scrub.regions if scrub.regions is not None else 0,
                    ),
                    scrub.interval,
                    not_before=scrub.start,
                )
        directory_cfg = self.cluster.directory
        gc = directory_cfg.gc if directory_cfg is not None else None
        if self.refcount_gc is not None and gc is not None and gc.mode == MODE_ONLINE:
            # Online refcount GC as a leased job: the ledger needs a
            # fixed total, so the job runs a fixed number of rounds
            # sized to the trace horizon, each draining up to ``batch``
            # decrement intents from the fenced cursor.  Decrement
            # pushes go from each entry's coordinating replica to the
            # others; sunk cost on a fenced step, exactly like
            # migration sends.
            rounds = (
                gc.rounds
                if gc.rounds is not None
                else max(1, int(max(0.0, horizon - gc.start) / gc.interval) + 1)
            )
            runtime.submit(
                "gc",
                GcJob(
                    self.refcount_gc, gc.batch, rounds, gc.entry_cost,
                    self.send_background,
                ),
                gc.interval,
                not_before=gc.start,
            )
        runtime.start()

    def _schedule_events(self) -> None:
        """Schedule the timed events after the arrivals: each node's
        iCache epochs, then node failure, metadata kill, stop-the-world
        sweep and rebalance (this order breaks their timestamp ties)."""
        sim = self.sim
        ticking = [n for n in self.nodes if n.scheme.epoch_interval is not None]
        if self.requests and ticking:
            # Every node's second and later ticks run on the last node
            # with an epoch interval (at N>1 the other nodes tick once),
            # the schedule the committed cluster goldens pin.
            last = ticking[-1]
            self.epoch_next = (last, last.scheme.epoch_interval)
            for node in ticking:
                interval = node.scheme.epoch_interval
                sim.schedule_callback(
                    self.requests[0].time + interval, self.epoch_tick, node, interval
                )
        cluster = self.cluster
        if cluster.node_failure is not None:
            sim.schedule_callback(cluster.node_failure.time, self.begin_node_failure)
        directory_cfg = cluster.directory
        if directory_cfg is not None:
            if directory_cfg.kill is not None:
                sim.schedule_callback(directory_cfg.kill.time, self.kill_metadata_node)
            gc = directory_cfg.gc
            if gc is not None and gc.mode != MODE_ONLINE:
                sim.schedule_callback(gc.start, self.stw_sweep)
        if cluster.rebalance is not None:
            sim.schedule_callback(cluster.rebalance.time, self.begin_rebalance)

    # ------------------------------------------------------------------
    # the network
    # ------------------------------------------------------------------

    def send_links(
        self,
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
        fabric = self.fabric
        sampler = self.sampler
        tracer = self.tracer
        obs = self.obs
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
                    now, done, span, parent=root, req_id=req_id, node=src, dst=dst,
                    **{count_field: count},
                )
            if obs.level >= _CHUNK:
                obs.emit(
                    _CHUNK, now, EventType.NET_RPC, src=src, dst=dst,
                    bytes=nbytes, queued=fabric.last_queue_wait, done=done,
                )
        return latest

    def send_background(self, links: Dict[Tuple[int, int], int]) -> float:
        """Background entry pushes (migration, GC decrements): one
        batched RPC per ``(src, dst)`` link, in link order and in
        parallel, issued now."""
        now = self.sim.now
        return max([now] + [
            self.send_links(now, src, {dst: count}, self.entry_bytes)
            for (src, dst), count in sorted(links.items())
        ])

    # ------------------------------------------------------------------
    # the directory
    # ------------------------------------------------------------------

    def remote_lookup(
        self, node: ClusterNode, request: IORequest
    ) -> Tuple[Dict[int, int], Dict[Tuple[int, int], int], int]:
        """Consult the sharded directory for one write's fingerprints.

        Returns ``(per_dst, repair_links, remote_duplicate_blocks)``
        (the legacy directory repairs nothing) and registers first
        writers: one lookup per fingerprint, batched into one RPC per
        distinct remote shard owner.
        """
        assert request.fingerprints is not None
        migrator = self.migrator
        pending = migrator.pending if migrator is not None else None
        route = self.router.route
        shards = self.shards
        per_dst: Dict[int, int] = {}
        remote_dups = 0
        for fp in request.fingerprints:
            shard = route(fp)
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
        self, node: ClusterNode, request: IORequest
    ) -> Tuple[Dict[int, int], Dict[Tuple[int, int], int], int]:
        """Consult the *replicated* directory for one write's blocks.

        Same contract as :meth:`remote_lookup`.  The directory does the
        request's overwrites, lookups, registrations and read repairs
        in one whole-request ``lookup_register`` call, which fills in
        the lookups per remote destination and the repair pushes per
        ``(origin, stale replica)`` link.  At R=1 the contacted set is
        exactly the legacy shard owner, so counts and wire arithmetic
        reduce to the legacy path block for block.
        """
        assert request.fingerprints is not None
        assert self.directory is not None
        origin = node.node_id
        content = self.block_content[origin]
        rnd = RequestRound(request.fingerprints, request.lba, content)
        self.directory.lookup_register(0, origin, True, request=rnd)
        return rnd.per_dst, rnd.repair_links, rnd.remote_dups

    # ------------------------------------------------------------------
    # the request path
    # ------------------------------------------------------------------

    def on_arrival(self, now: float, request: IORequest) -> None:
        """Release an arrival at the latest of the end of a
        stop-the-world sweep, crash recovery and admission (charged
        from the later of the first two); it keeps its arrival time
        (the stall is charged to its response time)."""
        release = now
        if self.stw_until > now:
            # Foreground drained for the stop-the-world sweep.
            self.stw_stalled += 1
            release = self.stw_until
        if self.injector is not None:
            # Crash recovery stalls admission: globally, or only for
            # the volume whose namespace is replaying (per-volume
            # NVRAM-loss scope).
            blocked = self.injector.blocked_until_for(request.volume_id)
            if blocked > release:
                release = blocked
        if self.admission is not None:
            # Per-tenant token bucket; charged even when not
            # throttling so the bucket drains deterministically.
            admitted = self.admission.admit(request.volume_id, release, request.nblocks)
            if admitted > release:
                release = admitted
        if release > now:
            self.sim.schedule_callback(release, self.handle_request, request, now)
            return
        self.handle_request(request, now)

    def handle_request(self, request: IORequest, arrival: float) -> None:
        """Plan one released request, charge its directory round trips
        and finish it now or after its planning and network delay."""
        now = self.sim.now
        node = self.node_of[request.volume_id]
        tracer = self.tracer
        if not self.boundary_taken and self.measured_flags[request.req_id]:
            self.scaffold.mark_boundary()
            self.boundary_taken = True
        root = -1
        if tracer is not None:
            # Root span: arrival to completion (ended in finish()).
            tags = self.span_tags[node.node_id]
            root = tracer.start(arrival, "request", req_id=request.req_id, **tags)
            if now > arrival:
                # Admission stalled behind crash recovery, throttling
                # or a stop-the-world sweep.
                tracer.emit(
                    arrival, now, "admission.stall",
                    parent=root, req_id=request.req_id, **tags,
                )
        if self.sampler is not None:
            self.sampler.note_gauges(
                now,
                node_id=node.node_id if self.multi_node else None,
                nvram_bytes=float(node.scheme.nvram.bytes_used),
                queue_lag=queue_lag(node.disks, now),
            )
        obs = self.obs
        if obs.level >= _REQUEST:
            extra: Dict[str, Any] = {"volume": request.volume_id} if self.multi else {}
            obs.emit(
                _REQUEST, now, EventType.REQUEST_ARRIVE,
                req_id=request.req_id, op=request.op.value, lba=request.lba,
                nblocks=request.nblocks, **extra,
            )
        node.requests_served += 1
        if tracer is None:
            planned = node.scheme.process(request, now)
        else:
            # The Index/Map lookup (and any dedup classification in it)
            # is one zero-width child of the root span: planning takes
            # no simulated time; its attrs carry the outcome.
            sid = tracer.start(now, "scheme.lookup", parent=root, req_id=request.req_id)
            planned = node.scheme.process(request, now)
            tracer.end(
                now, sid, eliminated=planned.eliminated,
                deduped_blocks=planned.deduped_blocks,
                cache_hit_blocks=planned.cache_hit_blocks,
            )
        is_write = request.is_write
        if self.oracles is not None:
            if is_write:
                self.oracles[node.node_id].note_write(request)
            else:
                self.oracles[node.node_id].check_read(request, node.scheme)
        net_info: Tuple[float, int, int] = (0.0, 0, 0)
        if self.lookups_on and is_write and request.fingerprints is not None:
            origin = node.node_id
            per_dst, repair_links, remote_dups = self.lookup(node, request)
            # One batched lookup RPC per remote destination and one
            # repair push per stale replica, all in parallel.
            done = self.send_links(
                now, origin, per_dst, self.lookup_bytes, "rpc.lookup", "lookups",
                root, request.req_id,
            )
            if repair_links:
                repairs = {dst: count for (_src, dst), count in repair_links.items()}
                repaired = self.send_links(
                    now, origin, repairs, self.entry_bytes, "directory.repair",
                    "entries", root, request.req_id,
                )
                done = max(done, repaired)
            net_info = (done - now, sum(per_dst.values()), remote_dups)
            node.remote_lookups += net_info[1]
            node.remote_duplicate_blocks += remote_dups
            node.net_delay_total += net_info[0]
        cross = 0
        owners = self.fp_owner[node.node_id]
        if owners is not None and request.fingerprints is not None:
            vid = request.volume_id
            for i in planned.deduped_idx:
                owner = owners.get(request.fingerprints[i])
                if owner is not None and owner != vid:
                    cross += 1
            for fp in request.fingerprints:
                owners.setdefault(fp, vid)
        if self.sanitizer is not None:
            self.handled += 1
            if self.handled % self.config.sanitize_every == 0:
                self.sanitizer.assert_clean(node.scheme, now)
        total_delay = planned.delay + net_info[0]
        if total_delay > 0:
            if tracer is not None and root > 0 and planned.delay > 0:
                # Fingerprint classification: the planning delay between
                # arrival handling and op issue (net wait is the rpc span).
                tracer.emit(
                    now, now + planned.delay, "classify", parent=root,
                    req_id=request.req_id, **self.span_tags[node.node_id],
                )
            self.sim.schedule_callback(
                now + total_delay, self.finish, request, planned, arrival, cross,
                net_info, root,
            )
        else:
            self.finish(request, planned, arrival, cross, net_info, root)

    def finish(
        self,
        request: IORequest,
        planned: PlannedIO,
        arrival: float,
        cross: int,
        net_info: Tuple[float, int, int],
        root: int = -1,
    ) -> None:
        """Issue a planned request's ops and complete it.

        A measured completion is buffered as a row and folded into the
        collector (and its timeline) as columns every
        ``DEFAULT_BATCH_SIZE`` completions and after the run: the state
        ``record`` and ``record_node`` per completion would leave.
        """
        node = self.node_of[request.volume_id]
        obs = self.obs
        issue_time = self.sim.now

        ssd = self.ssds[node.node_id]
        ssd_done = issue_time
        if ssd is not None:
            if planned.ssd_read_blocks:
                ssd_done = ssd.service(issue_time, planned.ssd_read_blocks)
            if planned.ssd_write_blocks:
                ssd.service(issue_time, planned.ssd_write_blocks)  # background

        completion = node.service_volume_ops(obs, issue_time, planned.volume_ops)
        completion = max(completion, ssd_done)
        measured = self.config.collect_warmup or self.measured_flags[request.req_id]
        completed_at = max(completion, issue_time)
        tracer = self.tracer
        if tracer is not None and root > 0:
            if planned.volume_ops:
                disk_tags = self.span_tags[node.node_id]
                if disk_tags:
                    disk_tags = dict(
                        disk_tags, blocks=sum(op.nblocks for op in planned.volume_ops)
                    )
                tracer.emit(
                    issue_time, completed_at, "disk", parent=root,
                    req_id=request.req_id, **disk_tags,
                )
            tracer.end(completed_at, root, response=completed_at - arrival)
        if measured:
            done = self.done
            done.append((
                request.req_id, arrival, completed_at, planned.eliminated,
                planned.cache_hit_blocks, planned.deduped_blocks, cross, *net_info,
            ))
            if len(done) >= DEFAULT_BATCH_SIZE:
                self.fold()
        if obs.level >= _REQUEST:
            extra: Dict[str, Any] = {"volume": request.volume_id} if self.multi else {}
            obs.emit(
                _REQUEST, completed_at, EventType.REQUEST_COMPLETE,
                req_id=request.req_id, op=request.op.value, nblocks=request.nblocks,
                response=completed_at - arrival, eliminated=planned.eliminated,
                deduped_blocks=planned.deduped_blocks,
                cache_hit_blocks=planned.cache_hit_blocks, measured=measured, **extra,
            )
        if planned.background_ops:
            node.service_volume_ops(obs, issue_time, planned.background_ops)

    def fold(self) -> None:
        """Fold the buffered completion rows into the collector."""
        cols = list(zip(*self.done))
        requests = self.requests
        reqs = [requests[k] for k in cols[0]]
        rest = [np.array(col, dtype=t) for col, t in zip(cols[1:], _ROW_TYPES)]
        rows = Completions(
            np.array(cols[0], dtype=np.int64),
            np.array([r.op is OpType.READ for r in reqs], dtype=bool),
            np.array([r.nblocks for r in reqs], dtype=np.int64),
            np.array([r.volume_id for r in reqs], dtype=np.int64),
            *rest[:6],
        )
        metrics = self.metrics
        metrics.record_columns(rows)
        if metrics.tracks_nodes:
            node_of = self.node_of
            node_ids = [node_of[r.volume_id].node_id for r in reqs]
            metrics.record_node_columns(
                rows, np.array(node_ids, dtype=np.int64), *rest[6:]
            )
        self.done.clear()

    # ------------------------------------------------------------------
    # background work
    # ------------------------------------------------------------------

    def _summary(self, event: EventType, **fields: Any) -> None:
        """Record a SUMMARY-level run event at the current clock."""
        if self.obs.level >= _SUMMARY:
            self.obs.emit(_SUMMARY, self.sim.now, event, **fields)

    def epoch_tick(self, node: ClusterNode, interval: float) -> None:
        """One node's iCache epoch; schedules the next tick (on
        ``epoch_next``) while arrivals remain within an interval."""
        now = self.sim.now
        ops = node.scheme.on_epoch(now)
        if self.sanitizer is not None:
            self.sanitizer.assert_clean(node.scheme, now)
        if self.sampler is not None:
            self.sampler.note_gauges(
                now,
                node_id=node.node_id if self.multi_node else None,
                icache_index_bytes=float(node.scheme.cache.index.capacity_bytes),
                icache_read_bytes=float(node.scheme.cache.read.capacity_bytes),
            )
        if ops:
            node.service_volume_ops(self.obs, now, ops)
        next_time = now + interval
        if next_time <= self.last_arrival + interval:
            self.sim.schedule_callback(next_time, self.epoch_tick, *self.epoch_next)

    def scrub_read(self, node: ClusterNode, pba: int, nblocks: int) -> float:
        """The scrubber's read of one region of ``node``'s volume space."""
        # Through the RAID layer so degraded rows reconstruct like any
        # foreground read; the fault hook credits latent errors it
        # finds to the scrubber.
        vop = VolumeOp(OpType.READ, pba, nblocks)
        injector = self.injector
        if injector is not None:
            injector.in_scrub = True
        try:
            return node.service_volume_ops(self.obs, self.sim.now, [vop])
        finally:
            if injector is not None:
                injector.in_scrub = False

    def begin_node_failure(self) -> None:
        """Degrade one node's array and start rebuilding it in place."""
        spec = self.cluster.node_failure
        assert spec is not None
        self.failed_at = self.sim.now
        self.rebuild_ctrl = self.nodes[spec.node].fail_member(
            self.sim, spec, self.obs, self.jobs_runtime, self.sampler,
            self.complete_node_failure,
        )
        if self.sampler is not None:
            self.sampler.note_activity(self.sim.now, "node_failure", 1.0)
        self._summary(EventType.CLUSTER_NODE_FAIL, node=spec.node, disk=spec.disk)

    def complete_node_failure(self, now: float) -> None:
        """Record the failed node's recovery once its array has healed."""
        spec = self.cluster.node_failure
        ctrl = self.rebuild_ctrl
        assert spec is not None and ctrl is not None
        if self.tracer is not None:
            self.tracer.emit(
                self.failed_at, now, "recovery.rebuild",
                node=spec.node, disk=spec.disk, rows_rebuilt=ctrl.rows_rebuilt,
            )
        self._summary(
            EventType.FAULT_RECOVER,
            kind="node_failure",
            latency=now - self.failed_at,
            detail=(
                f"node {spec.node} disk {spec.disk} rebuilt: "
                f"{ctrl.rows_rebuilt} rows rebuilt, "
                f"{ctrl.rows_skipped} skipped"
            ),
        )

    def kill_metadata_node(self) -> None:
        """Take one node's directory replica down (data plane unaffected)."""
        assert self.directory is not None and self.cluster.directory is not None
        kill = self.cluster.directory.kill
        assert kill is not None
        self.directory.kill(kill.node)
        if self.sampler is not None:
            self.sampler.note_activity(self.sim.now, "metadata_kill", 1.0)
        self._summary(
            EventType.FAULT_INJECT,
            kind="metadata_kill",
            detail=f"node {kill.node} directory replica down (data plane unaffected)",
        )

    def stw_sweep(self) -> None:
        """The stop-the-world GC baseline: drain every decrement intent
        now and stall arrivals for the sweep's cost."""
        assert self.refcount_gc is not None and self.cluster.directory is not None
        gc = self.cluster.directory.gc
        assert gc is not None
        now = self.sim.now
        processed = self.refcount_gc.drain_all()
        stall = processed * gc.entry_cost
        self.stw_processed += processed
        self.stw_until = now + stall
        if self.sampler is not None and stall > 0:
            self.sampler.annotate_interval("gc_stw", now, now + stall)
        self._summary(
            EventType.FAULT_INJECT,
            kind="gc_stw",
            detail=(
                f"stop-the-world gc: {processed} intents, "
                f"{stall:.6f}s foreground stall"
            ),
        )

    def begin_rebalance(self) -> None:
        """Change the ring membership and start migrating the displaced
        directory entries."""
        rb = self.cluster.rebalance
        assert rb is not None
        router = self.router
        added = [self.nnodes + i for i in range(rb.add_nodes)]
        for member in added:
            router.add_member(member)
            self.shards.setdefault(member, {})
        if rb.remove_node is not None:
            router.remove_member(rb.remove_node)
        migrator = ShardMigrator(router, self.shards)
        self.migrator = migrator
        if self.sampler is not None:
            self.sampler.note_activity(self.sim.now, "rebalance", 1.0)
        self._summary(
            EventType.CLUSTER_REBALANCE,
            added=len(added),
            removed=0 if rb.remove_node is None else 1,
            moves=migrator.entries_total,
            ring_size=router.ring_size(),
        )
        if migrator.done:
            return
        job = MigrationJob(migrator, rb.entries_per_batch, self.send_background)
        if self.jobs_runtime is not None:
            # The per-link wire charge happens at plan time (sunk cost
            # on a fenced step -- the bytes were already on the wire),
            # the directory mutation only at the fenced commit.
            self.jobs_runtime.submit("migrate", job, rb.interval)
        else:
            pace(self.sim, job, rb.interval, self.note_migration)

    def note_migration(self, now: float) -> None:
        """A paced migration step's progress note and event."""
        migrator = self.migrator
        assert migrator is not None
        if self.sampler is not None:
            self.sampler.note_activity(now, "migration", migrator.progress)
        self._summary(
            EventType.CLUSTER_MIGRATE,
            moved=migrator.entries_migrated, remaining=migrator.remaining,
        )

    # ------------------------------------------------------------------
    # run and result
    # ------------------------------------------------------------------

    def run(self) -> ReplayResult:
        """Run the loop to exhaustion, close the run's checks and build
        the result."""
        sim = self.sim
        obs = self.obs
        if obs.level >= _SUMMARY:
            extra_run: Dict[str, Any] = (
                {"volumes": len(self.scaffold.volumes)} if self.multi else {}
            )
            if self.multi_node:
                extra_run["nodes"] = self.nnodes
            obs.emit(
                _SUMMARY, self.requests[0].time if self.requests else 0.0,
                EventType.RUN_START, trace=self.scaffold.run_name,
                scheme=self.nodes[0].scheme.name, requests=len(self.requests),
                warmup=self.total_warmup, **extra_run,
            )
        sim.run(arrival_handler=self.on_arrival)
        if self.done:
            self.fold()
        if self.jobs_runtime is not None:
            # Mirror job counters into the registry and verify the step
            # ledger (no step lost, none double-applied).
            self.jobs_runtime.finalize()
        if self.sanitizer is not None:
            for node in self.nodes:
                self.sanitizer.assert_clean(node.scheme, sim.now)
        if self.injector is not None:
            # Sweep still-latent faults into the blast-radius histogram
            # and run the end-to-end content oracle over the final state.
            self.injector.finalize()
        elif self.oracles is not None:
            for node in self.nodes:
                self.oracles[node.node_id].assert_clean(node.scheme)
        if obs.level >= _SUMMARY:
            obs.emit(
                _SUMMARY, sim.now, EventType.RUN_END,
                events_processed=sim.events_processed,
                makespan=self.metrics.as_dict()["makespan"],
            )

        result = self.scaffold.result(sim.now)
        if self.cluster_report:
            result.nodes = self._node_summaries()
            result.cluster_stats = self._cluster_stats()
        result.recorder = self.recorder
        result.sanitizer = self.sanitizer
        if self.injector is not None:
            result.fault_stats = self.injector.summary()
        result.spans = self.tracer
        if self.jobs_runtime is not None:
            result.jobs_stats = self.jobs_runtime.summary()
        return result

    def _node_summaries(self) -> List[Dict[str, Any]]:
        """The result's per-node entries."""
        metrics = self.metrics
        tracked = set(metrics.node_ids())
        summaries: List[Dict[str, Any]] = []
        for node in self.nodes:
            entry: Dict[str, Any] = {
                "node_id": node.node_id,
                "name": node.name,
                "volumes": list(node.volume_ids),
                "logical_blocks": node.mapper.total_logical_blocks,
                "capacity_blocks": self.scaffold.node_stats[node.node_id][
                    "capacity_blocks"
                ],
            }
            if node.node_id in tracked:
                entry.update(metrics.node_as_dict(node.node_id))
            else:  # node with no measured traffic
                entry["requests"] = 0
            # Raw whole-run node counters deliberately override the
            # measured-window metric counters of the same name: the
            # per-node breakdown must sum exactly to the cluster totals
            # (which are whole-run).
            entry.update(_fields(node.scheme, "writes_total", "write_requests_removed"))
            entry.update(
                _fields(node, "requests_served", *_NODE_TOTALS, "net_delay_total")
            )
            if self.directory is not None:
                entry["directory"] = self.directory.member_summary(node.node_id)
            summaries.append(entry)
        return summaries

    def _cluster_stats(self) -> Dict[str, Any]:
        """The result's cluster section: ring, fabric, directory and the
        progress of rebalance, node failure and GC."""
        cluster = self.cluster
        directory = self.directory
        stats: Dict[str, Any] = {
            "nodes": self.nnodes,
            "vnodes": cluster.vnodes,
            "ring_members": list(self.router.members),
            "net": _fields(
                cluster.net, "latency", "bandwidth", "lookup_bytes", "entry_bytes"
            ),
            "fabric": self.fabric.summary(),
        }
        for name in _NODE_TOTALS:
            stats[name] = sum(getattr(node, name) for node in self.nodes)
        stats["shard_entries"] = (
            directory.entries_by_member()
            if directory is not None
            else {str(m): len(self.shards[m]) for m in sorted(self.shards)}
        )
        rebalance = cluster.rebalance
        if rebalance is not None:
            rb_stats = _fields(rebalance, "time", "add_nodes", "remove_node")
            if self.migrator is not None:
                rb_stats.update(self.migrator.summary())
            stats["rebalance"] = rb_stats
        node_failure = cluster.node_failure
        if node_failure is not None:
            nf_stats = _fields(node_failure, "node", "disk", "time")
            if self.rebuild_ctrl is not None:
                nf_stats.update(_fields(
                    self.rebuild_ctrl,
                    "done", "progress", "rows_scanned", "rows_rebuilt", "rows_skipped",
                ))
            stats["node_failure"] = nf_stats
        directory_cfg = cluster.directory
        if directory is not None and directory_cfg is not None:
            dir_stats: Dict[str, Any] = dict(directory.summary())
            if directory_cfg.kill is not None:
                dir_stats["kill"] = _fields(directory_cfg.kill, "node", "time")
            gc = directory_cfg.gc
            if self.refcount_gc is not None and gc is not None:
                gc_stats: Dict[str, Any] = dict(self.refcount_gc.summary())
                gc_stats.update(_fields(gc, "mode", "start", "batch"))
                if gc.mode != MODE_ONLINE:
                    gc_stats["stw_stalled_requests"] = self.stw_stalled
                    gc_stats["stw_processed_intents"] = self.stw_processed
                dir_stats["gc"] = gc_stats
            stats["directory"] = dir_stats
        if self.oracles is not None:
            stats["oracle"] = [
                {"node": node_id, **oracle.summary()}
                for node_id, oracle in enumerate(self.oracles)
            ]
        return stats


def _fields(obj: Any, *names: str) -> Dict[str, Any]:
    """``{name: obj.<name>}`` for each of ``names``."""
    return {name: getattr(obj, name) for name in names}
