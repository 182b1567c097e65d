"""One POD node inside a cluster replay.

A :class:`ClusterNode` bundles everything the single-node replay
builds at module scope -- a private RAID array over private member
disks, one :class:`~repro.baselines.base.DedupScheme` (Index table,
Map table, iCache budget and all), and a node-local
:class:`~repro.storage.namespace.NamespaceMapper` over the volumes
assigned to the node.  Every node is a *complete, standard* POD
instance: the cluster layer above it routes dedup lookups and pays
network costs, but data placement, Select-Dedupe decisions, sanitizer
invariants and the content oracle all remain per-node properties.

Disk service is :func:`repro.storage.raid.service_volume_ops` (the
path the columnar driver's :meth:`RaidArray.service` kernel is pinned
to), with the node's fault hook when a
:class:`~repro.faults.injector.FaultInjector` targets the node.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence, Union

from repro.baselines.base import DedupScheme
from repro.errors import ClusterError
from repro.jobs.jobs import RebuildJob
from repro.jobs.runtime import JobRuntime, pace
from repro.obs.trace import TraceRecorder
from repro.sim.request import DiskOp
from repro.storage.disk import Disk
from repro.storage.namespace import NamespaceMapper
from repro.storage.raid import FaultHook, RaidArray, service_disk_ops, service_volume_ops
from repro.storage.rebuild import RebuildController
from repro.storage.volume import VolumeOp

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.plan import MemberFailureSpec, NodeFailureSpec
    from repro.sim.engine import Simulator


class ClusterNode:
    """A POD node: scheme + RAID array + member disks + volume map.

    Parameters
    ----------
    node_id:
        Dense cluster-wide node index (0..N-1).
    scheme:
        The node's dedup scheme, sized for the node's own volumes.
    disks:
        The node's member disks, ordered by *local* disk index; each
        carries a cluster-unique ``disk_id`` for trace events and
        utilisation keys.
    raid:
        The node's RAID array (geometry must match ``len(disks)``).
    mapper:
        Node-local namespace over the node's volumes, in global
        volume-id order.
    """

    def __init__(
        self,
        node_id: int,
        scheme: DedupScheme,
        disks: Sequence[Disk],
        raid: RaidArray,
        mapper: NamespaceMapper,
    ) -> None:
        if node_id < 0:
            raise ClusterError(f"negative node id {node_id}")
        if len(disks) != raid.geometry.ndisks:
            raise ClusterError(
                f"node {node_id}: raid geometry wants {raid.geometry.ndisks} "
                f"disks, got {len(disks)}"
            )
        self.node_id = node_id
        self.name = f"node{node_id}"
        self.scheme = scheme
        self.disks: List[Disk] = list(disks)
        self.raid = raid
        self.mapper = mapper
        #: Failed member disk (local index), or None when healthy.
        self.failed_disk: Optional[int] = None
        #: Fault-injection hook consulted per disk op (see
        #: :data:`repro.storage.raid.FaultHook`); None keeps disk
        #: service on the ``RaidArray.service`` kernel.
        self.fault_hook: Optional[FaultHook] = None
        #: Global volume ids served by this node, in arrival-merge order.
        self.volume_ids: List[int] = []
        # -- cluster accounting (fed by the replay driver) --------------
        self.remote_lookups = 0
        self.remote_duplicate_blocks = 0
        self.rebalance_misses = 0
        self.net_delay_total = 0.0
        self.requests_served = 0

    def service_volume_ops(
        self, obs: TraceRecorder, now: float, ops: Sequence[VolumeOp]
    ) -> float:
        """RAID-translate the node's volume extents and service them."""
        return service_volume_ops(
            self.raid, self.disks, now, ops, self.failed_disk, obs, self.fault_hook
        )

    def service_disk_ops(
        self, obs: TraceRecorder, now: float, ops: Sequence[DiskOp]
    ) -> float:
        """Issue raw per-disk ops (rebuild, scrub) on the node's disks."""
        return service_disk_ops(self.disks, now, ops, obs, self.fault_hook)

    def fail_member(
        self,
        sim: "Simulator",
        spec: Union["MemberFailureSpec", "NodeFailureSpec"],
        obs: TraceRecorder,
        jobs: Optional[JobRuntime],
        timeline: Optional[Any],
        on_done: Callable[[float], None],
    ) -> RebuildController:
        """Fail member ``spec.disk`` now and rebuild it in place.

        Foreground traffic runs degraded until the rebuild is done.  The
        rebuild is one :class:`~repro.jobs.jobs.RebuildJob` issuing on
        this node's spindles (through the fault hook): submitted to
        ``jobs`` when leased jobs are armed, otherwise paced every
        ``spec.interval`` with its progress noted as ``rebuild``
        activity on ``timeline``.  The array heals before
        ``on_done(now)`` runs.
        """
        self.failed_disk = spec.disk
        su = self.raid.geometry.stripe_unit_blocks
        disk_rows = max(1, self.disks[spec.disk].params.total_blocks // su)
        scheme = self.scheme
        live = (
            scheme.map_table.live_pbas(scheme.written_lbas)
            if spec.capacity_aware
            else None
        )
        ctrl = RebuildController(self.raid, spec.disk, disk_rows, live)
        job = RebuildJob(
            ctrl, spec.rows_per_batch,
            lambda ops: self.service_disk_ops(obs, sim.now, ops),
        )

        def heal(now: float) -> None:
            self.failed_disk = None
            on_done(now)

        if jobs is not None:
            jobs.submit("rebuild", job, spec.interval, on_done=heal)
        else:
            pace(sim, job, spec.interval, on_done=heal, on_step=(
                None if timeline is None
                else lambda now: timeline.note_activity(now, "rebuild", ctrl.progress)
            ))
        return ctrl

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterNode({self.name}, scheme={self.scheme.name!r}, "
            f"volumes={self.volume_ids})"
        )
