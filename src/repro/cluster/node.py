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

from typing import List, Optional, Sequence

from repro.baselines.base import DedupScheme
from repro.errors import ClusterError
from repro.obs.trace import TraceRecorder
from repro.sim.request import DiskOp
from repro.storage.disk import Disk
from repro.storage.namespace import NamespaceMapper
from repro.storage.raid import FaultHook, RaidArray, service_disk_ops, service_volume_ops
from repro.storage.volume import VolumeOp


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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterNode({self.name}, scheme={self.scheme.name!r}, "
            f"volumes={self.volume_ids})"
        )
