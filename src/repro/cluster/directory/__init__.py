"""Replicated fingerprint directory: the cluster-wide dedup domain.

PR 5's cluster sharded the fingerprint space one-copy-per-owner and
merely *counted* cross-node duplicates.  This package turns that into
a genuine global dedup domain, following the casstor blueprint
(Cassandra-backed dedup directory) with an online reclamation story it
lacks:

* :mod:`~repro.cluster.directory.replica` -- R-way replica placement
  on the splitmix64 vnode ring (preference lists, bounded disruption);
* :mod:`~repro.cluster.directory.quorum` -- ONE/QUORUM/ALL consistency
  over the PR 5 network fabric, metadata-node kills, read repair, and
  remote-reference bookkeeping;
* :mod:`~repro.cluster.directory.gc` -- online refcount GC as a
  lease-fenced job, journaled through
  :class:`~repro.storage.journal.MapJournal`, with a stop-the-world
  baseline for the disruption benchmark.

Everything is gated on ``ClusterConfig.directory``: ``None`` keeps the
legacy single-copy path bit-identical per seed.
"""

from repro.cluster.directory.gc import (
    MODE_ONLINE,
    MODE_STW,
    GcJob,
    GcSpec,
    RefcountGc,
)
from repro.cluster.directory.quorum import (
    Consistency,
    DirectoryConfig,
    DirectoryEntry,
    KillSpec,
    LookupResult,
    ReplicatedDirectory,
    RequestRound,
    required,
)
from repro.cluster.directory.replica import ReplicaPlacer, replicas

__all__ = [
    "MODE_ONLINE",
    "MODE_STW",
    "Consistency",
    "DirectoryConfig",
    "DirectoryEntry",
    "GcJob",
    "GcSpec",
    "KillSpec",
    "LookupResult",
    "RefcountGc",
    "ReplicaPlacer",
    "ReplicatedDirectory",
    "RequestRound",
    "replicas",
    "required",
]
