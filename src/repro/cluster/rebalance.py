"""Membership changes and paced shard migration.

When the ring gains or loses a member, ownership of some fingerprint
arcs moves.  The directory entries backing those arcs do not teleport:
a :class:`ShardMigrator` walks the displaced entries in deterministic
order and moves them in bounded batches over the network fabric, one
:class:`~repro.jobs.jobs.MigrationJob` step per batch -- paced or
leased exactly like the RAID rebuild's
:class:`~repro.jobs.jobs.RebuildJob`.

Between the ring change (instantaneous, at the spec'd time) and the
moment a given entry lands at its new owner, lookups for that
fingerprint go to the *new* owner and miss.  Dedup treats a miss as
unique content -- exactly POD's miss-as-unique Index-table semantics
-- so correctness is never at stake; the replay counts these
``rebalance_misses`` as the (temporary) dedup-opportunity cost of the
migration.  A write during the window re-registers the fingerprint at
the new owner; the in-flight copy is then superseded and dropped on
arrival (first registration wins, matching the first-writer
semantics of the directory).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.cluster.router import FingerprintRouter
from repro.errors import ClusterError


@dataclass(frozen=True)
class RebalanceSpec:
    """A scheduled membership change.

    Attributes
    ----------
    time:
        Simulated time the ring change takes effect and migration
        starts.
    add_nodes:
        How many fresh directory-only members to add (ids continue
        the dense node numbering).
    remove_node:
        A member id to remove, or None.
    entries_per_batch:
        Directory entries migrated per migration step.
    interval:
        Seconds between migration steps.
    """

    time: float
    add_nodes: int = 0
    remove_node: Optional[int] = None
    entries_per_batch: int = 256
    interval: float = 0.01

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ClusterError(f"rebalance time must be >= 0, got {self.time}")
        if self.add_nodes < 0:
            raise ClusterError(f"negative add_nodes {self.add_nodes}")
        if self.add_nodes == 0 and self.remove_node is None:
            raise ClusterError("a rebalance must add or remove at least one node")
        if self.remove_node is not None and self.remove_node < 0:
            raise ClusterError(f"negative remove_node {self.remove_node}")
        if self.entries_per_batch <= 0:
            raise ClusterError(
                f"entries_per_batch must be positive, got {self.entries_per_batch}"
            )
        if self.interval <= 0:
            raise ClusterError(f"migration interval must be positive, got {self.interval}")


class ShardMigrator:
    """Paced migration of displaced directory entries.

    Built *after* the ring change has been applied to ``router``:
    compares each entry's current shard against its new route and
    queues the movers in deterministic (shard, fingerprint) order.

    ``shards`` maps shard-owner id -> (fingerprint -> first-writer
    node id) and is mutated in place as batches complete.
    """

    def __init__(
        self,
        router: FingerprintRouter,
        shards: Dict[int, Dict[int, int]],
    ) -> None:
        self._shards = shards
        #: (fingerprint, src shard, dst shard, first-writer) move list.
        self._moves: List[Tuple[int, int, int, int]] = []
        for src in sorted(shards):
            if src not in router:
                # Removed member: every entry it held must move.
                displaced = sorted(shards[src])
            else:
                displaced = sorted(
                    fp for fp in shards[src] if router.route(fp) != src
                )
            for fp in displaced:
                self._moves.append((fp, src, router.route(fp), shards[src][fp]))
        self._cursor = 0
        #: Fingerprints still in flight (lookup misses at the new owner).
        self.pending: Set[int] = {fp for fp, _, _, _ in self._moves}
        # -- counters ---------------------------------------------------
        self.entries_total = len(self._moves)
        self.entries_migrated = 0
        self.entries_superseded = 0

    # ------------------------------------------------------------------

    @property
    def done(self) -> bool:
        return self._cursor >= len(self._moves)

    @property
    def remaining(self) -> int:
        return len(self._moves) - self._cursor

    @property
    def progress(self) -> float:
        """Fraction of queued movers processed (1.0 when nothing moved)."""
        if not self._moves:
            return 1.0
        return self._cursor / len(self._moves)

    @property
    def cursor(self) -> int:
        """Committed migration cursor: the next mover to process."""
        return self._cursor

    def plan_batch(
        self, start: int, entries: int
    ) -> Tuple[Dict[Tuple[int, int], int], int]:
        """Plan up to ``entries`` movers from ``start`` *without*
        touching the shards.

        Pure with respect to migrator state (wire costs depend only
        on the immutable move list), so a leased-job worker can
        re-plan the same step after a stale-lease re-claim.  Returns
        ``(links, end)`` where ``links`` is the per-directed-link wire
        cost ``(src, dst) -> entries`` the driver charges the fabric.
        """
        if entries <= 0:
            raise ClusterError(f"batch size must be positive, got {entries}")
        links: Dict[Tuple[int, int], int] = {}
        end = min(start + entries, len(self._moves))
        if end < start:
            end = start
        for i in range(start, end):
            _fp, src, dst, _writer = self._moves[i]
            links[(src, dst)] = links.get((src, dst), 0) + 1
        return links, end

    def commit_batch(self, start: int, end: int) -> None:
        """Apply one planned batch: move the directory entries.

        Entries superseded by a write that already re-registered the
        fingerprint at the destination are dropped (first registration
        wins) but still counted against the batch -- the bytes were
        already on the wire.  Rejects a commit whose start does not
        match the committed cursor -- the hard stop against a fenced
        worker's step being double-applied.
        """
        if start != self._cursor:
            raise ClusterError(
                f"migration commit at entry {start} does not match the "
                f"committed cursor {self._cursor}"
            )
        if end < start or end > len(self._moves):
            raise ClusterError(
                f"migration commit range [{start}, {end}) out of bounds"
            )
        for i in range(start, end):
            fp, src, dst, writer = self._moves[i]
            src_shard = self._shards.get(src)
            if src_shard is not None:
                src_shard.pop(fp, None)
            dst_shard = self._shards.setdefault(dst, {})
            if fp in dst_shard:
                self.entries_superseded += 1
            else:
                dst_shard[fp] = writer
            self.entries_migrated += 1
            self.pending.discard(fp)
        self._cursor = end

    def note_registered(self, fingerprint: int) -> None:
        """A live write re-registered a fingerprint at its new owner;
        the in-flight copy (if any) is now superseded on arrival."""
        self.pending.discard(fingerprint)

    # ------------------------------------------------------------------

    def summary(self) -> Dict[str, int]:
        return {
            "entries_total": self.entries_total,
            "entries_migrated": self.entries_migrated,
            "entries_superseded": self.entries_superseded,
            "entries_remaining": self.remaining,
        }
