"""Consistency levels, read-repair and the replicated directory state.

The replicated fingerprint directory stores one
:class:`DirectoryEntry` per fingerprint on the R-way replica set named
by :mod:`repro.cluster.directory.replica`.  Lookups and registrations
contact the first ``required(level, R)`` *live* replicas in preference
order -- casstor's tunable consistency over the Cassandra directory:

===========  ==========================  =================================
level        replicas contacted          survives (metadata) node kills
===========  ==========================  =================================
``one``      1                           R-1, but lookups may miss entries
``quorum``   floor(R/2)+1                floor((R-1)/2) with no lost entry
``all``      R                           0 without degrading
===========  ==========================  =================================

A killed metadata node (:class:`KillSpec`) stops answering directory
RPCs; its *data plane* keeps serving I/O.  Lookups route around it:
when fewer than ``required`` replicas are live the lookup degrades to
the survivors (``degraded_lookups``), and when none are live the
fingerprint is treated as unique -- POD's miss-as-unique semantics,
counted as ``unavailable_lookups``.

Because writes only reach the contacted subset, replicas diverge: a
kill shifts the contact window onto a replica that never saw the
registration.  A lookup that observes divergence among the replicas it
contacted pushes the winning entry (lowest registration sequence --
the true first writer) to the stale ones and counts a *read repair*;
the driver charges the push's per-link wire cost and emits a
``directory.repair`` span.

Remote-reference bookkeeping rides the same machinery: every logical
block that holds a fingerprint's content registers a reference on the
contacted replicas (``refs``), every overwrite queues a decrement
intent, and the online GC (:mod:`repro.cluster.directory.gc`) applies
the decrements in journaled, lease-fenced batches.  ``live_counts`` is
the independently maintained ground truth (blocks currently holding
each content) that proves no live entry is ever collected.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.cluster.directory.gc import GcSpec
from repro.cluster.directory.replica import ReplicaPlacer
from repro.cluster.router import FingerprintRouter
from repro.errors import ClusterError


class Consistency(str, Enum):
    """Read/write consistency level of the replicated directory."""

    ONE = "one"
    QUORUM = "quorum"
    ALL = "all"


def required(level: Consistency, replication: int) -> int:
    """Replicas that must acknowledge a lookup or registration."""
    if replication < 1:
        raise ClusterError(f"replication factor must be >= 1, got {replication}")
    if level is Consistency.ONE:
        return 1
    if level is Consistency.QUORUM:
        return replication // 2 + 1
    return replication


@dataclass(frozen=True)
class KillSpec:
    """Kill one node's *metadata* (directory) role at a simulated time.

    The node's data plane -- its array, scheme and volumes -- keeps
    serving; only its directory replica stops answering.  Failure
    detection is modelled as instantaneous cluster-wide knowledge
    (gossip abstracted away), so peers skip the dead replica rather
    than paying a timeout.
    """

    node: int
    time: float

    def __post_init__(self) -> None:
        if self.node < 0:
            raise ClusterError(f"negative kill node id {self.node}")
        if self.time < 0:
            raise ClusterError(f"kill time must be >= 0, got {self.time}")


@dataclass(frozen=True)
class DirectoryConfig:
    """Replicated-directory options (frozen; rides in ClusterConfig).

    ``None`` anywhere a :class:`DirectoryConfig` is accepted means the
    legacy single-copy sharded directory -- the replay then takes
    exactly the pre-directory code path and stays bit-identical per
    seed (golden-tested).
    """

    replication: int = 1
    consistency: Consistency = Consistency.QUORUM
    gc: Optional[GcSpec] = None
    kill: Optional[KillSpec] = None

    def __post_init__(self) -> None:
        if self.replication < 1:
            raise ClusterError(
                f"replication factor must be >= 1, got {self.replication}"
            )
        if not isinstance(self.consistency, Consistency):
            raise ClusterError(
                f"unknown consistency level {self.consistency!r}"
            )


class DirectoryEntry:
    """One replica's copy of a fingerprint's directory record."""

    __slots__ = ("writer", "seq", "refs")

    def __init__(self, writer: int, seq: int, refs: int) -> None:
        #: First-writer node id (the node owning the physical block).
        self.writer = writer
        #: Global registration sequence; the lowest seq wins a
        #: divergence (it is the true first registration).
        self.seq = seq
        #: References: logical blocks cluster-wide holding this content,
        #: as seen by this replica (views converge via read repair).
        self.refs = refs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DirectoryEntry(writer={self.writer}, seq={self.seq}, refs={self.refs})"


class LookupResult:
    """Outcome of one fingerprint lookup+register round."""

    __slots__ = (
        "contacted",
        "repairs",
        "writer",
        "remote_dup",
        "registered",
        "degraded",
        "unavailable",
    )

    def __init__(self) -> None:
        #: Replicas contacted, in preference order (wire cost basis).
        self.contacted: List[int] = []
        #: Replicas that received a read-repair push (entry_bytes each).
        self.repairs: List[int] = []
        #: Winning first-writer node, or None on a directory miss.
        self.writer: Optional[int] = None
        #: True when the winner is a different node than the origin.
        self.remote_dup = False
        #: True when this lookup registered a fresh entry.
        self.registered = False
        #: Fewer live replicas than the consistency level wanted.
        self.degraded = False
        #: No live replica at all; treated as unique, nothing recorded.
        self.unavailable = False


class RequestRound:
    """One write request's blocks for
    :meth:`ReplicatedDirectory.lookup_register`, and the wire tallies
    the call fills in."""

    __slots__ = (
        "fingerprints", "lba", "shadow", "per_dst", "repair_links", "remote_dups"
    )

    def __init__(
        self, fingerprints: Sequence[int], lba: int, shadow: Dict[int, int]
    ) -> None:
        #: Block ``i`` writes ``fingerprints[i]`` at address ``lba + i``.
        self.fingerprints = fingerprints
        self.lba = lba
        #: The origin's address -> fingerprint it holds (updated).
        self.shadow = shadow
        #: Remote member -> lookups it served.
        self.per_dst: Dict[int, int] = {}
        #: ``(origin, stale replica)`` -> read-repair pushes.
        self.repair_links: Dict[Tuple[int, int], int] = {}
        #: Blocks whose first writer is another node.
        self.remote_dups = 0


# A route's liveness (the last slot of a route-cache row).
_LIVE, _DEGRADED, _UNAVAILABLE = 0, 1, 2


class ReplicatedDirectory:
    """R-way replicated fingerprint directory with read repair.

    ``tables[m]`` is member ``m``'s replica table (fingerprint ->
    :class:`DirectoryEntry`).  All mutation goes through
    :meth:`lookup_register` (one call per write block or per write
    request), :meth:`note_overwrite` and the GC's decrement commits, each
    deterministic in arrival order.
    """

    def __init__(
        self,
        router: FingerprintRouter,
        nnodes: int,
        config: DirectoryConfig,
    ) -> None:
        if config.replication > nnodes:
            raise ClusterError(
                f"replication factor {config.replication} exceeds the "
                f"{nnodes}-node cluster"
            )
        self.config = config
        self.placer = ReplicaPlacer(router, config.replication)
        self._need = required(config.consistency, config.replication)
        self.tables: Dict[int, Dict[int, DirectoryEntry]] = {
            n: {} for n in range(nnodes)
        }
        #: Members whose directory replica is dead (KillSpec fired).
        self.down: Set[int] = set()
        #: Ground truth: content fingerprint -> logical blocks holding
        #: it right now, maintained by plain counting independent of
        #: the replicated refs (the "no live block collected" witness).
        self.live_counts: Dict[int, int] = {}
        #: Queued refcount-decrement intents, in overwrite order.
        self.decrement_intents: List[int] = []
        self._seq = 0
        # Route cache: interned placement -> [contacted members, their
        # tables, blocks routed in the current request, liveness].
        # Valid for one placement memo (ring epoch) and one ``down``.
        self._routes: Dict[Tuple[int, ...], List[Any]] = {}
        self._routes_memo: Optional[Dict[int, Tuple[int, ...]]] = None
        self._routes_down = 0
        # -- counters ---------------------------------------------------
        self.lookups = 0
        self.registrations = 0
        self.read_repairs = 0
        self.repair_pushes = 0
        self.degraded_lookups = 0
        self.unavailable_lookups = 0
        self.remote_refs_registered = 0
        self.kills = 0
        #: Per-member service counters (replica-side view).
        self.lookups_served: Dict[int, int] = {n: 0 for n in range(nnodes)}
        self.repairs_received: Dict[int, int] = {n: 0 for n in range(nnodes)}

    # ------------------------------------------------------------------
    # membership / failure
    # ------------------------------------------------------------------

    def kill(self, member: int) -> None:
        """Stop ``member``'s directory replica answering (data plane
        unaffected).  Idempotent."""
        if member not in self.tables:
            raise ClusterError(f"kill names unknown member {member}")
        if member not in self.down:
            self.down.add(member)
            self.kills += 1

    def live_replicas(self, fingerprint: int) -> List[int]:
        """Preference-ordered replica set minus dead members."""
        placement = self.placer.placement(fingerprint)
        if not self.down:
            return list(placement)
        return [m for m in placement if m not in self.down]

    # ------------------------------------------------------------------
    # the lookup + register + read-repair round
    # ------------------------------------------------------------------

    def _route_cache(
        self, memo: Dict[int, Tuple[int, ...]]
    ) -> Dict[Tuple[int, ...], List[Any]]:
        """The route cache for this placement memo and ``down`` set,
        emptied when either changed since it was filled."""
        if memo is not self._routes_memo or len(self.down) != self._routes_down:
            self._routes = {}
            self._routes_memo = memo
            self._routes_down = len(self.down)
        return self._routes

    def _route(self, placement: Tuple[int, ...]) -> List[Any]:
        """Cache and return ``placement``'s route: its first
        ``required`` live replicas (all live ones when fewer; none when
        every replica is dead) and their tables."""
        down = self.down
        live = tuple(m for m in placement if m not in down)
        if not live:
            state = _UNAVAILABLE
        elif len(live) < self._need:
            state = _DEGRADED
        else:
            state = _LIVE
            live = live[: self._need]
        route = [live, tuple(self.tables[m] for m in live), 0, state]
        self._routes[placement] = route
        return route

    def lookup_register(
        self,
        fingerprint: int,
        origin: int,
        new_holder: bool,
        *,
        request: Optional[RequestRound] = None,
    ) -> Optional[LookupResult]:
        """One write block's directory round, or one write request's.

        Consults the first ``required`` live replicas in preference
        order; registers a fresh first-writer entry on a miss; repairs
        divergent contacted replicas on a hit; for a ``new_holder``
        counts one more logical block holding this content.  Returns
        everything the driver needs to charge wire costs.

        With ``request`` the call runs that whole write request
        instead, block by block (``fingerprint`` and ``new_holder`` are
        not read): block ``i`` first overwrites ``lba + i`` in the
        request's shadow -- replaced content gets a decrement intent,
        and a block that changes content is a new holder -- then does
        the round above.  The request's wire tallies land in
        ``request`` and the call returns ``None``.
        """
        if request is None:
            return self._lookup_block(fingerprint, origin, new_holder)
        memo = self.placer.memo()
        routes = self._route_cache(memo)
        placement = self.placer.placement
        new_route = self._route
        received = self.repairs_received
        live_counts = self.live_counts
        overwrite = self.note_overwrite
        seq = self._seq
        shadow = request.shadow
        repair_links = request.repair_links
        # Routes this request used, in first-use order; each counts its
        # blocks until the fold below.
        used: List[List[Any]] = []
        remote_dups = registrations = read_repairs = repair_pushes = 0
        remote_refs = 0
        for addr, fp in enumerate(request.fingerprints, request.lba):
            old = shadow.get(addr)
            new_holder = old != fp
            if new_holder:
                if old is not None:
                    overwrite(old)
                shadow[addr] = fp
                live_counts[fp] = live_counts.get(fp, 0) + 1
            where = memo.get(fp) or placement(fp)
            route = routes.get(where) or new_route(where)
            blocks = route[2]
            if not blocks:
                used.append(route)
            route[2] = blocks + 1
            tables = route[1]
            # The winner is the lowest seq (the true first registration,
            # first in preference order on a tie); any missing or
            # different copy among the contacted ones is divergence.
            winner: Optional[DirectoryEntry] = None
            diverged = False
            for table in tables:
                entry = table.get(fp)
                if entry is None:
                    diverged = True
                elif winner is None:
                    winner = entry
                elif entry.seq != winner.seq:
                    diverged = True
                    if entry.seq < winner.seq:
                        winner = entry
            if winner is None:
                if not tables:
                    # Every replica dead: miss-as-unique, nothing recorded.
                    continue
                # Directory miss: register origin as first writer on the
                # contacted replicas (the uncontacted ones stay stale
                # until a read repair finds them).
                seq += 1
                registrations += 1
                for table in tables:
                    table[fp] = DirectoryEntry(origin, seq, 1)
                continue
            if diverged:
                # Read repair: contacted replicas whose copy is missing
                # or lost the seq race re-converge to the winner; the
                # origin coordinates the push (Cassandra style).
                wseq = winner.seq
                for m, table in zip(route[0], tables):
                    entry = table.get(fp)
                    if entry is None or entry.seq != wseq:
                        received[m] += 1
                        repair_pushes += 1
                        table[fp] = DirectoryEntry(winner.writer, wseq, winner.refs)
                        link = (origin, m)
                        repair_links[link] = repair_links.get(link, 0) + 1
                read_repairs += 1
            if winner.writer != origin:
                remote_dups += 1
                if new_holder:
                    remote_refs += 1
            if new_holder:
                for table in tables:
                    table[fp].refs += 1
        served = self.lookups_served
        per_dst = request.per_dst
        for route in used:
            contacted, _tables, blocks, state = route
            route[2] = 0
            if state == _DEGRADED:
                self.degraded_lookups += blocks
            elif state == _UNAVAILABLE:
                self.unavailable_lookups += blocks
            for m in contacted:
                served[m] += blocks
                if m != origin:
                    per_dst[m] = per_dst.get(m, 0) + blocks
        self._seq = seq
        self.lookups += len(request.fingerprints)
        self.registrations += registrations
        self.read_repairs += read_repairs
        self.repair_pushes += repair_pushes
        self.remote_refs_registered += remote_refs
        request.remote_dups += remote_dups
        return None

    def _lookup_block(
        self, fingerprint: int, origin: int, new_holder: bool
    ) -> LookupResult:
        """The one-block form: a one-block request round, read back
        into a :class:`LookupResult`."""
        # A shadow that already holds the content makes the block an
        # existing holder; an empty one makes it a new holder.
        rnd = RequestRound(
            (fingerprint,), 0, {} if new_holder else {0: fingerprint}
        )
        registrations = self.registrations
        self.lookup_register(fingerprint, origin, new_holder, request=rnd)
        res = LookupResult()
        contacted, tables, _blocks, state = self._routes[
            self.placer.placement(fingerprint)
        ]
        if state == _UNAVAILABLE:
            res.unavailable = True
            return res
        res.degraded = state == _DEGRADED
        res.contacted = list(contacted)
        if self.registrations != registrations:
            res.registered = True
            return res
        # Every contacted copy holds the winner's entry after the round.
        res.writer = tables[0][fingerprint].writer
        res.remote_dup = rnd.remote_dups > 0
        res.repairs = [m for _origin, m in rnd.repair_links]
        return res

    # ------------------------------------------------------------------
    # refcount decrements (consumed by the GC)
    # ------------------------------------------------------------------

    def note_overwrite(self, old_fingerprint: int) -> None:
        """A logical block stopped holding ``old_fingerprint``: truth
        count drops now, the replicated decrement is deferred to GC."""
        count = self.live_counts.get(old_fingerprint, 0)
        if count > 1:
            self.live_counts[old_fingerprint] = count - 1
        elif count == 1:
            del self.live_counts[old_fingerprint]
        self.decrement_intents.append(old_fingerprint)

    @property
    def pending_decrements(self) -> int:
        """Intents enqueued and not yet consumed by a GC commit
        (the GC owns the consumption cursor)."""
        return len(self.decrement_intents)

    # ------------------------------------------------------------------
    # summaries
    # ------------------------------------------------------------------

    def entries_by_member(self) -> Dict[str, int]:
        return {
            str(member): len(self.tables[member])
            for member in sorted(self.tables)
        }

    def member_summary(self, member: int) -> Dict[str, object]:
        """Per-node directory section for the run report."""
        table = self.tables[member]
        return {
            "entries": len(table),
            "refs": sum(table[fp].refs for fp in sorted(table)),
            "lookups_served": self.lookups_served[member],
            "repairs_received": self.repairs_received[member],
            "down": member in self.down,
        }

    def summary(self) -> Dict[str, object]:
        """Cluster-level directory section for the run report."""
        return {
            "replication": self.config.replication,
            "consistency": self.config.consistency.value,
            "lookups": self.lookups,
            "registrations": self.registrations,
            "read_repairs": self.read_repairs,
            "repair_pushes": self.repair_pushes,
            "degraded_lookups": self.degraded_lookups,
            "unavailable_lookups": self.unavailable_lookups,
            "remote_refs_registered": self.remote_refs_registered,
            "entries": self.entries_by_member(),
            "live_fingerprints": len(self.live_counts),
            "down_members": sorted(self.down),
            "kills": self.kills,
        }
