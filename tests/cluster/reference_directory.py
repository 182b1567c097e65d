"""The per-block directory round, kept as a test-only reference.

Before the replicated directory took one call per write request, the
cluster replay walked a write's blocks one at a time: for block ``i``
it queued a decrement intent for the content the block overwrote
(``note_overwrite``), then ran one ``lookup_register`` round for the
block's fingerprint, which asked ``live_replicas`` for the preference
list -- a fresh clockwise ring walk per fingerprint -- and built a
``LookupResult`` the replay folded into per-destination lookup counts
and ``(origin, replica)`` repair links.

:class:`ReferenceDirectory` keeps that chain verbatim on top of
:class:`ReplicatedDirectory` (same tables, counters and GC hooks), and
:func:`reference_request` is the replay's old per-block loop, so the
differential tests can drive one request stream through both and
require the same counts and the same final state.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.cluster.directory.quorum import (
    DirectoryEntry,
    LookupResult,
    ReplicatedDirectory,
    required,
)
from repro.cluster.router import MASK64, mix64


class ReferenceDirectory(ReplicatedDirectory):
    """The directory with the per-block round and the per-fingerprint
    ring walk."""

    def live_replicas(self, fingerprint: int) -> List[int]:
        router = self.placer.router
        # The ring rebuilt from its public description: every member's
        # vnode tokens, sorted (ties by member id).
        ring = sorted(
            (mix64((((member + 1) & MASK64) << 32) ^ replica), member)
            for member in router.members
            for replica in range(router.vnodes)
        )
        tokens = [token for token, _ in ring]
        n = len(ring)
        i = bisect_right(tokens, mix64(fingerprint & MASK64)) % n
        walk: List[int] = []
        seen: Set[int] = set()
        for k in range(n):
            owner = ring[(i + k) % n][1]
            if owner not in seen:
                seen.add(owner)
                walk.append(owner)
                if len(walk) >= self.placer.replication:
                    break
        return [m for m in walk if m not in self.down]

    def lookup_register(
        self, fingerprint: int, origin: int, new_holder: bool
    ) -> LookupResult:
        self.lookups += 1
        res = LookupResult()
        if new_holder:
            self.live_counts[fingerprint] = (
                self.live_counts.get(fingerprint, 0) + 1
            )
        live = self.live_replicas(fingerprint)
        need = required(self.config.consistency, self.config.replication)
        if not live:
            self.unavailable_lookups += 1
            res.unavailable = True
            return res
        if len(live) < need:
            self.degraded_lookups += 1
            res.degraded = True
            need = len(live)
        contacted = live[:need]
        res.contacted = contacted
        for m in contacted:
            self.lookups_served[m] += 1
        entries: List[Tuple[int, Optional[DirectoryEntry]]] = [
            (m, self.tables[m].get(fingerprint)) for m in contacted
        ]
        present: List[Tuple[int, DirectoryEntry]] = [
            (m, e) for m, e in entries if e is not None
        ]
        if present:
            winner = min(present, key=lambda me: me[1].seq)[1]
            res.writer = winner.writer
            if winner.writer != origin:
                res.remote_dup = True
            stale = [m for m, e in entries if e is None or e.seq != winner.seq]
            if stale:
                self.read_repairs += 1
                self.repair_pushes += len(stale)
                res.repairs = stale
                for m in stale:
                    self.repairs_received[m] += 1
                    self.tables[m][fingerprint] = DirectoryEntry(
                        winner.writer, winner.seq, winner.refs
                    )
            if new_holder:
                if res.remote_dup:
                    self.remote_refs_registered += 1
                for m in contacted:
                    entry = self.tables[m].get(fingerprint)
                    if entry is not None:
                        entry.refs += 1
        else:
            self._seq += 1
            self.registrations += 1
            res.registered = True
            for m in contacted:
                self.tables[m][fingerprint] = DirectoryEntry(
                    origin, self._seq, 1
                )
        return res


def reference_request(
    directory: ReferenceDirectory,
    fingerprints: Sequence[int],
    lba: int,
    shadow: Dict[int, int],
    origin: int,
) -> Tuple[Dict[int, int], Dict[Tuple[int, int], int], int]:
    """The replay's old per-block loop: ``(per_dst, repair_links,
    remote_dups)`` for one write request."""
    per_dst: Dict[int, int] = {}
    repair_links: Dict[Tuple[int, int], int] = {}
    remote_dups = 0
    for i, fp in enumerate(fingerprints):
        old = shadow.get(lba + i)
        new_holder = old != fp
        if old is not None and old != fp:
            directory.note_overwrite(old)
        shadow[lba + i] = fp
        res = directory.lookup_register(fp, origin, new_holder)
        for m in res.contacted:
            if m != origin:
                per_dst[m] = per_dst.get(m, 0) + 1
        for dst in res.repairs:
            key = (origin, dst)
            repair_links[key] = repair_links.get(key, 0) + 1
        if res.remote_dup:
            remote_dups += 1
    return per_dst, repair_links, remote_dups
