"""Consistent-hash fingerprint routing for the sharded dedup domain.

The cluster shards the *fingerprint space* -- not the address space --
across nodes: every fingerprint has exactly one home shard whose node
owns the authoritative "who wrote this content first" record.  POD's
Select-Dedupe keeps each request's blocks co-located on the request
owner's node (the sequentiality rule of Figure 5 is a per-node
property), so the router is consulted only for *dedup lookups*; data
placement never crosses nodes.

The ring is a classic consistent hash with virtual nodes:

* each member contributes ``vnodes`` tokens, derived purely from the
  ``(member id, replica)`` pair through a splitmix64 finaliser --
  **never** Python's process-salted ``hash()``;
* a fingerprint routes to the owner of the first token clockwise from
  its own 64-bit mix;
* removing a member deletes only that member's tokens, so every
  surviving fingerprint keeps its owner (the *exact* removal
  property); adding one member steals only the arcs in front of its
  new tokens, remapping ~K/N of K fingerprints in expectation.

Everything here is integer arithmetic on frozen inputs: routing is
bit-for-bit reproducible across seeds, processes and platforms.
:func:`mix64_array` and :meth:`FingerprintRouter.ring_positions` do the
same arithmetic on a ``uint64`` array (wrapping multiplies), so a whole
fingerprint population lands on the ring in one pass, exactly where the
scalar walk puts each one.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Sequence, Set, Tuple

import numpy as np

from repro.errors import ClusterError

#: 64-bit wrap mask.
MASK64 = (1 << 64) - 1

#: Default virtual nodes per member -- enough that the largest arc is
#: within a few percent of fair share at small cluster sizes.
DEFAULT_VNODES = 64


def mix64(x: int) -> int:
    """The splitmix64 finaliser: a strong, stateless 64-bit mixer.

    Used both to place virtual-node tokens and to hash fingerprints
    onto the ring.  Deterministic by construction (pure integer ops).
    """
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return (x ^ (x >> 31)) & MASK64


def mix64_array(values: np.ndarray) -> np.ndarray:
    """:func:`mix64` of every element of a ``uint64`` array.

    ``uint64`` array arithmetic wraps modulo 2**64, which is exactly
    the scalar mixer's ``& MASK64`` after every step.
    """
    x = values + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


class FingerprintRouter:
    """Consistent-hash ring mapping fingerprints to shard-owner nodes.

    Parameters
    ----------
    members:
        Initial member (node) ids.  Must be non-empty and unique.
    vnodes:
        Virtual nodes per member.
    """

    def __init__(self, members: Sequence[int], vnodes: int = DEFAULT_VNODES) -> None:
        if vnodes <= 0:
            raise ClusterError(f"need at least one virtual node, got {vnodes}")
        self.vnodes = vnodes
        #: Bumped on every membership change (placement memos are valid
        #: for one epoch).
        self.epoch = 0
        self._members: List[int] = []
        self._tokens: List[int] = []
        self._owners: List[int] = []
        for member in members:
            self.add_member(member)
        if not self._members:
            raise ClusterError("a fingerprint router needs at least one member")

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    @property
    def members(self) -> Tuple[int, ...]:
        """Current ring members, in insertion-independent sorted order."""
        return tuple(sorted(self._members))

    def _member_tokens(self, member: int) -> List[int]:
        """The member's virtual-node tokens (stable for all ring states)."""
        return [
            mix64((((member + 1) & MASK64) << 32) ^ replica)
            for replica in range(self.vnodes)
        ]

    def add_member(self, member: int) -> None:
        """Add a node's virtual tokens to the ring."""
        if member < 0:
            raise ClusterError(f"negative member id {member}")
        if member in self._members:
            raise ClusterError(f"member {member} already on the ring")
        self._members.append(member)
        self._rebuild()

    def remove_member(self, member: int) -> None:
        """Remove a node; survivors keep every arc they already owned."""
        if member not in self._members:
            raise ClusterError(f"member {member} not on the ring")
        if len(self._members) == 1:
            raise ClusterError("cannot remove the last ring member")
        self._members.remove(member)
        self._rebuild()

    def _rebuild(self) -> None:
        ring: List[Tuple[int, int]] = []
        for member in self._members:
            for token in self._member_tokens(member):
                ring.append((token, member))
        ring.sort()
        self._tokens = [token for token, _ in ring]
        self._owners = [owner for _, owner in ring]
        self.epoch += 1

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def route(self, fingerprint: int) -> int:
        """The node owning ``fingerprint``'s shard."""
        h = mix64(fingerprint & MASK64)
        i = bisect_right(self._tokens, h) % len(self._tokens)
        return self._owners[i]

    def route_replicas(self, fingerprint: int, count: int) -> List[int]:
        """The first ``count`` *distinct* owners clockwise from the
        fingerprint's ring position (the replica preference order).

        ``route_replicas(fp, 1) == [route(fp)]`` by construction.  When
        the ring has fewer than ``count`` members, every member is
        returned (in preference order).  The walk inherits the ring's
        membership properties: removing a member not in the returned
        list cannot change it (its tokens were never reached before the
        ``count``-th distinct owner), and removing a member that *is*
        in it shifts only the suffix from that member on -- the
        bounded-disruption property the replica placement layer
        (:mod:`repro.cluster.directory.replica`) builds on.
        """
        if count < 1:
            raise ClusterError(f"need at least one replica, got {count}")
        h = mix64(fingerprint & MASK64)
        return self._walk(bisect_right(self._tokens, h) % len(self._tokens), count)

    def _walk(self, position: int, count: int) -> List[int]:
        """The first ``count`` distinct owners clockwise from token
        ``position`` (every member when the ring has fewer)."""
        n = len(self._tokens)
        out: List[int] = []
        seen: Set[int] = set()
        for k in range(n):
            owner = self._owners[(position + k) % n]
            if owner not in seen:
                seen.add(owner)
                out.append(owner)
                if len(out) >= count:
                    break
        return out

    def ring_positions(self, fingerprints: Sequence[int]) -> List[int]:
        """Each fingerprint's ring position: the index of the first
        token clockwise from its mix, as :meth:`route_replicas` finds
        it, for the whole sequence in one vectorised pass."""
        # Masking first makes any Python int (negative, or 2**64 and
        # above) a valid uint64, the scalar path's ``fp & MASK64``.
        h = mix64_array(
            np.array([fp & MASK64 for fp in fingerprints], dtype=np.uint64)
        )
        tokens = np.array(self._tokens, dtype=np.uint64)
        positions = np.searchsorted(tokens, h, side="right") % len(self._tokens)
        return positions.tolist()

    def preference_lists(self, count: int) -> List[List[int]]:
        """Per ring position, the replica preference order of a
        fingerprint that lands there: ``route_replicas(fp, count) ==
        preference_lists(count)[i]`` for a fingerprint at position
        ``i``."""
        if count < 1:
            raise ClusterError(f"need at least one replica, got {count}")
        return [self._walk(i, count) for i in range(len(self._tokens))]

    # ------------------------------------------------------------------

    def ring_size(self) -> int:
        """Number of virtual-node tokens on the ring."""
        return len(self._tokens)

    def __contains__(self, member: int) -> bool:
        return member in self._members

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FingerprintRouter(members={self.members}, vnodes={self.vnodes})"
        )
