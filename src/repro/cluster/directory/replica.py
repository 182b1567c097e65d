"""R-way replica placement on the splitmix64 vnode ring.

The replicated fingerprint directory stores every entry on the first
``R`` *distinct* ring members clockwise from the fingerprint's hash --
the classic consistent-hash preference list (Dynamo/Cassandra style,
the casstor layout).  Placement is a pure function of the ring state:

* ``replicas(router, fp, 1)[0] == router.route(fp)`` -- the primary is
  exactly the sharded single-copy owner, which is what lets the R=1
  directory path reproduce the legacy cluster bit-for-bit;
* membership changes disrupt placement boundedly: removing a member
  that is *not* in a fingerprint's replica set leaves that set
  untouched (the exact-removal property, lifted from one owner to R),
  and removing a member that *is* replaces it while every survivor
  keeps its preference position;
* the walk is pure integer arithmetic over frozen tokens -- identical
  across processes, platforms and seeds.

``tests/properties/test_prop_replicas.py`` pins these properties with
hypothesis.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.cluster.router import FingerprintRouter
from repro.errors import ClusterError


def replicas(router: FingerprintRouter, fingerprint: int, r: int) -> List[int]:
    """The ``r`` distinct members holding ``fingerprint``'s directory
    entry, in preference (ring-walk) order.

    With fewer than ``r`` ring members every member is returned; the
    caller sees the effective replication factor as ``len(result)``.
    """
    if r < 1:
        raise ClusterError(f"replication factor must be >= 1, got {r}")
    return router.route_replicas(fingerprint, r)


class ReplicaPlacer:
    """A router bound to a fixed replication factor, with placement
    memoized per ring epoch.

    The directory asks one object "where does this fingerprint live"
    without re-threading ``r`` through every call site.  Each
    fingerprint's replica set is walked once per ring epoch
    (:attr:`FingerprintRouter.epoch`), or placed with a whole
    population by :meth:`place_all`, and kept as a tuple shared by
    every fingerprint with the same set; a membership change drops the
    memo.  Liveness is not placement: callers filter dead members out
    of the memoized set themselves.
    """

    def __init__(self, router: FingerprintRouter, replication: int) -> None:
        if replication < 1:
            raise ClusterError(
                f"replication factor must be >= 1, got {replication}"
            )
        self.router = router
        self.replication = replication
        self._epoch = router.epoch
        self._memo: Dict[int, Tuple[int, ...]] = {}
        self._sets: Dict[Tuple[int, ...], Tuple[int, ...]] = {}

    def memo(self) -> Dict[int, Tuple[int, ...]]:
        """Fingerprint -> replica set for the current ring epoch (only
        fingerprints already placed; :meth:`placement` fills it)."""
        if self._epoch != self.router.epoch:
            self._epoch = self.router.epoch
            self._memo = {}
            self._sets = {}
        return self._memo

    def placement(self, fingerprint: int) -> Tuple[int, ...]:
        """Preference-ordered replica set for ``fingerprint`` (memoized)."""
        memo = self.memo()
        row = memo.get(fingerprint)
        if row is None:
            walk = tuple(self.router.route_replicas(fingerprint, self.replication))
            row = memo[fingerprint] = self._sets.setdefault(walk, walk)
        return row

    def place_all(self, fingerprints: Sequence[int]) -> None:
        """Fill the memo for every fingerprint of ``fingerprints`` in
        one vectorised pass: each fingerprint's ring position
        (:meth:`FingerprintRouter.ring_positions`) picks that position's
        preference list, interned like a walked one, so
        :meth:`placement` then hits for all of them.  Later ring epochs
        drop the memo and place by walking again."""
        router = self.router
        memo = self.memo()
        sets = self._sets
        rows = [
            sets.setdefault(row, row)
            for row in map(tuple, router.preference_lists(self.replication))
        ]
        memo.update(
            zip(fingerprints, map(rows.__getitem__, router.ring_positions(fingerprints)))
        )

    def replicas(self, fingerprint: int) -> List[int]:
        """Preference-ordered replica set for ``fingerprint``."""
        return list(self.placement(fingerprint))

    def primary(self, fingerprint: int) -> int:
        """The first preference -- identical to ``router.route``."""
        return self.router.route(fingerprint)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReplicaPlacer(replication={self.replication}, "
            f"members={self.router.members})"
        )
