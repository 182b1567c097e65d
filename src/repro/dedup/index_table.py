"""The Index table: in-memory LRU of *hot* fingerprint entries.

From Section III-B:

  "In order to reduce the memory space and processing overhead
  required to store and query the huge hash index table, POD only
  stores the hot hash index entries in memory.  The Index table [...]
  is organized in an LRU form and maintains the frequency of write
  requests by using the Count variable (initialized to 0).  When a
  write request hits the Index table, the count value of the
  corresponding hash index entry is incremented."

A lookup miss therefore means "treat the chunk as unique" -- POD never
does on-disk index lookups (that is Full-Dedupe's bottleneck, Section
II-B).  The table keeps a reverse PBA -> fingerprint map so that
overwriting a physical block invalidates any stale entry pointing at
it.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cache.lru import LRUCache
from repro.constants import INDEX_ENTRY_SIZE
from repro.dedup.map_table import FREED, WROTE, Change
from repro.errors import DedupError


class IndexEntry:
    """One hot fingerprint: where its data lives and how popular it is.

    Hand-written ``__slots__`` class (not a dataclass): the Index table
    builds one per admitted block.  Equality and repr are the
    dataclass's, and like it an entry is mutable and unhashable.
    """

    __slots__ = ("pba", "count")

    pba: int
    count: int

    def __init__(self, pba: int, count: int = 0) -> None:
        self.pba = pba
        self.count = count

    def __repr__(self) -> str:
        return f"IndexEntry(pba={self.pba!r}, count={self.count!r})"

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.pba == other.pba and self.count == other.count

    __hash__ = None  # type: ignore[assignment]


_new_entry = object.__new__


class IndexTable:
    """Fingerprint -> :class:`IndexEntry` over a shared LRU cache.

    The byte budget of the underlying :class:`LRUCache` is owned by
    the cache-partition object (fixed or iCache), so resizing the
    partition transparently shrinks/grows this table.
    """

    def __init__(self, lru: LRUCache) -> None:
        if lru.default_entry_size != INDEX_ENTRY_SIZE:
            raise DedupError(
                "index table expects an LRU sized in "
                f"{INDEX_ENTRY_SIZE}-byte entries"
            )
        self.lru = lru
        self._by_pba: Dict[int, int] = {}
        #: Evicted fingerprints since last drain (fed to ghost caches).
        self._evicted: List[Tuple[int, IndexEntry]] = []

    def __len__(self) -> int:
        return len(self.lru)

    def __contains__(self, fingerprint: int) -> bool:
        return fingerprint in self.lru

    # ------------------------------------------------------------------

    def lookup(self, fingerprint: int) -> Optional[IndexEntry]:
        """Query a write chunk's fingerprint.

        A hit promotes the entry and increments its ``Count``
        (capturing the temporal locality and frequency of writes).
        """
        entry = self.lru.get(fingerprint)
        if entry is None:
            return None
        entry.count += 1
        return entry

    def probe(
        self, fingerprints: Sequence[int]
    ) -> Tuple[List[Optional[int]], List[int]]:
        """:meth:`lookup` every chunk fingerprint of one write, in order.

        One call per request on the write path.  Returns the duplicate
        PBA per chunk (``None`` on a miss) and the missed fingerprints
        in chunk order; promotions, ``Count`` increments and hit/miss
        counters equal those of the per-chunk lookups.  The LRU lookup
        is inlined (entries are ``IndexEntry`` records, never ``None``).
        """
        lru = self.lru
        entries = lru._entries  # pod: ignore[POD007]
        find = entries.get
        promote = entries.move_to_end
        pbas: List[Optional[int]] = []
        missed: List[int] = []
        add_pba = pbas.append
        add_miss = missed.append
        for fingerprint in fingerprints:
            entry = find(fingerprint)
            if entry is None:
                add_pba(None)
                add_miss(fingerprint)
            else:
                promote(fingerprint)
                entry.count += 1
                add_pba(entry.pba)
        lru.misses += len(missed)
        lru.hits += len(pbas) - len(missed)
        return pbas, missed

    def peek(self, fingerprint: int) -> Optional[IndexEntry]:
        """Query without promoting or counting (stats/tests)."""
        return self.lru.peek(fingerprint)

    @property
    def pba_claims(self) -> "MappingProxyType[int, int]":
        """Read-only live view of the reverse PBA -> fingerprint map.

        The sanctioned inspection surface for validators: the POD
        sanitizer checks this map is an exact bijection with the live
        entries (``INV-INDEX-PBA``).
        """
        return MappingProxyType(self._by_pba)

    def insert(self, fingerprint: int, pba: int) -> None:
        """Insert a new hot entry with ``Count = 0``.

        If another fingerprint already claims ``pba`` the stale claim
        is dropped first (the block's content has changed).  The
        one-block form of :meth:`apply`.
        """
        self.apply(((WROTE, pba, fingerprint),))

    def apply(self, changes: Iterable[Change]) -> None:
        """Replay one write's change log against the table in one call,
        in commit order.

        A ``WROTE`` block is admitted: its PBA's previous claimant and
        the fingerprint's stale claim are dropped, the new entry
        (``Count = 0``) becomes MRU and LRU entries are evicted to fit.
        A recycled ``FREED`` block's claim is dropped as by
        :meth:`invalidate_pba`.  The LRU put and eviction are inlined
        (uniform entries: the bound is :attr:`LRUCache.slots`); the LRU order, the PBA reverse map, the
        evictions queued for :meth:`drain_evicted` and the eviction
        counter are those of one call per block.  Order matters: a
        recycled block's invalidation frees a slot that an admission
        after it would otherwise have evicted for.
        """
        lru = self.lru
        entries = lru._entries  # pod: ignore[POD007]
        pop = entries.pop
        popitem = entries.popitem
        slots = lru.slots
        held = len(entries)
        by_pba = self._by_pba
        claim = by_pba.pop
        evicted = self._evicted
        queued = len(evicted)
        queue = evicted.append
        for kind, pba, arg in changes:
            if kind == WROTE:
                claimant = claim(pba, None)
                if claimant is not None and pop(claimant, None) is not None:
                    held -= 1
                old = pop(arg, None)
                if old is not None:
                    held -= 1
                    claim(old.pba, None)
                if not slots:
                    continue  # larger than the whole table: nothing kept
                # ``IndexEntry(pba)`` without the ``__init__`` frame.
                entry = _new_entry(IndexEntry)
                entry.pba = pba
                entry.count = 0
                entries[arg] = entry
                held += 1
                by_pba[pba] = arg
                while held > slots:
                    victim = popitem(last=False)
                    held -= 1
                    claim(victim[1].pba, None)
                    queue(victim)
            elif kind == FREED and arg:
                claimant = claim(pba, None)
                if claimant is not None and pop(claimant, None) is not None:
                    held -= 1
        lru.evictions += len(evicted) - queued

    def remove(self, fingerprint: int) -> bool:
        """Drop an entry (not counted as an eviction)."""
        entry = self.lru.peek(fingerprint)
        if entry is None:
            return False
        self._by_pba.pop(entry.pba, None)
        return self.lru.remove(fingerprint)

    def invalidate_pba(self, pba: int) -> bool:
        """The content at ``pba`` is about to change: drop any entry
        pointing at it so future lookups cannot dedupe onto stale data."""
        fingerprint = self._by_pba.pop(pba, None)
        if fingerprint is None:
            return False
        self.lru.remove(fingerprint)
        return True

    def resize(self, new_capacity_bytes: int) -> List[Tuple[int, IndexEntry]]:
        """Change the table's byte budget (iCache repartitioning).

        Returns the evicted ``(fingerprint, entry)`` pairs, with the
        PBA reverse map kept consistent -- resizing the underlying LRU
        directly would leave stale PBA claims behind that block later
        swap-ins and invalidations.
        """
        evicted = self.lru.resize(new_capacity_bytes)
        claim = self._by_pba.pop
        for _key, value in evicted:
            claim(value.pba, None)
        return evicted

    def restore(self, fingerprint: int, entry: IndexEntry) -> bool:
        """Swap a previously evicted entry back in (iCache swap-in).

        Unlike :meth:`insert`, restoring does not treat the entry as a
        claim about fresh content: it only succeeds when the slot is
        free, the fingerprint is not already present, and no other
        fingerprint currently claims the entry's PBA.
        """
        return bool(self.restore_many(((fingerprint, entry),)))

    def restore_many(
        self, candidates: Iterable[Tuple[int, IndexEntry]]
    ) -> List[int]:
        """:meth:`restore` candidates in order, in one call, until the
        table has no free slot; returns the restored fingerprints."""
        lru = self.lru
        entries = lru._entries  # pod: ignore[POD007]
        free = lru.slots - len(entries)
        by_pba = self._by_pba
        restored: List[int] = []
        for fingerprint, entry in candidates:
            if free <= 0:
                break
            if fingerprint in entries or entry.pba in by_pba:
                continue
            entries[fingerprint] = entry
            by_pba[entry.pba] = fingerprint
            restored.append(fingerprint)
            free -= 1
        return restored

    def drain_evicted(self) -> List[Tuple[int, IndexEntry]]:
        """Return and clear the evictions since the last drain.

        The iCache feeds these into its ghost index cache.
        """
        out = self._evicted
        self._evicted = []
        return out

    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, float]:
        return {
            "entries": len(self.lru),
            "hits": self.lru.hits,
            "misses": self.lru.misses,
            "hit_ratio": self.lru.hit_ratio,
        }
