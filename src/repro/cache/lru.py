"""LRU cache of uniform-size entries, bounded in bytes.

Every entry occupies ``default_entry_size`` bytes, so one
implementation serves both the read cache (4 KB data blocks) and the
index cache (32 B fingerprint entries).  With uniform entries the byte
bound is an entry-count bound: ``n`` entries of ``s`` bytes fit a
``C``-byte cache exactly when ``n <= C // s`` (:attr:`LRUCache.slots`),
so the cache stores ``key -> value`` and no per-entry size.  Evictions
are returned to the caller as ``(key, value)`` pairs, which lets
owners feed ghost caches or write victims back to disk.

The cache is generic over its key and value types (``LRUCache[K, V]``);
un-parameterised uses keep the historical ``Any`` behaviour.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Iterable, Iterator, List, Optional, Tuple, TypeVar

from repro.errors import CacheError

K = TypeVar("K")
V = TypeVar("V")

#: (key, value) pair describing an evicted entry.
Evicted = Tuple[K, V]

#: Miss marker for lookups: stored values may be ``None`` or falsy.
_MISS = object()


class LRUCache(Generic[K, V]):
    """Least-recently-used cache of ``default_entry_size``-byte entries
    bounded by ``capacity_bytes``."""

    def __init__(self, capacity_bytes: int, default_entry_size: int = 1) -> None:
        if capacity_bytes < 0:
            raise CacheError(f"negative capacity {capacity_bytes}")
        if default_entry_size <= 0:
            raise CacheError("default entry size must be positive")
        self.capacity_bytes = capacity_bytes
        self.default_entry_size = default_entry_size
        self._entries: "OrderedDict[K, V]" = OrderedDict()
        # hit/miss accounting (the Access Monitor reads these).
        self.hits = 0
        self.misses = 0
        #: Entries evicted to make room (capacity pressure signal
        #: surfaced by the observability registry; lifetime counter).
        self.evictions = 0

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[K]:
        """Iterate keys from most- to least-recently used."""
        return reversed(self._entries)

    @property
    def slots(self) -> int:
        """Entries the capacity holds (0: an entry is larger than the
        whole cache)."""
        return self.capacity_bytes // self.default_entry_size

    @property
    def used_bytes(self) -> int:
        return len(self._entries) * self.default_entry_size

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    # ------------------------------------------------------------------

    def get(self, key: K) -> Optional[V]:
        """Look up *key*, promoting it to MRU.  Counts hit/miss."""
        return self.get_many((key,))[0]

    def get_many(self, keys: Iterable[K]) -> List[Optional[V]]:
        """:meth:`get` over a batch of keys, in order, in one call.

        Returns one value (``None`` on a miss) per key; promotions and
        the hit/miss counters are exactly those of the per-key calls.
        """
        entries = self._entries
        find = entries.get
        promote = entries.move_to_end
        out: List[Optional[V]] = []
        append = out.append
        misses = 0
        for key in keys:
            value = find(key, _MISS)
            if value is _MISS:
                append(None)
                misses += 1
            else:
                promote(key)
                append(value)  # type: ignore[arg-type]
        self.misses += misses
        self.hits += len(out) - misses
        return out

    def peek(self, key: K) -> Optional[V]:
        """Look up without promoting or counting."""
        return self._entries.get(key)

    def put(self, key: K, value: V = None) -> List[Evicted[K, V]]:  # type: ignore[assignment]
        """Insert/update *key* as MRU; return entries evicted to fit.

        An entry larger than the whole cache is rejected (returned as
        if immediately evicted) rather than wiping the cache.
        """
        return self.put_many((key,), value)

    def put_many(self, keys: Iterable[K], value: V = None) -> List[Evicted[K, V]]:  # type: ignore[assignment]
        """:meth:`put` every key of a batch, in order, in one call;
        returns all the entries evicted to fit.

        Victims, their order and the eviction counter are exactly those
        of the per-key calls.
        """
        entries = self._entries
        pop = entries.pop
        popitem = entries.popitem
        slots = self.slots
        held = len(entries)
        victims: List[Evicted[K, V]] = []
        evicted = 0
        for key in keys:
            if pop(key, _MISS) is not _MISS:
                held -= 1
            if not slots:
                victims.append((key, value))
                continue
            entries[key] = value
            held += 1
            while held > slots:
                victims.append(popitem(last=False))
                held -= 1
                evicted += 1
        self.evictions += evicted
        return victims

    def remove(self, key: K) -> bool:
        """Drop *key* if present; returns whether it was there."""
        return self._entries.pop(key, _MISS) is not _MISS

    def remove_many(self, keys: Iterable[K]) -> None:
        """:meth:`remove` every key of a batch (absent keys are skipped)."""
        pop = self._entries.pop
        for key in keys:
            pop(key, None)

    def resize(self, new_capacity_bytes: int) -> List[Evicted[K, V]]:
        """Change capacity; returns LRU victims shed to fit."""
        if new_capacity_bytes < 0:
            raise CacheError(f"negative capacity {new_capacity_bytes}")
        self.capacity_bytes = new_capacity_bytes
        entries = self._entries
        slots = self.slots
        victims: List[Evicted[K, V]] = []
        while len(entries) > slots:
            victims.append(entries.popitem(last=False))
        self.evictions += len(victims)
        return victims

    def pop_lru(self) -> Optional[Evicted[K, V]]:
        """Evict and return the LRU entry, or ``None`` if empty."""
        if not self._entries:
            return None
        return self._entries.popitem(last=False)

    def clear(self) -> List[Evicted[K, V]]:
        """Empty the cache, returning everything as victims."""
        victims = list(self._entries.items())
        self._entries.clear()
        return victims

    def keys_lru_order(self) -> List[K]:
        """Keys from least- to most-recently used (for tests)."""
        return list(self._entries)

    # ------------------------------------------------------------------

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0
