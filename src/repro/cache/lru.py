"""Byte-capacity LRU cache.

Entries carry an explicit size so one implementation serves both the
read cache (4 KB data blocks) and the index cache (32 B fingerprint
entries).  Evictions are returned to the caller, which lets owners
feed ghost caches or write victims back to disk.

The cache is generic over its key and value types (``LRUCache[K, V]``);
un-parameterised uses keep the historical ``Any`` behaviour.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Iterable, Iterator, List, Optional, Tuple, TypeVar

from repro.errors import CacheError

K = TypeVar("K")
V = TypeVar("V")

#: (key, value, size) triple describing an evicted entry.
Evicted = Tuple[K, V, int]


class LRUCache(Generic[K, V]):
    """Least-recently-used cache bounded by total entry bytes."""

    def __init__(self, capacity_bytes: int, default_entry_size: int = 1) -> None:
        if capacity_bytes < 0:
            raise CacheError(f"negative capacity {capacity_bytes}")
        if default_entry_size <= 0:
            raise CacheError("default entry size must be positive")
        self.capacity_bytes = capacity_bytes
        self.default_entry_size = default_entry_size
        self._entries: "OrderedDict[K, Tuple[V, int]]" = OrderedDict()
        self._used = 0
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
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self._used

    # ------------------------------------------------------------------

    def get(self, key: K) -> Optional[V]:
        """Look up *key*, promoting it to MRU.  Counts hit/miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[0]

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
        hits = 0
        for key in keys:
            entry = find(key)
            if entry is None:
                append(None)
            else:
                promote(key)
                hits += 1
                append(entry[0])
        self.hits += hits
        self.misses += len(out) - hits
        return out

    def peek(self, key: K) -> Optional[V]:
        """Look up without promoting or counting."""
        entry = self._entries.get(key)
        return None if entry is None else entry[0]

    def put(self, key: K, value: V = None, size: Optional[int] = None) -> List[Evicted[K, V]]:  # type: ignore[assignment]
        """Insert/update *key* as MRU; return entries evicted to fit.

        An entry larger than the whole cache is rejected (returned as
        if immediately evicted) rather than wiping the cache.
        """
        size = self.default_entry_size if size is None else size
        if size <= 0:
            raise CacheError(f"entry size must be positive, got {size}")
        entries = self._entries
        old = entries.pop(key, None)
        if old is not None:
            self._used -= old[1]
        if size > self.capacity_bytes:
            return [(key, value, size)]
        entries[key] = (value, size)
        self._used += size
        if self._used <= self.capacity_bytes:
            return []
        return self._evict_to_fit()

    def put_many(self, keys: Iterable[K], value: V = None) -> List[Evicted[K, V]]:  # type: ignore[assignment]
        """:meth:`put` every key of a batch at the default entry size,
        in order, in one call; returns all the entries evicted to fit.

        Victims, their order and the eviction counter are exactly those
        of the per-key calls.
        """
        size = self.default_entry_size
        entries = self._entries
        pop = entries.pop
        capacity = self.capacity_bytes
        used = self._used
        victims: List[Evicted[K, V]] = []
        evicted = 0
        for key in keys:
            old = pop(key, None)
            if old is not None:
                used -= old[1]
            if size > capacity:
                victims.append((key, value, size))
                continue
            entries[key] = (value, size)
            used += size
            while used > capacity:
                victim, (victim_value, victim_size) = entries.popitem(last=False)
                used -= victim_size
                victims.append((victim, victim_value, victim_size))
                evicted += 1
        self._used = used
        self.evictions += evicted
        return victims

    def remove(self, key: K) -> bool:
        """Drop *key* if present; returns whether it was there."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self._used -= entry[1]
        return True

    def remove_many(self, keys: Iterable[K]) -> None:
        """:meth:`remove` every key of a batch (absent keys are skipped)."""
        pop = self._entries.pop
        for key in keys:
            entry = pop(key, None)
            if entry is not None:
                self._used -= entry[1]

    def resize(self, new_capacity_bytes: int) -> List[Evicted[K, V]]:
        """Change capacity; returns LRU victims shed to fit."""
        if new_capacity_bytes < 0:
            raise CacheError(f"negative capacity {new_capacity_bytes}")
        self.capacity_bytes = new_capacity_bytes
        return self._evict_to_fit()

    def pop_lru(self) -> Optional[Evicted[K, V]]:
        """Evict and return the LRU entry, or ``None`` if empty."""
        if not self._entries:
            return None
        key, (value, size) = self._entries.popitem(last=False)
        self._used -= size
        return (key, value, size)

    def clear(self) -> List[Evicted[K, V]]:
        """Empty the cache, returning everything as victims."""
        victims = [(k, v, s) for k, (v, s) in self._entries.items()]
        self._entries.clear()
        self._used = 0
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

    def _evict_to_fit(self) -> List[Evicted[K, V]]:
        victims: List[Evicted[K, V]] = []
        entries = self._entries
        capacity = self.capacity_bytes
        while self._used > capacity and entries:
            key, (value, size) = entries.popitem(last=False)
            self._used -= size
            victims.append((key, value, size))
        self.evictions += len(victims)
        return victims
