"""Metadata-only ghost cache.

A ghost cache remembers the *keys* of recently evicted entries without
their data (Section III-C: "ghost index and ghost read caches that
store only metadata whose actual data are stored on the back-end
storage devices").  A hit in a ghost cache means: *had this cache been
larger, the access would have hit* -- the signal iCache's cost-benefit
estimator is built on.

The paper bounds ``actual + ghost`` by the total DRAM size, so the
ghost capacity is expressed in the same bytes-of-actual-data units as
the cache it shadows.  Every key stands in for one
``default_entry_size`` entry of that cache, so the byte bound is a
key-count bound (``capacity_bytes // default_entry_size``).  Each key
carries the payload it was recorded with: iCache's ghost index keeps
the swapped-out Index entries parked in the reserved area there, so
they leave with their key.
"""

from __future__ import annotations

from collections import OrderedDict
from types import MappingProxyType
from typing import Any, Generic, Iterable, Iterator, List, Sequence, Tuple, TypeVar

from repro.errors import CacheError

K = TypeVar("K")


class GhostCache(Generic[K]):
    """Bounded LRU of keys, each representing one
    ``default_entry_size``-byte entry of the shadowed cache.

    ``capacity_bytes`` caps the represented bytes, i.e. how much
    actual cache the ghost stands in for.
    """

    def __init__(self, capacity_bytes: int, default_entry_size: int = 1) -> None:
        if capacity_bytes < 0:
            raise CacheError(f"negative ghost capacity {capacity_bytes}")
        if default_entry_size <= 0:
            raise CacheError("default entry size must be positive")
        self.capacity_bytes = capacity_bytes
        self.default_entry_size = default_entry_size
        #: Keys in eviction order, each with its recorded payload.
        self._keys: "OrderedDict[K, Any]" = OrderedDict()
        #: Hits this epoch (the Access Monitor resets these).
        self.hits = 0
        #: Hits over the ghost cache's whole lifetime (observability;
        #: survives :meth:`reset_counters`).
        self.hits_total = 0
        #: Evictions recorded over the lifetime.
        self.evictions_recorded = 0

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: K) -> bool:
        return key in self._keys

    @property
    def slots(self) -> int:
        """Keys the capacity holds."""
        return self.capacity_bytes // self.default_entry_size

    @property
    def used_bytes(self) -> int:
        return len(self._keys) * self.default_entry_size

    @property
    def entries(self) -> "MappingProxyType[K, Any]":
        """Read-only live view of the keys and their payloads, least
        recently evicted first."""
        return MappingProxyType(self._keys)

    def record_eviction(self, key: K) -> None:
        """Remember an evicted key (the least recent keys age out)."""
        self.record_evictions(((key, None),))

    def record_evictions(self, evicted: Sequence[Tuple[K, Any]]) -> None:
        """:meth:`record_eviction` for every ``(key, payload)`` of a batch,
        in order, in one call.

        A re-recorded key keeps its newest payload and becomes the most
        recent; a key aged out takes its payload with it.  A ghost too
        small for one entry ages each key out as it arrives.
        """
        keys = self._keys
        refresh = keys.move_to_end
        popitem = keys.popitem
        slots = self.slots
        held = len(keys)
        for key, payload in evicted:
            if key in keys:
                keys[key] = payload
                refresh(key)
                continue
            keys[key] = payload
            held += 1
            while held > slots:
                popitem(last=False)
                held -= 1
        self.evictions_recorded += len(evicted)

    def hit(self, key: K) -> bool:
        """Check for *key*; on a hit, count it and remove the key
        (the caller is expected to re-admit the entry to the actual
        cache, as ARC does)."""
        return bool(self.hit_many((key,)))

    def hit_many(self, keys: Iterable[K]) -> List[K]:
        """:meth:`hit` every key of a batch, in order; returns the keys
        that hit."""
        present = self._keys
        hits: List[K] = []
        for key in keys:
            if key in present:
                del present[key]
                hits.append(key)
        self.hits += len(hits)
        self.hits_total += len(hits)
        return hits

    def remove_many(self, keys: Iterable[K]) -> None:
        """Silently drop every key of a batch (no hits counted)."""
        pop = self._keys.pop
        for key in keys:
            pop(key, None)

    def remove(self, key: K) -> bool:
        """Silently drop *key* (no hit counted)."""
        if key in self._keys:
            del self._keys[key]
            return True
        return False

    def resize(self, new_capacity_bytes: int) -> List[K]:
        """Change capacity, aging out LRU ghosts as needed."""
        if new_capacity_bytes < 0:
            raise CacheError(f"negative ghost capacity {new_capacity_bytes}")
        self.capacity_bytes = new_capacity_bytes
        keys = self._keys
        slots = self.slots
        dropped: List[K] = []
        while len(keys) > slots:
            dropped.append(keys.popitem(last=False)[0])
        return dropped

    def keys_mru(self) -> Iterator[K]:
        """Keys from most- to least-recently evicted (swap-in order)."""
        return reversed(self._keys)

    def items_mru(self) -> Iterator[Tuple[K, Any]]:
        """``(key, payload)`` from most- to least-recently evicted."""
        return reversed(self._keys.items())

    def reset_counters(self) -> None:
        self.hits = 0
