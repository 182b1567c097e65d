"""The per-key cache chain, kept as a test-only reference.

Before the caches took one call per request, a read probed the read
cache block by block (``ICache.read_lookup`` -> ``LRUCache.get`` ->
``GhostCache.hit`` on a miss) and inserted its misses one at a time
(``read_insert`` -> ``LRUCache.put`` -> ``GhostCache.record_eviction``
per victim); a write's index evictions were parked one entry at a
time, and an iCache swap-in sorted its candidates with a Python key
and restored them through ``IndexTable.restore`` one by one.

The classes below are that chain (``IndexTable.insert`` included),
verbatim in behaviour: subclasses
whose per-key methods share no code with the request-level kernels
they are compared with.  :class:`ReferenceICache` (which swaps its
ghosts and its attached Index table to the per-key classes) and
:class:`ReferencePartitionedCache` put it behind the cache surface the
schemes use, so the differential tests can run a whole scheme on it.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence, Tuple

from repro.cache.ghost import GhostCache
from repro.cache.partition import PartitionedCache
from repro.constants import BLOCK_SIZE, INDEX_ENTRY_SIZE
from repro.core.icache import ICache, ICacheConfig
from repro.dedup.index_table import IndexEntry, IndexTable
from repro.errors import CacheError
from repro.obs.events import EventType, TraceLevel


# ----------------------------------------------------------------------
# GhostCache and IndexTable, one key at a time
# ----------------------------------------------------------------------


class ReferenceGhostCache(GhostCache):
    """:class:`GhostCache` recording and probing one key at a time."""

    def record_eviction(self, key: Any, size: Optional[int] = None) -> List[Any]:
        size = self.default_entry_size if size is None else size
        if size <= 0:
            raise CacheError(f"entry size must be positive, got {size}")
        self.evictions_recorded += 1
        old = self._keys.pop(key, None)
        if old is not None:
            self._used -= old
        if size > self.capacity_bytes:
            return [key]
        self._keys[key] = size
        self._used += size
        dropped: List[Any] = []
        while self._used > self.capacity_bytes and self._keys:
            k, s = self._keys.popitem(last=False)
            self._used -= s
            dropped.append(k)
        return dropped

    def hit(self, key: Any) -> bool:
        if key in self._keys:
            self._used -= self._keys.pop(key)
            self.hits += 1
            self.hits_total += 1
            return True
        return False


class ReferenceIndexTable(IndexTable):
    """:class:`IndexTable` admitting and restoring one entry at a time."""

    def insert(self, fingerprint: int, pba: int) -> None:
        claimant = self._by_pba.pop(pba, None)
        if claimant is not None:
            self.lru.remove(claimant)
        stale = self.lru.peek(fingerprint)
        if stale is not None:
            self._by_pba.pop(stale.pba, None)
        entry = IndexEntry(pba)
        victims = self.lru.put(fingerprint, entry)
        self._by_pba[pba] = fingerprint
        for key, value, _size in victims:
            if key == fingerprint:
                # Entry was larger than the cache; nothing was kept.
                self._by_pba.pop(pba, None)
            else:
                self._by_pba.pop(value.pba, None)
                self._evicted.append((key, value))

    def restore(self, fingerprint: int, entry: IndexEntry) -> bool:
        if self.lru.free_bytes < self.lru.default_entry_size:
            return False
        if fingerprint in self.lru or entry.pba in self._by_pba:
            return False
        victims = self.lru.put(fingerprint, entry)
        assert not victims  # free space was checked above
        self._by_pba[entry.pba] = fingerprint
        return True


# ----------------------------------------------------------------------
# the caches
# ----------------------------------------------------------------------


class ReferenceICache(ICache):
    """:class:`ICache` with every read, ghost and swap-in step per key."""

    def __init__(self, config: ICacheConfig) -> None:
        super().__init__(config)
        self.ghost_index.__class__ = ReferenceGhostCache
        self.ghost_read.__class__ = ReferenceGhostCache

    def attach_index_table(self, index_table: Any) -> None:
        index_table.__class__ = ReferenceIndexTable
        super().attach_index_table(index_table)

    def read_lookup(self, key: int) -> bool:
        if self.read.get(key) is not None:
            return True
        if self.ghost_read.hit(key) and self.obs.level >= TraceLevel.CHUNK:
            self.obs.emit(
                TraceLevel.CHUNK,
                self._obs_clock() if self._obs_clock is not None else 0.0,
                EventType.CACHE_GHOST_HIT,
                cache="read",
                key=key,
            )
        return False

    def read_insert(self, key: int) -> None:
        for victim_key, _value, size in self.read.put(key, True):
            self.ghost_read.record_eviction(victim_key, size)

    def read_probe(self, keys: Sequence[int]) -> List[int]:
        return [key for key in keys if not self.read_lookup(key)]

    def read_fill(self, keys: Iterable[int]) -> None:
        for key in keys:
            self.read_insert(key)

    def on_index_misses(self, fingerprints: Iterable[int]) -> None:
        for fingerprint in fingerprints:
            if self.ghost_index.hit(fingerprint) and self.obs.level >= TraceLevel.CHUNK:
                self.obs.emit(
                    TraceLevel.CHUNK,
                    self._obs_clock() if self._obs_clock is not None else 0.0,
                    EventType.CACHE_GHOST_HIT,
                    cache="index",
                    key=fingerprint,
                )

    def note_index_evictions(self, evicted: Iterable[Tuple[int, Any]]) -> None:
        store = self._index_store
        for fingerprint, entry in evicted:
            store[fingerprint] = entry
            for dropped in self.ghost_index.record_eviction(fingerprint, INDEX_ENTRY_SIZE):
                store.pop(dropped, None)

    def _resize(self, new_index_bytes: int) -> None:
        total = self.config.total_bytes
        new_read_bytes = total - new_index_bytes
        if new_index_bytes < self.index.capacity_bytes:
            if self._index_table is not None:
                evicted = self._index_table.resize(new_index_bytes)
            else:
                evicted = [
                    (fp, entry) for fp, entry, _size in self.index.resize(new_index_bytes)
                ]
            self.note_index_evictions(evicted)
            self.read.resize(new_read_bytes)
            self._swap_in_read()
        else:
            for key, _value, size in self.read.resize(new_read_bytes):
                self.ghost_read.record_eviction(key, size)
            self.index.resize(new_index_bytes)
            self._swap_in_index()
        self.ghost_index.resize(total - new_index_bytes)
        self.ghost_read.resize(total - new_read_bytes)

    def _swap_in_index(self) -> None:
        candidates = sorted(
            (
                (fp, self._index_store[fp])
                for fp in self.ghost_index.keys_mru()
                if fp in self._index_store
            ),
            key=lambda item: item[1].count,
            reverse=True,
        )
        restored = []
        for fp, entry in candidates:
            if self.index.free_bytes < INDEX_ENTRY_SIZE:
                break
            if self._index_table is not None:
                ok = self._index_table.restore(fp, entry)
            else:
                self.index.put(fp, entry)
                ok = True
            if ok:
                restored.append(fp)
        for fp in restored:
            self.ghost_index.remove(fp)
            self._index_store.pop(fp, None)

    def _swap_in_read(self) -> None:
        restored = []
        for key in self.ghost_read.keys_mru():
            if self.read.free_bytes < BLOCK_SIZE:
                break
            self.read.put(key, True)
            restored.append(key)
        for key in restored:
            self.ghost_read.remove(key)


class ReferencePartitionedCache(PartitionedCache):
    """:class:`PartitionedCache` with per-key read lookups and inserts
    (and the per-key Index table)."""

    def attach_index_table(self, index_table: Any) -> None:
        index_table.__class__ = ReferenceIndexTable

    def read_lookup(self, pba: int) -> bool:
        return self.read.get(pba) is not None

    def read_insert(self, pba: int) -> None:
        self.read.put(pba, True)

    def read_probe(self, pbas: Sequence[int]) -> List[int]:
        return [pba for pba in pbas if not self.read_lookup(pba)]

    def read_fill(self, pbas: Iterable[int]) -> None:
        for pba in pbas:
            self.read_insert(pba)


def reference_cache(cache: Any) -> Any:
    """Turn a freshly built scheme cache into its per-key twin."""
    if isinstance(cache, ICache):
        return ReferenceICache(cache.config)
    else:
        assert type(cache) is PartitionedCache
        cache.__class__ = ReferencePartitionedCache
    return cache
