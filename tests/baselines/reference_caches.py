"""The per-key cache chain, kept as a standalone test-only reference.

Before the caches took one call per request, a read probed the read
cache block by block (``read_lookup`` -> ``get`` -> ghost ``hit`` on a
miss) and inserted its misses one at a time (``read_insert`` -> ``put``
-> ghost ``record_eviction`` per victim); a write's index evictions
were parked one entry at a time, and an iCache swap-in sorted its
candidates with a Python key and restored them one by one.  The caches
also kept a byte size per entry and bounded the sum of sizes.

The classes below are that chain, standalone: they share no code with
:mod:`repro.cache`, :class:`~repro.dedup.index_table.IndexTable` or
:class:`~repro.core.icache.ICache` (only their record types
``IndexEntry`` and ``EpochRecord`` and the config).  Every entry
carries its byte size and the bound is ``used_bytes <= capacity_bytes``,
so the differential tests also pin the kernels' entry-count bound
(``len <= capacity // entry_size``) to the byte bound.
:func:`reference_cache` builds the twin of a freshly built scheme
cache; :class:`ReferenceIndexTable` sits on its index LRU.
"""

from __future__ import annotations

from collections import OrderedDict
from types import MappingProxyType
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.cache.partition import PartitionedCache
from repro.constants import BLOCK_SIZE, INDEX_ENTRY_SIZE
from repro.core.icache import EpochRecord, ICache, ICacheConfig
from repro.dedup.index_table import IndexEntry
from repro.obs.events import EventType, TraceLevel
from repro.obs.trace import NULL_RECORDER, TraceRecorder


class ReferenceLRU:
    """Byte-bounded LRU with a size per entry, one key per call."""

    def __init__(self, capacity_bytes: int, entry_size: int) -> None:
        self.capacity_bytes = capacity_bytes
        self.default_entry_size = entry_size
        self._entries: "OrderedDict[Any, Tuple[Any, int]]" = OrderedDict()
        self._used = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Any) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[Any]:
        return reversed(self._entries)

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self._used

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def get(self, key: Any) -> Optional[Any]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[0]

    def peek(self, key: Any) -> Optional[Any]:
        entry = self._entries.get(key)
        return None if entry is None else entry[0]

    def put(self, key: Any, value: Any) -> List[Tuple[Any, Any, int]]:
        size = self.default_entry_size
        old = self._entries.pop(key, None)
        if old is not None:
            self._used -= old[1]
        if size > self.capacity_bytes:
            return [(key, value, size)]
        self._entries[key] = (value, size)
        self._used += size
        return self._evict_to_fit()

    def remove(self, key: Any) -> bool:
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        self._used -= entry[1]
        return True

    def resize(self, new_capacity_bytes: int) -> List[Tuple[Any, Any, int]]:
        self.capacity_bytes = new_capacity_bytes
        return self._evict_to_fit()

    def keys_lru_order(self) -> List[Any]:
        return list(self._entries)

    def _evict_to_fit(self) -> List[Tuple[Any, Any, int]]:
        victims = []
        while self._used > self.capacity_bytes and self._entries:
            key, (value, size) = self._entries.popitem(last=False)
            self._used -= size
            victims.append((key, value, size))
        self.evictions += len(victims)
        return victims


class ReferenceGhost:
    """Byte-bounded ghost LRU of keys with represented sizes."""

    def __init__(self, capacity_bytes: int) -> None:
        self.capacity_bytes = capacity_bytes
        self._keys: "OrderedDict[Any, int]" = OrderedDict()
        self._used = 0
        self.hits = 0
        self.hits_total = 0
        self.evictions_recorded = 0

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, key: Any) -> bool:
        return key in self._keys

    @property
    def used_bytes(self) -> int:
        return self._used

    def record_eviction(self, key: Any, size: int) -> List[Any]:
        self.evictions_recorded += 1
        old = self._keys.pop(key, None)
        if old is not None:
            self._used -= old
        if size > self.capacity_bytes:
            return [key]
        self._keys[key] = size
        self._used += size
        return self._age_out()

    def hit(self, key: Any) -> bool:
        if key in self._keys:
            self._used -= self._keys.pop(key)
            self.hits += 1
            self.hits_total += 1
            return True
        return False

    def remove(self, key: Any) -> bool:
        if key in self._keys:
            self._used -= self._keys.pop(key)
            return True
        return False

    def resize(self, new_capacity_bytes: int) -> List[Any]:
        self.capacity_bytes = new_capacity_bytes
        return self._age_out()

    def keys_mru(self) -> Iterator[Any]:
        return reversed(self._keys)

    def reset_counters(self) -> None:
        self.hits = 0

    def _age_out(self) -> List[Any]:
        dropped = []
        while self._used > self.capacity_bytes and self._keys:
            key, size = self._keys.popitem(last=False)
            self._used -= size
            dropped.append(key)
        return dropped


class ReferenceIndexTable:
    """The hot Index table, admitting and restoring one entry at a time."""

    def __init__(self, lru: ReferenceLRU) -> None:
        self.lru = lru
        self._by_pba: Dict[int, int] = {}
        self._evicted: List[Tuple[int, IndexEntry]] = []

    def __len__(self) -> int:
        return len(self.lru)

    def __contains__(self, fingerprint: int) -> bool:
        return fingerprint in self.lru

    @property
    def pba_claims(self) -> "MappingProxyType[int, int]":
        return MappingProxyType(self._by_pba)

    def lookup(self, fingerprint: int) -> Optional[IndexEntry]:
        entry = self.lru.get(fingerprint)
        if entry is None:
            return None
        entry.count += 1
        return entry

    def peek(self, fingerprint: int) -> Optional[IndexEntry]:
        return self.lru.peek(fingerprint)

    def insert(self, fingerprint: int, pba: int) -> None:
        claimant = self._by_pba.pop(pba, None)
        if claimant is not None:
            self.lru.remove(claimant)
        stale = self.lru.peek(fingerprint)
        if stale is not None:
            self._by_pba.pop(stale.pba, None)
        victims = self.lru.put(fingerprint, IndexEntry(pba))
        self._by_pba[pba] = fingerprint
        for key, value, _size in victims:
            if key == fingerprint:
                # Entry was larger than the table; nothing was kept.
                self._by_pba.pop(pba, None)
            else:
                self._by_pba.pop(value.pba, None)
                self._evicted.append((key, value))

    def remove(self, fingerprint: int) -> bool:
        entry = self.lru.peek(fingerprint)
        if entry is None:
            return False
        self._by_pba.pop(entry.pba, None)
        return self.lru.remove(fingerprint)

    def invalidate_pba(self, pba: int) -> bool:
        fingerprint = self._by_pba.pop(pba, None)
        if fingerprint is None:
            return False
        self.lru.remove(fingerprint)
        return True

    def resize(self, new_capacity_bytes: int) -> List[Tuple[int, IndexEntry]]:
        out = []
        for key, value, _size in self.lru.resize(new_capacity_bytes):
            self._by_pba.pop(value.pba, None)
            out.append((key, value))
        return out

    def restore(self, fingerprint: int, entry: IndexEntry) -> bool:
        if self.lru.free_bytes < self.lru.default_entry_size:
            return False
        if fingerprint in self.lru or entry.pba in self._by_pba:
            return False
        victims = self.lru.put(fingerprint, entry)
        assert not victims  # free space was checked above
        self._by_pba[entry.pba] = fingerprint
        return True

    def drain_evicted(self) -> List[Tuple[int, IndexEntry]]:
        out = self._evicted
        self._evicted = []
        return out

    def stats(self) -> Dict[str, float]:
        return {
            "entries": len(self.lru),
            "hits": self.lru.hits,
            "misses": self.lru.misses,
            "hit_ratio": self.lru.hit_ratio,
        }


# ----------------------------------------------------------------------
# the caches
# ----------------------------------------------------------------------


class ReferencePartitionedCache:
    """The fixed index/read split, one key per call."""

    def __init__(self, total_bytes: int, index_bytes: int, read_bytes: int) -> None:
        self.total_bytes = total_bytes
        self.index = ReferenceLRU(index_bytes, INDEX_ENTRY_SIZE)
        self.read = ReferenceLRU(read_bytes, BLOCK_SIZE)
        self.epoch_timeline: List[dict] = []

    def attach_observer(self, recorder: Any, clock: Any = None) -> None:
        self.obs = recorder

    def read_lookup(self, pba: int) -> bool:
        return self.read.get(pba) is not None

    def read_insert(self, pba: int) -> None:
        self.read.put(pba, True)

    def read_remove(self, pba: int) -> bool:
        return self.read.remove(pba)

    def on_index_miss(self, fingerprint: int) -> None:
        pass

    def note_index_evictions(self, evicted: Any) -> None:
        pass

    def on_epoch(self, now: float) -> float:
        return 0.0

    def stats(self) -> Dict[str, int]:
        return {
            "index_bytes": self.index.capacity_bytes,
            "read_bytes": self.read.capacity_bytes,
            "index_hits": self.index.hits,
            "index_misses": self.index.misses,
            "read_hits": self.read.hits,
            "read_misses": self.read.misses,
            "index_evictions": self.index.evictions,
            "read_evictions": self.read.evictions,
        }


class ReferenceICache:
    """iCache with every read, ghost and swap-in step per key."""

    def __init__(self, config: ICacheConfig) -> None:
        self.config = config
        index_bytes = int(config.total_bytes * config.initial_index_fraction)
        read_bytes = config.total_bytes - index_bytes
        self.index = ReferenceLRU(index_bytes, INDEX_ENTRY_SIZE)
        self.read = ReferenceLRU(read_bytes, BLOCK_SIZE)
        self.ghost_index = ReferenceGhost(config.total_bytes - index_bytes)
        self.ghost_read = ReferenceGhost(config.total_bytes - read_bytes)
        self.partition_history: List[Tuple[float, int, int]] = []
        self.epoch_timeline: List[EpochRecord] = []
        self.repartitions = 0
        self.total_swapped_bytes = 0.0
        self.obs: TraceRecorder = NULL_RECORDER
        self._obs_clock: Optional[Callable[[], float]] = None
        self._index_store: Dict[int, Any] = {}
        self._index_table: Optional[ReferenceIndexTable] = None

    def attach_index_table(self, index_table: ReferenceIndexTable) -> None:
        self._index_table = index_table

    def parked_index_entries(self) -> "MappingProxyType[int, Any]":
        return MappingProxyType(self._index_store)

    def attach_observer(
        self, recorder: TraceRecorder, clock: Optional[Callable[[], float]] = None
    ) -> None:
        self.obs = recorder
        self._obs_clock = clock

    def _ghost_hit_event(self, cache: str, key: int) -> None:
        if self.obs.level >= TraceLevel.CHUNK:
            self.obs.emit(
                TraceLevel.CHUNK,
                self._obs_clock() if self._obs_clock is not None else 0.0,
                EventType.CACHE_GHOST_HIT,
                cache=cache,
                key=key,
            )

    def read_lookup(self, key: int) -> bool:
        if self.read.get(key) is not None:
            return True
        if self.ghost_read.hit(key):
            self._ghost_hit_event("read", key)
        return False

    def read_insert(self, key: int) -> None:
        for victim_key, _value, size in self.read.put(key, True):
            self.ghost_read.record_eviction(victim_key, size)

    def read_remove(self, key: int) -> bool:
        self.ghost_read.remove(key)
        return self.read.remove(key)

    def on_index_miss(self, fingerprint: int) -> None:
        if self.ghost_index.hit(fingerprint):
            self._index_store.pop(fingerprint, None)
            self._ghost_hit_event("index", fingerprint)

    def note_index_evictions(self, evicted: Any) -> None:
        store = self._index_store
        for fingerprint, entry in evicted:
            store[fingerprint] = entry
            for dropped in self.ghost_index.record_eviction(fingerprint, INDEX_ENTRY_SIZE):
                store.pop(dropped, None)

    def on_epoch(self, now: float) -> float:
        index_benefit = self.ghost_index.hits * self.config.write_saved_cost
        read_benefit = self.ghost_read.hits * self.config.read_miss_cost
        ghost_index_hits = self.ghost_index.hits
        ghost_read_hits = self.ghost_read.hits
        swapped = 0.0
        direction = "hold"
        if index_benefit != read_benefit:
            total = self.config.total_bytes
            step = int(total * self.config.step_fraction)
            floor = int(total * self.config.min_fraction)
            if index_benefit > read_benefit:
                new_index = min(total - floor, self.index.capacity_bytes + step)
            else:
                new_index = max(floor, self.index.capacity_bytes - step)
            swapped = float(abs(new_index - self.index.capacity_bytes))
            if swapped:
                direction = (
                    "grow_index" if new_index > self.index.capacity_bytes else "grow_read"
                )
                self._resize(new_index)
                self.repartitions += 1
                self.total_swapped_bytes += swapped
        self.ghost_index.reset_counters()
        self.ghost_read.reset_counters()
        self.partition_history.append(
            (now, self.index.capacity_bytes, self.read.capacity_bytes)
        )
        record = EpochRecord(
            epoch=len(self.epoch_timeline),
            t=now,
            index_bytes=self.index.capacity_bytes,
            read_bytes=self.read.capacity_bytes,
            ghost_index_hits=ghost_index_hits,
            ghost_read_hits=ghost_read_hits,
            index_benefit=index_benefit,
            read_benefit=read_benefit,
            direction=direction,
            swapped_bytes=swapped,
        )
        self.epoch_timeline.append(record)
        if self.obs.level >= TraceLevel.SUMMARY:
            fields = record.as_dict()
            fields.pop("t")
            self.obs.emit(TraceLevel.SUMMARY, now, EventType.ICACHE_EPOCH, **fields)
        return swapped

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
        for fingerprint in self.ghost_index.resize(total - new_index_bytes):
            self._index_store.pop(fingerprint, None)
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

    def stats(self) -> Dict[str, Any]:
        return {
            "index_bytes": self.index.capacity_bytes,
            "read_bytes": self.read.capacity_bytes,
            "index_hits": self.index.hits,
            "index_misses": self.index.misses,
            "read_hits": self.read.hits,
            "read_misses": self.read.misses,
            "index_evictions": self.index.evictions,
            "read_evictions": self.read.evictions,
            "ghost_index_hits_epoch": self.ghost_index.hits,
            "ghost_read_hits_epoch": self.ghost_read.hits,
            "ghost_index_hits_total": self.ghost_index.hits_total,
            "ghost_read_hits_total": self.ghost_read.hits_total,
            "repartitions": self.repartitions,
            "total_swapped_bytes": self.total_swapped_bytes,
            "epochs": len(self.epoch_timeline),
        }


def reference_cache(cache: Any) -> Any:
    """The per-key twin of a freshly built scheme cache."""
    if isinstance(cache, ICache):
        return ReferenceICache(cache.config)
    assert type(cache) is PartitionedCache
    return ReferencePartitionedCache(
        cache.total_bytes, cache.index.capacity_bytes, cache.read.capacity_bytes
    )


def attach_reference_index(scheme: Any) -> None:
    """Give ``scheme`` a :class:`ReferenceIndexTable` on its (reference)
    cache's index LRU, attached to the cache like the real one."""
    if scheme.uses_fingerprints:
        scheme.index_table = ReferenceIndexTable(scheme.cache.index)
        if hasattr(scheme.cache, "attach_index_table"):
            scheme.cache.attach_index_table(scheme.index_table)
