"""iCache: adaptive partitioning of DRAM between index and read caches.

Section III-C.  A fixed index/read split serves bursty primary
workloads badly: write bursts want a big index cache (more duplicates
detected, more writes eliminated), read bursts want a big read cache
(higher hit ratio).  iCache re-balances the split at run time:

* Each actual cache is shadowed by a **ghost cache** holding only the
  metadata of recently evicted entries; ``actual + ghost`` is bounded
  by the total DRAM size, per the paper.
* The **Access Monitor** counts, per epoch, the hits each ghost cache
  receives.  A ghost hit is an access that *would* have hit had that
  cache been larger, so ``ghost_hits x miss_penalty`` estimates the
  benefit of growing the cache:

  - a ghost *read* hit would have saved one disk read
    (``read_miss_cost`` seconds);
  - a ghost *index* hit would have detected one more duplicate write
    chunk, saving its disk write (``write_saved_cost`` seconds).

* The **Swap Module** moves one ``step`` of capacity from the
  lower-benefit cache to the higher-benefit one and swaps the
  displaced data to a reserved area on the back-end storage; the
  replay harness charges that movement as background disk traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from types import MappingProxyType
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cache.ghost import GhostCache
from repro.cache.lru import LRUCache
from repro.constants import BLOCK_SIZE, INDEX_ENTRY_SIZE
from repro.errors import CacheError
from repro.obs.events import EventType, TraceLevel
from repro.obs.trace import NULL_RECORDER, TraceRecorder


@dataclass(frozen=True)
class EpochRecord:
    """One row of the iCache epoch timeline (Section III-C, observable).

    Captures the Access Monitor's inputs (ghost hits), the cost-benefit
    values it derived, and the Swap Module's decision -- everything
    needed to replay *why* the partition moved the way it did.
    """

    #: Epoch ordinal (0-based).
    epoch: int
    #: Simulated time of the decision.
    t: float
    #: Partition sizes *after* the decision, bytes.
    index_bytes: int
    read_bytes: int
    #: Ghost hits accumulated over the epoch (the Monitor's counters).
    ghost_index_hits: int
    ghost_read_hits: int
    #: Estimated seconds saved by growing each cache.
    index_benefit: float
    read_benefit: float
    #: ``grow_index`` / ``grow_read`` / ``hold``.
    direction: str
    #: Bytes moved through the reserved swap area (0 when holding).
    swapped_bytes: float

    def as_dict(self) -> Dict[str, Any]:
        return {
            "epoch": self.epoch,
            "t": self.t,
            "index_bytes": self.index_bytes,
            "read_bytes": self.read_bytes,
            "ghost_index_hits": self.ghost_index_hits,
            "ghost_read_hits": self.ghost_read_hits,
            "index_benefit": self.index_benefit,
            "read_benefit": self.read_benefit,
            "direction": self.direction,
            "swapped_bytes": self.swapped_bytes,
        }


@dataclass
class ICacheConfig:
    """Tunables of the adaptive partition."""

    #: Total DRAM budget, bytes.
    total_bytes: int
    #: Starting index-cache share.
    initial_index_fraction: float = 0.5
    #: Fraction of the budget moved per repartition.
    step_fraction: float = 0.05
    #: Minimum share either cache keeps (avoids starving one side).
    min_fraction: float = 0.10
    #: Estimated seconds saved per avoided read miss (one average
    #: random HDD read: seek + rotation + transfer, ~12 ms).
    read_miss_cost: float = 12e-3
    #: Estimated seconds saved per additional duplicate detected (one
    #: average RAID-5 small write incl. parity RMW, ~15 ms).
    write_saved_cost: float = 15e-3

    def __post_init__(self) -> None:
        if self.total_bytes < 0:
            raise CacheError("negative DRAM budget")
        if not (0.0 <= self.initial_index_fraction <= 1.0):
            raise CacheError("initial index fraction outside [0, 1]")
        if not (0.0 < self.step_fraction <= 0.5):
            raise CacheError("step fraction outside (0, 0.5]")
        if not (0.0 <= self.min_fraction <= 0.5):
            raise CacheError("min fraction outside [0, 0.5]")


class ICache:
    """Adaptive index/read cache with ghost-driven cost-benefit.

    Exposes the same interface as
    :class:`repro.cache.partition.PartitionedCache`, so schemes do not
    care which organisation they were given.
    """

    def __init__(self, config: ICacheConfig) -> None:
        self.config = config
        index_bytes = int(config.total_bytes * config.initial_index_fraction)
        read_bytes = config.total_bytes - index_bytes
        #: Index values stay ``Any`` on purpose: the bare iCache
        #: stores raw PBA ints while an attached IndexTable stores
        #: ``IndexEntry`` records in the same LRU.
        self.index: LRUCache[int, Any] = LRUCache(
            index_bytes, default_entry_size=INDEX_ENTRY_SIZE
        )
        self.read: LRUCache[int, bool] = LRUCache(
            read_bytes, default_entry_size=BLOCK_SIZE
        )
        # actual + ghost bounded by total DRAM (Section III-C).
        self.ghost_index: GhostCache[int] = GhostCache(
            config.total_bytes - index_bytes, default_entry_size=INDEX_ENTRY_SIZE
        )
        self.ghost_read: GhostCache[int] = GhostCache(
            config.total_bytes - read_bytes, default_entry_size=BLOCK_SIZE
        )
        #: (time, index_bytes, read_bytes) after each epoch.
        self.partition_history: List[Tuple[float, int, int]] = []
        #: Full per-epoch decision records (run reports serialise
        #: these as the iCache timeline).
        self.epoch_timeline: List[EpochRecord] = []
        self.repartitions = 0
        self.total_swapped_bytes = 0.0
        #: Attached observability recorder + clock (set by the scheme).
        self.obs: TraceRecorder = NULL_RECORDER
        self._obs_clock: Optional[Callable[[], float]] = None
        #: Set by the owning scheme so swap-in can restore entries
        #: through the IndexTable (keeping its PBA reverse map sound).
        self._index_table: Optional[Any] = None

    def attach_index_table(self, index_table: Any) -> None:
        """Let swap-in restore evicted entries via the Index table."""
        self._index_table = index_table

    def parked_index_entries(self) -> "MappingProxyType[int, Any]":
        """Read-only live view of swap-parked index entries: the ghost
        index's keys and the entries recorded with them.

        The sanctioned inspection surface for validators: the POD
        sanitizer sums the parked entries' ``Count`` values into its
        conservative Count bookkeeping check (``INV-INDEX-COUNT``).
        """
        return self.ghost_index.entries

    def attach_observer(
        self, recorder: TraceRecorder, clock: Optional[Callable[[], float]] = None
    ) -> None:
        """Attach a trace recorder (observation only -- never affects
        the partitioning decisions).  ``clock`` supplies simulated time
        for ghost-hit events emitted outside an epoch callback."""
        self.obs = recorder
        self._obs_clock = clock

    # ------------------------------------------------------------------
    # read-cache interface
    # ------------------------------------------------------------------

    def read_probe(self, keys: Sequence[int]) -> List[int]:
        """Look up one read's blocks in the actual cache, in order, and
        probe the ghost read cache with the misses (the Access
        Monitor's signal); returns the missed keys in order.

        One call per read request: the actual and the ghost cache are
        disjoint structures, so looking every key up first and then
        probing the ghost with the misses is exactly the per-key
        interleaving.
        """
        missing = [
            key for key, value in zip(keys, self.read.get_many(keys)) if value is None
        ]
        if missing:
            hits = self.ghost_read.hit_many(missing)
            if hits and self.obs.level >= TraceLevel.CHUNK:
                now = self._obs_clock() if self._obs_clock is not None else 0.0
                for key in hits:
                    self.obs.emit(
                        TraceLevel.CHUNK, now, EventType.CACHE_GHOST_HIT, cache="read", key=key
                    )
        return missing

    def read_fill(self, keys: Iterable[int]) -> None:
        """Insert a read's missed blocks, in order; the ghost read
        cache remembers the blocks they evict (one call to each)."""
        victims = self.read.put_many(keys, True)
        if victims:
            self.ghost_read.record_evictions(victims)

    def read_lookup(self, key: int) -> bool:
        """:meth:`read_probe` of one key: True on an actual-cache hit."""
        return not self.read_probe((key,))

    def read_insert(self, key: int) -> None:
        """:meth:`read_fill` of one key."""
        self.read_fill((key,))

    def read_remove(self, key: int) -> bool:
        self.ghost_read.remove(key)
        return self.read.remove(key)

    def read_remove_many(self, keys: Sequence[int]) -> None:
        self.ghost_read.remove_many(keys)
        self.read.remove_many(keys)

    # ------------------------------------------------------------------
    # index-cache interface (the IndexTable sits on ``self.index``)
    # ------------------------------------------------------------------

    def index_lookup(self, fingerprint: int) -> Optional[Any]:
        return self.index.get(fingerprint)

    def index_insert(self, fingerprint: int, pba: Any) -> None:
        self.index.put(fingerprint, pba)

    def index_remove(self, fingerprint: int) -> bool:
        return self.index.remove(fingerprint)

    def on_index_miss(self, fingerprint: int) -> None:
        """Called by the scheme when the hot index missed: probe the
        ghost index (a hit = one duplicate we failed to detect)."""
        self.on_index_misses((fingerprint,))

    def on_index_misses(self, fingerprints: Iterable[int]) -> None:
        """:meth:`on_index_miss` for every miss of one write, in order
        (one ghost probe call per request on the write path).  A hit
        key leaves the ghost index with its parked entry."""
        hits = self.ghost_index.hit_many(fingerprints)
        if hits and self.obs.level >= TraceLevel.CHUNK:
            now = self._obs_clock() if self._obs_clock is not None else 0.0
            for fingerprint in hits:
                self.obs.emit(
                    TraceLevel.CHUNK,
                    now,
                    EventType.CACHE_GHOST_HIT,
                    cache="index",
                    key=fingerprint,
                )

    def note_index_evictions(self, evicted: Sequence[Tuple[int, Any]]) -> None:
        """Feed IndexTable victims into the ghost index, which parks
        their entries (the reserved swap area) for a later swap-in (one
        call per request)."""
        self.ghost_index.record_evictions(evicted)

    # ------------------------------------------------------------------
    # the Access Monitor + Swap Module
    # ------------------------------------------------------------------

    def cost_benefit(self) -> Tuple[float, float]:
        """(index_benefit, read_benefit) accumulated this epoch."""
        index_benefit = self.ghost_index.hits * self.config.write_saved_cost
        read_benefit = self.ghost_read.hits * self.config.read_miss_cost
        return index_benefit, read_benefit

    def on_epoch(self, now: float) -> float:
        """Repartition based on this epoch's ghost hits.

        Returns the number of bytes swapped between DRAM and the
        reserved back-end area (0.0 when the split is unchanged); the
        caller turns that into background disk traffic.
        """
        index_benefit, read_benefit = self.cost_benefit()
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
            fields.pop("t")  # carried by the event envelope
            self.obs.emit(TraceLevel.SUMMARY, now, EventType.ICACHE_EPOCH, **fields)
        return swapped

    def _resize(self, new_index_bytes: int) -> None:
        total = self.config.total_bytes
        new_read_bytes = total - new_index_bytes
        # Shrink first so victims land in the ghosts, then grow and
        # swap the most recently displaced data of the grown cache
        # back in from the reserved area (Section III-C: "swaps in the
        # actual data of the ghost cache with the larger cost-benefit
        # value into the memory").
        if new_index_bytes < self.index.capacity_bytes:
            if self._index_table is not None:
                evicted = self._index_table.resize(new_index_bytes)
            else:
                evicted = self.index.resize(new_index_bytes)
            self.note_index_evictions(evicted)
            self.read.resize(new_read_bytes)
            self._swap_in_read()
        else:
            self.ghost_read.record_evictions(self.read.resize(new_read_bytes))
            self.index.resize(new_index_bytes)
            self._swap_in_index()
        # Ghost capacities track the complement of their actual cache;
        # the keys the ghost index ages out take their parked entries.
        self.ghost_index.resize(total - new_index_bytes)
        self.ghost_read.resize(total - new_read_bytes)

    def _swap_in_index(self) -> None:
        """Refill grown index space from the ghost index.

        Candidates are ordered by their ``Count`` popularity first and
        eviction recency second -- the Index table keeps Count exactly
        so the hot entries can be told apart (Section III-B).  One pass
        over the ghost index groups the parked entries by Count, most
        recent first within a group, and the Index table restores the
        groups in descending Count in one call.  A bare iCache (no Index
        table) parks raw values without a Count: recency alone orders
        them.
        """
        if self._index_table is None:
            restored = []
            for fp, entry in self.ghost_index.items_mru():
                if entry is None:
                    continue
                if self.index.free_bytes < INDEX_ENTRY_SIZE:
                    break
                self.index.put(fp, entry)
                restored.append(fp)
            self.ghost_index.remove_many(restored)
            return
        groups: Dict[int, List[Tuple[int, Any]]] = {}
        for item in self.ghost_index.items_mru():
            entry = item[1]
            if entry is not None:
                group = groups.get(entry.count)
                if group is None:
                    groups[entry.count] = [item]
                else:
                    group.append(item)
        self.ghost_index.remove_many(self._index_table.restore_many(
            item for count in sorted(groups, reverse=True) for item in groups[count]
        ))

    def _swap_in_read(self) -> None:
        """Refill grown read space with the most recent ghost blocks."""
        room = max(self.read.slots - len(self.read), 0)
        restored = list(islice(self.ghost_read.keys_mru(), room))
        self.read.put_many(restored, True)
        self.ghost_read.remove_many(restored)

    # ------------------------------------------------------------------

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
