"""Fixed index/read partition of one DRAM budget.

This is the cache organisation of Full-Dedupe, iDedup and plain
Select-Dedupe in the paper's experiments: "Full-Dedupe, iDedup and
Select-Dedupe all use the fixed cache partition that allocates equal
spaces to the index cache and read cache" (Section IV-B).  The
Figure 3 sweep varies ``index_fraction`` from 0.2 to 0.8.

POD replaces this with :class:`repro.core.icache.ICache`, which keeps
the same two caches but re-balances them at run time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.constants import BLOCK_SIZE, INDEX_ENTRY_SIZE
from repro.cache.lru import LRUCache
from repro.errors import CacheError


@dataclass(frozen=True)
class PartitionSizes:
    """Byte sizes of the two partitions."""

    index_bytes: int
    read_bytes: int

    def __post_init__(self) -> None:
        if self.index_bytes < 0 or self.read_bytes < 0:
            raise CacheError("partition sizes must be non-negative")

    @property
    def total_bytes(self) -> int:
        return self.index_bytes + self.read_bytes


def split_budget(total_bytes: int, index_fraction: float) -> PartitionSizes:
    """Split a DRAM budget; ``index_fraction`` in [0, 1]."""
    if total_bytes < 0:
        raise CacheError("negative DRAM budget")
    if not (0.0 <= index_fraction <= 1.0):
        raise CacheError(f"index fraction {index_fraction} outside [0, 1]")
    index = int(total_bytes * index_fraction)
    return PartitionSizes(index_bytes=index, read_bytes=total_bytes - index)


class PartitionedCache:
    """One DRAM budget statically split into index + read caches.

    * The **index cache** maps ``fingerprint -> PBA`` at
      :data:`INDEX_ENTRY_SIZE` bytes per entry.
    * The **read cache** holds 4 KB data blocks keyed by PBA.

    Exposes the same surface iCache does, so schemes are agnostic to
    which one they were given.
    """

    def __init__(self, total_bytes: int, index_fraction: float = 0.5) -> None:
        sizes = split_budget(total_bytes, index_fraction)
        self.total_bytes = total_bytes
        #: Index cache values stay ``Any`` on purpose: the fixed
        #: partition stores raw PBA ints, while an attached
        #: :class:`~repro.dedup.index_table.IndexTable` stores
        #: ``IndexEntry`` records in the same LRU.
        self.index: LRUCache[int, Any] = LRUCache(
            sizes.index_bytes, default_entry_size=INDEX_ENTRY_SIZE
        )
        self.read: LRUCache[int, bool] = LRUCache(
            sizes.read_bytes, default_entry_size=BLOCK_SIZE
        )
        #: Interface parity with :class:`repro.core.icache.ICache`
        #: (fixed partitions never repartition, so this stays empty).
        self.epoch_timeline: List[dict] = []

    def attach_observer(self, recorder: Any, clock: Any = None) -> None:
        """Accept an observer for interface parity with iCache.

        The fixed partition emits no micro-events of its own (its
        hit/miss counters are surfaced through :meth:`stats`), but
        accepting the attachment keeps the scheme-side wiring uniform.
        """
        self.obs = recorder

    # -- index side ----------------------------------------------------

    def index_lookup(self, fingerprint: int) -> Optional[Any]:
        """PBA of a cached fingerprint, or None."""
        return self.index.get(fingerprint)

    def index_insert(self, fingerprint: int, pba: int) -> None:
        self.index.put(fingerprint, pba)

    def index_remove(self, fingerprint: int) -> bool:
        return self.index.remove(fingerprint)

    # -- read side -----------------------------------------------------

    def read_probe(self, pbas: Sequence[int]) -> List[int]:
        """Look up one read's blocks, in order; returns the misses."""
        return [pba for pba, value in zip(pbas, self.read.get_many(pbas)) if value is None]

    def read_fill(self, pbas: Iterable[int]) -> None:
        """Insert a read's missed blocks, in order (victims are dropped)."""
        self.read.put_many(pbas, True)

    def read_lookup(self, pba: int) -> bool:
        """True if the block at ``pba`` is cached."""
        return not self.read_probe((pba,))

    def read_insert(self, pba: int) -> None:
        self.read_fill((pba,))

    def read_remove(self, pba: int) -> bool:
        return self.read.remove(pba)

    def read_remove_many(self, pbas: Sequence[int]) -> None:
        self.read.remove_many(pbas)

    # -- bookkeeping ---------------------------------------------------

    def on_index_miss(self, fingerprint: int) -> None:
        """Fixed partitions keep no ghost history; nothing to record."""

    def on_index_misses(self, fingerprints: Iterable[int]) -> None:
        """Fixed partitions keep no ghost history; nothing to record."""

    def note_index_evictions(self, evicted: Sequence[Tuple[int, Any]]) -> None:
        """Fixed partitions keep no ghost history; victims are dropped."""

    def on_epoch(self, now: float) -> float:
        """Fixed partitions never rebalance; zero swap cost."""
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
