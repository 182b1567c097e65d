"""Structural interface shared by the DRAM cache organisations.

Both :class:`repro.cache.partition.PartitionedCache` (fixed split)
and :class:`repro.core.icache.ICache` (POD's adaptive partition)
implement this surface; schemes hold a :class:`DramCache` and stay
agnostic to which organisation they were given.  The protocol exists
for static checking only -- there is no runtime registration, and the
two implementations share no base class.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Protocol, Sequence, Tuple

from repro.cache.lru import LRUCache


class DramCache(Protocol):
    """What a scheme may assume about its DRAM cache.

    Index-cache *values* are deliberately loose (``Any``): bare caches
    map ``fingerprint -> PBA`` ints while an attached
    :class:`~repro.dedup.index_table.IndexTable` stores ``IndexEntry``
    records in the same LRU.
    """

    #: The two actual caches (the sanitizer and tests reach into these).
    index: LRUCache[int, Any]
    read: LRUCache[int, bool]
    #: Per-epoch decision records (empty for fixed partitions).
    epoch_timeline: List[Any]

    def attach_observer(
        self, recorder: Any, clock: Optional[Callable[[], float]] = None
    ) -> None:
        """Attach a trace recorder (observation only)."""
        ...

    # -- index side ----------------------------------------------------

    def index_lookup(self, fingerprint: int) -> Optional[Any]:
        ...

    def index_insert(self, fingerprint: int, pba: Any) -> None:
        ...

    def index_remove(self, fingerprint: int) -> bool:
        ...

    def on_index_miss(self, fingerprint: int) -> None:
        ...

    def on_index_misses(self, fingerprints: Iterable[int]) -> None:
        """:meth:`on_index_miss` for every miss of one write, in order."""
        ...

    def note_index_evictions(self, evicted: Sequence[Tuple[int, Any]]) -> None:
        ...

    # -- read side -----------------------------------------------------

    def read_probe(self, pbas: Sequence[int]) -> List[int]:
        """Look up one read's blocks, in order; returns the misses."""
        ...

    def read_fill(self, pbas: Iterable[int]) -> None:
        """Insert one read's missed blocks, in order."""
        ...

    def read_lookup(self, pba: int) -> bool:
        ...

    def read_insert(self, pba: int) -> None:
        ...

    def read_remove(self, pba: int) -> bool:
        ...

    def read_remove_many(self, pbas: Sequence[int]) -> None:
        """:meth:`read_remove` every block of a batch."""
        ...

    # -- management ----------------------------------------------------

    def on_epoch(self, now: float) -> float:
        """Run one management epoch; returns bytes swapped."""
        ...

    def stats(self) -> Dict[str, Any]:
        ...
