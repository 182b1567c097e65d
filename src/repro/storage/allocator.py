"""Physical space layout and the copy-on-write log allocator.

The simulated volume is divided into fixed regions:

* **home region** -- one physical block per logical block; a
  non-deduplicated write to LBA *l* lands at its home address
  ``home_base + l`` (in-place update, like the Native system).
* **log region** -- append-allocated blocks used when an in-place
  update must be *redirected*: the home block is still referenced by
  other LBAs through the Map table, so overwriting it would corrupt
  them (the consistency rule of the Request Redirector, Section III-B).
* **index region** -- where Full-Dedupe keeps the on-disk part of its
  full fingerprint index; an index-cache miss costs a random read here
  (the in-disk index-lookup bottleneck of Section II-B).
* **swap region** -- the "reserved space on the back-end storage
  device" where iCache's Swap Module parks swapped-out cache contents
  (Section III-C).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Set

from repro.errors import StorageError


@dataclass(frozen=True)
class RegionMap:
    """Boundaries of the physical regions, all in 4 KB blocks.

    Layout (ascending PBA)::

        [ home: logical_blocks ][ log ][ index ][ swap ]
    """

    logical_blocks: int
    log_blocks: int
    index_blocks: int
    swap_blocks: int

    def __post_init__(self) -> None:
        for name in ("logical_blocks", "log_blocks", "index_blocks", "swap_blocks"):
            if getattr(self, name) < 0:
                raise StorageError(f"{name} must be non-negative")
        if self.logical_blocks == 0:
            raise StorageError("volume needs a non-empty home region")

    @property
    def home_base(self) -> int:
        return 0

    @property
    def log_base(self) -> int:
        return self.logical_blocks

    @property
    def index_base(self) -> int:
        return self.log_base + self.log_blocks

    @property
    def swap_base(self) -> int:
        return self.index_base + self.index_blocks

    @property
    def total_blocks(self) -> int:
        return self.swap_base + self.swap_blocks

    def home_of(self, lba: int) -> int:
        """Home PBA of a logical block.

        The home region starts at PBA 0 (``home_base``), so the home
        block is the LBA itself; the property is not consulted on this
        per-block path.
        """
        if not (0 <= lba < self.logical_blocks):
            raise StorageError(f"LBA {lba} outside logical space of {self.logical_blocks}")
        return lba

    def is_home(self, pba: int) -> bool:
        return self.home_base <= pba < self.log_base

    def is_log(self, pba: int) -> bool:
        return self.log_base <= pba < self.index_base

    @staticmethod
    def for_logical_space(
        logical_blocks: int,
        log_fraction: float = 0.10,
        index_fraction: float = 0.02,
        swap_fraction: float = 0.02,
    ) -> "RegionMap":
        """Build a region map sized relative to the logical space."""
        if logical_blocks <= 0:
            raise StorageError("logical space must be positive")
        return RegionMap(
            logical_blocks=logical_blocks,
            log_blocks=max(1, int(logical_blocks * log_fraction)),
            index_blocks=max(1, int(logical_blocks * index_fraction)),
            swap_blocks=max(1, int(logical_blocks * swap_fraction)),
        )


class LogAllocator:
    """Append-only allocator over one region, with a free list.

    Blocks freed (when the last reference to a redirected block goes
    away) are recycled in FIFO order before the append frontier moves.
    """

    def __init__(self, base: int, nblocks: int) -> None:
        if nblocks < 0:
            raise StorageError("allocator size must be non-negative")
        self.base = base
        self.nblocks = nblocks
        self._next = base
        self._free: Deque[int] = deque()
        self._allocated: Set[int] = set()

    @property
    def end(self) -> int:
        return self.base + self.nblocks

    @property
    def allocated_count(self) -> int:
        return len(self._allocated)

    @property
    def free_count(self) -> int:
        return self.nblocks - len(self._allocated)

    def allocate(self) -> int:
        """Return a free block, preferring the sequential frontier.

        Sequential-frontier allocation keeps redirected writes mostly
        contiguous, mimicking a log-structured layout.
        """
        if self._next < self.end:
            pba = self._next
            self._next += 1
        elif self._free:
            pba = self._free.popleft()
        else:
            raise StorageError("log region exhausted")
        self._allocated.add(pba)
        return pba

    def free(self, pba: int) -> None:
        """Return a block to the allocator."""
        if pba not in self._allocated:
            raise StorageError(f"double free or foreign block {pba}")
        self._allocated.remove(pba)
        self._free.append(pba)

    def owns(self, pba: int) -> bool:
        return self.base <= pba < self.end

    def is_allocated(self, pba: int) -> bool:
        return pba in self._allocated
