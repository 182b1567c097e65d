"""Volume namespaces: many logical volumes over one shared dedup domain.

POD targets *cloud* primary storage, where most of the redundancy
comes from many VMs/tenants writing near-identical OS and application
blocks (Section I).  To make that representable, the request path is
layered through a volume namespace:

* each tenant sees a private, zero-based logical volume
  (:class:`VolumeNamespace`);
* the :class:`NamespaceMapper` lays the volumes out back-to-back in
  one *global* logical address space, translating
  ``(volume_id, lba) -> global LBA``;
* everything below the mapper -- :class:`~repro.baselines.base.DedupScheme`,
  the Map table, the :class:`~repro.storage.allocator.RegionMap` and
  the allocator -- operates on the global space only, so identical
  content written by *different* volumes collapses onto one physical
  copy exactly like intra-volume duplicates do.

The mapper is pure address arithmetic: it owns no I/O state, costs
O(1) per translation (O(log V) for the reverse lookup) and is
deliberately immutable -- a replay's volume layout is fixed up front,
like a storage array's LUN map.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.errors import StorageError


@dataclass(frozen=True)
class VolumeNamespace:
    """One tenant-visible logical volume inside the shared domain.

    Attributes
    ----------
    volume_id:
        Dense index of the volume (0..V-1), also used by
        :attr:`~repro.sim.request.IORequest.volume_id`.
    name:
        Human-readable identity (e.g. ``"mail/t3"``), used in
        per-volume metric breakdowns.
    logical_blocks:
        Size of the tenant-visible address space, 4 KB blocks.
    base:
        First *global* LBA of this volume in the shared domain.
    """

    volume_id: int
    name: str
    logical_blocks: int
    base: int

    def __post_init__(self) -> None:
        if self.volume_id < 0:
            raise StorageError(f"negative volume id {self.volume_id}")
        if self.logical_blocks <= 0:
            raise StorageError(f"volume {self.name!r} needs a positive logical space")
        if self.base < 0:
            raise StorageError(f"negative base address {self.base}")

    @property
    def end(self) -> int:
        """One past the last global LBA of this volume."""
        return self.base + self.logical_blocks

    def to_global(self, lba: int) -> int:
        """Translate a volume-local LBA into the shared domain."""
        if not (0 <= lba < self.logical_blocks):
            raise StorageError(
                f"LBA {lba} outside volume {self.name!r} "
                f"of {self.logical_blocks} blocks"
            )
        return self.base + lba


class NamespaceMapper:
    """The (volume_id, lba) -> global-LBA translation table.

    Volumes are laid out contiguously in declaration order::

        [ vol 0 ][ vol 1 ] ... [ vol V-1 ]
        0        b1            b_{V-1}      total_logical_blocks

    A single-volume mapper is the identity translation (base 0), which
    is what keeps the classic one-trace replay bit-identical to the
    pre-namespace code path.
    """

    def __init__(self, volumes: Iterable[Tuple[str, int]]) -> None:
        self._volumes: List[VolumeNamespace] = []
        base = 0
        for vid, (name, logical_blocks) in enumerate(volumes):
            ns = VolumeNamespace(
                volume_id=vid, name=name, logical_blocks=logical_blocks, base=base
            )
            self._volumes.append(ns)
            base = ns.end
        if not self._volumes:
            raise StorageError("a namespace mapper needs at least one volume")
        #: Volume base addresses, for the reverse (global -> volume) lookup.
        self._bases: List[int] = [ns.base for ns in self._volumes]

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._volumes)

    def __iter__(self) -> Iterator[VolumeNamespace]:
        return iter(self._volumes)

    @property
    def volumes(self) -> Sequence[VolumeNamespace]:
        return tuple(self._volumes)

    @property
    def total_logical_blocks(self) -> int:
        """Size of the shared (global) logical address space."""
        return self._volumes[-1].end

    def volume(self, volume_id: int) -> VolumeNamespace:
        if not (0 <= volume_id < len(self._volumes)):
            raise StorageError(f"unknown volume id {volume_id}")
        return self._volumes[volume_id]

    # ------------------------------------------------------------------
    # translation
    # ------------------------------------------------------------------

    def to_global(self, volume_id: int, lba: int) -> int:
        """Translate a volume-local LBA into the shared domain."""
        return self.volume(volume_id).to_global(lba)

    def locate(self, global_lba: int) -> Tuple[int, int]:
        """Reverse-translate a global LBA into ``(volume_id, local_lba)``."""
        if not (0 <= global_lba < self.total_logical_blocks):
            raise StorageError(
                f"global LBA {global_lba} outside the shared domain of "
                f"{self.total_logical_blocks} blocks"
            )
        vid = bisect_right(self._bases, global_lba) - 1
        return vid, global_lba - self._bases[vid]
