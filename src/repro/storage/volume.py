"""Logical-volume primitives.

A deduplication scheme plans I/O against the *volume* address space
(physical block addresses, PBAs, spanning the whole array) as a list
of :class:`VolumeOp` extents.  The RAID layer then maps each extent to
per-disk operations.

The :class:`ContentStore` records which fingerprint lives at each PBA.
It is the data-integrity oracle of the simulation: after any sequence
of deduplicated writes, reading back an LBA through a scheme's map
must return the fingerprint most recently written to that LBA.

:func:`coalesce_extents` merges adjacent PBAs into maximal contiguous
runs -- this is where deduplication-induced *fragmentation* becomes
visible: a logically contiguous read whose blocks were deduplicated to
scattered physical locations coalesces into many small extents, each
paying its own seek.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import StorageError
from repro.sim.request import OpType


class VolumeOp:
    """One contiguous extent operation against the volume.

    Hand-written ``__slots__`` class (not a dataclass): schemes create
    one per planned extent, which puts construction on the replay hot
    path.  Treat instances as immutable, like the frozen dataclass
    this used to be.

    Attributes
    ----------
    op:
        READ or WRITE.
    pba:
        First physical block address (volume-wide, in 4 KB blocks).
    nblocks:
        Extent length in blocks.
    """

    __slots__ = ("op", "pba", "nblocks")

    op: OpType
    pba: int
    nblocks: int

    def __init__(self, op: OpType, pba: int, nblocks: int) -> None:
        if pba < 0:
            raise StorageError(f"negative PBA {pba}")
        if nblocks < 1:
            raise StorageError(f"extent length must be >= 1, got {nblocks}")
        self.op = op
        self.pba = pba
        self.nblocks = nblocks

    @property
    def end_pba(self) -> int:
        return self.pba + self.nblocks

    def __repr__(self) -> str:
        return f"VolumeOp(op={self.op!r}, pba={self.pba}, nblocks={self.nblocks})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VolumeOp):
            return NotImplemented
        return (
            self.op is other.op
            and self.pba == other.pba
            and self.nblocks == other.nblocks
        )

    def __hash__(self) -> int:
        return hash((self.op, self.pba, self.nblocks))


def coalesce_extents(pbas: Sequence[int]) -> List[Tuple[int, int]]:
    """Merge a sorted-or-not sequence of PBAs into ``(start, length)`` runs.

    Consecutive addresses merge; duplicates are kept once.  The input
    order does not matter -- a disk read of a set of blocks is planned
    as the minimal set of contiguous extents.

    >>> coalesce_extents([7, 3, 4, 5, 9])
    [(3, 3), (7, 1), (9, 1)]
    """
    if not pbas:
        return []
    ordered = sorted(set(pbas))
    if ordered[-1] - ordered[0] == len(ordered) - 1:
        return [(ordered[0], len(ordered))]  # distinct and spanning: one run
    runs: List[Tuple[int, int]] = []
    start = prev = ordered[0]
    for pba in ordered[1:]:
        if pba == prev + 1:
            prev = pba
            continue
        runs.append((start, prev - start + 1))
        start = prev = pba
    runs.append((start, prev - start + 1))
    return runs


_new_op = object.__new__


def extents_to_ops(op: OpType, pbas: Sequence[int]) -> List[VolumeOp]:
    """Plan the minimal list of :class:`VolumeOp` covering ``pbas``.

    The PBAs are translated or allocated blocks, so each run starts
    at a valid block and spans at least one: the ops are built without
    :class:`VolumeOp`'s checks (one or more per planned request).
    """
    ops: List[VolumeOp] = []
    if not pbas:
        return ops
    runs = [(pbas[0], 1)] if len(pbas) == 1 else coalesce_extents(pbas)
    for start, length in runs:
        vop = _new_op(VolumeOp)
        vop.op = op
        vop.pba = start
        vop.nblocks = length
        ops.append(vop)
    return ops


class ContentStore:
    """Fingerprint-at-PBA bookkeeping for integrity checking.

    This models *what is on the platters*.  It is not consulted for
    timing -- only for correctness assertions in tests and for
    capacity accounting.
    """

    def __init__(self, total_blocks: int) -> None:
        if total_blocks <= 0:
            raise StorageError("volume capacity must be positive")
        self.total_blocks = total_blocks
        self._content: Dict[int, int] = {}

    def __len__(self) -> int:
        """Number of physically occupied blocks."""
        return len(self._content)

    def write(self, pba: int, fingerprint: int) -> None:
        """Record that ``fingerprint`` now lives at ``pba``."""
        if not (0 <= pba < self.total_blocks):
            self._check(pba)
        self._content[pba] = fingerprint

    def read(self, pba: int) -> Optional[int]:
        """Fingerprint stored at ``pba``, or ``None`` if never written."""
        if not (0 <= pba < self.total_blocks):
            self._check(pba)
        return self._content.get(pba)

    def discard(self, pba: int) -> None:
        """Mark ``pba`` free (e.g. after space reclamation)."""
        self._check(pba)
        self._content.pop(pba, None)

    def occupied_blocks(self) -> int:
        """Capacity-in-use, in blocks (what Fig. 10 reports)."""
        return len(self._content)

    def _check(self, pba: int) -> None:
        if not (0 <= pba < self.total_blocks):
            raise StorageError(f"PBA {pba} outside volume of {self.total_blocks} blocks")
