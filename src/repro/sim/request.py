"""I/O request model.

An :class:`IORequest` is a block-granular read or write as seen at the
block-device interface, i.e. *after* the file-system / buffer-cache
layers (the FIU traces the paper replays were collected beneath the
buffer cache).  Write requests carry one fingerprint per 4 KB chunk;
the fingerprint stands in for the SHA-1 of the chunk's content, so two
chunks are duplicates iff their fingerprints are equal.

Both classes here are deliberately *not* dataclasses: the replay hot
path materialises one ``IORequest`` per trace record and several
``DiskOp`` objects per request, so they are hand-written ``__slots__``
classes (no per-instance ``__dict__``, no generated-``__init__``
indirection).  Both replay loops construct their requests through
:meth:`IORequest.raw`, which skips re-validation of
fields the columnar layer already validated (a trace's columns are
checked, as this class checks a request, when the trace is built).
"""

from __future__ import annotations

import enum
from typing import Optional, Sequence, Tuple

from repro.constants import BLOCK_SIZE
from repro.errors import TraceError


class OpType(enum.Enum):
    """Direction of an I/O request."""

    READ = "R"
    WRITE = "W"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class IORequest:
    """A single block-level I/O request.

    Parameters
    ----------
    time:
        Arrival timestamp, in seconds from the start of the trace.
    op:
        :attr:`OpType.READ` or :attr:`OpType.WRITE`.
    lba:
        First logical block address, in 4 KB blocks.
    nblocks:
        Request length in 4 KB blocks (>= 1).
    fingerprints:
        For writes, a tuple with one content fingerprint per block.
        ``None`` for reads.
    req_id:
        Optional stable identifier (assigned by the replay harness).
    volume_id:
        Which logical volume (tenant namespace) issued the request.
        ``0`` for single-volume replays; the multi-volume replay
        driver assigns one id per merged trace stream.  Note that
        :attr:`lba` is interpreted in whatever address space the
        consumer operates on -- the replay harness hands schemes
        requests whose LBAs were already translated to the *global*
        (shared dedup domain) space by the
        :class:`~repro.storage.namespace.NamespaceMapper`.
    """

    __slots__ = ("time", "op", "lba", "nblocks", "fingerprints", "req_id", "volume_id")

    def __init__(
        self,
        time: float,
        op: OpType,
        lba: int,
        nblocks: int,
        fingerprints: Optional[Tuple[int, ...]] = None,
        req_id: int = -1,
        volume_id: int = 0,
    ) -> None:
        if nblocks < 1:
            raise TraceError(f"request length must be >= 1 block, got {nblocks}")
        if lba < 0:
            raise TraceError(f"negative LBA {lba}")
        if volume_id < 0:
            raise TraceError(f"negative volume id {volume_id}")
        if time < 0:
            raise TraceError(f"negative timestamp {time}")
        if op is OpType.WRITE:
            if fingerprints is None:
                raise TraceError("write request requires per-block fingerprints")
            if len(fingerprints) != nblocks:
                raise TraceError(
                    f"write of {nblocks} blocks carries "
                    f"{len(fingerprints)} fingerprints"
                )
        elif fingerprints is not None:
            raise TraceError("read request must not carry fingerprints")
        self.time = time
        self.op = op
        self.lba = lba
        self.nblocks = nblocks
        self.fingerprints = fingerprints
        self.req_id = req_id
        self.volume_id = volume_id

    @classmethod
    def raw(
        cls,
        time: float,
        op: OpType,
        lba: int,
        nblocks: int,
        fingerprints: Optional[Tuple[int, ...]],
        req_id: int,
        volume_id: int,
    ) -> "IORequest":
        """Construct without validation.

        Only for callers that re-materialise requests from an already
        validated source (a :class:`~repro.traces.columnar.ColumnarTrace`
        checks every record's shape, time and LBA range on construction)
        -- the hot path must not pay for the same checks twice.
        """
        self = cls.__new__(cls)
        self.time = time
        self.op = op
        self.lba = lba
        self.nblocks = nblocks
        self.fingerprints = fingerprints
        self.req_id = req_id
        self.volume_id = volume_id
        return self

    def __repr__(self) -> str:
        return (
            f"IORequest(time={self.time!r}, op={self.op!r}, lba={self.lba!r}, "
            f"nblocks={self.nblocks!r}, fingerprints={self.fingerprints!r}, "
            f"req_id={self.req_id!r}, volume_id={self.volume_id!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IORequest):
            return NotImplemented
        # Value equality over the record's fields (what the replaced
        # dataclass generated): timestamps here are trace *identity*,
        # not derived simulation times.
        return (
            self.time == other.time  # pod: ignore[POD003]
            and self.op is other.op
            and self.lba == other.lba
            and self.nblocks == other.nblocks
            and self.fingerprints == other.fingerprints
            and self.req_id == other.req_id
            and self.volume_id == other.volume_id
        )

    @property
    def size_bytes(self) -> int:
        """Request size in bytes."""
        return self.nblocks * BLOCK_SIZE

    @property
    def is_write(self) -> bool:
        return self.op is OpType.WRITE

    @property
    def is_read(self) -> bool:
        return self.op is OpType.READ

    @property
    def end_lba(self) -> int:
        """One past the last LBA touched by this request."""
        return self.lba + self.nblocks

    def blocks(self) -> range:
        """Iterate the LBAs covered by this request."""
        return range(self.lba, self.lba + self.nblocks)

    @staticmethod
    def write(
        time: float,
        lba: int,
        fingerprints: Sequence[int],
        req_id: int = -1,
        volume_id: int = 0,
    ) -> "IORequest":
        """Convenience constructor for a write covering ``len(fingerprints)`` blocks."""
        return IORequest(
            time=time,
            op=OpType.WRITE,
            lba=lba,
            nblocks=len(fingerprints),
            fingerprints=tuple(fingerprints),
            req_id=req_id,
            volume_id=volume_id,
        )

    @staticmethod
    def read(
        time: float, lba: int, nblocks: int, req_id: int = -1, volume_id: int = 0
    ) -> "IORequest":
        """Convenience constructor for a read of ``nblocks`` blocks."""
        return IORequest(
            time=time,
            op=OpType.READ,
            lba=lba,
            nblocks=nblocks,
            req_id=req_id,
            volume_id=volume_id,
        )


class DiskOp:
    """A physical operation issued to one member disk.

    Produced by the RAID layer when it translates a volume-level
    extent operation; consumed by the engine, which serialises the
    per-disk queue and computes mechanical service times.  Value
    semantics (equality, hashing) are those of the frozen dataclass it
    replaced; instances are treated as immutable by convention.

    Attributes
    ----------
    disk_id:
        Index of the member disk.
    op:
        READ or WRITE (parity updates are writes).
    pba:
        First physical block address *on that disk*.
    nblocks:
        Length in blocks.
    """

    __slots__ = ("disk_id", "op", "pba", "nblocks")

    def __init__(self, disk_id: int, op: OpType, pba: int, nblocks: int) -> None:
        if nblocks < 1:
            raise TraceError(f"disk op length must be >= 1, got {nblocks}")
        if pba < 0:
            raise TraceError(f"negative PBA {pba}")
        self.disk_id = disk_id
        self.op = op
        self.pba = pba
        self.nblocks = nblocks

    def __repr__(self) -> str:
        return (
            f"DiskOp(disk_id={self.disk_id!r}, op={self.op!r}, "
            f"pba={self.pba!r}, nblocks={self.nblocks!r})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiskOp):
            return NotImplemented
        return (
            self.disk_id == other.disk_id
            and self.op is other.op
            and self.pba == other.pba
            and self.nblocks == other.nblocks
        )

    def __hash__(self) -> int:
        return hash((self.disk_id, self.op, self.pba, self.nblocks))
