"""Columnar (structure-of-arrays) traces: the one stored form of a trace.

A :class:`ColumnarTrace` holds one trace in NumPy columns:

* ``times`` / ``ops`` / ``lbas`` / ``nblocks`` -- one entry per
  request (``ops`` is 0 for reads, 1 for writes);
* ``fp_offsets`` / ``fp_ids`` -- a CSR layout of the per-block write
  fingerprints: request ``i``'s chunks are
  ``fp_ids[fp_offsets[i]:fp_offsets[i+1]]`` (empty for reads);
* ``pool`` -- the interned fingerprint values.  Fingerprint *values*
  are arbitrary-precision ints (FIU traces carry 128-bit MD5s), so the
  pool stays a Python list and the columns index into it with small
  dtypes.  Every trace this package builds interns canonically: the
  pool holds distinct values, numbered in first-occurrence order.

A :class:`~repro.traces.format.Trace` holds one of these and builds its
``records`` on demand; the generator, salting and cloning write
columns, and both replay loops read them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.errors import TraceError
from repro.sim.request import OpType

if TYPE_CHECKING:
    from repro.traces.format import Trace, TraceRecord

__all__ = [
    "ColumnarTrace",
    "MergedColumns",
    "intern_fingerprints",
    "merge_columnar",
]

#: ``ops`` column encoding.
OP_READ = 0
OP_WRITE = 1


def intern_fingerprints(values: Iterable[int]) -> Tuple[np.ndarray, List[int]]:
    """Intern a flat fingerprint sequence: ``(fp_ids, pool)`` with
    ``pool[fp_ids[k]] == values[k]``, the distinct values numbered in
    first-occurrence order."""
    intern: Dict[int, int] = {}
    add = intern.setdefault
    return np.array([add(v, len(intern)) for v in values], dtype=np.int64), list(intern)


class ColumnarTrace:
    """One trace as NumPy columns plus an interned fingerprint pool."""

    __slots__ = (
        "name",
        "logical_blocks",
        "warmup_count",
        "times",
        "ops",
        "lbas",
        "nblocks",
        "fp_offsets",
        "fp_ids",
        "pool",
    )

    def __init__(
        self,
        name: str,
        logical_blocks: int,
        warmup_count: int,
        times: np.ndarray,
        ops: np.ndarray,
        lbas: np.ndarray,
        nblocks: np.ndarray,
        fp_offsets: np.ndarray,
        fp_ids: np.ndarray,
        pool: List[int],
        validate: bool = True,
    ) -> None:
        self.name = name
        self.logical_blocks = logical_blocks
        self.warmup_count = warmup_count
        self.times = times
        self.ops = ops
        self.lbas = lbas
        self.nblocks = nblocks
        self.fp_offsets = fp_offsets
        self.fp_ids = fp_ids
        self.pool = pool
        if validate:
            self._validate()

    # ------------------------------------------------------------------
    # validation (vectorized mirror of Trace/IORequest checks)
    # ------------------------------------------------------------------

    def _validate(self) -> None:
        n = len(self.times)
        if not (
            len(self.ops) == len(self.lbas) == len(self.nblocks) == n
            and len(self.fp_offsets) == n + 1
        ):
            raise TraceError("columnar trace: column lengths disagree")
        if self.logical_blocks <= 0:
            raise TraceError("trace needs a positive logical space")
        if not (0 <= self.warmup_count <= n):
            raise TraceError("warmup count outside the trace")
        if n == 0:
            return
        if np.any(np.diff(self.times) < 0):
            raise TraceError("columnar trace goes back in time")
        if float(self.times[0]) < 0:
            raise TraceError("negative timestamp")
        if np.any(self.nblocks < 1):
            raise TraceError("request length must be >= 1 block")
        if np.any(self.lbas < 0):
            raise TraceError("negative LBA")
        if np.any(self.lbas + self.nblocks > self.logical_blocks):
            raise TraceError(
                f"record touches an LBA outside logical space {self.logical_blocks}"
            )
        counts = np.diff(self.fp_offsets)
        writes = self.ops == OP_WRITE
        if np.any(counts[writes] != self.nblocks[writes]):
            raise TraceError("write fingerprint count disagrees with nblocks")
        if np.any(counts[~writes] != 0):
            raise TraceError("read request must not carry fingerprints")
        if len(self.fp_ids) and (
            int(self.fp_ids.min()) < 0 or int(self.fp_ids.max()) >= len(self.pool)
        ):
            raise TraceError("fingerprint id outside the interned pool")

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.times)

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------

    @property
    def columns(self) -> "ColumnarTrace":
        """This trace's columns: itself (a :class:`Trace` holds one),
        so a replay reads ``t.columns`` of either kind."""
        return self

    @classmethod
    def from_lists(
        cls,
        name: str,
        logical_blocks: int,
        warmup_count: int,
        times: List[float],
        ops: List[int],
        lbas: List[int],
        nblocks: List[int],
        fp_offsets: List[int],
        fingerprints: List[int],
    ) -> "ColumnarTrace":
        """Build (and validate) from per-request lists plus the flat
        fingerprint values, which are interned here."""
        fp_ids, pool = intern_fingerprints(fingerprints)
        return cls(
            name=name,
            logical_blocks=logical_blocks,
            warmup_count=warmup_count,
            times=np.array(times, dtype=np.float64),
            ops=np.array(ops, dtype=np.uint8),
            lbas=np.array(lbas, dtype=np.int64),
            nblocks=np.array(nblocks, dtype=np.int64),
            fp_offsets=np.array(fp_offsets, dtype=np.int64),
            fp_ids=fp_ids,
            pool=pool,
        )

    @classmethod
    def from_records(
        cls,
        name: str,
        records: Iterable["TraceRecord"],
        logical_blocks: int,
        warmup_count: int = 0,
    ) -> "ColumnarTrace":
        """Intern request records into columns, validated once: a
        record the event loop's :class:`~repro.sim.request.IORequest`
        would refuse is refused here with the same :class:`TraceError`
        (both loops then build their requests unchecked)."""
        times: List[float] = []
        ops: List[int] = []
        lbas: List[int] = []
        nblocks: List[int] = []
        fp_offsets = [0]
        flat: List[int] = []
        write = OpType.WRITE
        for rec in records:
            times.append(rec.time)
            ops.append(OP_WRITE if rec.op is write else OP_READ)
            lbas.append(rec.lba)
            nblocks.append(rec.nblocks)
            if rec.fingerprints is not None:
                flat.extend(rec.fingerprints)
            fp_offsets.append(len(flat))
        return cls.from_lists(
            name, logical_blocks, warmup_count, times, ops, lbas, nblocks,
            fp_offsets, flat,
        )

    @classmethod
    def from_trace(cls, trace: "Trace") -> "ColumnarTrace":
        """The trace's own columns (no copy)."""
        return trace.columns

    def to_trace(self) -> "Trace":
        """A :class:`Trace` handle on these columns (no copy)."""
        from repro.traces.format import Trace

        return Trace.of(self)

    def replace(self, **changes: Any) -> "ColumnarTrace":
        """These columns with ``changes`` (fields by name); the rest are
        shared, not copied, and nothing is validated again: a change
        must keep the columns valid."""
        return ColumnarTrace(validate=False, **{**self.payload(), **changes})

    def fp_values(self) -> List[int]:
        """Every write block's fingerprint value, in stream order."""
        pool = self.pool
        return [pool[j] for j in self.fp_ids.tolist()]

    def same_records(self, other: "ColumnarTrace") -> bool:
        """Do both hold the same requests (times, ops, LBAs, lengths
        and fingerprint values), whatever their pools' order?"""
        return self is other or (
            len(self) == len(other)
            and all(
                np.array_equal(getattr(self, col), getattr(other, col))
                for col in ("times", "ops", "lbas", "nblocks", "fp_offsets")
            )
            and self.fp_values() == other.fp_values()
        )

    # ------------------------------------------------------------------
    # worker shipping (process-parallel shard replay)
    # ------------------------------------------------------------------

    def payload(self) -> Dict[str, Any]:
        """A plain-dict form for cheap pickling to worker processes.

        NumPy arrays pickle as flat buffers -- orders of magnitude
        cheaper than a deep list of per-record objects, which is what
        makes per-shard process-parallel replay worth its dispatch
        cost.
        """
        return {
            "name": self.name,
            "logical_blocks": self.logical_blocks,
            "warmup_count": self.warmup_count,
            "times": self.times,
            "ops": self.ops,
            "lbas": self.lbas,
            "nblocks": self.nblocks,
            "fp_offsets": self.fp_offsets,
            "fp_ids": self.fp_ids,
            "pool": self.pool,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "ColumnarTrace":
        """Rebuild from :meth:`payload` output (validated on entry)."""
        return cls(validate=True, **payload)


# ----------------------------------------------------------------------
# multi-volume merge
# ----------------------------------------------------------------------


@dataclass(eq=False)
class MergedColumns:
    """N volume streams merge-sorted into one global columnar stream.

    Requests are rebased into their volume's slice of the shared
    domain, global request ids are positional, and the merge is stable
    (equal timestamps keep volume order).  ``measured`` flags requests
    past their own volume's warm-up prefix.  The columnar driver plans
    straight off it, and the event loop builds its requests from it
    (:func:`repro.sim.replay._merge_streams`).
    """

    times: np.ndarray
    ops: np.ndarray
    lbas: np.ndarray
    nblocks: np.ndarray
    volume_ids: np.ndarray
    measured: np.ndarray
    fp_offsets: np.ndarray
    fp_ids: np.ndarray
    pool: List[int]

    def __len__(self) -> int:
        return len(self.times)


def merge_columnar(
    ctraces: Sequence[ColumnarTrace], bases: Sequence[int]
) -> MergedColumns:
    """Stable-merge N columnar volumes into one global stream.

    ``bases`` are the per-volume LBA offsets assigned by the
    :class:`~repro.storage.namespace.NamespaceMapper`.  Equivalent to
    ``heapq.merge`` keyed on timestamp with ties broken by volume
    order -- implemented as one stable argsort over the concatenated
    columns.
    """
    if len(ctraces) != len(bases):
        raise TraceError("need one base offset per volume")
    if not ctraces:
        raise TraceError("merge_columnar needs at least one volume")

    if len(ctraces) == 1:
        # Single volume: times are already sorted (validated), so the
        # stable argsort below is the identity permutation and the
        # merge can share the trace's columns directly.
        ct = ctraces[0]
        base = bases[0]
        n = len(ct)
        return MergedColumns(
            times=ct.times,
            ops=ct.ops,
            lbas=ct.lbas if base == 0 else ct.lbas + base,
            nblocks=ct.nblocks,
            volume_ids=np.zeros(n, dtype=np.int64),
            measured=np.arange(n, dtype=np.int64) >= ct.warmup_count,
            fp_offsets=ct.fp_offsets,
            fp_ids=ct.fp_ids,
            pool=ct.pool,
        )

    # Unify the fingerprint pools (chunk ids remapped into the merged
    # pool; values can exceed int64 so the pool stays a Python list).
    # A new fingerprint's id is the intern table's size as it arrives,
    # so the table's keys, in order, are the merged pool.
    intern: Dict[int, int] = {}
    add = intern.setdefault
    remapped: List[np.ndarray] = []
    for ct in ctraces:
        remap = np.array([add(fp, len(intern)) for fp in ct.pool], dtype=np.int64)
        remapped.append(
            remap[ct.fp_ids] if len(ct.fp_ids) else np.empty(0, dtype=np.int64)
        )
    pool: List[int] = list(intern)

    times = np.concatenate([ct.times for ct in ctraces])
    # Stable sort on time == heapq.merge order: ties keep concatenation
    # order, which is volume order then within-volume order.
    order = np.argsort(times, kind="stable")

    ops = np.concatenate([ct.ops for ct in ctraces])[order]
    lbas = np.concatenate(
        [ct.lbas + base for ct, base in zip(ctraces, bases)]
    )[order]
    nblocks = np.concatenate([ct.nblocks for ct in ctraces])[order]
    volume_ids = np.concatenate(
        [np.full(len(ct), vid, dtype=np.int64) for vid, ct in enumerate(ctraces)]
    )[order]
    measured = np.concatenate(
        [
            np.arange(len(ct), dtype=np.int64) >= ct.warmup_count
            for ct in ctraces
        ]
    )[order]

    # Re-gather the CSR fingerprint columns in merged request order:
    # merged chunk slot p of request r (source row order[r]) reads
    # source chunk src_start[order[r]] + (p - fp_offsets[r]), one
    # ``np.repeat`` index gather for the whole stream.
    src_counts = np.concatenate([np.diff(ct.fp_offsets) for ct in ctraces])
    src_starts = np.zeros(len(src_counts), dtype=np.int64)
    np.cumsum(src_counts[:-1], out=src_starts[1:])
    chunk_counts = src_counts[order]
    fp_offsets = np.zeros(len(times) + 1, dtype=np.int64)
    np.cumsum(chunk_counts, out=fp_offsets[1:])
    all_ids = (
        np.concatenate(remapped) if pool else np.empty(0, dtype=np.int64)
    )
    gather = np.repeat(src_starts[order] - fp_offsets[:-1], chunk_counts)
    gather += np.arange(len(gather), dtype=np.int64)
    fp_ids = all_ids[gather]

    return MergedColumns(
        times=times[order],
        ops=ops,
        lbas=lbas,
        nblocks=nblocks,
        volume_ids=volume_ids,
        measured=measured,
        fp_offsets=fp_offsets,
        fp_ids=fp_ids,
        pool=pool,
    )
