"""Columnar (structure-of-arrays) trace representation.

The object replay path materialises one Python object per request; at
fleet scale that caps every experiment at interpreter speed.  A
:class:`ColumnarTrace` stores the same information as a
:class:`~repro.traces.format.Trace` in NumPy columns:

* ``times`` / ``ops`` / ``lbas`` / ``nblocks`` -- one entry per
  request (``ops`` is 0 for reads, 1 for writes);
* ``fp_offsets`` / ``fp_ids`` -- a CSR layout of the per-block write
  fingerprints: request ``i``'s chunks are
  ``fp_ids[fp_offsets[i]:fp_offsets[i+1]]`` (empty for reads);
* ``pool`` -- the interned fingerprint values.  Fingerprint *values*
  are arbitrary-precision ints (FIU traces carry 128-bit MD5s), so the
  pool stays a Python list and the columns index into it with small
  dtypes.

The representation is lossless: ``from_trace`` / ``to_trace`` round-
trip exactly (property-tested), and the columnar replay driver in
:mod:`repro.sim.batch` is bit-identical to the object path.

Batch classification for reporting happens here too:
:func:`classify_chunks` buckets every chunk as unique / cold / hot by
global occurrence count (the hot set is what POD's Index table is
designed to capture).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import TraceError
from repro.sim.request import OpType
from repro.traces.format import Trace, TraceRecord

__all__ = [
    "ColumnarTrace",
    "MergedColumns",
    "merge_columnar",
    "classify_chunks",
    "load_trace_columnar",
]

#: ``ops`` column encoding.
OP_READ = 0
OP_WRITE = 1


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

    @property
    def total_chunks(self) -> int:
        """Total write chunks (= fingerprint column length)."""
        return len(self.fp_ids)

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------

    @classmethod
    def from_trace(cls, trace: Trace) -> "ColumnarTrace":
        """Intern a request-level trace into columns (lossless)."""
        times: List[float] = []
        ops: List[int] = []
        lbas: List[int] = []
        nblocks: List[int] = []
        fp_offsets = [0]
        fp_ids: List[int] = []
        pool: List[int] = []
        intern: Dict[int, int] = {}
        get_fid = intern.get
        append_fp = fp_ids.append
        for rec in trace.records:
            times.append(rec.time)
            ops.append(OP_WRITE if rec.op is OpType.WRITE else OP_READ)
            lbas.append(rec.lba)
            nblocks.append(rec.nblocks)
            if rec.fingerprints is not None:
                for fp in rec.fingerprints:
                    fid = get_fid(fp)
                    if fid is None:
                        fid = intern[fp] = len(pool)
                        pool.append(fp)
                    append_fp(fid)
            fp_offsets.append(len(fp_ids))
        return cls(
            name=trace.name,
            logical_blocks=trace.logical_blocks,
            warmup_count=trace.warmup_count,
            times=np.array(times, dtype=np.float64),
            ops=np.array(ops, dtype=np.uint8),
            lbas=np.array(lbas, dtype=np.int64),
            nblocks=np.array(nblocks, dtype=np.int64),
            fp_offsets=np.array(fp_offsets, dtype=np.int64),
            fp_ids=np.array(fp_ids, dtype=np.int64),
            pool=pool,
            validate=False,  # the Trace already validated every record
        )

    def to_trace(self) -> Trace:
        """Materialise back to a request-level :class:`Trace`."""
        records: List[TraceRecord] = []
        pool = self.pool
        offsets = self.fp_offsets
        fp_ids = self.fp_ids
        for i in range(len(self.times)):
            is_write = self.ops[i] == OP_WRITE
            fps: Optional[Tuple[int, ...]] = None
            if is_write:
                fps = tuple(pool[j] for j in fp_ids[offsets[i] : offsets[i + 1]])
            records.append(
                TraceRecord(
                    time=float(self.times[i]),
                    op=OpType.WRITE if is_write else OpType.READ,
                    lba=int(self.lbas[i]),
                    nblocks=int(self.nblocks[i]),
                    fingerprints=fps,
                )
            )
        return Trace(
            name=self.name,
            records=records,
            logical_blocks=self.logical_blocks,
            warmup_count=self.warmup_count,
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


class MergedColumns:
    """N volume streams merge-sorted into one global columnar stream.

    The columnar mirror of :func:`repro.sim.replay._merge_streams`:
    requests are rebased into their volume's slice of the shared
    domain, global request ids are positional, and the merge is stable
    (equal timestamps keep volume order).  ``measured`` flags requests
    past their own volume's warm-up prefix.
    """

    __slots__ = (
        "times",
        "ops",
        "lbas",
        "nblocks",
        "volume_ids",
        "measured",
        "fp_offsets",
        "fp_ids",
        "pool",
    )

    def __init__(
        self,
        times: np.ndarray,
        ops: np.ndarray,
        lbas: np.ndarray,
        nblocks: np.ndarray,
        volume_ids: np.ndarray,
        measured: np.ndarray,
        fp_offsets: np.ndarray,
        fp_ids: np.ndarray,
        pool: List[int],
    ) -> None:
        self.times = times
        self.ops = ops
        self.lbas = lbas
        self.nblocks = nblocks
        self.volume_ids = volume_ids
        self.measured = measured
        self.fp_offsets = fp_offsets
        self.fp_ids = fp_ids
        self.pool = pool

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
    pool: List[int] = []
    intern: Dict[int, int] = {}
    remapped: List[np.ndarray] = []
    for ct in ctraces:
        remap = np.empty(len(ct.pool), dtype=np.int64)
        for local_id, fp in enumerate(ct.pool):
            fid = intern.get(fp)
            if fid is None:
                fid = len(pool)
                intern[fp] = fid
                pool.append(fp)
            remap[local_id] = fid
        remapped.append(
            remap[ct.fp_ids] if len(ct.fp_ids) else np.empty(0, dtype=np.int64)
        )

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


# ----------------------------------------------------------------------
# vectorized fingerprint classification
# ----------------------------------------------------------------------


def classify_chunks(
    fp_ids: np.ndarray, hot_threshold: int = 3
) -> Dict[str, int]:
    """Bucket every write chunk by global fingerprint popularity.

    * ``unique`` -- its fingerprint occurs exactly once in the stream;
    * ``cold``   -- duplicated, but fewer than ``hot_threshold`` times;
    * ``hot``    -- duplicated ``hot_threshold`` or more times (the
      working set POD's hot-entry-only Index table is built to hold).

    Pure observation over the columns (one ``bincount``), for
    reporting.
    """
    if hot_threshold < 2:
        raise TraceError("hot_threshold must be >= 2")
    total = int(len(fp_ids))
    if total == 0:
        return {"chunks": 0, "unique": 0, "cold": 0, "hot": 0, "distinct": 0}
    counts = np.bincount(fp_ids)
    per_chunk = counts[fp_ids]
    unique = int(np.count_nonzero(per_chunk == 1))
    hot = int(np.count_nonzero(per_chunk >= hot_threshold))
    return {
        "chunks": total,
        "unique": unique,
        "cold": total - unique - hot,
        "hot": hot,
        "distinct": int(np.count_nonzero(counts)),
    }


# ----------------------------------------------------------------------
# native columnar loader (text trace format)
# ----------------------------------------------------------------------


def load_trace_columnar(path: Union[str, Path]) -> ColumnarTrace:
    """Parse a saved trace file directly into columns.

    The columnar twin of :func:`repro.traces.format.load_trace`:
    requests never exist as per-record objects, only as rows in the
    output arrays (the fingerprint pool is interned during the scan).
    """
    path = Path(path)
    name = path.stem
    logical_blocks: Optional[int] = None
    warmup_count = 0
    times: List[float] = []
    ops: List[int] = []
    lbas: List[int] = []
    nblocks: List[int] = []
    offsets: List[int] = [0]
    fp_ids: List[int] = []
    pool: List[int] = []
    intern: Dict[int, int] = {}
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if len(parts) >= 2 and parts[0] == "trace":
                    name = parts[1]
                elif len(parts) >= 2 and parts[0] == "logical_blocks":
                    logical_blocks = int(parts[1])
                elif len(parts) >= 2 and parts[0] == "warmup_count":
                    warmup_count = int(parts[1])
                continue
            parts = line.split()
            if len(parts) != 5:
                raise TraceError(
                    f"{path}:{lineno}: expected 5 fields, got {len(parts)}"
                )
            time_s, op_s, lba_s, nblocks_s, fps_s = parts
            if op_s == "W":
                ops.append(OP_WRITE)
            elif op_s == "R":
                ops.append(OP_READ)
            else:
                raise TraceError(f"{path}:{lineno}: bad op {op_s!r}")
            times.append(float(time_s))
            lbas.append(int(lba_s))
            nblocks.append(int(nblocks_s))
            if fps_s != "-":
                for tok in fps_s.split(","):
                    fp = int(tok)
                    fid = intern.get(fp)
                    if fid is None:
                        fid = len(pool)
                        intern[fp] = fid
                        pool.append(fp)
                    fp_ids.append(fid)
            offsets.append(len(fp_ids))
    if logical_blocks is None:
        logical_blocks = max(
            (lba + n for lba, n in zip(lbas, nblocks)), default=1
        )
    return ColumnarTrace(
        name=name,
        logical_blocks=logical_blocks,
        warmup_count=warmup_count,
        times=np.asarray(times, dtype=np.float64),
        ops=np.asarray(ops, dtype=np.uint8),
        lbas=np.asarray(lbas, dtype=np.int64),
        nblocks=np.asarray(nblocks, dtype=np.int64),
        fp_offsets=np.asarray(offsets, dtype=np.int64),
        fp_ids=np.asarray(fp_ids, dtype=np.int64),
        pool=pool,
    )
