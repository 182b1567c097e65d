"""Workload analysis: the statistics behind Table II and Figs. 1-2.

These functions recompute, from any trace, the numbers the paper
derives from the FIU traces:

* :func:`trace_characteristics` -- Table II (write ratio, I/O count,
  mean request size);
* :func:`redundancy_by_size` -- Fig. 1 (the distribution of I/O
  redundancy among requests of different sizes);
* :func:`io_vs_capacity_redundancy` -- Fig. 2 (write data addressed
  to the same location vs a different location with the same
  content; their sum is the I/O redundancy, the latter alone is the
  capacity redundancy).

The analysis mirrors the paper's definitions (Section II-A): a chunk
is *I/O redundant* if a chunk with identical content was written
earlier in the trace (temporal locality included); it is *capacity
redundant* only if that identical content currently lives at a
different LBA.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.errors import TraceError
from repro.traces.columnar import OP_WRITE
from repro.traces.format import Trace

#: Fig. 1's request-size buckets, in KB (">= 64" is the last bucket).
SIZE_BUCKETS_KB: Tuple[int, ...] = (4, 8, 16, 32, 64)


@dataclass(frozen=True)
class TraceCharacteristics:
    """One Table II row."""

    name: str
    write_ratio: float
    io_count: int
    mean_request_kb: float


def trace_characteristics(trace: Trace, measured_only: bool = True) -> TraceCharacteristics:
    """Compute the Table II row for a trace."""
    cols = trace.columns
    start = trace.warmup_count if measured_only else 0
    count = len(cols) - start
    if not count:
        raise TraceError("empty trace")
    writes = int(np.count_nonzero(cols.ops[start:] == OP_WRITE))
    blocks = int(cols.nblocks[start:].sum())
    return TraceCharacteristics(
        name=trace.name,
        write_ratio=writes / count,
        io_count=count,
        mean_request_kb=blocks * 4.0 / count,
    )


def _bucket_kb(nblocks: int) -> int:
    """Fig. 1 size bucket for a request of ``nblocks`` 4 KB blocks."""
    kb = nblocks * 4
    for bucket in SIZE_BUCKETS_KB[:-1]:
        if kb <= bucket:
            return bucket
    return SIZE_BUCKETS_KB[-1]


@dataclass(frozen=True)
class SizeBucketRow:
    """Fig. 1 data for one request-size bucket."""

    bucket_kb: int
    total: int
    fully_redundant: int
    partially_redundant: int

    @property
    def redundant(self) -> int:
        return self.fully_redundant + self.partially_redundant


def redundancy_by_size(trace: Trace, measured_only: bool = True) -> List[SizeBucketRow]:
    """Fig. 1: write-request totals and redundancy per size bucket.

    A write request is *fully redundant* when every chunk's content
    was written earlier in the trace, *partially redundant* when at
    least one (but not all) was.
    """
    records = trace.measured_records if measured_only else trace.records
    seen: Set[int] = set()
    # Warm the content history with the warm-up prefix so day-15
    # duplicates of day-1..14 content count as redundant, like the
    # paper's analysis over the full three weeks.
    if measured_only:
        for rec in trace.records[: trace.warmup_count]:
            if rec.fingerprints:
                seen.update(rec.fingerprints)
    buckets: Dict[int, List[int]] = {b: [0, 0, 0] for b in SIZE_BUCKETS_KB}
    for rec in records:
        if not rec.is_write:
            continue
        assert rec.fingerprints is not None
        dup = sum(1 for fp in rec.fingerprints if fp in seen)
        seen.update(rec.fingerprints)
        row = buckets[_bucket_kb(rec.nblocks)]
        row[0] += 1
        if dup == rec.nblocks:
            row[1] += 1
        elif dup > 0:
            row[2] += 1
    return [
        SizeBucketRow(b, total, full, partial)
        for b, (total, full, partial) in sorted(buckets.items())
    ]


@dataclass(frozen=True)
class RedundancyBreakdown:
    """Fig. 2 data: percentages of all written blocks.

    ``same_location_pct + different_location_pct`` is the I/O
    redundancy; ``different_location_pct`` alone is the capacity
    redundancy that capacity-oriented schemes can harvest.
    """

    name: str
    same_location_pct: float
    different_location_pct: float

    @property
    def io_redundancy_pct(self) -> float:
        return self.same_location_pct + self.different_location_pct

    @property
    def capacity_redundancy_pct(self) -> float:
        return self.different_location_pct


def io_vs_capacity_redundancy(trace: Trace, measured_only: bool = True) -> RedundancyBreakdown:
    """Fig. 2: same-location vs different-location write redundancy.

    Walks the trace maintaining the current content of every LBA and
    a content -> location-count map:

    * a written chunk whose LBA already holds the same content is
      **same-location** redundant (pure I/O redundancy: eliminating
      it saves the write but no capacity);
    * a chunk whose content exists at some *other* LBA is
      **different-location** redundant (capacity redundancy).
    """
    current: Dict[int, int] = {}  # lba -> fp
    locations: Dict[int, int] = {}  # fp -> number of LBAs holding it
    same = diff = total = 0
    start = trace.warmup_count if measured_only else 0
    for i, rec in enumerate(trace.records):
        if not rec.is_write:
            continue
        assert rec.fingerprints is not None
        counted = i >= start
        for k, fp in enumerate(rec.fingerprints):
            lba = rec.lba + k
            old = current.get(lba)
            if counted:
                total += 1
                if old == fp:
                    same += 1
                elif locations.get(fp, 0) > 0:
                    diff += 1
            # apply the write
            if old is not None:
                remaining = locations.get(old, 0) - 1
                if remaining <= 0:
                    locations.pop(old, None)
                else:
                    locations[old] = remaining
            current[lba] = fp
            locations[fp] = locations.get(fp, 0) + 1
    if total == 0:
        raise TraceError("trace has no measured write blocks")
    return RedundancyBreakdown(
        name=trace.name,
        same_location_pct=same / total * 100.0,
        different_location_pct=diff / total * 100.0,
    )
