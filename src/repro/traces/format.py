"""Trace records and serialisation.

A trace is an ordered sequence of block-level requests.  Write records
carry one fingerprint per 4 KB block -- exactly like the FIU traces,
whose records include an MD5 of every block's content ("The hash
values of the data chunks are also included with other attributes of
replayed requests", Section IV-A).

The on-disk format is a line-oriented text file, one request per
line::

    <time> <R|W> <lba> <nblocks> [fp1,fp2,...]

which keeps traces diffable and easy to produce from real blkparse
output.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union, overload

from repro.errors import TraceError
from repro.sim.request import IORequest, OpType
from repro.traces.columnar import OP_WRITE, ColumnarTrace


@dataclass(frozen=True)
class TraceRecord:
    """One request in a trace (an immutable mirror of IORequest)."""

    time: float
    op: OpType
    lba: int
    nblocks: int
    fingerprints: Optional[Tuple[int, ...]] = None

    def to_request(self, req_id: int = -1) -> IORequest:
        return IORequest(
            time=self.time,
            op=self.op,
            lba=self.lba,
            nblocks=self.nblocks,
            fingerprints=self.fingerprints,
            req_id=req_id,
        )

    @property
    def is_write(self) -> bool:
        return self.op is OpType.WRITE


#: Records an iteration builds at a time (bounds its transient lists).
_SPAN = 4096


class TraceRecords(Sequence[TraceRecord]):
    """A trace's requests as :class:`TraceRecord` s, built on demand
    from its columns; the view stores nothing else.

    Supports ``len``, indexing, slicing (a list), iteration and ``==``
    against another view or a list of records.  Every field is a plain
    Python ``float``/``int``/``tuple``, never a NumPy scalar.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: ColumnarTrace) -> None:
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns)

    @overload
    def __getitem__(self, index: int) -> TraceRecord: ...

    @overload
    def __getitem__(self, index: slice) -> List[TraceRecord]: ...

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[TraceRecord, List[TraceRecord]]:
        rows = range(len(self.columns))[index]
        if isinstance(rows, int):
            return self._span(rows, rows + 1)[0]
        if rows.step == 1:
            return self._span(rows.start, max(rows.start, rows.stop))
        return [self._span(i, i + 1)[0] for i in rows]

    def __iter__(self) -> Iterator[TraceRecord]:
        n = len(self.columns)
        for lo in range(0, n, _SPAN):
            yield from self._span(lo, min(n, lo + _SPAN))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TraceRecords):
            return self.columns.same_records(other.columns)
        if isinstance(other, (list, tuple)):
            return len(other) == len(self) and all(map(operator.eq, self, other))
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<{len(self)} records of trace {self.columns.name!r}>"

    def _span(self, lo: int, hi: int) -> List[TraceRecord]:
        """Records ``lo`` to ``hi`` (``lo <= hi``), built from the columns."""
        cols = self.columns
        times = cols.times[lo:hi].tolist()
        ops = cols.ops[lo:hi].tolist()
        lbas = cols.lbas[lo:hi].tolist()
        nblocks = cols.nblocks[lo:hi].tolist()
        offsets = cols.fp_offsets[lo : hi + 1].tolist()
        k0 = offsets[0]
        pool = cols.pool
        values = [pool[j] for j in cols.fp_ids[k0 : offsets[-1]].tolist()]
        write, read = OpType.WRITE, OpType.READ
        return [
            TraceRecord(
                time, write, lba, n,
                tuple(values[offsets[i] - k0 : offsets[i + 1] - k0]),
            )
            if op == OP_WRITE
            else TraceRecord(time, read, lba, n, None)
            for i, (time, op, lba, n) in enumerate(zip(times, ops, lbas, nblocks))
        ]


class Trace:
    """An ordered request sequence plus replay metadata, stored only as
    its :class:`~repro.traces.columnar.ColumnarTrace` (``columns``).

    ``name`` ("web-vm", "homes", "mail", ...), ``logical_blocks`` (the
    logical space the trace touches) and ``warmup_count`` (the leading
    requests that only warm the caches, as days 1-14 do in the paper;
    the replay excludes them from the metrics) read through to the
    columns.  ``records`` -- the requests in non-decreasing time order
    -- is a read-only :class:`TraceRecords` view built on demand.

    ``Trace(name, records, logical_blocks, warmup_count)`` interns the
    records and validates them once: a malformed record (wrong
    fingerprint count, a read with fingerprints, a zero-block request,
    a negative LBA or time, time going back, an LBA outside the logical
    space) raises :class:`TraceError` here, not at replay.  :meth:`of`
    wraps existing columns.
    """

    __slots__ = ("columns",)

    def __init__(
        self,
        name: str,
        records: Iterable[TraceRecord],
        logical_blocks: int,
        warmup_count: int = 0,
    ) -> None:
        self.columns = ColumnarTrace.from_records(
            name, records, logical_blocks, warmup_count
        )

    @classmethod
    def of(cls, columns: ColumnarTrace) -> "Trace":
        """A trace over ``columns`` (shared, not copied)."""
        trace = cls.__new__(cls)
        trace.columns = columns
        return trace

    @property
    def name(self) -> str:
        return self.columns.name

    @property
    def logical_blocks(self) -> int:
        return self.columns.logical_blocks

    @property
    def warmup_count(self) -> int:
        return self.columns.warmup_count

    @property
    def records(self) -> TraceRecords:
        return TraceRecords(self.columns)

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        a, b = self.columns, other.columns
        return (a.name, a.logical_blocks, a.warmup_count) == (
            b.name, b.logical_blocks, b.warmup_count
        ) and a.same_records(b)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"Trace(name={self.name!r}, records=<{len(self)}>, "
            f"logical_blocks={self.logical_blocks}, warmup_count={self.warmup_count})"
        )

    @property
    def measured_records(self) -> List[TraceRecord]:
        """The records after the warm-up prefix."""
        return self.records[self.warmup_count :]

    def measured_only(self) -> "Trace":
        """This trace without the warm-up prefix."""
        return Trace(
            name=self.name,
            records=self.measured_records,
            logical_blocks=self.logical_blocks,
            warmup_count=0,
        )

    def requests(self) -> Iterator[IORequest]:
        """Materialise IORequests with stable ids."""
        for i, rec in enumerate(self.records):
            yield rec.to_request(req_id=i)


def save_trace(trace: Trace, path: Union[str, Path]) -> None:
    """Write a trace in the line-oriented text format.

    Times are written with ``repr`` (the shortest string that parses
    back to the same float), so a saved trace loads back as itself."""
    path = Path(path)
    with path.open("w") as fh:
        fh.write(f"# trace {trace.name}\n")
        fh.write(f"# logical_blocks {trace.logical_blocks}\n")
        fh.write(f"# warmup_count {trace.warmup_count}\n")
        for rec in trace.records:
            fps = (
                ",".join(str(f) for f in rec.fingerprints)
                if rec.fingerprints is not None
                else "-"
            )
            fh.write(f"{rec.time!r} {rec.op.value} {rec.lba} {rec.nblocks} {fps}\n")


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a trace written by :func:`save_trace`."""
    path = Path(path)
    name = path.stem
    logical_blocks: Optional[int] = None
    warmup_count = 0
    records: List[TraceRecord] = []
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
                raise TraceError(f"{path}:{lineno}: expected 5 fields, got {len(parts)}")
            time_s, op_s, lba_s, nblocks_s, fps_s = parts
            try:
                op = OpType(op_s)
            except ValueError as exc:
                raise TraceError(f"{path}:{lineno}: bad op {op_s!r}") from exc
            fingerprints: Optional[Tuple[int, ...]] = None
            if fps_s != "-":
                fingerprints = tuple(int(f) for f in fps_s.split(","))
            records.append(
                TraceRecord(
                    time=float(time_s),
                    op=op,
                    lba=int(lba_s),
                    nblocks=int(nblocks_s),
                    fingerprints=fingerprints,
                )
            )
    if logical_blocks is None:
        logical_blocks = max((r.lba + r.nblocks for r in records), default=1)
    return Trace(
        name=name,
        records=records,
        logical_blocks=logical_blocks,
        warmup_count=warmup_count,
    )
