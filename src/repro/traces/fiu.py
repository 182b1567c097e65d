"""FIU SyLab blkparse-style per-block records and request reconstruction.

The traces the paper replays store one record *per fixed-size chunk*,
each carrying the chunk's content hash; the authors note that "the
original requests are reconstructed according to their timestamp, LBA
and length" (Section IV-A).  This module provides both directions so
users holding real FIU-style traces can replay them through this
library:

* :func:`explode_trace` / :func:`write_fiu` -- split a request-level
  :class:`~repro.traces.format.Trace` into per-block records (useful
  for round-trip testing and for emitting FIU-compatible files);
* :func:`read_fiu` / :func:`reconstruct_requests` -- parse per-block
  records and merge runs with identical timestamp and operation and
  consecutive addresses back into multi-block requests.

Record line format (whitespace-separated, one 4 KB block each)::

    <timestamp> <pid> <process> <lba> <blocks> <R|W> <major> <minor> <hash>

``lba``/``blocks`` are in 4 KB units; ``hash`` is the chunk's content
hash in hex (``-`` for reads).  Real FIU traces use 512-byte sector
addressing and MD5 hashes; :func:`read_fiu` accepts a
``sector_addressing=True`` flag that converts 512-byte sectors to 4 KB
blocks on the fly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Tuple, Union

from repro.errors import TraceError
from repro.sim.request import OpType
from repro.traces.format import Trace, TraceRecord

#: 4 KB blocks per 512-byte sector addressing unit.
SECTORS_PER_BLOCK = 8


@dataclass(frozen=True)
class FiuRecord:
    """One per-block record of an FIU-style trace."""

    time: float
    pid: int
    process: str
    lba: int
    op: OpType
    fingerprint: Optional[int]

    def line(self) -> str:
        fp = f"{self.fingerprint:032x}" if self.fingerprint is not None else "-"
        # repr keeps the full float precision so a write/read round
        # trip reproduces timestamps exactly.
        return (
            f"{self.time!r} {self.pid} {self.process} {self.lba} 1 "
            f"{self.op.value} 8 0 {fp}"
        )


def explode_trace(trace: Trace, pid: int = 1000, process: str = "repro") -> Iterator[FiuRecord]:
    """Split every request into per-block FIU records (same timestamp)."""
    for rec in trace.records:
        for i in range(rec.nblocks):
            yield FiuRecord(
                time=rec.time,
                pid=pid,
                process=process,
                lba=rec.lba + i,
                op=rec.op,
                fingerprint=rec.fingerprints[i] if rec.fingerprints else None,
            )


def write_fiu(trace: Trace, path: Union[str, Path]) -> int:
    """Write a trace as per-block FIU records; returns the line count."""
    path = Path(path)
    count = 0
    with path.open("w") as fh:
        for record in explode_trace(trace):
            fh.write(record.line() + "\n")
            count += 1
    return count


def read_fiu(
    path: Union[str, Path], sector_addressing: bool = False
) -> List[FiuRecord]:
    """Parse per-block records from a file.

    With ``sector_addressing`` the lba field is interpreted in
    512-byte sectors (the native FIU unit) and converted to 4 KB
    blocks; records not aligned to a 4 KB boundary are rejected.
    """
    path = Path(path)
    out: List[FiuRecord] = []
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 9:
                raise TraceError(f"{path}:{lineno}: expected 9 fields, got {len(parts)}")
            ts, pid, process, lba, _blocks, op_s, _major, _minor, digest = parts
            try:
                op = OpType(op_s)
            except ValueError as exc:
                raise TraceError(f"{path}:{lineno}: bad op {op_s!r}") from exc
            address = int(lba)
            if sector_addressing:
                if address % SECTORS_PER_BLOCK:
                    raise TraceError(
                        f"{path}:{lineno}: sector address {address} not 4 KB aligned"
                    )
                address //= SECTORS_PER_BLOCK
            fingerprint = None if digest == "-" else int(digest, 16)
            if op is OpType.WRITE and fingerprint is None:
                raise TraceError(f"{path}:{lineno}: write record without a hash")
            out.append(
                FiuRecord(
                    time=float(ts),
                    pid=int(pid),
                    process=process,
                    lba=address,
                    op=op,
                    fingerprint=fingerprint,
                )
            )
    return out


def reconstruct_requests(
    records: Iterable[FiuRecord],
    time_epsilon: float = 0.0,
) -> List[TraceRecord]:
    """Merge per-block records back into multi-block requests.

    Consecutive records belong to the same request when they share the
    operation, their timestamps differ by at most ``time_epsilon``,
    and their addresses are consecutive -- the paper's "timestamp, LBA
    and length" rule.  Records must be in file order (FIU traces are
    time-ordered).
    """
    out: List[TraceRecord] = []
    run: List[FiuRecord] = []

    def flush() -> None:
        if not run:
            return
        fps: Optional[Tuple[int, ...]] = None
        if run[0].op is OpType.WRITE:
            fps = tuple(r.fingerprint for r in run)  # type: ignore[misc]
        out.append(
            TraceRecord(
                time=run[0].time,
                op=run[0].op,
                lba=run[0].lba,
                nblocks=len(run),
                fingerprints=fps,
            )
        )
        run.clear()

    for record in records:
        if run and not (
            record.op is run[0].op
            and record.lba == run[-1].lba + 1
            and record.time - run[0].time <= time_epsilon
        ):
            flush()
        run.append(record)
    flush()
    return out


def load_fiu_trace(
    path: Union[str, Path],
    name: Optional[str] = None,
    logical_blocks: Optional[int] = None,
    warmup_count: int = 0,
    sector_addressing: bool = False,
    time_epsilon: float = 0.0,
) -> Trace:
    """Read + reconstruct an FIU-style file into a replayable Trace."""
    path = Path(path)
    requests = reconstruct_requests(
        read_fiu(path, sector_addressing=sector_addressing),
        time_epsilon=time_epsilon,
    )
    if logical_blocks is None:
        logical_blocks = max((r.lba + r.nblocks for r in requests), default=1)
    return Trace(
        name=name if name is not None else path.stem,
        records=requests,
        logical_blocks=logical_blocks,
        warmup_count=warmup_count,
    )
