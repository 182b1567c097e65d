"""RAID address mapping and small-write handling.

The paper evaluates on a 4-disk software RAID-5 with a 64 KB stripe
unit (Section IV-B).  This module maps volume extents to per-disk
operations:

* **RAID-0** -- pure striping, no redundancy.
* **RAID-5** -- left-symmetric parity rotation.  Partial-stripe writes
  pay the classic read-modify-write penalty (read old data + old
  parity, write new data + new parity); writes covering a full stripe
  compute parity in memory and issue one write per member disk.

The small-write parity penalty is a first-order reason why removing
small redundant writes (what POD does) helps so much on RAID-5.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.constants import BLOCKS_PER_STRIPE_UNIT
from repro.errors import SimulationError, StorageError
from repro.obs.events import EventType, TraceLevel
from repro.obs.trace import NULL_RECORDER, TraceRecorder
from repro.sim.request import DiskOp, OpType
from repro.storage.disk import Disk
from repro.storage.volume import VolumeOp

#: Fault-injection hook: consulted per disk op on the per-op service
#: path; returns a completion time to override normal service (the hook
#: did the mechanical work itself), or ``None`` to fall through.
FaultHook = Callable[[float, DiskOp], Optional[float]]

# Enum member lookups cost ~100 ns each; the service path reads these
# once per volume op.
_READ = OpType.READ
_CHUNK = int(TraceLevel.CHUNK)


class RaidLevel(enum.Enum):
    """Supported array layouts."""

    RAID0 = 0
    RAID5 = 5
    #: A single disk, no striping -- used by unit tests and for the
    #: single-spindle sanity experiments.
    SINGLE = 1


@dataclass(frozen=True)
class RaidGeometry:
    """Static geometry of an array."""

    level: RaidLevel
    ndisks: int
    stripe_unit_blocks: int = BLOCKS_PER_STRIPE_UNIT

    def __post_init__(self) -> None:
        if self.ndisks < 1:
            raise StorageError("array needs at least one disk")
        if self.level is RaidLevel.RAID5 and self.ndisks < 3:
            raise StorageError("RAID-5 needs at least 3 disks")
        if self.level is RaidLevel.SINGLE and self.ndisks != 1:
            raise StorageError("SINGLE level means exactly one disk")
        if self.stripe_unit_blocks < 1:
            raise StorageError("stripe unit must be >= 1 block")

    @property
    def data_disks(self) -> int:
        """Number of stripe units per row that hold data."""
        if self.level is RaidLevel.RAID5:
            return self.ndisks - 1
        return self.ndisks


class RaidArray:
    """Maps volume extents to member-disk operations.

    ``volume_blocks(disk_blocks)`` tells how much user-visible volume
    space an array of disks with the given per-disk capacity exposes.
    """

    def __init__(self, geometry: RaidGeometry) -> None:
        self.geometry = geometry
        self._su = geometry.stripe_unit_blocks
        self._nd = geometry.ndisks
        self._dd = geometry.data_disks
        self._raid5 = geometry.level is RaidLevel.RAID5

    # ------------------------------------------------------------------
    # address arithmetic
    # ------------------------------------------------------------------

    def volume_capacity_blocks(self, per_disk_blocks: int) -> int:
        """User-visible capacity for the given member-disk size."""
        g = self.geometry
        rows = per_disk_blocks // g.stripe_unit_blocks
        return rows * g.data_disks * g.stripe_unit_blocks

    def parity_disk_of_row(self, row: int) -> int:
        """Member disk holding the parity unit of ``row`` (left-symmetric)."""
        g = self.geometry
        if g.level is not RaidLevel.RAID5:
            raise StorageError("parity only exists on RAID-5")
        return (g.ndisks - 1) - (row % g.ndisks)

    def locate(self, pba: int) -> Tuple[int, int, int]:
        """Map a volume block to ``(disk_id, disk_pba, row)``.

        The mapping is bijective from volume blocks to non-parity
        ``(disk, block)`` slots, which the property tests verify.
        """
        g = self.geometry
        if pba < 0:
            raise StorageError(f"negative volume PBA {pba}")
        unit, offset = divmod(pba, g.stripe_unit_blocks)
        row, lane = divmod(unit, g.data_disks)
        if g.level is RaidLevel.RAID5:
            parity = self.parity_disk_of_row(row)
            # Left-symmetric: data lanes start just after the parity
            # disk and wrap around the array.
            disk = (parity + 1 + lane) % g.ndisks
        else:
            disk = lane % g.ndisks
        disk_pba = row * g.stripe_unit_blocks + offset
        return disk, disk_pba, row

    # ------------------------------------------------------------------
    # op translation
    # ------------------------------------------------------------------

    def map_read(self, op: VolumeOp) -> List[DiskOp]:
        """Translate a volume read extent into per-disk reads.

        Contiguous fragments on the same disk row merge into a single
        disk op.
        """
        if op.op is not OpType.READ:
            raise StorageError("map_read called with a write op")
        return self._split(op.pba, op.nblocks, OpType.READ)

    def map_write(self, op: VolumeOp) -> List[DiskOp]:
        """Translate a volume write extent, including parity traffic.

        For RAID-5, rows fully covered by the write become full-stripe
        writes (data writes plus one parity write, no reads).  Rows
        partially covered pay read-modify-write: for each touched
        fragment, read old data and old parity, then write new data
        and new parity.
        """
        if op.op is not OpType.WRITE:
            raise StorageError("map_write called with a read op")
        g = self.geometry
        data_ops = self._split(op.pba, op.nblocks, OpType.WRITE)
        if g.level is not RaidLevel.RAID5:
            return data_ops

        row_blocks = g.data_disks * g.stripe_unit_blocks
        ops: List[DiskOp] = []
        # Group the write by parity row.
        by_row: Dict[int, List[Tuple[int, int]]] = {}
        pba, remaining = op.pba, op.nblocks
        while remaining > 0:
            row = pba // row_blocks
            row_end = (row + 1) * row_blocks
            take = min(remaining, row_end - pba)
            by_row.setdefault(row, []).append((pba, take))
            pba += take
            remaining -= take

        for row, frags in sorted(by_row.items()):
            covered = sum(n for _, n in frags)
            parity = self.parity_disk_of_row(row)
            row_base_disk_pba = row * g.stripe_unit_blocks
            if covered == row_blocks:
                # Full-stripe write: parity computed in memory.
                for start, n in frags:
                    ops.extend(self._split(start, n, OpType.WRITE))
                ops.append(
                    DiskOp(parity, OpType.WRITE, row_base_disk_pba, g.stripe_unit_blocks)
                )
                continue
            # Read-modify-write: per fragment, read+write the data and
            # the corresponding parity byte range.
            parity_ranges: List[Tuple[int, int]] = []
            for start, n in frags:
                for dop in self._split(start, n, OpType.WRITE):
                    ops.append(DiskOp(dop.disk_id, OpType.READ, dop.pba, dop.nblocks))
                    ops.append(dop)
                    parity_ranges.append((dop.pba, dop.nblocks))
            for p_start, p_len in _merge_ranges(parity_ranges):
                ops.append(DiskOp(parity, OpType.READ, p_start, p_len))
                ops.append(DiskOp(parity, OpType.WRITE, p_start, p_len))
        return ops

    def map(self, op: VolumeOp) -> List[DiskOp]:
        """Translate any volume op."""
        if op.op is OpType.READ:
            return self.map_read(op)
        return self.map_write(op)

    # ------------------------------------------------------------------
    # service
    # ------------------------------------------------------------------

    def service(
        self,
        disks: Sequence[Disk],
        now: float,
        vop: VolumeOp,
        failed_disk: Optional[int] = None,
    ) -> float:
        """Service one volume op on the member ``disks``, FCFS, issued
        at ``now``; return the completion time of its last disk op.

        Makes exactly the :meth:`Disk.service` calls of servicing
        :meth:`map` (:meth:`map_degraded` with a failed member) op by
        op, so every disk counter and completion time is bit-identical
        to that reference.  Extents of one stripe-unit fragment, and of
        two fragments in one row or across a row wrap, are serviced
        without building ``DiskOp`` lists; each RAID-5 read-modify-write
        pair goes through :meth:`Disk.service_rmw`.
        """
        if failed_disk is not None:
            return service_disk_ops(disks, now, self.map_degraded(vop, failed_disk))
        pba = vop.pba
        n = vop.nblocks
        nd = self._nd
        if nd == 1:
            # Every fragment lands on the one disk at its volume address,
            # and ``_split`` merges them back into one op.
            return disks[0].service(now, pba, n)
        su = self._su
        dd = self._dd
        unit, offset = divmod(pba, su)
        if offset + n > su + su:
            return service_disk_ops(disks, now, self.map(vop))
        row, lane = divmod(unit, dd)
        dpba = row * su + offset
        if self._raid5:
            parity = nd - 1 - row % nd
            disk = disks[(parity + 1 + lane) % nd]
        else:
            disk = disks[lane % nd]
        read = vop.op is _READ
        if offset + n <= su:
            # One fragment.  A RAID-5 write of it is a partial stripe
            # (data_disks >= 2): data read+rewrite, then parity.
            if read or not self._raid5:
                return disk.service(now, dpba, n)
            done = disk.service_rmw(now, dpba, n)
            parity_done = disks[parity].service_rmw(now, dpba, n)
            return parity_done if parity_done > done else done
        # Two fragments: the rest of this unit, then the head of the next
        # unit -- the next lane of this row, or lane 0 of the next row.
        n1 = su - offset
        n2 = n - n1
        row2, lane2 = divmod(unit + 1, dd)
        dpba2 = row2 * su
        if self._raid5:
            parity2 = nd - 1 - row2 % nd
            disk2 = disks[(parity2 + 1 + lane2) % nd]
        else:
            disk2 = disks[lane2 % nd]
        if read or not self._raid5:
            done = disk.service(now, dpba, n1)
            done2 = disk2.service(now, dpba2, n2)
            return done2 if done2 > done else done
        if row2 != row:
            # Two partial rows, in row order: data then parity per row.
            done = disk.service_rmw(now, dpba, n1)
            t = disks[parity].service_rmw(now, dpba, n1)
            if t > done:
                done = t
            t = disk2.service_rmw(now, dpba2, n2)
            if t > done:
                done = t
            t = disks[parity2].service_rmw(now, dpba2, n2)
            return t if t > done else done
        if n == dd * su:
            # Both fragments make up the whole row (two data disks):
            # a full-stripe write.
            return service_disk_ops(disks, now, self.map(vop))
        # One partial row: both data fragments, then the parity ranges
        # [dpba2, +n2) and [dpba, +n1), merged into the whole unit when
        # they touch (fragment one always ends at the unit boundary).
        done = disk.service_rmw(now, dpba, n1)
        t = disk2.service_rmw(now, dpba2, n2)
        if t > done:
            done = t
        parity_disk = disks[parity]
        if offset <= n2:
            t = parity_disk.service_rmw(now, dpba2, su)
        else:
            t = parity_disk.service_rmw(now, dpba2, n2)
            if t > done:
                done = t
            t = parity_disk.service_rmw(now, dpba, n1)
        return t if t > done else done

    # ------------------------------------------------------------------
    # degraded mode (one failed member)
    # ------------------------------------------------------------------

    def map_read_degraded(self, op: VolumeOp, failed_disk: int) -> List[DiskOp]:
        """Translate a read with one member disk failed.

        Fragments on surviving disks read normally; every fragment
        that would land on the failed disk is *reconstructed*: the
        same block range is read from every other member of its row
        (data peers + parity) and XOR-ed -- the classic RAID-5
        degraded read, which multiplies the read traffic of affected
        rows by ``ndisks - 1``.
        """
        g = self.geometry
        if g.level is not RaidLevel.RAID5:
            raise StorageError("degraded reads only exist on RAID-5")
        if not (0 <= failed_disk < g.ndisks):
            raise StorageError(f"no member disk {failed_disk}")
        ops: List[DiskOp] = []
        for fragment in self._split(op.pba, op.nblocks, OpType.READ):
            if fragment.disk_id != failed_disk:
                ops.append(fragment)
                continue
            for disk in range(g.ndisks):
                if disk != failed_disk:
                    ops.append(
                        DiskOp(disk, OpType.READ, fragment.pba, fragment.nblocks)
                    )
        return ops

    def map_degraded(self, op: VolumeOp, failed_disk: int) -> List[DiskOp]:
        """Translate any op with one failed member.

        Degraded writes: fragments for surviving disks proceed as
        read-modify-write where possible; a fragment addressed to the
        failed disk updates *parity only*, computed by
        reconstruct-write (read the surviving data blocks of the row,
        write the new parity).  Parity fragments on the failed disk
        are simply dropped.
        """
        if op.op is OpType.READ:
            return self.map_read_degraded(op, failed_disk)
        g = self.geometry
        if g.level is not RaidLevel.RAID5:
            raise StorageError("degraded writes only exist on RAID-5")
        if not (0 <= failed_disk < g.ndisks):
            raise StorageError(f"no member disk {failed_disk}")
        ops: List[DiskOp] = []
        for full_op in self.map_write(op):
            if full_op.disk_id != failed_disk:
                ops.append(full_op)
                continue
            if full_op.op is OpType.READ:
                # Old value needed for RMW but the disk is gone:
                # reconstruct it from the row's survivors.
                for disk in range(g.ndisks):
                    if disk != failed_disk:
                        ops.append(
                            DiskOp(disk, OpType.READ, full_op.pba, full_op.nblocks)
                        )
            # Writes to the failed disk are dropped: the data lives
            # implicitly in the (updated) parity until rebuild.
        return ops

    # ------------------------------------------------------------------

    def _split(self, pba: int, nblocks: int, op: OpType) -> List[DiskOp]:
        """Split a volume extent at stripe-unit boundaries and merge
        contiguous same-disk fragments."""
        g = self.geometry
        raw: List[DiskOp] = []
        remaining = nblocks
        cur = pba
        while remaining > 0:
            disk, disk_pba, _row = self.locate(cur)
            unit_end = (cur // g.stripe_unit_blocks + 1) * g.stripe_unit_blocks
            take = min(remaining, unit_end - cur)
            raw.append(DiskOp(disk, op, disk_pba, take))
            cur += take
            remaining -= take
        # Merge fragments contiguous on the same disk (happens when a
        # large extent wraps around a row back to the same disk).
        merged: List[DiskOp] = []
        for dop in raw:
            if (
                merged
                and merged[-1].disk_id == dop.disk_id
                and merged[-1].pba + merged[-1].nblocks == dop.pba
            ):
                prev = merged.pop()
                merged.append(DiskOp(prev.disk_id, op, prev.pba, prev.nblocks + dop.nblocks))
            else:
                merged.append(dop)
        return merged


def _merge_ranges(ranges: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Merge overlapping/adjacent ``(start, length)`` ranges."""
    if not ranges:
        return []
    ordered = sorted(ranges)
    out: List[Tuple[int, int]] = [ordered[0]]
    for start, length in ordered[1:]:
        last_start, last_len = out[-1]
        if start <= last_start + last_len:
            end = max(last_start + last_len, start + length)
            out[-1] = (last_start, end - last_start)
        else:
            out.append((start, length))
    return out


def service_disk_ops(
    disks: Sequence[Disk],
    now: float,
    ops: Sequence[DiskOp],
    obs: TraceRecorder = NULL_RECORDER,
    fault_hook: Optional[FaultHook] = None,
) -> float:
    """Issue raw per-disk ops FCFS at ``now``; return the last
    completion time (``now`` for no ops).

    The per-op path: ``fault_hook`` sees every op first, and a
    recorder at CHUNK level gets one ``disk.op`` event per op serviced.
    """
    completion = now
    trace_ops = obs.level >= _CHUNK
    for op in ops:
        if not (0 <= op.disk_id < len(disks)):
            raise SimulationError(f"op addressed to unknown disk {op.disk_id}")
        if fault_hook is not None:
            hooked = fault_hook(now, op)
            if hooked is not None:
                if hooked > completion:
                    completion = hooked
                continue
        disk = disks[op.disk_id]
        busy_before = disk.busy_until
        done = disk.service(now, op.pba, op.nblocks)
        if trace_ops:
            obs.emit(
                TraceLevel.CHUNK,
                now,
                EventType.DISK_OP,
                disk=disk.disk_id,
                op=op.op.value,
                pba=op.pba,
                nblocks=op.nblocks,
                start=max(now, busy_before),
                done=done,
            )
        if done > completion:
            completion = done
    return completion


def service_volume_ops(
    raid: RaidArray,
    disks: Sequence[Disk],
    now: float,
    ops: Sequence[VolumeOp],
    failed_disk: Optional[int] = None,
    obs: TraceRecorder = NULL_RECORDER,
    fault_hook: Optional[FaultHook] = None,
) -> float:
    """Translate volume extents through ``raid`` and service them on
    ``disks`` FCFS at ``now``; return the last completion time.

    Runs :meth:`RaidArray.service` unless a fault hook or a CHUNK-level
    recorder needs to see each disk op; then it maps every extent and
    takes the per-op :func:`service_disk_ops` path (same results).
    """
    completion = now
    if fault_hook is None and obs.level < _CHUNK:
        service = raid.service
        for vop in ops:
            done = service(disks, now, vop, failed_disk)
            if done > completion:
                completion = done
        return completion
    for vop in ops:
        disk_ops = (
            raid.map(vop) if failed_disk is None else raid.map_degraded(vop, failed_disk)
        )
        done = service_disk_ops(disks, now, disk_ops, obs, fault_hook)
        if done > completion:
            completion = done
    return completion
